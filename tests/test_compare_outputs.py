"""The output comparison tool's per-field summary, on synthetic runs."""

import importlib.util
import math
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_outputs)


def run(files, exit_code=0, stdout=""):
    return {"exit": exit_code, "stdout": stdout,
            "files": {path: text.encode() for path, text in files.items()}}


def test_summary_counts_files_and_largest_change():
    old = run({"a.json": '{"x": 1.0, "y": {"z": "s"}, "k": 3}',
               "t.csv": "k,v\n1,0.5\n2,0.25\n"})
    new = run({"a.json": '{"x": 1.5, "y": {"z": "u"}, "k": 3}',
               "t.csv": "k,v\n1,0.75\n2,-0.25\n"})
    diffs = compare_outputs.differences("s1/report", old, new)
    diffs += compare_outputs.differences(
        "s2/report", run({"a.json": '{"x": 2.0}'}), run({"a.json": '{"x": 4.0}'}))
    assert [d.text for d in diffs] == [
        "s1/report: a.json x: 1.0 -> 1.5",
        's1/report: a.json y.z: "s" -> "u"',
        "s1/report: t.csv row 1 v: 0.5 -> 0.75",
        "s1/report: t.csv row 2 v: 0.25 -> -0.25",
        "s2/report: a.json x: 2.0 -> 4.0"]
    summary = compare_outputs.field_summary(diffs)
    assert summary[0] == "x: differs in 2 file(s), largest absolute change 2"
    assert summary[1] == "y.z: differs in 1 file(s), largest absolute change nan"
    assert summary[2] == "v: differs in 1 file(s), largest absolute change 0.5"


def test_exit_code_and_missing_field_are_not_numbers():
    diffs = compare_outputs.differences(
        "s/slope", run({"a.json": '{"x": 1}'}, exit_code=0),
        run({"a.json": '{"w": 1}'}, exit_code=3))
    assert diffs[0].text == "s/slope: exit code 0 -> 3"
    assert diffs[0].field is None
    summary = compare_outputs.field_summary(diffs)
    assert summary == ["x: differs in 1 file(s), largest absolute change nan",
                       "w: differs in 1 file(s), largest absolute change nan"]
    assert math.isnan(float(summary[0].rsplit(" ", 1)[1]))


def test_identical_runs_have_no_summary():
    same = run({"a.json": '{"x": 1.0}'}, stdout="ok")
    assert compare_outputs.differences("s/report", same, same) == []
    assert compare_outputs.field_summary([]) == []


@pytest.mark.parametrize("path", ["out/stability.txt", "bad.json"])
def test_unparsed_file_has_no_fields(path):
    diffs = compare_outputs.differences("s/report", run({path: "{1"}), run({path: "{2"}))
    assert [d.text for d in diffs] == [f"s/report: {path} content differs"]
    assert compare_outputs.field_summary(diffs) == []


def test_jobs_run_the_demos_of_the_given_tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "demos").mkdir()
    demo = tmp_path / "demos" / "only_here.py"
    demo.write_text("print(1)\n")
    todo = compare_outputs.jobs(tmp_path / "src")
    assert [job for job in todo if job[0].startswith("demos/")] == [
        ("demos/only_here.py", [str(demo)])]
    # the scenarios stay this checkout's
    assert todo[0][1][:3] == ["-m", "toricdensity.cli", "check-delzant"]
    assert Path(todo[0][1][4]).parent == compare_outputs.ROOT / "fixtures" / "scenarios"


def test_demo_of_one_tree_reads_missing_in_the_other():
    diffs = compare_outputs.differences("demos/06.py", run({}, stdout="x"),
                                        compare_outputs.MISSING)
    assert [d.text for d in diffs] == ["demos/06.py: exit code 0 -> missing",
                                       "demos/06.py: stdout differs"]
