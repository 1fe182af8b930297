"""Check that two source trees give the same CLI outputs and demo stdout.

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Every
CLI task (``fileio.TASKS`` of this checkout) runs on every scenario in this
checkout's ``fixtures/scenarios`` and ``tests/scenarios``, once with each
tree first on PYTHONPATH, and each tree runs the scripts of its own
``demos`` (``SRC/../demos``), so a demo may call the API of its own tree; a
demo that only one tree has reads as exit code ``missing`` in the other.
Each run gets a fresh working directory; two runs go at a time.  The exit
code, stdout and the bytes of every file the run writes are compared;
stderr is not.  Each difference is printed, a ``.json`` or
``.csv`` file field by field or cell by cell with both values.  Then each
JSON field (dotted key) or CSV column that differs gets one summary line:
the number of files where it differs and its largest absolute change.  The
exit status is 1 if there is any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIRS = (ROOT / "fixtures" / "scenarios", ROOT / "tests" / "scenarios")
sys.path.insert(0, str(ROOT / "src"))
from toricdensity.fileio import TASKS  # noqa: E402  (this checkout's task list)


def jobs(src: Path):
    """(name, argv) of every run on the tree at src: each task on each
    scenario, then each demo of the tree."""
    out = []
    for scenario in [path for d in SCENARIO_DIRS for path in sorted(d.glob("*.json"))]:
        for task in TASKS:
            out.append((f"{scenario.parent.parent.name}/{scenario.stem}/{task}",
                        ["-m", "toricdensity.cli", task, "--scenario", str(scenario),
                         "--out", "out"]))
    for demo in sorted((src.parent / "demos").glob("*.py")):
        out.append((f"demos/{demo.name}", [str(demo)]))
    return out


# the result of a demo that the tree does not have
MISSING = {"exit": "missing", "stdout": "", "files": {}}


def run(src: Path, workdir: Path, argv) -> dict:
    """Exit code, stdout and {relative path: bytes} of the files written."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                          capture_output=True, text=True)
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return {"exit": proc.returncode, "stdout": proc.stdout, "files": files}


def package_file(src: Path) -> Path:
    code = "import toricdensity; print(toricdensity.__file__)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    return Path(out.strip()).resolve()


def json_leaves(value, key: str = "") -> dict:
    """{dotted key: JSON text} of every scalar in a parsed JSON value."""
    if not isinstance(value, (dict, list)):
        return {key: json.dumps(value)}
    out = {}
    for k, v in value.items() if isinstance(value, dict) else enumerate(value):
        out.update(json_leaves(v, f"{key}.{k}" if key else str(k)))
    return out


def fields(path: str, data: bytes) -> dict:
    """{(row, field): value} of a JSON file, with row "", or {(row, column
    header): cell} of a CSV file; empty for any other file or one that does
    not parse."""
    try:
        if path.endswith(".json"):
            return {("", key): v for key, v in json_leaves(json.loads(data.decode())).items()}
        if path.endswith(".csv"):
            header, *rows = csv.reader(data.decode().splitlines())
            return {(f"row {i}", col): cell for i, row in enumerate(rows, 1)
                    for col, cell in zip(header, row)}
    except ValueError:
        pass
    return {}


class Difference(NamedTuple):
    """One difference; a changed field or cell also carries its file, its
    field (JSON key or CSV column) and both values."""

    text: str
    file: str | None = None
    field: str | None = None
    old: str | None = None
    new: str | None = None


def field_differences(path: str, a: bytes, b: bytes) -> list[Difference]:
    """Each field or cell that differs, with both values, in file order."""
    fa, fb = fields(path, a), fields(path, b)
    keys = list(fa) + [k for k in fb if k not in fa]
    return [Difference(f"{path} {' '.join(filter(None, key))}: "
                       f"{fa.get(key, '(missing)')} -> {fb.get(key, '(missing)')}",
                       path, key[1], fa.get(key), fb.get(key))
            for key in keys if fa.get(key) != fb.get(key)]


def differences(name: str, old: dict, new: dict) -> list[Difference]:
    diffs = []
    if old["exit"] != new["exit"]:
        diffs.append(Difference(f"exit code {old['exit']} -> {new['exit']}"))
    if old["stdout"] != new["stdout"]:
        diffs.append(Difference("stdout differs"))
    for path in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(path), new["files"].get(path)
        if a == b:
            continue
        fine = [] if a is None or b is None else field_differences(path, a, b)
        what = "missing in new" if b is None else "missing in old" if a is None \
            else "content differs"
        diffs += fine or [Difference(f"{path} {what}")]
    return [d._replace(text=f"{name}: {d.text}", file=d.file and f"{name}: {d.file}")
            for d in diffs]


def field_summary(diffs: list[Difference]) -> list[str]:
    """One line per JSON field or CSV column that differs: in how many files,
    and its largest absolute change (nan when a value is missing or is not
    a number)."""
    files: dict[str, set] = {}
    largest: dict[str, float] = {}
    for d in diffs:
        if d.field is None:
            continue
        files.setdefault(d.field, set()).add(d.file)
        try:
            change = abs(float(d.new) - float(d.old))
        except (TypeError, ValueError):
            change = math.nan
        largest[d.field] = max(largest.get(d.field, 0.0), change,
                               key=lambda v: math.inf if math.isnan(v) else v)
    return [f"{field}: differs in {len(files[field])} file(s), "
            f"largest absolute change {largest[field]:.3g}" for field in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for label, src in trees.items():
        if not package_file(src).is_relative_to(src):
            print(f"{label}: toricdensity is not imported from {src}", file=sys.stderr)
            return 2
    todo = {label: dict(jobs(src)) for label, src in trees.items()}
    names = list(todo["old"]) + [name for name in todo["new"] if name not in todo["old"]]
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        futures = {
            (label, name): pool.submit(run, src, Path(tmp) / label / name, argv_)
            for label, src in trees.items() for name, argv_ in todo[label].items()}
        results = {key: future.result() for key, future in futures.items()}
    diffs = [d for name in names
             for d in differences(name, results.get(("old", name), MISSING),
                                  results.get(("new", name), MISSING))]
    for d in diffs:
        print(d.text)
    for line in field_summary(diffs):
        print(line)
    cli_runs = sum(name.split("/")[0] != "demos" for name in names)
    print(f"{cli_runs} CLI runs and {len(names) - cli_runs} demos: "
          f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
