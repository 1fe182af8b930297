"""The gap comparison tool's report, on synthetic per-seed gaps."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "compare_gaps", Path(__file__).resolve().parent.parent / "tools" / "compare_gaps.py")
compare_gaps = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_gaps)


def test_worse_seeds_are_named():
    old = {"w": {"1": {"a": 1e-14, "b": 2e-14}, "2": {"a": 1e-14}, "3": {"a": 1e-14}}}
    new = {"w": {"1": {"a": 1e-14, "b": 2.39e-14}, "2": {"a": 1.3e-14}, "3": {"a": 5e-15}}}
    lines, bad = compare_gaps.report(old, new)
    assert bad
    assert lines[-1] == "  worse by > 20%: 2"
    assert lines[2].split() == ["1", "2e-14", "2.39e-14", "1.195"]


def test_gaps_below_the_floor_tie():
    # 0 and 1e-17 both read as the unit roundoff, as bench/run.py reports them
    old = {"w": {"1": {"a": 0.0}}}
    new = {"w": {"1": {"a": 1e-17}}}
    lines, bad = compare_gaps.report(old, new)
    assert not bad
    assert lines[-1] == "  worse by > 20%: none"


def test_failure_on_one_side_only_is_bad():
    old = {"w": {"1": {"a": 1e-14}}}
    new = {"w": {"1": {"a": "Mismatch: norm"}}}
    lines, bad = compare_gaps.report(old, new)
    assert bad
    assert lines[-1] == "  failed: seed 1 a: Mismatch: norm"
    both = {"w": {"1": {"a": "QuadratureError: x"}}}
    assert not compare_gaps.report(both, both)[1]
