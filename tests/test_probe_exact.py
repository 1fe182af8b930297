"""The exact-layer probe's medians and report, on synthetic timings."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "probe_exact", Path(__file__).resolve().parent.parent / "tools" / "probe_exact.py")
probe_exact = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(probe_exact)


def test_medians_are_per_input_and_layer_over_rounds():
    rounds = [{"p": {"vertices": 3.0, "measures": 1.0}},
              {"p": {"vertices": 1.0, "measures": 2.0}},
              {"p": {"vertices": 2.0, "measures": 9.0}}]
    assert probe_exact.medians(rounds) == {"p": {"vertices": 2.0, "measures": 2.0}}


def test_report_gives_ratios_and_per_layer_totals():
    old = {"p": {"vertices": 0.002, "measures": 0.004}, "q": {"vertices": 0.002}}
    new = {"p": {"vertices": 0.001, "measures": 0.001}, "q": {"vertices": 0.003}}
    lines = probe_exact.report(old, new)
    assert lines[1].split() == ["p", "vertices", "2.000", "1.000", "0.500"]
    assert lines[3].split() == ["q", "vertices", "2.000", "3.000", "1.500"]
    assert lines[4].split() == ["all", "vertices", "4.000", "4.000", "1.000"]
    assert lines[5].split() == ["all", "measures", "4.000", "1.000", "0.250"]
