"""The tracer (rebinding, self-time arithmetic, per-layer metrics, outputs
unchanged by tracing) and the harness around it (caps, per-item minima,
refusing a directory without the package)."""

import inspect
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracer as tracing
import workloads
from tracer import Span

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

PACKAGE_MODULES = ("toricdensity",) + tuple(f"toricdensity.{m}" for m in (
    "polytope", "potential", "fields", "density", "asymptotics", "stability",
    "fileio", "cli"))


def _modules():
    import importlib
    return [importlib.import_module(name) for name in PACKAGE_MODULES]


def test_every_module_binding_is_rebound():
    mods = _modules()
    before = {(m.__name__, a): v for m in mods for a, v in vars(m).items()}
    tr = tracing.Tracer()
    tr.install()
    try:
        density = sys.modules["toricdensity.density"]
        asymptotics = sys.modules["toricdensity.asymptotics"]
        stability = sys.modules["toricdensity.stability"]
        wrapped = density.integrate_simplices
        assert wrapped.__wrapped__ is before[("toricdensity.density", "integrate_simplices")]
        assert asymptotics.integrate_simplices is wrapped
        assert stability.integrate_simplices is wrapped
        cli = sys.modules["toricdensity.cli"]
        assert cli.SectionBasis.build.__func__.__wrapped__ is not None
        # every name bound to a wrapped original, in any package module, now
        # holds the wrapper
        originals = {id(f.__wrapped__): f for m in mods for f in vars(m).values()
                     if inspect.isfunction(f) and hasattr(f, "__wrapped__")}
        for (modname, attr), val in before.items():
            if id(val) in originals:
                assert getattr(sys.modules[modname], attr) is originals[id(val)], (modname, attr)
        assert originals, "nothing was wrapped"
    finally:
        tr.uninstall()
    after = {(m.__name__, a): v for m in mods for a, v in vars(m).items()}
    assert after == before
    polytope = sys.modules["toricdensity.polytope"]
    assert not hasattr(polytope.Polytope.__init__, "__wrapped__")


def test_self_time_on_a_synthetic_tree():
    spans = [Span(1, "a", 0.0, 10.0, None, 0),
             Span(2, "b", 1.0, 4.0, 1, 0),
             Span(3, "c", 2.0, 3.0, 2, 0),
             Span(4, "d", 3.5, 6.0, 1, 0),    # overlaps b: covered once
             Span(5, "e", 9.0, 12.0, 1, 0)]   # runs past its parent: clipped
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.5)
    assert own[5] == pytest.approx(3.0)


def test_layer_metrics_on_a_synthetic_pass():
    quad = {"levels": [10, 40], "peak_bytes": 40 * 3 * 8}
    failed = {"levels": [10, 40, 160], "peak_bytes": 160 * 3 * 8,
              "error": "QuadratureError"}
    spans = [
        Span(1, "polytope.MovingFamily.slice", 0.0, 2.0, None, 0, {"key": ("f", 1)}),
        Span(2, "polytope.Polytope.__init__", 0.5, 1.5, 1, 0),
        Span(3, "polytope.MovingFamily.slice", 2.0, 3.0, None, 0, {"key": ("f", 1)}),
        Span(4, "density.SectionBasis.build", 3.0, 7.0, None, 0, {"norms": 8}),
        Span(5, "density.integrate_simplices", 3.0, 5.0, 4, 0, quad),
        Span(6, "density.integrate_simplices", 5.0, 7.0, 4, 0, failed),
        Span(7, "potential.SymplecticPotential.phi_many", 3.5, 4.0, 5, 0, {"nodes": 50}),
    ]
    m = tracing.layer_metrics(spans, 0.25)
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER}
    assert m["polytope.slice_s"] == pytest.approx(2.0)
    assert m["polytope.slice_calls"] == 2
    assert m["polytope.slice_dup_ratio"] == 0.5
    assert m["polytope.vertices_s"] == pytest.approx(1.0)
    assert m["density.integrate_s"] == pytest.approx(3.5)
    assert m["density.integrate_calls"] == 2
    assert m["density.nodes"] == 260
    assert m["density.useful_node_ratio"] == pytest.approx(40 / 260)
    assert m["density.max_depth"] == 2
    assert m["density.peak_node_bytes"] == 160 * 3 * 8
    assert m["density.quadrature_errors"] == 1
    assert m["density.basis_s"] == pytest.approx(4.0)
    assert m["density.norms_per_s"] == pytest.approx(2.0)
    assert m["potential.phi_nodes"] == 50
    assert m["trace.overhead_frac"] == 0.25


def test_quadrature_counters_see_every_level():
    import numpy as np
    import toricdensity as td

    tr = tracing.Tracer()
    tr.install()
    try:
        value, _ = td.integrate(td.box([1, 1]), lambda p: np.exp(p[:, 0] * p[:, 1]))
    finally:
        tr.uninstall()
    (quad,) = [s for s in tr.spans if s.name == "density.integrate_simplices"]
    refines = [s for s in tr.spans if s.name == "density.refine_simplices"]
    assert len(quad.info["levels"]) == len(refines) + 1
    assert all(n > 0 for n in quad.info["levels"])
    assert value == pytest.approx(1.3179021514544038, rel=1e-8)


def test_traced_outputs_equal_untraced(tmp_path):
    built = [workloads.build(name, 5, ROOT, tmp_path) for name in workloads.WORKLOADS]
    items = [wl.warmup for wl in built] + [
        next(i for i in built[2].items if i.name == "euler_maclaurin")]
    plain = [item.run() for item in items]
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = [item.run() for item in items]
    finally:
        tr.uninstall()
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    assert {tracing.group_of(s.name) for s in tr.spans} >= {
        "polytope.lattice", "density.basis", "fileio.dump", "asymptotics.a_hat"}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fixtures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no package source" in proc.stderr


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert len(names) >= 2 and set(names) <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]
    import run
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_value_key_equal_by_value():
    import toricdensity as td

    fam = workloads.make_family(td, "box_corner", 2)
    again = workloads.make_family(td, "box_corner", 2)
    assert fam is not again
    assert tracing.value_key((fam, 1)) == tracing.value_key((again, 1))
    assert tracing.value_key(types.SimpleNamespace()) != tracing.value_key(
        types.SimpleNamespace())


def test_item_caps():
    import signal
    import time

    import child

    def slow():
        time.sleep(5)
        return [], []

    def wrong():
        workloads.check(False, "off by one")

    previous = signal.signal(signal.SIGALRM, child._alarm)
    try:
        assert child.run_item(workloads.Item("slow", slow), 0.05)[0] == "timeout"
        assert child.run_item(workloads.Item("wrong", wrong), 5)[:4] == (
            "mismatch", None, [], "off by one")
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_scaled_pass_time():
    import child

    ref = child.CALIBRATION_REF_S
    # the machine ran at half the reference speed: calibration took 2 * ref
    passes = [{"results": {"a": ("ok", 1, [], "", 2.0, 1.0), "b": ("ok", 1, [], "", 4.0, 4.0)},
               "calibration": [(2 * ref, 4 * ref), (2 * ref, 4 * ref)]},
              {"results": {"a": ("ok", 1, [], "", 6.0, 3.0), "b": ("ok", 1, [], "", 2.0, 2.0)},
               "calibration": [(2 * ref, 4 * ref), (9 * ref, 4 * ref)]},
              {"results": {"a": ("ok", 1, [], "", 4.0, 2.0), "b": ("ok", 1, [], "", 3.0, 3.0)},
               "calibration": [(2 * ref, 4 * ref)]}]
    for p in passes:
        p["threads"] = 1
    scaled, raw, speed = child.scaled(passes, 4)
    assert raw == 4.0 + 3.0            # per-item medians over the passes
    assert speed == 0.5                # reference / median calibration time
    assert scaled == raw * speed
    assert child.scaled(passes, 5) == (5.0 * 0.25, 5.0, 0.25)
    # a two-thread calibration runs the kernel twice, so its reference is doubled
    for p in passes:
        p["threads"] = 2
    assert child.scaled(passes, 4) == (7.0, 7.0, 1.0)


def test_calibration_ignores_live_objects():
    import gc

    import child

    assert gc.isenabled()
    for threads in (1, 2):
        wall, cpu = child.calibration(threads)
        assert 0 < wall < 5 and 0 < cpu < 5
        assert gc.isenabled()
