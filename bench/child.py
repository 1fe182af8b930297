"""One workload in one process: set up, then run timed passes.

Started by run.py with the caps and thread settings already applied; not
meant to be run by hand.  Prints one JSON object on its last stdout line.

Modes:
  setup    import the package, generate the inputs, run the warm-up item,
           report the time that took and exit
  measure  set up, then run passes over the work list for --seconds
  trace    set up, run untraced passes for half of --seconds and traced
           passes for the other half; report the per-layer metrics of the
           fastest traced pass, the tracing overhead and whether the traced
           outputs equal the untraced ones
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s starts before the package is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

# Median time of ``calibration()`` on the VM the benchmark was written on
# (see README.md).  Scaled times are in seconds at that machine speed.
CALIBRATION_REF_S = 0.012
CALIBRATION_SHARE = 0.15  # of each item's wall time, spent on calibration
SETUP_CALIBRATIONS = 15   # calibration runs timed after each set-up


class ItemTimeout(Exception):
    """An item ran past its time cap."""


def _alarm(signum, frame):
    raise ItemTimeout("item exceeded its time cap")


def run_item(item, cap_s: float):
    """(status, outputs, gaps, message, wall_s, cpu_s) of one item under a wall-time cap."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        outputs, gaps = item.run()
        status, message = "ok", ""
    except workloads.Mismatch as exc:
        status, message = "mismatch", str(exc)
    except MemoryError:
        status, message = "oom", "MemoryError under the address-space cap"
    except ItemTimeout as exc:
        status, message = "timeout", str(exc)
    except Exception as exc:  # an item that raises counts as failed; keep going
        status, message = "error", "".join(traceback.format_exception_only(exc)).strip()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if status != "ok":
        outputs, gaps = None, []
    return (status, outputs, gaps, message,
            time.perf_counter() - wall0, time.process_time() - cpu0)


def _kernel(arrays):
    acc = 0
    for i in range(1, 400):
        acc += (Fraction(i % 7 + 1, i % 11 + 2) + Fraction(1, i % 5 + 1)).numerator
    harmonic = Fraction(0)
    for i in range(1, 500):
        harmonic += Fraction(1, i)
    for i in range(25000):
        acc += i * i % 7
    sorted((i * 7919 % 10007, i) for i in range(6000))
    for values, reps in zip(arrays, (40, 600)):
        for _ in range(reps):
            (np.exp(np.log(values) * 1.5) * values).sum()


def calibration(threads: int = 1) -> tuple:
    """(wall_s, cpu_s) of a fixed kernel that uses no package code, run once
    on each of ``threads`` threads at the same time.

    The kernel mixes what the workloads spend their time on: bytecode loops,
    small exact Fractions and Fractions with growing big-integer parts,
    building and sorting lists of tuples, numpy passes over a 20000-element
    array and many numpy calls on 64-element ones.  Timed next to the items,
    on as many threads as they compute on, it measures how fast the machine
    runs for them at that moment.
    """
    global _CAL_ARRAYS
    if _CAL_ARRAYS is None:
        rng = np.random.default_rng(0)
        _CAL_ARRAYS = rng.random(20000) + 0.5, rng.random(64) + 0.5
    # with the collector off, the kernel's time does not depend on how many
    # objects the workload keeps alive
    collecting = gc.isenabled()
    gc.disable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if threads == 1:
        _kernel(_CAL_ARRAYS)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for run in [pool.submit(_kernel, _CAL_ARRAYS) for _ in range(threads)]:
                run.result()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if collecting:
        gc.enable()
    return wall, cpu


_CAL_ARRAYS = None


def calibrate(reps: int) -> tuple:
    """Median (wall_s, cpu_s) of ``reps`` calibration runs after one untimed run."""
    calibration()
    runs = [calibration() for _ in range(reps)]
    return (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs))


def run_passes(wl, seconds: float, cap_s: float, tracer=None):
    """Passes over the whole item list for ``seconds`` (at least one pass).

    A pass starts only if one more pass as long as the last ends in time.
    The calibration kernel runs after every item, on the workload's thread
    count, as many times as it takes to fill CALIBRATION_SHARE of the item's
    wall time (at least once); its times are kept in the pass under
    ``"calibration"`` with that thread count (see ``scaled``).
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + passes[-1]["wall"] <= deadline:
        if tracer is not None:
            tracer.run = len(passes)
        wall0 = time.perf_counter()
        results, cal = {}, []
        for item in wl.items:
            results[item.name] = result = run_item(item, cap_s)
            spent = 0.0
            while not spent or spent < CALIBRATION_SHARE * result[4]:
                cal.append(calibration(wl.threads))
                spent += cal[-1][0]
        passes.append({"wall": time.perf_counter() - wall0, "results": results,
                       "calibration": cal, "threads": wl.threads})
    return passes


def scaled(passes, field: int) -> tuple:
    """(scaled, raw, speed) time of one pass over the item list.

    raw is the sum over items of the item's median time over the passes
    (``field`` 4 is wall, 5 is CPU time).  speed is CALIBRATION_REF_S times
    the calibration's thread count over the median calibration time of the
    same passes, and scaled = raw * speed: the pass time at the machine
    speed the reference was taken at.
    The machine's speed drifts by tens of percent over minutes (README.md);
    the calibration, timed between the same items, drifts with it.
    """
    items = passes[0]["results"]
    raw = sum(statistics.median(p["results"][name][field] for p in passes)
              for name in items)
    cal = statistics.median(c[field - 4] for p in passes for c in p["calibration"])
    speed = CALIBRATION_REF_S * passes[0]["threads"] / cal
    return raw * speed, raw, speed


def summarize(passes) -> dict:
    statuses: dict = {}
    failures = []
    worst = 0.0
    for p in passes:
        for name, (status, _, gaps, message, _, _) in p["results"].items():
            statuses[status] = statuses.get(status, 0) + 1
            if status != "ok" and f"{name}: {message}" not in failures:
                failures.append(f"{name}: {message}")
            worst = max([worst, *gaps])
    attempted = sum(statuses.values())
    wall, wall_raw, wall_speed = scaled(passes, 4)
    cpu, cpu_raw, cpu_speed = scaled(passes, 5)
    return {"passes": len(passes),
            "wall_s": wall, "wall_raw_s": wall_raw, "wall_speed": wall_speed,
            "cpu_s": cpu, "cpu_raw_s": cpu_raw, "cpu_speed": cpu_speed,
            "pass_wall_median_s": statistics.median(p["wall"] for p in passes),
            "items_s": {name: statistics.median(p["results"][name][4] for p in passes)
                        for name in passes[0]["results"]},
            "attempted": attempted,
            "failed": attempted - statuses.get("ok", 0),
            "statuses": statuses,
            "failures": failures[:20],
            "max_rel_err": worst}


def outputs_of(p) -> str:
    return json.dumps({name: r[1] for name, r in p["results"].items()}, sort_keys=True)


def environment() -> dict:
    import toricdensity

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "toricdensity": toricdensity.__file__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--item-cap", type=float, required=True)
    args = ap.parse_args(argv)

    root = Path(args.root)
    signal.signal(signal.SIGALRM, _alarm)
    scratch = root / ".bench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, root, scratch)
        status, _, _, message, _, _ = run_item(wl.warmup, args.item_cap)
        if status != "ok":
            print(f"warm-up item {wl.warmup.name} failed ({status}): {message}",
                  file=sys.stderr)
            return 1
        setup = time.perf_counter() - T0
        cal_wall, _ = calibrate(SETUP_CALIBRATIONS)
        out = {"setup_s": setup * CALIBRATION_REF_S / cal_wall, "setup_raw_s": setup,
               "env": environment()}
        if args.mode == "measure":
            out.update(summarize(run_passes(wl, args.seconds, args.item_cap)))
        elif args.mode == "trace":
            out.update(trace(wl, args, root))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def trace(wl, args, root) -> dict:
    import tracer as tracing

    plain = run_passes(wl, args.seconds / 2, args.item_cap)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run_passes(wl, args.seconds / 2, args.item_cap, tracer=tr)
    finally:
        tr.uninstall()
    out = summarize(plain + traced)
    reference = outputs_of(plain[0])
    differing = sum(outputs_of(p) != reference for p in plain + traced)
    if differing:
        out["failed"] += differing
        out["failures"].append(f"{differing} passes computed outputs that differ "
                               "from the first untraced pass")
    # scaled, so that the machine's drift between the halves cancels
    base = scaled(plain, 4)[0]
    overhead = (scaled(traced, 4)[0] - base) / base
    quickest = min(range(len(traced)), key=lambda i: traced[i]["wall"])
    out["layers"] = tracing.layer_metrics([s for s in tr.spans if s.run == quickest],
                                          overhead)
    trace_dir = root / ".bench_out"
    trace_dir.mkdir(exist_ok=True)
    tr.dump(trace_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    return out


if __name__ == "__main__":
    sys.exit(main())
