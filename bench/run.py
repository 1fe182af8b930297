"""Benchmark of toricdensity: four seeded workloads, checked outputs, one JSON line.

Run from the root of a source checkout:

    python3 bench/run.py --workload section_norms --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28   # every workload

Each workload runs in its own child process that imports the package from
the checkout's ``src/``, with an address-space cap (RLIMIT_AS, set on the
child only), a wall-time cap per item and per child, and BLAS/OpenMP thread
counts pinned in its environment.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7                 # set-ups per run, the measured child's included
ADDRESS_SPACE_CAP = 3 << 30    # bytes, per child
ITEM_CAP_S = 60.0              # wall time of one item
RUN_BUDGET_S = 170.0           # every child of one workload run together
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Relative gaps below the float64 unit roundoff are not resolved; the exact
# pipeline reports this floor instead of 0.
GAP_FLOOR = 2.0 ** -53

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("ok_frac", "ratio"), ("max_rel_err", "ratio"))


class ChildFailed(Exception):
    """A child process died, ran out of time or printed no result."""


def checkout_problem(root: Path) -> str | None:
    if not (root / "src" / "toricdensity" / "__init__.py").is_file():
        return f"no package source at {root / 'src' / 'toricdensity'}"
    if not (root / "fixtures" / "scenarios").is_dir():
        return f"no fixture scenarios at {root / 'fixtures' / 'scenarios'}"
    return None


def git_commit(root: Path) -> str:
    """The commit named by .git/HEAD, read as files (the checkout may not be a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--item-cap", str(ITEM_CAP_S)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{mode} child not started: run budget of {RUN_BUDGET_S} s spent")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=_cap_address_space)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        status = "oom" if "MemoryError" in err else f"exit {proc.returncode}"
        raise ChildFailed(f"{mode} child failed ({status}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, environment line) of one workload run."""
    deadline = time.monotonic() + RUN_BUDGET_S

    def setups(count):
        return [run_child(workload, seed, seconds, "setup", deadline)
                for _ in range(0 if trace else count)]

    # the extra set-ups run before and after the measured child, so that
    # their median samples the machine at more than one moment
    before = setups((SETUP_RUNS - 1) // 2)
    child = run_child(workload, seed, seconds, "trace" if trace else "measure", deadline)
    after = setups(SETUP_RUNS - 1 - len(before))
    env = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           "commit": git_commit(ROOT), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform(),
           "threads": dict(THREAD_ENV, cli_threads=2), "rlimit_as": ADDRESS_SPACE_CAP,
           "item_cap_s": ITEM_CAP_S, **child["env"],
           "passes": child["passes"], "statuses": child["statuses"],
           "failures": child["failures"], "items_s": child["items_s"],
           "pass_wall_median_s": child["pass_wall_median_s"],
           **{key: child[key] for key in ("wall_raw_s", "wall_speed", "cpu_raw_s",
                                          "cpu_speed")}}
    attempted, failed = child["attempted"], child["failed"]
    if trace:
        metrics = {name: {"value": child["layers"][name], "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
    else:
        setup_children = before + [child] + after
        setup_times = [c["setup_s"] for c in setup_children]
        values = {"wall_s": child["wall_s"], "cpu_s": child["cpu_s"],
                  "peak_rss_mb": child["peak_rss_mb"],
                  "setup_s": statistics.median(setup_times),
                  "ok_frac": (attempted - failed) / attempted,
                  "max_rel_err": max(child["max_rel_err"], GAP_FLOOR)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        env["setups_s"] = setup_times
        env["setups_raw_s"] = [c["setup_raw_s"] for c in setup_children]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = checkout_problem(ROOT)
    if problem:
        print(f"bench: {problem}; run from the root of a toricdensity checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, env = measure(name, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as exc:
            print(f"bench: workload {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"env": env}))
        results[name] = result
        if len(names) > 1:
            for metric, m in result["metrics"].items():
                print(f"{name:18s} {metric:32s} {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
