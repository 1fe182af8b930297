"""Compare the benchmark's relative gaps under two source trees.

    python tools/compare_gaps.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Every
item of each workload in ``bench/workloads.py`` runs once per seed, 1 to
SEEDS (``fixtures`` once, as its seed only orders the items), in one child
process per tree with that tree first on PYTHONPATH; the workloads, scenarios
and oracles are this checkout's, so only the package differs.  The gaps an
item returns are what ``bench/run.py`` reports as ``max_rel_err``; they read
float rounding, so a change that moves the last bits of a metric integral
can move them by tens of percent on some seeds and not on others.

For each workload, the table gives each seed's largest gap on both sides,
floored at the unit roundoff as ``bench/run.py`` floors it, then the seeds
where the new tree's gap exceeds the old one's by more than WORSE, and the
items that failed.  The exit status is 1 if any seed is worse or any item
fails on one side only, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 40
WORSE = 1.2                # a gap this many times the old one is worse
GAP_FLOOR = 2.0 ** -53     # as bench/run.py: smaller gaps are not resolved
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def worker():
    """Run every item once per seed under the toricdensity on sys.path and
    print {workload: {seed: {item: largest gap, or the error text}}}."""
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads.WORKLOADS:
            seeds = [1] if name == "fixtures" else range(1, SEEDS + 1)
            out[name] = {}
            for seed in seeds:
                built = workloads.build(name, seed, ROOT, Path(scratch))
                row = out[name][str(seed)] = {}
                for item in built.items:
                    try:
                        _, gaps = item.run()
                        row[item.name] = max(gaps, default=0.0)
                    except Exception:
                        row[item.name] = traceback.format_exc(limit=1).splitlines()[-1]
    print(json.dumps(out))


def gaps_under(src: Path) -> dict:
    env = dict(os.environ, **THREAD_ENV,
               PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "bench"),
                                           str(ROOT / "tools")]))
    proc = subprocess.run([sys.executable, "-c", "import compare_gaps; compare_gaps.worker()"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{src}: worker failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def seed_gap(row: dict) -> float:
    """The largest numeric gap of one seed, floored at GAP_FLOOR."""
    return max([GAP_FLOOR, *(v for v in row.values() if not isinstance(v, str))])


def report(old: dict, new: dict) -> tuple[list[str], bool]:
    """The printed lines, and whether any seed is worse or any item fails on
    one side only."""
    lines, bad = [], False
    for name in old:
        lines += [f"{name}:", f"  {'seed':>4}  {'old':>10}  {'new':>10}  new/old"]
        worse, failed = [], []
        for seed in old[name]:
            a, b = seed_gap(old[name][seed]), seed_gap(new[name][seed])
            lines.append(f"  {seed:>4}  {a:10.3g}  {b:10.3g}  {b / a:7.3f}")
            if b > WORSE * a:
                worse.append(seed)
            for item in old[name][seed]:
                errs = [side[name][seed][item] for side in (old, new)
                        if isinstance(side[name][seed][item], str)]
                if errs:
                    failed.append(f"seed {seed} {item}: " + " | ".join(errs))
                    bad |= len(errs) == 1
        lines.append(f"  worse by > {WORSE - 1:.0%}: {', '.join(worse) or 'none'}")
        lines += [f"  failed: {f}" for f in failed]
        bad |= bool(worse)
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    with ThreadPoolExecutor(2) as pool:
        old, new = pool.map(gaps_under, (args.old_src.resolve(), args.new_src.resolve()))
    lines, bad = report(old, new)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
