"""Time the exact layer of two source trees, layer by layer.

    python tools/probe_exact.py OLD_SRC NEW_SRC [--rounds N] [--seed S] [--json PATH]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Each round
runs one fresh interpreter per tree, the trees alternating which goes first,
with that tree first on PYTHONPATH; the inputs are this checkout's.  An
interpreter times, in process, each layer of each input on fresh objects
(``Polytope`` keeps what it computes), several times, and reports the
fastest run:

    vertices   build the polytope (its vertex enumeration), or build the
               test configuration Gamma of a fresh family
    measures   volume() plus boundary_leray_volume() of the polytope, or of Gamma
    ehrhart    _ehrhart(0) of the polytope, or of Gamma: its walks and its fit
    hilbert    hilbert_polynomials of a family whose critical values are known
    slices     the n + 2 slices P(t) that hilbert_polynomials samples

The inputs are those of the benchmark's ``exact_lattice`` workload, imported
read-only from ``bench/workloads.py`` (the 64-gon at --seed, the 3-simplex,
the unit square and the simplex-vertex and box-corner families in dimensions
2 and 3), plus the same two families in dimension 4.  The table gives each
layer's median over the rounds on both trees and their ratio; --json writes
the rounds and the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# each layer runs at least MIN_RUNS times and until BUDGET_S has passed
MIN_RUNS, BUDGET_S = 3, 0.2


def _fastest(setup, timed) -> float:
    """The fastest of several runs of timed(setup()), setup untimed."""
    best, spent, runs = float("inf"), 0.0, 0
    while runs < MIN_RUNS or spent < BUDGET_S:
        obj = setup()
        start = time.perf_counter()
        timed(obj)
        took = time.perf_counter() - start
        best, spent, runs = min(best, took), spent + took, runs + 1
    return best


def worker(seed: int):
    """Print {input: {layer: fastest seconds}} for the toricdensity on sys.path."""
    import toricdensity as td
    import workloads
    from toricdensity.stability import hilbert_polynomials

    _, facets = workloads.polygon_64(random.Random(seed))
    polytopes = {
        "polygon_64": lambda: td.Polytope(2, [td.AffineFunctional(n, c) for n, c in facets]),
        "simplex3": lambda: td.standard_simplex(3),
        "square": lambda: td.box([1, 1]),
    }
    out = {}
    for name, build in polytopes.items():
        def ready():
            P = build()
            P.vertices
            return P

        out[name] = {"vertices": _fastest(lambda: None, lambda _: build()),
                     "measures": _fastest(ready, lambda P: (P.volume(),
                                                            P.boundary_leray_volume())),
                     "ehrhart": _fastest(ready, lambda P: P._ehrhart(0))}
    for kind in ("simplex_vertex", "box_corner"):
        for n in (2, 3, 4):
            def family():
                return workloads.make_family(td, kind, n)

            def gamma():
                G = td.build_test_config(family()).gamma
                G.vertices
                return G

            def known():
                fam = family()
                fam.critical_values()
                return fam

            def samples(fam):
                c1 = min(c for c in fam.critical_values() if c > 0)
                return [c1 * Fraction(j, n + 3) for j in range(1, n + 3)]

            out[f"{kind}{n}"] = {
                "vertices": _fastest(family, td.build_test_config),
                "measures": _fastest(gamma, lambda G: (G.volume(), G.boundary_leray_volume())),
                "ehrhart": _fastest(gamma, lambda G: G._ehrhart(0)),
                "hilbert": _fastest(known, hilbert_polynomials),
                "slices": _fastest(known, lambda fam: [fam.slice(t) for t in samples(fam)]),
            }
    print(json.dumps(out))


def probe(src: Path, seed: int) -> dict:
    env = dict(os.environ, **THREAD_ENV,
               PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "bench"), str(ROOT / "tools")]))
    proc = subprocess.run([sys.executable, "-c", f"import probe_exact; probe_exact.worker({seed})"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{src}: worker failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def medians(rounds: list[dict]) -> dict:
    return {name: {layer: statistics.median(r[name][layer] for r in rounds)
                   for layer in rounds[0][name]} for name in rounds[0]}


def report(old: dict, new: dict) -> list[str]:
    lines = [f"{'input':<16} {'layer':<9} {'old ms':>9} {'new ms':>9}  new/old"]
    totals: dict[str, list[float]] = {}
    for name in old:
        for layer, a in old[name].items():
            b = new[name][layer]
            lines.append(f"{name:<16} {layer:<9} {a * 1e3:9.3f} {b * 1e3:9.3f}  {b / a:7.3f}")
            totals.setdefault(layer, [0.0, 0.0])
            totals[layer][0] += a
            totals[layer][1] += b
    for layer, (a, b) in totals.items():
        lines.append(f"{'all':<16} {layer:<9} {a * 1e3:9.3f} {b * 1e3:9.3f}  {b / a:7.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    runs: dict[str, list[dict]] = {"old": [], "new": []}
    for r in range(args.rounds):
        for side in (("old", "new") if r % 2 == 0 else ("new", "old")):
            runs[side].append(probe(trees[side], args.seed))
    old, new = medians(runs["old"]), medians(runs["new"])
    print("\n".join(report(old, new)))
    if args.json:
        args.json.write_text(json.dumps({"seed": args.seed, "rounds": args.rounds,
                                         "median_s": {"old": old, "new": new},
                                         "runs_s": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
