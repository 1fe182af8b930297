"""The benchmark's four workloads: seeded inputs and checked work items.

``build(workload, seed, root, scratch)`` imports toricdensity, generates the
inputs from the seed and returns a ``Workload``: a warm-up item and the fixed
list of items one pass runs.  Each item returns ``(outputs, gaps)``:
``outputs`` are the values it computed (compared between traced and
untraced passes), ``gaps`` the relative gaps of metric-side floats to their
exact or closed-form references.  An item raises ``Mismatch`` when an exact
value, an oracle or an exit code disagrees.

Why each workload exists is documented in README.md beside this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fixtures", "section_norms", "exact_lattice", "metric_invariants")

# An oracle mismatch on a metric-side float.  The gap itself is reported in
# max_rel_err; this only catches answers that are plainly wrong.
ORACLE_TOL = 1e-6


class Mismatch(Exception):
    """An output disagrees with its exact value, oracle or expected exit code."""


def check(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


@dataclass
class Item:
    name: str
    run: Callable[[], tuple]


@dataclass
class Workload:
    warmup: Item
    items: list
    threads: int = 1      # threads the items compute on


def build(workload: str, seed: int, root: Path, scratch: Path) -> Workload:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}: expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, Path(root), Path(scratch))


# -- seeded generators --------------------------------------------------------

def polygon_64(rng: random.Random, span: int = 80):
    """A lattice polygon with exactly 64 essential facets.

    The vertices (x, x^2) lie on a parabola, which is strictly convex, so
    each of the 63 chords between consecutive vertices and the closing chord
    is a facet.  The end points are fixed so the bounding box, and with it
    the counting cost, does not depend on the seed.  Returns the vertices in
    cyclic order and the facets as (normal, offset) with <normal, x> >= offset,
    shuffled.
    """
    xs = [0] + sorted(rng.sample(range(1, span - 1), 62)) + [span - 1]
    vertices = [(x, x * x) for x in xs]
    facets = [((-(a + b), 1), -a * b) for a, b in zip(xs, xs[1:])]
    facets.append(((xs[0] + xs[-1], -1), xs[0] * xs[-1]))
    rng.shuffle(facets)
    return vertices, facets


def perturbation(rng: random.Random):
    """Monomials of a cubic perturbation of a 2-D canonical potential.

    The coefficients vary by +-2.5% around fixed values: the quadrature depth
    and the slope gap both move with the size of the perturbation, and a
    wider band would make the figures depend on the seed rather than on the
    code.
    """
    a = 0.02 * (1.0 + 0.05 * (rng.random() - 0.5))
    b = 0.01 * (1.0 + 0.05 * (rng.random() - 0.5))
    return [{"exponents": [3, 0], "coeff": a}, {"exponents": [1, 2], "coeff": b}]


def regular_t(rng: random.Random) -> Fraction:
    """A rational t in [1/12, 3/4], regular for the families used here.

    Above 3/4 the slice of the perturbed triangle is a thin strip on which
    the curvature integral of boundary_volume_identity and
    hilbert_coeffs_geometric fails to converge (t = 5/6, 6/7, 7/8, 8/9 at the
    seed commit); the draw stays below that.
    """
    q = rng.randint(4, 12)
    return Fraction(rng.randint(1, 3 * q // 4), q)


# -- fixtures -------------------------------------------------------------------

EXACT_JSON_KEYS = {"is_delzant", "is_integral", "mass_exact", "mu_c", "mu_X",
                   "excess", "verdict", "F1_combinatorial", "is_product", "status"}
EXACT_CSV_COLUMNS = {"lattice_count.csv": None, "em_check.csv": None,
                     "density_profile.csv": ("region",)}


def exact_fields(outdir: Path) -> dict:
    """The exact values among a CLI run's outputs, keyed 'file:path'.

    Floats are left out on purpose: quadrature changes move their last
    digits, and the CLI's exit code already gates them.
    """
    fields = {}

    def walk(name, node, path):
        if isinstance(node, dict):
            for key, val in node.items():
                sub = f"{path}.{key}" if path else key
                if key in EXACT_JSON_KEYS and not isinstance(val, (dict, list, float)):
                    fields[f"{name}:{sub}"] = val
                else:
                    walk(name, val, sub)

    for path in sorted(outdir.iterdir()):
        if path.suffix == ".json":
            walk(path.name, json.loads(path.read_text()), "")
        elif path.name in EXACT_CSV_COLUMNS:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            cols = EXACT_CSV_COLUMNS[path.name] or (rows[0].keys() if rows else ())
            for col in cols:
                fields[f"{path.name}:{col}"] = [row[col] for row in rows]
    return fields


def fixture_gaps(outdir: Path) -> list:
    """Relative gaps of the metric-side floats the CLI writes beside exact values."""
    gaps = []

    def load(name):
        path = outdir / name
        return json.loads(path.read_text()) if path.exists() else None

    slope = load("slope.json")
    if slope:
        gaps.append(oracles.rel_gap(slope["metric_excess"], Fraction(slope["excess"])))
    futaki = load("futaki.json")
    if futaki:
        gaps.append(oracles.rel_gap(futaki["F1_metric"], Fraction(futaki["F1_combinatorial"])))
    mass = load("density_mass.json")
    if mass:
        gaps.append(oracles.rel_gap(mass["mass_quadrature"], mass["mass_exact"]))
    stab = load("stability.json")
    if stab:
        gaps.append(oracles.rel_gap(stab["futaki"]["F1_metric"],
                                    Fraction(stab["futaki"]["F1_combinatorial"])))
        if "slope" in stab:
            gaps.append(oracles.rel_gap(stab["slope"]["metric_excess"],
                                        Fraction(stab["slope"]["excess"])))
    return gaps


def _run_fixture(cli, scenario: Path, task: str, expected: dict, scratch: Path):
    outdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        rc = cli.main([task, "--scenario", str(scenario), "--out", str(outdir),
                       "--threads", "2"])
        check(rc == expected.get("exit", 0),
              f"{scenario.name}: exit code {rc}, expected {expected.get('exit', 0)}")
        fields = exact_fields(outdir)
        for key, want in expected.get("fields", {}).items():
            check(fields.get(key) == want,
                  f"{scenario.name}: {key} = {fields.get(key)!r}, expected {want!r}")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(outdir.iterdir())}
        return digests, fixture_gaps(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _fixtures(rng, root, scratch) -> Workload:
    from toricdensity import cli

    reference = json.loads((HERE / "reference.json").read_text())["fixtures"]
    scenarios = sorted((root / "fixtures" / "scenarios").glob("*.json"))
    if not scenarios:
        raise FileNotFoundError(f"no fixture scenarios under {root / 'fixtures'}")

    def item(path):
        task = json.loads(path.read_text())["task"]
        return Item(path.stem, partial(_run_fixture, cli, path, task,
                                       reference.get(path.stem, {}), scratch))

    warmup = item(scenarios[0])
    rng.shuffle(scenarios)
    return Workload(warmup, [item(p) for p in scenarios], threads=2)


# -- section norms --------------------------------------------------------------

def _check_norms(basis, log_norm) -> list:
    gaps = []
    for alpha, norm in zip(basis.alphas, basis.norms):
        ref = math.exp(log_norm(alpha, basis.k))
        gap = oracles.rel_gap(norm, ref)
        check(gap < ORACLE_TOL, f"norm at {alpha}, k={basis.k}: {norm!r} vs {ref!r}")
        gaps.append(gap)
    return gaps


def _closed_form_basis(td, polytope, k: int, log_norm):
    basis = td.SectionBasis.build(td.guillemin_potential(polytope), k)
    return [float(v) for v in basis.norms], _check_norms(basis, log_norm)


def _density_grid(td, k: int, points):
    basis = td.SectionBasis.build(td.guillemin_potential(td.box([1, 1])), k)
    values = basis.density(points)
    gaps = []
    for y, val in zip(points, values):
        ref = oracles.box_density(y, k)
        gap = oracles.rel_gap(val, ref)
        check(gap < ORACLE_TOL, f"density at {y}: {val!r} vs {ref!r}")
        gaps.append(gap)
    return [float(v) for v in values], gaps


def _perturbed_mass(td, monomials, k: int, t: Fraction):
    from toricdensity.fields import Polynomial

    tri = td.standard_simplex(2)
    pot = td.SymplecticPotential(tri, Polynomial.from_monomials(2, monomials))
    family = td.MovingFamily(tri, [td.AffineFunctional([1, 1], 0)])
    # At the default tolerance the norm errors, and with them the mass gap,
    # range over 1e-12..2e-9 with the perturbation; at 1e-10 they stay below
    # 1e-12, so max_rel_err reads the seed-independent norms.
    basis = td.SectionBasis.build(pot, k, rel_tol=1e-10)
    check(len(basis.alphas) == oracles.simplex_count(2, k),
          f"perturbed basis has {len(basis.alphas)} sections")
    mass, _ = td.pair_partial_density(family, pot, t, k, 1.0, basis=basis)
    exact = oracles.triangle_slice_count(k, t)
    gap = oracles.rel_gap(mass, exact)
    check(gap < ORACLE_TOL, f"partial mass at t={t}: {mass!r} vs {exact}")
    return [float(v) for v in basis.norms] + [float(mass)], [gap]


def _section_norms(rng, root, scratch) -> Workload:
    import toricdensity as td

    grid = [((i + 0.5) / 4, (j + 0.5) / 4) for i in range(4) for j in range(4)]
    monomials = perturbation(rng)
    t = Fraction(rng.randint(1, 7), 8)
    items = [
        Item("square_k8", partial(_closed_form_basis, td, td.box([1, 1]), 8,
                                  oracles.box_log_norm)),
        Item("triangle_k16", partial(_closed_form_basis, td, td.standard_simplex(2), 16,
                                     oracles.simplex_log_norm)),
        Item("perturbed_triangle_k8", partial(_perturbed_mass, td, monomials, 8, t)),
        Item("cube_k1", partial(_closed_form_basis, td, td.box([1, 1, 1]), 1,
                                oracles.box_log_norm)),
        Item("square_density_k4", partial(_density_grid, td, 4, grid)),
    ]
    rng.shuffle(items)
    warmup = Item("square_k2", partial(_closed_form_basis, td, td.box([1, 1]), 2,
                                       oracles.box_log_norm))
    return Workload(warmup, items)


# -- exact lattice ------------------------------------------------------------------

def _polygon(td, vertices, facets):
    P = td.Polytope(2, [td.AffineFunctional(n, c) for n, c in facets])
    want = sorted((Fraction(x), Fraction(y)) for x, y in vertices)
    check(P.vertices == want, "64-gon vertices differ from the generated ones")
    check(len(P.essential_facets()) == 64, "64-gon does not have 64 essential facets")
    count = td.count_lattice_points(P, 1)
    check(count == oracles.pick_count(vertices), f"64-gon count {count} fails Pick's theorem")
    # Pick's theorem is the two-term Euler-Maclaurin formula with residual 1
    em = td.euler_maclaurin(P, 1, 1)
    check(em.residual == 1, f"64-gon Euler-Maclaurin residual {em.residual}")
    return [count, str(em.residual)], []


def _simplex_counts(td, ks):
    P = td.standard_simplex(3)
    counts = []
    for k in ks:
        count = td.count_lattice_points(P, k)
        check(count == oracles.simplex_count(3, k), f"3-simplex count at k={k}: {count}")
        counts.append(count)
    return counts, []


def _euler_maclaurin(td, k):
    square = td.euler_maclaurin(td.box([1, 1]), 1, k)
    check(square.residual == 1, f"square Euler-Maclaurin residual {square.residual} at k={k}")
    simplex = td.euler_maclaurin(td.standard_simplex(3), 1, k)
    # Vol = 1/6 and the Leray boundary volume is 2, so the residual is
    # C(k+3, 3) - k^3/6 - k^2
    want = oracles.simplex_count(3, k) - Fraction(k ** 3, 6) - k ** 2
    check(simplex.residual == want, f"3-simplex Euler-Maclaurin residual {simplex.residual}")
    return [str(square.residual), str(simplex.residual)], []


def make_family(td, kind: str, n: int):
    if kind == "simplex_vertex":
        return td.MovingFamily(td.standard_simplex(n), [td.AffineFunctional([1] * n, 0)])
    cuts = [td.AffineFunctional([int(i == j) for j in range(n)], 0) for i in range(n)]
    return td.MovingFamily(td.box([1] * n), cuts)


def _family_exact(td, kind: str, n: int, c: Fraction):
    oracle = oracles.FamilyOracle(kind, n)
    family = make_family(td, kind, n)
    f1 = td.futaki_combinatorial(td.build_test_config(family))
    check(f1 == oracle.futaki(), f"{kind}{n}: F1 = {f1}, expected {oracle.futaki()}")
    a0, a1 = td.hilbert_polynomials(family)
    check([list(a0), list(a1)] == list(oracle.hilbert()), f"{kind}{n}: Hilbert polynomials")
    mu_c = td.slope_mu_c(family, c)
    check(mu_c == oracle.mu_c(c), f"{kind}{n}: mu_c({c}) = {mu_c}, expected {oracle.mu_c(c)}")
    return [str(f1), str(mu_c)], []


def _exact_lattice(rng, root, scratch) -> Workload:
    import toricdensity as td

    vertices, facets = polygon_64(rng)
    items = [
        Item("polygon_64", partial(_polygon, td, vertices, facets)),
        *[Item(f"simplex3_k{k}", partial(_simplex_counts, td, (k,))) for k in (50, 100, 150)],
        Item("euler_maclaurin", partial(_euler_maclaurin, td, rng.randint(8, 32))),
    ]
    for kind in ("simplex_vertex", "box_corner"):
        for n in (2, 3):
            items.append(Item(f"{kind}{n}", partial(_family_exact, td, kind, n,
                                                    regular_t(rng))))
    rng.shuffle(items)
    warmup = Item("simplex3_k10", partial(_simplex_counts, td, (10,)))
    return Workload(warmup, items)


# -- metric invariants -------------------------------------------------------------

# slope_excess_metric integrates the kink max(0, c - Phi) by dyadic
# refinement; with a perturbed potential it only converges when the kink
# lies on the dyadic grid, so the perturbed slope runs at dyadic c.
DYADIC_C = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _potential(td, family, monomials):
    from toricdensity.fields import Polynomial

    n = family.base.dim
    return td.SymplecticPotential(family.base, Polynomial.from_monomials(n, monomials))


def _slopes(td, kind, n, monomials, cs):
    oracle = oracles.FamilyOracle(kind, n)
    family = make_family(td, kind, n)
    pot = _potential(td, family, monomials)
    outs, gaps = [], []
    for c in cs:
        rep = td.slope_report(family, pot, c)
        check(rep.mu_c == oracle.mu_c(c), f"{kind}{n}: mu_c({c}) = {rep.mu_c}")
        check(rep.mu_X == oracle.mu(), f"{kind}{n}: mu_X = {rep.mu_X}")
        outs += [str(rep.mu_c), rep.metric_excess]
        gaps.append(oracles.rel_gap(rep.metric_excess, rep.excess))
    return outs, gaps


def _futaki(td, kind, n, monomials):
    oracle = oracles.FamilyOracle(kind, n)
    family = make_family(td, kind, n)
    config = td.build_test_config(family)
    rep = td.futaki_report(config, _potential(td, family, monomials))
    check(rep.F1_combinatorial == oracle.futaki(), f"{kind}{n}: F1 = {rep.F1_combinatorial}")
    roof = float(config.side_leray_volume())
    gaps = [oracles.rel_gap(rep.F1_metric, rep.F1_combinatorial),
            oracles.rel_gap(roof - rep.roof_identity_residual, roof)]
    return [str(rep.F1_combinatorial), rep.F1_metric, rep.delta,
            rep.roof_identity_residual], gaps


def _boundary(td, kind, n, monomials, t):
    oracle = oracles.FamilyOracle(kind, n)
    family = make_family(td, kind, n)
    pot = _potential(td, family, monomials)
    comp = td.a_hat_components(family, pot, t, 1.0)
    residual = td.boundary_volume_identity(family, pot, t)
    old = oracle.old_facet_volume(t)
    hc = td.hilbert_coeffs_geometric(family, pot, t)
    a0, a1 = oracle.hilbert_at(t)
    gaps = [oracles.rel_gap(comp.facet_term, oracle.new_facet_volume(t)),
            oracles.rel_gap(float(old) - residual, old),
            oracles.rel_gap(hc.A0, a0), oracles.rel_gap(hc.A1, a1)]
    check(max(gaps) < ORACLE_TOL, f"{kind}{n} at t={t}: boundary gaps {gaps}")
    return [comp.value, residual, hc.A0, hc.A1], gaps


def _metric_invariants(rng, root, scratch) -> Workload:
    import toricdensity as td

    # The 3-D family keeps the canonical potential: with a perturbation its
    # Futaki and boundary calls take 20-35 s each at the seed commit.
    cases = [("simplex_vertex", 2, perturbation(rng)),
             ("box_corner", 2, perturbation(rng)),
             ("simplex_vertex", 3, [])]
    items = []
    for kind, n, monomials in cases:
        tag = f"{kind}{n}"
        if kind == "simplex_vertex":
            cs = DYADIC_C if monomials else (regular_t(rng),)
            items.append(Item(f"{tag}_slope", partial(_slopes, td, kind, n, monomials, cs)))
        items.append(Item(f"{tag}_futaki", partial(_futaki, td, kind, n, monomials)))
        items.append(Item(f"{tag}_boundary", partial(_boundary, td, kind, n, monomials,
                                                     regular_t(rng))))
    rng.shuffle(items)
    warmup = Item("simplex_vertex2_canonical", partial(_boundary, td, "simplex_vertex", 2,
                                                       [], Fraction(1, 2)))
    return Workload(warmup, items)


_BUILDERS = {"fixtures": _fixtures, "section_norms": _section_norms,
             "exact_lattice": _exact_lattice, "metric_invariants": _metric_invariants}
