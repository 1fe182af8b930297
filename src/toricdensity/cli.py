"""Batch front-end: scenario files in, CSV/JSON reports out.

Subcommands mirror the scenario tasks; every run is deterministic (same
inputs give byte-identical outputs, whatever --threads says) and exits nonzero
on verification failures with a distinct code per error class:

    0  success          3  precondition violated
    1  check failed     4  numerical non-convergence
    2  parse error
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .asymptotics import (a_hat_components, boundary_volume_identity,
                          euler_maclaurin)
from .density import (QuadratureError, SectionBasis, density_profile,
                      pair_partial_density, section_expansion_check)
from .fields import coordinate_field, constant_field
from .fileio import (Scenario, dump_csv, dump_json, load_scenario,
                     rational_to_str)
from .polytope import build_test_config, check_delzant
from .potential import SymplecticPotential
from .stability import (futaki_report, hilbert_coeffs_combinatorial,
                        slope_mu, slope_report)

NORMALIZATION_NOTE = "pushed-down: the (2*pi)^n fibre factor is dropped"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NONCONVERGENCE = 4


def _fraction_param(params, key, default=None) -> Fraction:
    if key not in params:
        if default is None:
            raise ValueError(f"scenario params missing {key!r}")
        return Fraction(default)
    v = params[key]
    if isinstance(v, float):
        raise ValueError(f"param {key!r} must be exact (int or 'p/q'), got float")
    return Fraction(v)


def _potential(scenario: Scenario) -> SymplecticPotential:
    return SymplecticPotential(scenario.polytope, scenario.perturbation)


def _run_check_delzant(scenario, outdir, opts):
    report = check_delzant(scenario.polytope)
    payload = {
        "schema": 1,
        "normalization": NORMALIZATION_NOTE,
        "task": "check-delzant",
        "is_delzant": report.is_delzant,
        "is_integral": report.is_integral,
        "vertices": [{
            "vertex": [rational_to_str(c) for c in cert.vertex],
            "simple": cert.simple,
            "determinant": cert.determinant,
            "ok": cert.ok,
            "reason": cert.reason,
        } for cert in report.certificates],
    }
    dump_json(payload, outdir / "delzant.json")
    return EXIT_OK if report.is_delzant else EXIT_CHECK_FAILED


def _run_lattice_count(scenario, outdir, opts):
    ks = scenario.params.get("k_grid", [1, 2, 4, 8, 16])
    t = scenario.params.get("t")
    rows = []
    if t is None or not scenario.cuts:
        poly = scenario.polytope
        for k in ks:
            rows.append({"k": k, "t": "0", "count": poly.count_lattice_points(k)})
    else:
        family = scenario.family
        tq = _fraction_param(scenario.params, "t")
        sl = family.slice(tq)
        for k in ks:
            count = 0 if sl.is_empty else sl.polytope.count_lattice_points(k)
            rows.append({"k": k, "t": rational_to_str(tq), "count": count})
    dump_csv(rows, ["k", "t", "count"], outdir / "lattice_count.csv")
    return EXIT_OK


def _run_em_check(scenario, outdir, opts):
    ks = scenario.params.get("k_grid", [4, 8, 16, 32, 64])
    rows = []
    for k in ks:
        res = euler_maclaurin(scenario.polytope, 1, k)
        rows.append({"k": k, "direct": str(res.lattice_sum),
                     "asymptotic": rational_to_str(res.approximation),
                     "residual": rational_to_str(res.residual)})
    dump_csv(rows, ["k", "direct", "asymptotic", "residual"],
             outdir / "em_check.csv")
    residuals = {r["residual"] for r in rows}
    return EXIT_OK if len(residuals) == 1 else EXIT_CHECK_FAILED


def _grid_points(polytope, per_axis):
    return polytope.interior_float_grid(per_axis)


def _run_density_profile(scenario, outdir, opts):
    family = scenario.family
    if family is None:
        raise ValueError("density-profile requires cuts in the scenario")
    t = _fraction_param(scenario.params, "t")
    k = int(scenario.params.get("k", 10))
    per_axis = int(scenario.params.get("grid", 9))
    pot = _potential(scenario)
    pts = _grid_points(scenario.polytope, per_axis)
    basis = SectionBasis.build(pot, k, rel_tol=opts.tolerance,
                               threads=opts.threads)
    rows = density_profile(family, pot, t, k, [tuple(p) for p in pts],
                           basis=basis)
    out = []
    for r in rows:
        rec = {f"y{i + 1}": float(c) for i, c in enumerate(r["point"])}
        rec.update(rho_k=r["rho_k"], rho_hat_tk=r["rho_hat_tk"],
                   region=r["region"])
        out.append(rec)
    cols = [f"y{i + 1}" for i in range(scenario.polytope.dim)] + \
        ["rho_k", "rho_hat_tk", "region"]
    dump_csv(out, cols, outdir / "density_profile.csv")

    pairing, delta = pair_partial_density(family, pot, t, k, 1.0, basis=basis)
    sl = family.slice(t)
    exact = 0 if sl.is_empty else sl.polytope.count_lattice_points(k)
    payload = {"schema": 1, "normalization": NORMALIZATION_NOTE, "task": "density-profile", "k": k,
               "t": rational_to_str(t), "mass_quadrature": pairing,
               "mass_exact": exact, "quadrature_delta": delta,
               "relative_error": abs(pairing - exact) / max(exact, 1)}
    dump_json(payload, outdir / "density_mass.json")
    return EXIT_OK if payload["relative_error"] < 1e-6 else EXIT_CHECK_FAILED


def _run_expansion_check(scenario, outdir, opts):
    pot = _potential(scenario)
    ks = scenario.params.get("k_grid", [10, 20, 40, 80])
    alpha = scenario.params.get("alpha")
    if alpha is None:
        alpha = [rational_to_str(c) for c in
                 scenario.polytope.centroid_of_vertices()]
    alpha = tuple(Fraction(a) for a in alpha)
    n = scenario.polytope.dim
    fields = {"one": constant_field(n)}
    for i in range(n):
        fields[f"y{i + 1}"] = coordinate_field(n, i)
    payload = {"schema": 1, "normalization": NORMALIZATION_NOTE, "task": "expansion-check", "k_grid": list(ks),
               "alpha": [rational_to_str(a) for a in alpha], "fields": {}}
    ok = True
    for name, fld in sorted(fields.items()):
        res = section_expansion_check(pot, alpha, fld, ks=ks)
        # slope -inf means the residuals sit at machine zero; serialize as
        # null to keep the JSON standard
        slope = res["slope"]
        payload["fields"][name] = {
            "residuals": res["residuals"],
            "slope": None if slope == float("-inf") else slope,
        }
        if not slope <= -1.7:
            ok = False
    dump_json(payload, outdir / "expansion_check.json")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _run_slope(scenario, outdir, opts):
    return _slope(scenario, outdir, opts)[0]


def _slope(scenario, outdir, opts):
    """Write slope.json; return the exit code and the SlopeReport."""
    family = scenario.family
    if family is None or len(family.cuts) != 1:
        raise ValueError("slope requires a single-cut family")
    pot = _potential(scenario)
    c = _fraction_param(scenario.params, "c", default="1/2")
    rep = slope_report(family, pot, c)
    payload = {"schema": 1, "normalization": NORMALIZATION_NOTE, "task": "slope", "c": rational_to_str(rep.c),
               "mu_c": rational_to_str(rep.mu_c),
               "mu_X": rational_to_str(rep.mu_X),
               "excess": rational_to_str(rep.excess),
               "metric_excess": rep.metric_excess,
               "pipeline_gap": abs(float(rep.excess) - rep.metric_excess),
               "verdict": rep.verdict}
    dump_json(payload, outdir / "slope.json")
    return (EXIT_OK if payload["pipeline_gap"] <= 1e-4 else EXIT_CHECK_FAILED), rep


def _run_futaki(scenario, outdir, opts):
    return _futaki(scenario, outdir, opts)[0]


def _futaki(scenario, outdir, opts):
    """Write futaki.json; return the exit code and the FutakiReport."""
    family = scenario.family
    if family is None:
        raise ValueError("futaki requires cuts in the scenario")
    pot = _potential(scenario)
    config = build_test_config(family)
    rep = futaki_report(config, pot, dp_convention=opts.dp_convention)
    payload = {"schema": 1, "normalization": NORMALIZATION_NOTE, "task": "futaki",
               "dp_convention": opts.dp_convention,
               "F1_combinatorial": rational_to_str(rep.F1_combinatorial),
               "F1_metric": rep.F1_metric,
               "pipeline_gap": abs(float(rep.F1_combinatorial) - rep.F1_metric),
               "delta": rep.delta,
               "is_product": rep.is_product,
               "roof_identity_residual": rep.roof_identity_residual,
               "verdict": rep.verdict}
    dump_json(payload, outdir / "futaki.json")
    return (EXIT_OK if payload["pipeline_gap"] <= 1e-4 else EXIT_CHECK_FAILED), rep


def _run_report(scenario, outdir, opts):
    """Run every check the scenario supports; nonzero exit if any fails."""
    pot = _potential(scenario)
    status = EXIT_OK
    summary = {"schema": 1, "normalization": NORMALIZATION_NOTE, "task": "report", "name": scenario.name,
               "dp_convention": opts.dp_convention, "checks": {}}

    rc = _run_check_delzant(scenario, outdir, opts)
    summary["checks"]["delzant"] = rc
    status = max(status, rc)
    rc = _run_em_check(scenario, outdir, opts)
    summary["checks"]["euler_maclaurin"] = rc
    status = max(status, rc)
    rc = _run_lattice_count(scenario, outdir, opts)
    summary["checks"]["lattice_count"] = rc

    family = scenario.family
    if family is not None:
        params = dict(scenario.params)
        t = params.get("t")
        if t is not None:
            rc = _run_density_profile(scenario, outdir, opts)
            summary["checks"]["density"] = rc
            status = max(status, rc)
            tq = Fraction(t)
            res = boundary_volume_identity(family, pot, tq,
                                           dp_convention=opts.dp_convention)
            summary["checks"]["boundary_volume_residual"] = res
            if abs(res) > 1e-6:
                status = max(status, EXIT_CHECK_FAILED)
            comp = a_hat_components(family, pot, tq, 1.0,
                                    dp_convention=opts.dp_convention)
            hc = hilbert_coeffs_combinatorial(family, tq)
            sl = family.slice(tq)
            from .density import QuadratureScheme
            scheme = QuadratureScheme.for_polytope(sl.polytope)
            s_int, _ = scheme.integrate(
                lambda pts: pot.scalar_curvature_many(pts), rel_tol=1e-9)
            coeff_gap = abs(float(hc.A1) - 0.5 * (s_int + comp.value))
            summary["checks"]["subleading_coefficient_gap"] = coeff_gap
            if coeff_gap > 1e-5 * max(1.0, abs(float(hc.A1))):
                status = max(status, EXIT_CHECK_FAILED)
        srep = None
        if len(family.cuts) == 1 and params.get("c") is not None:
            rc, srep = _slope(scenario, outdir, opts)
            summary["checks"]["slope"] = rc
            status = max(status, rc)
        rc, frep = _futaki(scenario, outdir, opts)
        summary["checks"]["futaki"] = rc
        status = max(status, rc)
        _write_stability_summary(scenario, outdir, opts, frep, srep)

    summary["status"] = status
    dump_json(summary, outdir / "report.json")
    return status


def _write_stability_summary(scenario, outdir, opts, frep, srep):
    """Combined stability report of the Futaki and (if any) slope reports:
    JSON with exact rationals plus a table."""
    payload = {
        "schema": 1,
        "normalization": NORMALIZATION_NOTE,
        "dp_convention": opts.dp_convention,
        "mu_X": rational_to_str(slope_mu(scenario.polytope)),
        "futaki": {
            "F1_combinatorial": rational_to_str(frep.F1_combinatorial),
            "F1_metric": frep.F1_metric,
            "delta": frep.delta,
            "is_product": frep.is_product,
            "roof_identity_residual": frep.roof_identity_residual,
            "verdict": frep.verdict,
        },
    }
    lines = [
        f"stability report: {scenario.name}",
        f"  mu(X)              {payload['mu_X']}",
    ]
    if srep is not None:
        payload["slope"] = {
            "c": rational_to_str(srep.c),
            "mu_c": rational_to_str(srep.mu_c),
            "excess": rational_to_str(srep.excess),
            "metric_excess": srep.metric_excess,
            "verdict": srep.verdict,
        }
        lines += [
            f"  mu_c (c={srep.c})      {srep.mu_c} = {float(srep.mu_c):.8f}",
            f"  excess             exact {float(srep.excess):+.8f}   "
            f"metric {srep.metric_excess:+.8f}",
            f"  slope verdict      {srep.verdict}",
        ]
    lines += [
        f"  F1 combinatorial   {payload['futaki']['F1_combinatorial']}",
        f"  F1 metric          {frep.F1_metric:+.8f}",
        f"  Delta(Gamma)       {frep.delta:.8f}   product: {frep.is_product}",
        f"  roof identity      {frep.roof_identity_residual:+.2e}",
        f"  futaki verdict     {frep.verdict}",
    ]
    dump_json(payload, outdir / "stability.json")
    with open(outdir / "stability.txt", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_RUNNERS = {
    "check-delzant": _run_check_delzant,
    "lattice-count": _run_lattice_count,
    "density-profile": _run_density_profile,
    "em-check": _run_em_check,
    "expansion-check": _run_expansion_check,
    "slope": _run_slope,
    "futaki": _run_futaki,
    "report": _run_report,
}


def run(scenario: Scenario, outdir, opts) -> int:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[scenario.task](scenario, outdir, opts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricdensity",
        description="Density-function and stability computations on moment polytopes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for task in _RUNNERS:
        p = sub.add_parser(task, help=f"run the {task} task of a scenario")
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; does not change "
                            "how section norms are computed")
        p.add_argument("--tolerance", type=float, default=1e-8,
                       help="relative quadrature tolerance")
        p.add_argument("--dp-convention", choices=("corrected", "printed"),
                       default="corrected", dest="dp_convention",
                       help="coefficient of the corner measure (1/2 or printed 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, task_override=args.command)
    except ValueError as exc:
        print(f"toricdensity.fileio: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return run(scenario, args.out, args)
    except QuadratureError as exc:
        print(f"toricdensity.density: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        module = getattr(type(exc), "__module__", "toricdensity")
        print(f"{module}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
