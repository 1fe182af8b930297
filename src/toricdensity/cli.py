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
import functools
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import __version__
from .asymptotics import boundary_volume_identity, euler_maclaurin
from .density import (QuadratureError, SectionBasis, _alpha_point, density_profile,
                      pair_partial_density, section_expansion_check)
from .fields import coordinate_field, constant_field
from .fileio import (Scenario, dump_csv, dump_json, load_scenario,
                     rational_to_str)
from .polytope import Point, _fr, _int, build_test_config, check_delzant
from .stability import (futaki_report, hilbert_coeffs_combinatorial,
                        hilbert_coeffs_geometric, slope_mu, slope_report)

NORMALIZATION_NOTE = "pushed-down: the (2*pi)^n fibre factor is dropped"
# the corner coefficient is always 1/2 (asymptotics.CORNER_COEFFICIENT); the
# result files keep naming it under their schema-1 key "dp_convention"
DP_CONVENTION = "corrected"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NONCONVERGENCE = 4


def _fraction_param(params, key, default=None) -> Fraction:
    if key not in params and default is None:
        raise ValueError(f"scenario params missing {key!r}")
    return _fr(params.get(key, default))


def _k_grid(params, default) -> list[int]:
    ks = params.get("k_grid", default)
    if not isinstance(ks, list):
        raise ValueError(f"k_grid must be a list, got {ks!r}")
    return [_int(k) for k in ks]


def _alpha(params, polytope) -> Point:
    """params["alpha"], a list of dim exact coordinates; the vertex centroid
    when absent."""
    alpha = params.get("alpha")
    if alpha is None:
        return polytope.centroid_of_vertices()
    if not isinstance(alpha, list):
        raise ValueError(f"alpha must be a list of {polytope.dim} coordinates, got {alpha!r}")
    try:
        return _alpha_point(polytope, alpha)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"alpha {alpha!r}: {exc}") from exc


def _run_check_delzant(scenario, outdir):
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


def _run_lattice_count(scenario, outdir):
    ks = _k_grid(scenario.params, [1, 2, 4, 8, 16])
    poly, t = scenario.polytope, Fraction(0)
    if scenario.params.get("t") is not None:
        if not scenario.cuts:
            raise ValueError("lattice-count at t requires cuts in the scenario")
        t = _fraction_param(scenario.params, "t")
        poly = scenario.family.slice(t).region
    dump_csv({"k": ks, "t": [rational_to_str(t)] * len(ks),
              "count": [0 if poly is None else poly.count_lattice_points(k) for k in ks]},
             outdir / "lattice_count.csv")
    return EXIT_OK


def _run_em_check(scenario, outdir):
    ks = _k_grid(scenario.params, [4, 8, 16, 32, 64])
    results = [euler_maclaurin(scenario.polytope, 1, k) for k in ks]
    residuals = [rational_to_str(res.residual) for res in results]
    dump_csv({"k": ks, "direct": [str(res.lattice_sum) for res in results],
              "asymptotic": [rational_to_str(res.approximation) for res in results],
              "residual": residuals}, outdir / "em_check.csv")
    return EXIT_OK if len(set(residuals)) == 1 else EXIT_CHECK_FAILED


def _run_density_profile(scenario, outdir):
    family = scenario.family
    if family is None:
        raise ValueError("density-profile requires cuts in the scenario")
    t = _fraction_param(scenario.params, "t")
    k = _int(scenario.params.get("k", 10))
    per_axis = _int(scenario.params.get("grid", 9))
    pot = scenario.potential
    grid = scenario.polytope.interior_grid(per_axis)
    basis = SectionBasis.build(pot, k)
    pts, rho, rho_hat, region = density_profile(family, pot, t, k, grid, basis=basis)
    dump_csv({**{f"y{i + 1}": y for i, y in enumerate(pts.T)},
              "rho_k": rho, "rho_hat_tk": rho_hat, "region": region},
             outdir / "density_profile.csv")

    pairing, delta = pair_partial_density(family, pot, t, k, 1.0, basis=basis)
    region = family.slice(t).region
    exact = 0 if region is None else region.count_lattice_points(k)
    payload = {"schema": 1, "normalization": NORMALIZATION_NOTE, "task": "density-profile", "k": k,
               "t": rational_to_str(t), "mass_quadrature": pairing,
               "mass_exact": exact, "quadrature_delta": delta,
               "relative_error": abs(pairing - exact) / max(exact, 1)}
    dump_json(payload, outdir / "density_mass.json")
    return EXIT_OK if payload["relative_error"] < 1e-6 else EXIT_CHECK_FAILED


def _run_expansion_check(scenario, outdir):
    pot = scenario.potential
    ks = _k_grid(scenario.params, [10, 20, 40, 80])
    alpha = _alpha(scenario.params, scenario.polytope)
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


def _run_slope(scenario, outdir):
    return _slope(scenario, outdir)[0]


def _slope(scenario, outdir):
    """Write slope.json; return the exit code and the SlopeReport."""
    family = scenario.family
    if family is None or len(family.cuts) != 1:
        raise ValueError("slope requires a single-cut family")
    pot = scenario.potential
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


def _run_futaki(scenario, outdir):
    return _futaki(scenario, outdir)[0]


def _futaki(scenario, outdir):
    """Write futaki.json; return the exit code and the FutakiReport."""
    family = scenario.family
    if family is None:
        raise ValueError("futaki requires cuts in the scenario")
    pot = scenario.potential
    config = build_test_config(family)
    rep = futaki_report(config, pot)
    payload = {"schema": 1, "normalization": NORMALIZATION_NOTE, "task": "futaki",
               "dp_convention": DP_CONVENTION,
               "F1_combinatorial": rational_to_str(rep.F1_combinatorial),
               "F1_metric": rep.F1_metric,
               "pipeline_gap": abs(float(rep.F1_combinatorial) - rep.F1_metric),
               "delta": rep.delta,
               "is_product": rep.is_product,
               "roof_identity_residual": rep.roof_identity_residual,
               "verdict": rep.verdict}
    dump_json(payload, outdir / "futaki.json")
    return (EXIT_OK if payload["pipeline_gap"] <= 1e-4 else EXIT_CHECK_FAILED), rep


def _run_report(scenario, outdir):
    """Run every check the scenario supports; nonzero exit if any fails."""
    pot = scenario.potential
    status = EXIT_OK
    summary = {"schema": 1, "normalization": NORMALIZATION_NOTE, "task": "report", "name": scenario.name,
               "dp_convention": DP_CONVENTION, "checks": {}}

    rc = _run_check_delzant(scenario, outdir)
    summary["checks"]["delzant"] = rc
    status = max(status, rc)
    rc = _run_em_check(scenario, outdir)
    summary["checks"]["euler_maclaurin"] = rc
    status = max(status, rc)
    rc = _run_lattice_count(scenario, outdir)
    summary["checks"]["lattice_count"] = rc

    family = scenario.family
    if family is not None:
        params = dict(scenario.params)
        t = params.get("t")
        if t is not None:
            rc = _run_density_profile(scenario, outdir)
            summary["checks"]["density"] = rc
            status = max(status, rc)
            tq = _fraction_param(params, "t")
            res = boundary_volume_identity(family, pot, tq)
            summary["checks"]["boundary_volume_residual"] = res
            if abs(res) > 1e-6:
                status = max(status, EXIT_CHECK_FAILED)
            geometric = hilbert_coeffs_geometric(family, pot, tq)
            hc = hilbert_coeffs_combinatorial(family, tq)
            coeff_gap = abs(float(hc.A1) - geometric.A1)
            summary["checks"]["subleading_coefficient_gap"] = coeff_gap
            if coeff_gap > 1e-5 * max(1.0, abs(float(hc.A1))):
                status = max(status, EXIT_CHECK_FAILED)
        srep = None
        if len(family.cuts) == 1 and params.get("c") is not None:
            rc, srep = _slope(scenario, outdir)
            summary["checks"]["slope"] = rc
            status = max(status, rc)
        rc, frep = _futaki(scenario, outdir)
        summary["checks"]["futaki"] = rc
        status = max(status, rc)
        _write_stability_summary(scenario, outdir, frep, srep)

    summary["status"] = status
    dump_json(summary, outdir / "report.json")
    return status


def _write_stability_summary(scenario, outdir, frep, srep):
    """Combined stability report of the Futaki and (if any) slope reports:
    JSON with exact rationals plus a table."""
    payload = {
        "schema": 1,
        "normalization": NORMALIZATION_NOTE,
        "dp_convention": DP_CONVENTION,
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


def run(scenario: Scenario, outdir) -> int:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[scenario.task](scenario, outdir)


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
                       help="accepted for compatibility and ignored")
    return parser


# built once per process: tests, demos and the benchmark call main in process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, task_override=args.command)
    except ValueError as exc:
        print(f"toricdensity.fileio: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return run(scenario, args.out)
    except QuadratureError as exc:
        print(f"toricdensity.density: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        # the innermost package frame names the module that rejected the
        # input; __spec__ keeps the module's name under ``python -m``
        modules = [getattr(frame.f_globals.get("__spec__"), "name", frame.f_globals["__name__"])
                   for frame, _ in traceback.walk_tb(exc.__traceback__)]
        module = [m for m in modules if m.split(".")[0] == "toricdensity"][-1]
        print(f"{module}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
