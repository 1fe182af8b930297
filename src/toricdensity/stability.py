"""Slope stability and toric K-stability invariants, two independent ways.

The combinatorial pipeline is exact: Hilbert polynomials A0(t), A1(t) come
from exact volumes and Leray boundary volumes of the slices (lattice counts
are their oracle), slopes mu_c from exact polynomial integration, and
Donaldson-Futaki invariants F1 from the k^{-1} coefficient of w_k/(k d_k),
w_k = N(k Gamma) - N(kP), d_k = N(kP).  Every lattice count enters through
the one Ehrhart polynomial per polytope and residue class that
``Polytope._ehrhart`` fits to fibre walks; A0, A1 of the counts and F1 read
its class-0 coefficients.

The metric pipeline evaluates the same invariants from a choice of
symplectic potential: scalar curvature integrals, the cut-locus integral of
Theorem-3 type for slopes, and roof-skeleton integrals Delta(Gamma) for the
Futaki invariant.  Agreement of the two pipelines is the headline check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import density
from .asymptotics import CORNER_COEFFICIENT, a_hat_pair, facet_integral
from .density import (CURVATURE_REL_TOL, FACET_REL_TOL, QuadratureScheme, _family_key,
                      _memoised, curvature_integral, integrate, integrate_simplices)
from .polytope import (AffineFunctional, MovingFamily, Polytope, TestConfigPolytope,
                       _fit, _fr, _intersect, _poly_eval, build_test_config)


# ---------------------------------------------------------------------------
# exact polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_antiderivative(coeffs):
    return [Fraction(0)] + [c / (d + 1) for d, c in enumerate(coeffs)]


def _poly_coeff(coeffs, d: int) -> Fraction:
    return coeffs[d] if d < len(coeffs) else Fraction(0)


# ---------------------------------------------------------------------------
# Hilbert coefficients
# ---------------------------------------------------------------------------

@dataclass
class HilbertCoefficients:
    t: Fraction
    A0: Fraction
    A1: Fraction
    source: str


def hilbert_coeffs_combinatorial(family: MovingFamily, t) -> HilbertCoefficients:
    """Exact A0(t), A1(t): the top two coefficients of the Ehrhart polynomial
    of kP(t) on the multiples k of the integrality divisor of P(t), which may
    be lower-dimensional (``Slice.region``)."""
    t = _fr(t)
    n = family.base.dim
    region = family.slice(t).region
    if region is None:
        return HilbertCoefficients(t=t, A0=Fraction(0), A1=Fraction(0),
                                   source="combinatorial")
    coeffs = region._ehrhart(0)
    return HilbertCoefficients(t=t, A0=_poly_coeff(coeffs, n),
                               A1=_poly_coeff(coeffs, n - 1), source="combinatorial")


def hilbert_coeffs_geometric(family: MovingFamily, potential, t) -> HilbertCoefficients:
    """A0, A1 from the metric side: Vol(P(t)) and (int s + <a_hat,1>)/2."""
    t = _fr(t)
    sl = family.slice(t)
    if sl.is_empty:
        return HilbertCoefficients(t=t, A0=0.0, A1=0.0, source="geometric")
    s_int = curvature_integral(potential, sl.polytope)
    a_hat = a_hat_pair(family, potential, t, 1.0)
    return HilbertCoefficients(t=t, A0=float(sl.polytope.volume()),
                               A1=0.5 * (s_int + a_hat), source="geometric")


def hilbert_polynomials(family: MovingFamily):
    """(A0(t), A1(t)) as exact polynomials on the first regularity interval.

    Interpolated from A0 = Vol P(t) and A1 = 1/2 boundary_leray_volume(), the
    first two Ehrhart coefficients of kP(t) for admissible k (McMullen 1977),
    at n+2 rational t samples; degrees are at most n and n-1, so the extra
    samples verify the fit.  Computed once per family; each call returns
    fresh coefficient lists.
    """
    if family._hilbert is None:
        family._hilbert = _hilbert_polynomials(family)
    A0, A1 = family._hilbert
    return list(A0), list(A1)


def _hilbert_polynomials(family: MovingFamily):
    n = family.base.dim
    crit = family.critical_values()
    pos = [c for c in crit if c > 0]
    if not pos:
        raise ValueError("the family has no positive critical value")
    c1 = pos[0]
    samples = [c1 * Fraction(j, n + 3) for j in range(1, n + 3)]
    slices = [family.slice(t).polytope for t in samples]
    return (_fit(samples, [Q.volume() for Q in slices], n, "A0(t)"),
            _fit(samples, [Q.boundary_leray_volume() / 2 for Q in slices], n - 1, "A1(t)"))


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------

def slope_mu(P: Polytope) -> Fraction:
    """mu(X) = A1/A0 of the full polytope, exact.

    A0 = Vol(P) and A1 = Vol_sigma(dP)/2 by the two-term lattice expansion.
    """
    return (P.boundary_leray_volume() / 2) / P.volume()


def slope_mu_c(family: MovingFamily, c) -> Fraction:
    """mu_c = [int_0^c A1 + A0'/2 dt] / [int_0^c A0 dt], exact rational."""
    c = _fr(c)
    crit = family.critical_values()
    eps = min((v for v in crit if v > 0), default=None)
    if eps is None or not 0 < c <= eps:
        raise ValueError(f"c = {c} is outside (0, {eps}] where A0, A1 are polynomial")
    A0, A1 = hilbert_polynomials(family)
    IA1 = _poly_antiderivative(A1)
    IA0 = _poly_antiderivative(A0)
    numerator = _poly_eval(IA1, c) + (_poly_eval(A0, c) - _poly_eval(A0, Fraction(0))) / 2
    denominator = _poly_eval(IA0, c)
    if denominator == 0:
        raise ValueError("denominator int_0^c A0 vanishes")
    return numerator / denominator


@dataclass
class SlopeReport:
    c: Fraction
    mu_c: Fraction
    mu_X: Fraction
    excess: Fraction
    metric_excess: float
    verdict: str


def slope_excess_metric(family: MovingFamily, potential, c) -> float:
    """mu_c - mu(X) from metric data, for a single-cut family:

        [2 int_0^c Vol(P(t)) dt]^{-1} { int_0^c int_{P(t)} (s - Av s) dx dt
                                        - 1/2 int_{S_c} |dPhi|^2_g dsigma_c }.

    As s - Av s integrates to 0 over P, the double integral is
    -int_0^c int_{C(t)} (s - Av s) dx dt = -int (c - Phi)(s - Av s) dx over
    the polytope C(c) = P cap {Phi <= c}, where the integrand is smooth.
    The curvature integrals run at CURVATURE_REL_TOL.
    """
    if len(family.cuts) != 1:
        raise ValueError("the metric slope formula applies to single-cut families")
    c = _fr(c)
    if not family.is_regular(c):
        raise ValueError(f"c = {c} is a critical value of the family")
    P = family.base
    phi = family.cuts[0]
    vol = float(P.volume())
    s_int = curvature_integral(potential, P)
    av_s = s_int / vol

    cf = float(c)

    def weighted(pts):
        s = potential.scalar_curvature_many(pts)
        return (s - av_s) * (cf - phi.value_float(pts))

    below = _intersect(P, [AffineFunctional([-v for v in phi.normal], -phi.offset - c)])
    term1 = 0.0 if below is None else integrate(below[0], weighted, CURVATURE_REL_TOL)[0]
    term2 = 0.5 * facet_integral(family, potential, c, 1.0, "conorm")
    A0, _ = hilbert_polynomials(family)
    denom = 2.0 * float(_poly_eval(_poly_antiderivative(A0), c))
    return (-term1 - term2) / denom


def slope_report(family: MovingFamily, potential, c) -> SlopeReport:
    c = _fr(c)
    mu_X = slope_mu(family.base)
    mu_c = slope_mu_c(family, c)
    excess = mu_c - mu_X
    metric = slope_excess_metric(family, potential, c)
    if excess < 0:
        verdict = "stable at c"
    elif excess == 0:
        verdict = "semistable boundary"
    else:
        verdict = "violated"
    return SlopeReport(c=c, mu_c=mu_c, mu_X=mu_X, excess=excess,
                       metric_excess=metric, verdict=verdict)


# ---------------------------------------------------------------------------
# Donaldson-Futaki invariants
# ---------------------------------------------------------------------------

def futaki_combinatorial(config: TestConfigPolytope) -> Fraction:
    """F1: the k^{-1} coefficient of w_k/(k d_k), exact.

    d_k = N(kP) and w_k = N(k Gamma) - d_k on the multiples k of both
    integrality divisors: the Ehrhart polynomials of P and Gamma on k = 0
    mod their divisors, the first of degree n, their difference of degree
    n+1; F1 = (w_n d_n - w_{n+1} d_{n-1}) / d_n^2 after clearing denominators.

    The roof normals (nu_a, -1) of Gamma must be integral for its counts to
    give F1, so Gamma is counted for r Phi, r the lcm of the denominators of
    the cut normals, and F1, of degree 1 in Phi, is divided by r.
    """
    P = config.family.base
    n = P.dim
    cuts = config.family.cuts
    r = lcm(*(v.denominator for phi in cuts for v in phi.normal))
    counted = config.gamma if r == 1 else build_test_config(MovingFamily(
        P, [AffineFunctional([r * v for v in phi.normal], r * phi.offset) for phi in cuts])).gamma
    base, gamma = P._ehrhart(0), counted._ehrhart(0)
    d_top, d_sub = _poly_coeff(base, n), _poly_coeff(base, n - 1)
    w_top, w_sub = _poly_coeff(gamma, n + 1), _poly_coeff(gamma, n) - d_top
    if d_top == 0:
        raise ValueError("degenerate base polytope: leading Hilbert coefficient is zero")
    return (w_sub * d_top - w_top * d_sub) / (d_top**2 * r)


def roof_skeleton_integral(config: TestConfigPolytope, potential) -> float:
    """int over the roof skeleton of dp~ = |dPhi_a - dPhi_b|^2_g dtau~_ab, at
    FACET_REL_TOL.  Memoised per potential and family."""
    def compute():
        lifted = config.roof_functionals()
        total = 0.0
        for ridge in config.roof_skeleton:
            diff = (config.family.cuts[ridge.cut_a].normal_float()
                    - config.family.cuts[ridge.cut_b].normal_float())

            def fn(nodes, d=diff):
                return potential.conorm_sq_many(d, nodes[:, :-1])

            val, _ = integrate_simplices(
                *QuadratureScheme.for_polytope(config.gamma, ridge.vertex_ids,
                                               lifted[ridge.cut_a], lifted[ridge.cut_b]),
                fn, rel_tol=FACET_REL_TOL)
            total += val
        return total

    return _memoised(potential, ("skeleton", _family_key(config.family)), compute)


def delta_gamma(config: TestConfigPolytope, potential) -> float:
    """Delta(Gamma): normalized roof-skeleton integral, >= 0.

    It carries the corner coefficient CORNER_COEFFICIENT = 1/2 that lattice
    counts force on a_hat, so it divides the skeleton integral by
    2 Vol(Gamma); the paper's normalization, with the printed coefficient 1,
    is roof_skeleton_integral / Vol(Gamma).
    """
    return (CORNER_COEFFICIENT * roof_skeleton_integral(config, potential)
            / float(config.gamma.volume()))


def _roof_projection_pieces(config: TestConfigPolytope):
    """For each cut a: the region of P where Phi_a = min_b Phi_b (full-dim only)."""
    cuts = config.family.cuts
    pieces = []
    for a, phi_a in enumerate(cuts):
        region = _intersect(config.family.base, [
            AffineFunctional(tuple(nb - na for na, nb in zip(phi_a.normal, phi_b.normal)),
                             phi_b.offset - phi_a.offset)
            for b, phi_b in enumerate(cuts) if b != a])
        if region is not None:
            pieces.append((a, phi_a, region[0]))
    return pieces


def _gamma_integrals(config: TestConfigPolytope, potential) -> tuple:
    """(int_Gamma pr1*(s), int_Gamma pr1*(s - Av_P s)), each reduced to a sum
    over the roof projection pieces of int_{R_a} (.) Phi_a dx; both come from
    one integrate_orders pass per piece, at CURVATURE_REL_TOL.  Memoised per
    potential and family."""
    def compute():
        P = config.family.base
        av_s = curvature_integral(potential, P) / float(P.volume())
        total = np.zeros(2)
        for _, phi_a, region in _roof_projection_pieces(config):
            def fn(pts, live, phi=phi_a):
                s = potential.scalar_curvature_many(pts)
                phi_x = phi.value_float(pts)
                return np.stack([s * phi_x, (s - av_s) * phi_x])[live]

            vals, _ = density.integrate_orders(*QuadratureScheme.for_polytope(region), fn, 2,
                                               rel_tol=CURVATURE_REL_TOL)
            total += vals
        return float(total[0]), float(total[1])

    return _memoised(potential, ("gamma_s", _family_key(config.family)), compute)


def gamma_scalar_integral(config: TestConfigPolytope, potential) -> float:
    """int_Gamma pr1*(s) reduced to sum_a int_{R_a} s(x) Phi_a(x) dx."""
    return _gamma_integrals(config, potential)[0]


def futaki_metric(config: TestConfigPolytope, potential) -> float:
    """F1 = (Vol Gamma / 2 Vol P) (Av_Gamma pr1* s - Av_P s - Delta(Gamma)).

    The difference of averages is taken as Av_Gamma pr1*(s - Av_P s), an
    integral of centred curvature, since pr1* 1 integrates to Vol Gamma: two
    averages of size s, each rounded on its own, would leave their rounding
    in an F1 that vanishes when s is constant.
    """
    centred = _gamma_integrals(config, potential)[1]
    delta = delta_gamma(config, potential)
    vol_gamma = float(config.gamma.volume())
    vol_p = float(config.family.base.volume())
    return (vol_gamma / (2.0 * vol_p)) * (centred / vol_gamma - delta)


def roof_identity_residual(config: TestConfigPolytope, potential) -> float:
    """Residual of Vol(dGamma+) = int_Gamma pr1*(s) - c int dp~, c = CORNER_COEFFICIENT."""
    lhs = float(config.side_leray_volume())
    return lhs - (gamma_scalar_integral(config, potential)
                  - CORNER_COEFFICIENT * roof_skeleton_integral(config, potential))


@dataclass
class FutakiReport:
    config: TestConfigPolytope
    F1_combinatorial: Fraction | None
    F1_metric: float | None
    delta: float | None
    is_product: bool
    roof_identity_residual: float | None
    verdict: str
    error: str | None = None


def futaki_report(config: TestConfigPolytope, potential) -> FutakiReport:
    f1c = futaki_combinatorial(config)
    is_product = len(config.roof_skeleton) == 0
    if f1c < 0:
        verdict = "F1 < 0 strictly"
    elif f1c == 0 and is_product:
        verdict = "F1 = 0 and product"
    else:
        verdict = "violation"
    return FutakiReport(config=config, F1_combinatorial=f1c,
                        F1_metric=futaki_metric(config, potential),
                        delta=delta_gamma(config, potential),
                        is_product=is_product,
                        roof_identity_residual=roof_identity_residual(config, potential),
                        verdict=verdict)


def polystability_report(P: Polytope, potential, configs) -> list[FutakiReport]:
    """Per-configuration Futaki verdicts; per-config errors are collected."""
    reports = []
    for config in configs:
        if config.family.base is not P:
            # allow equal-by-value bases
            if [f.key() for f in config.family.base.facets] != \
                    [f.key() for f in P.facets]:
                raise ValueError("configuration base does not match the polytope")
        try:
            reports.append(futaki_report(config, potential))
        except (ValueError, ArithmeticError) as exc:
            reports.append(FutakiReport(
                config=config, F1_combinatorial=None, F1_metric=None,
                delta=None, is_product=len(config.roof_skeleton) == 0,
                roof_identity_residual=None, verdict="error",
                error=str(exc)))
    return reports
