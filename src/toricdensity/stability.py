"""Slope stability and toric K-stability invariants, two independent ways.

The combinatorial pipeline is exact: Hilbert coefficients A0(t), A1(t) come
from rational interpolation of lattice counts on admissible k progressions,
slopes mu_c from exact polynomial integration, and Donaldson-Futaki
invariants F1 from the k^{-1} coefficient of w_k/(k d_k) with
w_k = N(k Gamma) - N(kP), d_k = N(kP).

The metric pipeline evaluates the same invariants from a choice of
symplectic potential: scalar curvature integrals, the cut-locus integral of
Theorem-3 type for slopes, and roof-skeleton integrals Delta(Gamma) for the
Futaki invariant.  Agreement of the two pipelines is the headline check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .asymptotics import (_euclidean_simplex_measure, _dp_coefficient,
                          facet_integral)
from .density import QuadratureScheme, integrate, integrate_simplices
from .polytope import (AffineFunctional, MovingFamily, Polytope,
                       TestConfigPolytope, _fr, leray_codim2_density)


# ---------------------------------------------------------------------------
# exact polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _interpolate(xs, ys) -> list[Fraction]:
    """Exact Lagrange interpolation; returns monomial coefficients."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # numerator polynomial prod_{j != i} (x - x_j)
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = _poly_mul(num, [-xs[j], Fraction(1)])
            den *= xs[i] - xs[j]
        scale = ys[i] / den
        for d, c in enumerate(num):
            coeffs[d] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_antiderivative(coeffs):
    return [Fraction(0)] + [c / (d + 1) for d, c in enumerate(coeffs)]


def _poly_coeff(coeffs, d: int) -> Fraction:
    return coeffs[d] if d < len(coeffs) else Fraction(0)


def _fit_counts(ks, counts, degree: int, what: str):
    """Interpolate on degree+1 points and verify the rest exactly."""
    if len(ks) < degree + 2:
        raise ValueError(
            f"{what}: need at least {degree + 2} sample points for a verified "
            f"degree-{degree} fit, got {len(ks)}")
    xs = [Fraction(k) for k in ks[:degree + 1]]
    ys = [Fraction(c) for c in counts[:degree + 1]]
    coeffs = _interpolate(xs, ys)
    if len(coeffs) > degree + 1:
        raise ValueError(f"{what}: counts exceed degree {degree}")
    for k, c in zip(ks[degree + 1:], counts[degree + 1:]):
        if _poly_eval(coeffs, Fraction(k)) != c:
            raise ValueError(
                f"{what}: count at k={k} does not fit a degree-{degree} "
                "polynomial; the k grid is inadmissible")
    return coeffs


# ---------------------------------------------------------------------------
# Hilbert coefficients
# ---------------------------------------------------------------------------

@dataclass
class HilbertCoefficients:
    t: Fraction
    A0: Fraction
    A1: Fraction
    source: str


def hilbert_coeffs_combinatorial(family: MovingFamily, t,
                                 k_samples=None) -> HilbertCoefficients:
    """Exact A0(t), A1(t) from lattice counts of P(t) on an admissible grid."""
    t = _fr(t)
    n = family.base.dim
    sl = family.slice(t)
    if sl.is_empty:
        return HilbertCoefficients(t=t, A0=Fraction(0), A1=Fraction(0),
                                   source="combinatorial")
    N_div = sl.polytope.integrality_divisor()
    if k_samples is None:
        k_samples = [N_div * j for j in range(1, n + 3)]
    for k in k_samples:
        if k % N_div != 0:
            raise ValueError(f"k={k} is inadmissible: requires divisibility by {N_div}")
    counts = [sl.polytope.count_lattice_points(k) for k in k_samples]
    coeffs = _fit_counts(k_samples, counts, n, "Hilbert polynomial")
    return HilbertCoefficients(t=t, A0=_poly_coeff(coeffs, n),
                               A1=_poly_coeff(coeffs, n - 1), source="combinatorial")


def hilbert_coeffs_geometric(family: MovingFamily, potential, t,
                             dp_convention: str = "corrected") -> HilbertCoefficients:
    """A0, A1 from the metric side: Vol(P(t)) and (int s + <a_hat,1>)/2."""
    from .asymptotics import a_hat_pair
    t = _fr(t)
    sl = family.slice(t)
    if sl.is_empty:
        return HilbertCoefficients(t=t, A0=0.0, A1=0.0, source="geometric")
    scheme = QuadratureScheme.for_polytope(sl.polytope)
    s_int, _ = scheme.integrate(
        lambda pts: potential.scalar_curvature_many(pts), rel_tol=1e-9)
    a_hat = a_hat_pair(family, potential, t, 1.0, dp_convention=dp_convention)
    return HilbertCoefficients(t=t, A0=float(sl.polytope.volume()),
                               A1=0.5 * (s_int + a_hat), source="geometric")


def hilbert_polynomials(family: MovingFamily):
    """(A0(t), A1(t)) as exact polynomials on the first regularity interval.

    Interpolated from n+2 rational t samples; degrees are at most n and
    n-1, so the extra samples verify the fit.
    """
    n = family.base.dim
    crit = family.critical_values()
    pos = [c for c in crit if c > 0]
    if not pos:
        raise ValueError("the family has no positive critical value")
    c1 = pos[0]
    samples = [c1 * Fraction(j, n + 3) for j in range(1, n + 3)]
    a0_vals, a1_vals = [], []
    for t in samples:
        hc = hilbert_coeffs_combinatorial(family, t)
        a0_vals.append(hc.A0)
        a1_vals.append(hc.A1)
    A0 = _interpolate(samples[:n + 1], a0_vals[:n + 1])
    A1 = _interpolate(samples[:n], a1_vals[:n])
    for t, v in zip(samples, a0_vals):
        if _poly_eval(A0, t) != v:
            raise ValueError("A0(t) samples do not fit a degree-n polynomial")
    for t, v in zip(samples, a1_vals):
        if _poly_eval(A1, t) != v:
            raise ValueError("A1(t) samples do not fit a degree-(n-1) polynomial")
    return A0, A1


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


def slope_excess_metric(family: MovingFamily, potential, c,
                        rel_tol=1e-9) -> float:
    """mu_c - mu(X) from metric data, for a single-cut family:

        [2 int_0^c Vol(P(t)) dt]^{-1} { int_0^c int_{P(t)} (s - Av s) dx dt
                                        - 1/2 int_{S_c} |dPhi|^2_g dsigma_c }.

    As s - Av s integrates to 0 over P, the double integral is
    -int_0^c int_{C(t)} (s - Av s) dx dt = -int (c - Phi)(s - Av s) dx over
    the polytope C(c) = P cap {Phi <= c}, where the integrand is smooth.
    """
    if len(family.cuts) != 1:
        raise ValueError("the metric slope formula applies to single-cut families")
    c = _fr(c)
    if not family.is_regular(c):
        raise ValueError(f"c = {c} is a critical value of the family")
    P = family.base
    phi = family.cuts[0]
    vol = float(P.volume())
    s_int, _ = integrate(P, lambda pts: potential.scalar_curvature_many(pts),
                         rel_tol=rel_tol)
    av_s = s_int / vol

    cf = float(c)

    def weighted(pts):
        s = potential.scalar_curvature_many(pts)
        return (s - av_s) * (cf - phi.value_float(pts))

    below = _cut_region(P, [AffineFunctional([-v for v in phi.normal], -phi.offset - c)])
    term1 = 0.0 if below is None else integrate(below, weighted, rel_tol=rel_tol)[0]
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

def futaki_combinatorial(config: TestConfigPolytope, k_samples=None) -> Fraction:
    """F1: the k^{-1} coefficient of w_k/(k d_k), exact.

    w_k and d_k are interpolated as exact polynomials of degrees n+1 and n;
    F1 = (w_n d_n - w_{n+1} d_{n-1}) / d_n^2 after clearing denominators.
    """
    P = config.family.base
    n = P.dim
    N_div = config.gamma.integrality_divisor()
    N_div = N_div * P.integrality_divisor() // gcd(N_div, P.integrality_divisor())
    if k_samples is None:
        k_samples = [N_div * j for j in range(1, n + 4)]
    if len(k_samples) < n + 3:
        raise ValueError(f"need at least {n + 3} admissible k samples")
    w_counts, d_counts = [], []
    for k in k_samples:
        if k % N_div != 0:
            raise ValueError(f"k={k} inadmissible: requires divisibility by {N_div}")
        Nk_gamma = config.gamma.count_lattice_points(k)
        Nk_p = P.count_lattice_points(k)
        w_counts.append(Nk_gamma - Nk_p)
        d_counts.append(Nk_p)
    W = _fit_counts(k_samples, w_counts, n + 1, "w_k")
    D = _fit_counts(k_samples, d_counts, n, "d_k")
    w_top = _poly_coeff(W, n + 1)
    w_sub = _poly_coeff(W, n)
    d_top = _poly_coeff(D, n)
    d_sub = _poly_coeff(D, n - 1)
    if d_top == 0:
        raise ValueError("degenerate base polytope: leading Hilbert coefficient is zero")
    return (w_sub * d_top - w_top * d_sub) / d_top**2


def roof_skeleton_integral(config: TestConfigPolytope, potential,
                           rel_tol=1e-10) -> float:
    """int over the roof skeleton of dp~ = |dPhi_a - dPhi_b|^2_g dtau~_ab."""
    lifted = config.roof_functionals()
    gamma = config.gamma
    total = 0.0
    for ridge in config.roof_skeleton:
        fa = lifted[ridge.cut_a]
        fb = lifted[ridge.cut_b]
        density = leray_codim2_density(fa, fb)
        diff = (config.family.cuts[ridge.cut_a].normal_float()
                - config.family.cuts[ridge.cut_b].normal_float())
        pts = [gamma.vertices[i] for i in ridge.vertex_ids]
        m = gamma.dim - 2
        tri = gamma._triangulate_face(ridge.vertex_ids, m) if m > 0 else [tuple(pts)]
        simplices = np.array([[[float(c) for c in v] for v in s] for s in tri])
        measures = np.array([_euclidean_simplex_measure(s) * density for s in tri])

        def fn(nodes, d=diff):
            return potential.conorm_sq_many(d, nodes[:, :-1])

        val, _ = integrate_simplices(simplices, measures, fn, rel_tol=rel_tol)
        total += val
    return total


def delta_gamma(config: TestConfigPolytope, potential,
                dp_convention: str = "corrected") -> float:
    """Delta(Gamma): normalized roof-skeleton integral, >= 0.

    The corrected convention divides by 2 Vol(Gamma), consistent with the
    validated 1/2 coefficient on the corner measure; "printed" divides by
    Vol(Gamma) to reproduce the published normalization.
    """
    coef = _dp_coefficient(dp_convention)
    raw = roof_skeleton_integral(config, potential)
    return coef * raw / float(config.gamma.volume())


def _cut_region(P: Polytope, cuts) -> Polytope | None:
    """P cap {ell >= 0 for ell in cuts}, maybe empty or lower-dimensional;
    None when a constant ell is negative."""
    facets = {f.normalized().key(): f.normalized() for f in P.facets}
    for ell in cuts:
        if ell.is_constant():
            if ell.offset > 0:
                return None
            continue
        facets.setdefault(ell.normalized().key(), ell.normalized())
    return Polytope(P.dim, list(facets.values()),
                    require_full_dim=False, _normalize=False)


def _roof_projection_pieces(config: TestConfigPolytope):
    """For each cut a: the region of P where Phi_a = min_b Phi_b (full-dim only)."""
    cuts = config.family.cuts
    pieces = []
    for a, phi_a in enumerate(cuts):
        region = _cut_region(config.family.base, [
            AffineFunctional(tuple(nb - na for na, nb in zip(phi_a.normal, phi_b.normal)),
                             phi_b.offset - phi_a.offset)
            for b, phi_b in enumerate(cuts) if b != a])
        if region is not None and not region.is_empty and region.is_full_dim:
            pieces.append((a, phi_a, region))
    return pieces


def gamma_scalar_integral(config: TestConfigPolytope, potential,
                          rel_tol=1e-9) -> float:
    """int_Gamma pr1*(s) reduced to sum_a int_{R_a} s(x) Phi_a(x) dx."""
    total = 0.0
    for _, phi_a, region in _roof_projection_pieces(config):
        scheme = QuadratureScheme.for_polytope(region)

        def fn(pts, phi=phi_a):
            return potential.scalar_curvature_many(pts) * phi.value_float(pts)

        val, _ = scheme.integrate(fn, rel_tol=rel_tol)
        total += val
    return total


def futaki_metric(config: TestConfigPolytope, potential,
                  dp_convention: str = "corrected") -> float:
    """F1 = (Vol Gamma / 2 Vol P) (Av_Gamma pr1* s - Av_P s - Delta(Gamma))."""
    vol_gamma = float(config.gamma.volume())
    vol_p = float(config.family.base.volume())
    av_gamma = gamma_scalar_integral(config, potential) / vol_gamma
    s_int, _ = integrate(config.family.base,
                         lambda pts: potential.scalar_curvature_many(pts),
                         rel_tol=1e-9)
    av_p = s_int / vol_p
    delta = delta_gamma(config, potential, dp_convention=dp_convention)
    return (vol_gamma / (2.0 * vol_p)) * (av_gamma - av_p - delta)


def roof_identity_residual(config: TestConfigPolytope, potential,
                           dp_convention: str = "corrected") -> float:
    """Residual of Vol(dGamma+) = int_Gamma pr1*(s) - c int dp~ (c=1/2 corrected)."""
    coef = _dp_coefficient(dp_convention)
    lhs = float(config.side_leray_volume())
    rhs = gamma_scalar_integral(config, potential) \
        - coef * roof_skeleton_integral(config, potential)
    return lhs - rhs


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


def futaki_report(config: TestConfigPolytope, potential,
                  dp_convention: str = "corrected") -> FutakiReport:
    f1c = futaki_combinatorial(config)
    f1m = futaki_metric(config, potential, dp_convention=dp_convention)
    delta = delta_gamma(config, potential, dp_convention=dp_convention)
    is_product = len(config.roof_skeleton) == 0
    if f1c < 0:
        verdict = "F1 < 0 strictly"
    elif f1c == 0 and is_product:
        verdict = "F1 = 0 and product"
    else:
        verdict = "violation"
    return FutakiReport(config=config, F1_combinatorial=f1c, F1_metric=f1m,
                        delta=delta, is_product=is_product,
                        roof_identity_residual=roof_identity_residual(
                            config, potential, dp_convention=dp_convention),
                        verdict=verdict)


def polystability_report(P: Polytope, potential, configs,
                         dp_convention: str = "corrected") -> list[FutakiReport]:
    """Per-configuration Futaki verdicts; per-config errors are collected."""
    reports = []
    for config in configs:
        if config.family.base is not P:
            # allow equal-by-value bases
            if [f.key() for f in config.family.base.facets] != \
                    [f.key() for f in P.facets]:
                raise ValueError("configuration base does not match the polytope")
        try:
            reports.append(futaki_report(config, potential,
                                         dp_convention=dp_convention))
        except (ValueError, ArithmeticError) as exc:
            reports.append(FutakiReport(
                config=config, F1_combinatorial=None, F1_metric=None,
                delta=None, is_product=len(config.roof_skeleton) == 0,
                roof_identity_residual=None, verdict="error",
                error=str(exc)))
    return reports
