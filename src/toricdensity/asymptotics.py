"""Euler-Maclaurin lattice sums and the distributional boundary term.

The two-term Euler-Maclaurin formula

    sum_{P cap (1/k)Z^n} f = k^n int_P f dx + (k^{n-1}/2) int_{dP} f dsigma + O(k^{n-2})

is evaluated with exact rational arithmetic for constant f, so the
residual doubles as an integer oracle.  On moving families the module
assembles the boundary distribution

    <a_hat_t, f> = int_{N(t)} f dsigma
                   - 1/2 d/dt int_{N(t)} f |dPhi|^2_g dsigma
                   - c * int_{N(t)} f dp,

where dp is the codimension-2 corner measure.  The corner coefficient is
c = CORNER_COEFFICIENT = 1/2, the value exact lattice counting on the
two-cut square family forces; the paper prints c = 1, which a caller can
rebuild from the public parts as facet term + derivative term - dp_integral.
Identities tying these integrals to exact boundary volumes are provided as
residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import (CURVATURE_REL_TOL, FACET_REL_TOL, QuadratureScheme, _family_key,
                      _field_key, _memoised, curvature_integral, integrate,
                      integrate_simplices, pair_partial_density, tree_sum)
from .fields import as_field
from .polytope import MovingFamily, Polytope, Slice, _fr

# c of the corner term -c int f dp: exact lattice counts force 1/2 (the
# k^1 coefficient of N(kP(t)) on the two-cut square family); the paper
# prints 1, which misses those counts by half the corner mass
CORNER_COEFFICIENT = 0.5
# the step h of the d/dt stencil t +- h, t +- h/2; exact, so every stencil
# point is an exact slice
STENCIL_STEP = Fraction(1, 1000)


# ---------------------------------------------------------------------------
# Euler-Maclaurin
# ---------------------------------------------------------------------------

@dataclass
class EulerMaclaurinResult:
    k: int
    lattice_sum: object
    approximation: object
    residual: object
    exact: bool


def euler_maclaurin(P: Polytope, f, k: int) -> EulerMaclaurinResult:
    """Lattice sum vs k^n * int_P f + (k^{n-1}/2) * int_dP f dsigma.

    For constant f the whole computation is exact rational (Leray boundary
    volumes included) and the residual is an exact number.
    """
    N_div = P.integrality_divisor()
    if k % N_div != 0:
        raise ValueError(f"kP is not integral: k={k} must be divisible by {N_div}")
    n = P.dim
    if isinstance(f, (int, Fraction)) or (isinstance(f, float) and float(f).is_integer()):
        c = Fraction(f)
        count = P.count_lattice_points(k)
        lattice_sum = c * count
        approx = c * (Fraction(k) ** n * P.volume()
                      + Fraction(k) ** (n - 1) / 2 * P.boundary_leray_volume())
        return EulerMaclaurinResult(k=k, lattice_sum=lattice_sum,
                                    approximation=approx,
                                    residual=lattice_sum - approx, exact=True)
    fld = as_field(f, n)
    pts = P.lattice_points(k).astype(float) / k
    lattice_sum = tree_sum(fld.value(pts)) if len(pts) else 0.0
    vol_term, _ = integrate(P, fld)
    bdry = sum(integrate_simplices(
        *QuadratureScheme.for_polytope(P, P.facet_vertex_ids(a), P.facets[a]), fld.value)[0]
        for a in P.essential_facets())
    approx = float(k) ** n * vol_term + float(k) ** (n - 1) / 2.0 * bdry
    return EulerMaclaurinResult(k=k, lattice_sum=lattice_sum, approximation=approx,
                                residual=lattice_sum - approx, exact=False)


# ---------------------------------------------------------------------------
# facet and corner integrals on a slice
# ---------------------------------------------------------------------------

def _slice_at_regular(family: MovingFamily, t) -> Slice:
    t = _fr(t)
    if not family.is_regular(t):
        raise ValueError(f"t = {t} is a critical value of the family")
    sl = family.slice(t)
    if sl.is_empty:
        raise ValueError(f"P(t) is empty at t = {t}")
    return sl


def _facet_pieces(sl: Slice, scale: str = "cut"):
    """Per new facet of sl: (cut index, functional, simplices, measures),
    the last two from ``QuadratureScheme.for_polytope``.

    scale "cut" takes the Leray measure of the cut functional Phi_a - t
    itself; "primitive" that of the primitive integer conormal of the
    facet.  The two differ when a cut gradient is not primitive.
    """
    poly = sl.polytope
    out = []
    for (cut_idx, func), fid in zip(sl.new_facets, sl.new_facet_ids):
        norm_by = func if scale == "cut" else poly.facets[fid]
        out.append((cut_idx, func,
                    *QuadratureScheme.for_polytope(poly, poly.facet_vertex_ids(fid), norm_by)))
    return out


def facet_integral(family: MovingFamily, potential, t, f, weight: str = "one") -> float:
    """int_{N(t)} f * weight dsigma over the new facets of P(t), at FACET_REL_TOL.

    weight "one" integrates f against the primitive-conormal Leray measure
    (the normalization of the lattice expansion's boundary term); weight
    "conorm" integrates f |dPhi_a|^2_g against the Leray measure in the
    scale of the cut functional (the normalization the t-derivative and
    corner terms inherit from the sweep along Phi_a).  The scales coincide
    for primitive cut gradients; exact lattice counts on families with a
    non-primitive cut force the distinction.  Memoised per potential and
    active cut by ``_facet_integrals``.
    """
    if weight not in ("one", "conorm"):
        raise ValueError(f"unknown weight {weight!r}")
    sl = _slice_at_regular(family, t)
    return sum(_facet_integrals(family, potential, sl, f, weight).values(), 0.0)


def _facet_integrals(family: MovingFamily, potential, sl: Slice, f, weight: str) -> dict:
    """Per active cut, the integral of ``facet_integral`` over its new facet
    of sl.  Memoised per potential; the caller gets its own dict."""
    def compute():
        fld = as_field(f, family.base.dim)
        per_cut = {}
        pieces = _facet_pieces(sl, scale="primitive" if weight == "one" else "cut")
        for cut_idx, func, simplices, measures in pieces:
            if weight == "one":
                fn = fld.value
            else:
                def fn(pts, g=func.normal_float()):
                    return fld.value(pts) * potential.conorm_sq_many(g, pts)

            per_cut[cut_idx], _ = integrate_simplices(simplices, measures, fn,
                                                      rel_tol=FACET_REL_TOL)
        return per_cut

    return dict(_memoised(potential, ("facet", _family_key(family), sl.t, weight,
                                      _field_key(f)), compute))


def _corner_faces(sl: Slice):
    """Codim-2 faces of P(t) lying on two new facets, with their cut pair."""
    poly = sl.polytope
    pid_to_cut = {fid: cut for (cut, _), fid in zip(sl.new_facets, sl.new_facet_ids)}
    out = []
    if poly.dim < 2:
        return out
    for face in poly.faces(2):
        new_on = [a for a in face.active_facets if a in pid_to_cut]
        if len(new_on) < 2:
            continue
        # a codim-2 face of a convex polytope lies on exactly 2 facets
        a, b = sorted(new_on)[:2]
        out.append((pid_to_cut[a], pid_to_cut[b], face))
    return out


def dp_integral(family: MovingFamily, potential, t, f) -> float:
    """int_{N(t)} f dp: corner measure |dPhi_a - dPhi_b|^2_g dtau_ab summed
    over unordered pairs of active cuts, at FACET_REL_TOL.  Memoised per
    potential."""
    sl = _slice_at_regular(family, t)
    return _memoised(potential, ("dp", _family_key(family), sl.t, _field_key(f)),
                     lambda: _dp_integral(potential, sl, as_field(f, family.base.dim)))


def _dp_integral(potential, sl: Slice, fld) -> float:
    cuts = {cut: func for cut, func in sl.new_facets}
    total = 0.0
    for a, b, face in _corner_faces(sl):
        fa, fb = cuts[a], cuts[b]
        diff = fa.normal_float() - fb.normal_float()

        def fn(pts, d=diff):
            return fld.value(pts) * potential.conorm_sq_many(d, pts)

        val, _ = integrate_simplices(
            *QuadratureScheme.for_polytope(sl.polytope, face.vertex_ids, fa, fb), fn,
            rel_tol=FACET_REL_TOL)
        total += val
    return total


# ---------------------------------------------------------------------------
# the boundary distribution a_hat
# ---------------------------------------------------------------------------

@dataclass
class BoundaryDistribution:
    """<a_hat_t, f> split into its three ingredients."""

    t: Fraction
    facet_terms: dict           # per active cut, primitive-conormal measure
    derivative_term: float      # already carries the -1/2 d/dt
    corner_term: float          # already carries -CORNER_COEFFICIENT

    @property
    def facet_term(self) -> float:
        return sum(self.facet_terms.values())

    @property
    def value(self) -> float:
        return self.facet_term + self.derivative_term + self.corner_term


def _validate_stencil(family: MovingFamily, t):
    """Reject a stencil [t-h, t+h], h = STENCIL_STEP, that leaves the
    regularity interval of t, compared exactly."""
    t, h = _fr(t), STENCIL_STEP
    lo, hi = family.regularity_interval(t)
    if t - h <= lo or (hi is not None and t + h >= hi):
        top = float("inf") if hi is None else float(hi)
        raise ValueError(
            f"difference stencil [t-h, t+h] = [{float(t - h)}, {float(t + h)}] leaves "
            f"the regularity interval ({float(lo)}, {top})")


def _ddt(value_at, t) -> float:
    """Central differences at the exact points t +- h and t +- h/2,
    h = STENCIL_STEP, Richardson-extrapolated (O(h^4))."""
    t, h = _fr(t), STENCIL_STEP

    def cd(step):
        return (value_at(t + step) - value_at(t - step)) / (2.0 * float(step))

    return (4.0 * cd(h / 2) - cd(h)) / 3.0


def _derivative_term(family: MovingFamily, potential, t: Fraction, f) -> float:
    """-1/2 d/dt int_{N(t)} f |dPhi|^2_g dsigma by ``_ddt``."""
    return -0.5 * _ddt(lambda tt: facet_integral(family, potential, tt, f, "conorm"), t)


def a_hat_components(family: MovingFamily, potential, t, f) -> BoundaryDistribution:
    """Assemble <a_hat_t, f> with a central difference for the d/dt term."""
    _validate_stencil(family, t)
    sl = _slice_at_regular(family, t)
    return BoundaryDistribution(
        t=sl.t, facet_terms=_facet_integrals(family, potential, sl, f, "one"),
        derivative_term=_derivative_term(family, potential, sl.t, f),
        corner_term=-CORNER_COEFFICIENT * dp_integral(family, potential, sl.t, f))


def a_hat_pair(family: MovingFamily, potential, t, f) -> float:
    """<a_hat_t, f> as a number."""
    return a_hat_components(family, potential, t, f).value


# ---------------------------------------------------------------------------
# residual checks of the distributional expansion and its identities
# ---------------------------------------------------------------------------

def expansion_residual(family: MovingFamily, potential, t, f, k: int,
                       basis=None) -> float:
    """<rho_hat_tk, f> - k^n [ int_{P(t)} f + (1/2k)(int_{P(t)} s f + <a_hat_t, f>) ].

    Bounded by O(k^{n-2}) when the two-term expansion holds.
    """
    t = _fr(t)
    sl = _slice_at_regular(family, t)
    n = family.base.dim
    fld = as_field(f, n)
    pairing, _ = pair_partial_density(family, potential, t, k, fld, basis=basis)
    scheme = QuadratureScheme.for_polytope(sl.polytope)
    vol_term, _ = scheme.integrate(fld.value, rel_tol=FACET_REL_TOL)

    def sf(pts):
        return potential.scalar_curvature_many(pts) * fld.value(pts)

    s_term, _ = scheme.integrate(sf, rel_tol=CURVATURE_REL_TOL)
    a_hat = a_hat_pair(family, potential, t, f)
    two_term = float(k) ** n * (vol_term + (s_term + a_hat) / (2.0 * k))
    return pairing - two_term


def boundary_volume_identity(family: MovingFamily, potential, t) -> float:
    """Residual of Vol(dP(t)+) = int_{P(t)} s - 1/2 d/dt int |dPhi|^2 - c int dp,
    c = CORNER_COEFFICIENT.

    At t = 0 the cut terms vanish and the identity degenerates to
    Vol_sigma(dP) = int_P s, which holds for every admissible potential.
    No facet term of <a_hat_t, 1> is integrated.
    """
    t = _fr(t)
    if t == 0:
        return float(family.base.boundary_leray_volume()) - \
            curvature_integral(potential, family.base)
    sl = _slice_at_regular(family, t)
    _validate_stencil(family, t)
    s_int = curvature_integral(potential, sl.polytope)
    deriv = _derivative_term(family, potential, t, 1.0)
    corner = -CORNER_COEFFICIENT * dp_integral(family, potential, t, 1.0)
    lhs = sl.polytope.boundary_leray_volume(sl.old_facets)
    return float(lhs) - (s_int + deriv + corner)


def divergence_identity_check(family: MovingFamily, potential, t, xi) -> float:
    """Residual of the slice divergence identity for a single-cut family:

        int_{W(t)} div(xi) dsigma
            = d/dt int_{W(t)} <xi, dPhi> dsigma - int_{dW(t)} <xi, nu> dtau.

    xi is a polynomial vector field given as a sequence of Polynomials.
    """
    if len(family.cuts) != 1:
        raise ValueError("the divergence identity check requires a single-cut family")
    n = family.base.dim
    xi = list(xi)
    if len(xi) != n:
        raise ValueError("vector field dimension mismatch")
    div_terms = [p.partial(i) for i, p in enumerate(xi)]

    def div_fn(pts):
        return sum(p(pts) for p in div_terms)

    def xi_dot(vec):
        v = np.asarray(vec, dtype=float)

        def fn(pts):
            return sum(v[i] * xi[i](pts) for i in range(n))
        return fn

    t = _fr(t)
    sl = _slice_at_regular(family, t)
    pieces = _facet_pieces(sl)
    if not pieces:
        raise ValueError(f"the cut is not active at t = {t}")
    _, func, simplices, measures = pieces[0]
    lhs, _ = integrate_simplices(simplices, measures, div_fn, rel_tol=FACET_REL_TOL)

    _validate_stencil(family, t)

    def flux_at(tt):
        pieces_t = _facet_pieces(family.slice(tt))
        if not pieces_t:
            return 0.0
        _, fc, ss, ms = pieces_t[0]
        return integrate_simplices(ss, ms, xi_dot(fc.normal_float()), rel_tol=FACET_REL_TOL)[0]

    deriv = _ddt(flux_at, t)

    # corner term: dW(t) pieces sit on (cut, old facet) pairs
    corner = 0.0
    poly = sl.polytope
    cut_fid = sl.new_facet_ids[0]
    if poly.dim >= 2:
        for face in poly.faces(2):
            if cut_fid not in face.active_facets:
                continue
            old_on = [a for a in face.active_facets
                      if a in sl.old_facets]
            if not old_on:
                continue
            ell_b = poly.facets[old_on[0]]
            val, _ = integrate_simplices(
                *QuadratureScheme.for_polytope(poly, face.vertex_ids, func, ell_b),
                xi_dot(ell_b.normal_float()), rel_tol=FACET_REL_TOL)
            corner += val
    return lhs - (deriv - corner)
