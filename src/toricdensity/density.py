"""Numerical Bergman machinery on the polytope.

Quadrature over simplex decompositions, section norms
``int_P exp(-k phi(alpha, .))``, mass densities, full and partial density
functions, pairings with test functions, and the pointwise decay and
agreement checks in the forbidden/allowed regions.

One quadrature driver, ``integrate_orders``, computes every integral on a
centroid-fan triangulation with a Duffy-mapped Gauss rule whose collapse
vertex is the interior apex of each fan simplex.  It raises the Gauss order
on the fixed simplices, for many integrands at once on shared nodes, and
accepts an integral once two successive orders each agree with the one
before; past MAX_ORDER it refines instead, and a step beyond NODE_BUDGET
nodes raises QuadratureError before allocating.  Every integrand is smooth
on each simplex: section norms and pairings, and the metric-side curvature,
facet, corner, slope and Futaki integrals, whose regions are cut exactly
(the slope integrates over P cap {Phi <= c}, not a kink over P).
``integrate_simplices`` is its one-integrand front end.

All results are pushed down to the polytope: the (2 pi)^n fibre factor is
dropped throughout, so pairings satisfy <|e_{alpha,k}|^2, 1> = 1 and
<rho_hat_tk, 1> = #lattice points exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fields import ScalarField, as_field
from .polytope import MovingFamily, Polytope, _fr, _point

DEFAULT_REL_TOL = 1e-8

# the order sequence, order cap, node budget and evaluation block of
# integrate_orders
FIRST_ORDER = 4
ORDER_STEP = 2
MAX_ORDER = 32
NODE_BUDGET = 1 << 21
BLOCK = 1 << 18


class QuadratureError(RuntimeError):
    """Raised on non-convergence; carries the best estimate and last delta
    (arrays with one entry per integral from ``integrate_orders``)."""

    def __init__(self, message, best=None, delta=None):
        super().__init__(message)
        self.best = best
        self.delta = delta


def _tree_sum_rows(vals: np.ndarray) -> np.ndarray:
    """Pairwise reduction of each row of a 2-D array, in place, fixed order."""
    n = vals.shape[1]
    if n == 0:
        return np.zeros(vals.shape[0])
    while n > 1:
        half = n // 2
        vals[:, :half] = vals[:, :half] + vals[:, half:2 * half]
        if n % 2:
            vals[:, half] = vals[:, 2 * half]
            n = half + 1
        else:
            n = half
    return vals[:, 0]


def tree_sum(values: np.ndarray) -> float:
    """Pairwise (tree) reduction in a fixed order: bit-stable results."""
    vals = np.array(values, dtype=float).reshape(1, -1)  # copy: reduction is in place
    return float(_tree_sum_rows(vals)[0])


def _gauss01(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def reference_rule(dim: int, order: int):
    """Interior-node rule on the reference simplex, as barycentric coords.

    Duffy map of a tensor Gauss-Legendre rule; weights are relative to the
    simplex measure (they sum to 1) and every node is strictly interior.
    The collapse vertex of the map (the one xi_1 -> 1 reaches), near which
    the nodes crowd, is the simplex's last vertex: the interior apex of
    every fan simplex, so no node crowds the boundary of the polytope.
    Cached per (dim, order); the arrays are read-only.
    """
    if dim == 0:
        bary, wts = np.array([[1.0]]), np.array([1.0])
    else:
        x, w = _gauss01(order)
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        wgrids = np.meshgrid(*([w] * dim), indexing="ij")
        U = np.stack([g.ravel() for g in grids], axis=1)
        W = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
        xi = np.zeros_like(U)
        jac = np.ones(U.shape[0])
        remaining = np.ones(U.shape[0])
        for i in range(dim):
            jac *= remaining  # d(xi_i)/d(u_i) entering this step
            xi[:, i] = U[:, i] * remaining
            remaining = remaining - xi[:, i]
        wts = W * jac
        wts = wts / wts.sum()
        bary = np.concatenate([(1.0 - xi.sum(axis=1))[:, None], xi[:, ::-1]], axis=1)
    bary.flags.writeable = False
    wts.flags.writeable = False
    return bary, wts


def refine_simplices(simplices: np.ndarray) -> np.ndarray:
    """Red refinement by edge midpoints: 2^m congruent-volume children."""
    m = simplices.shape[1] - 1
    if m == 0:
        return simplices
    v = simplices

    def mid(i, j):
        return 0.5 * (v[:, i] + v[:, j])

    if m == 1:
        c = mid(0, 1)
        ch = [np.stack([v[:, 0], c], axis=1), np.stack([c, v[:, 1]], axis=1)]
    elif m == 2:
        m01, m02, m12 = mid(0, 1), mid(0, 2), mid(1, 2)
        ch = [np.stack([v[:, 0], m01, m02], axis=1),
              np.stack([m01, v[:, 1], m12], axis=1),
              np.stack([m02, m12, v[:, 2]], axis=1),
              np.stack([m01, m12, m02], axis=1)]
    elif m == 3:
        m01, m02, m03 = mid(0, 1), mid(0, 2), mid(0, 3)
        m12, m13, m23 = mid(1, 2), mid(1, 3), mid(2, 3)
        ch = [np.stack([v[:, 0], m01, m02, m03], axis=1),
              np.stack([m01, v[:, 1], m12, m13], axis=1),
              np.stack([m02, m12, v[:, 2], m23], axis=1),
              np.stack([m03, m13, m23, v[:, 3]], axis=1),
              np.stack([m01, m02, m03, m13], axis=1),
              np.stack([m01, m02, m12, m13], axis=1),
              np.stack([m02, m03, m13, m23], axis=1),
              np.stack([m02, m12, m13, m23], axis=1)]
    else:
        raise ValueError(f"refinement not implemented for {m}-simplices")
    return np.concatenate(ch, axis=0)


def _refined(S, mu):
    """Red refinement with its measures: all 2^m children of an affine
    refinement have measure parent/2^m, and refine_simplices concatenates
    them kind-major, so the measures tile."""
    m = S.shape[1] - 1
    return refine_simplices(S), np.tile(mu / (1 << m), 1 << m)


def _order_values(S, mu, fn, live, order):
    """Integrals of the components ``live`` at one Gauss order.

    Nodes and integrand values are formed at most BLOCK (component x node)
    entries at a time; each simplex is summed over its nodes by numpy's
    pairwise sum, and the simplices by ``_tree_sum_rows``.
    """
    s, m = S.shape[0], S.shape[1] - 1
    bary, wts = reference_rule(m, order)
    r = len(wts)
    per_simplex = np.empty((live.size, s))
    per_block = max(1, BLOCK // r)
    for c0 in range(0, live.size, per_block):
        comp = live[c0:c0 + per_block]
        step = max(1, BLOCK // (comp.size * r))
        for s0 in range(0, s, step):
            nodes = np.einsum("rb,sbN->srN", bary, S[s0:s0 + step])
            vals = fn(nodes.reshape(-1, S.shape[2]), comp)
            per_simplex[c0:c0 + per_block, s0:s0 + step] = \
                (vals.reshape(comp.size, -1, r) * wts).sum(axis=2)
    return _tree_sum_rows(per_simplex * mu)


def integrate_orders(simplices, measures, fn, components=1,
                     rel_tol=DEFAULT_REL_TOL, abs_tol=1e-12):
    """Integrals of several functions over weighted simplices, by order raising.

    ``fn(nodes, live)`` returns the values of the components ``live`` (an
    index array) at ``nodes``, shape (len(live), len(nodes)).  The Gauss
    order of the Duffy rule goes FIRST_ORDER, FIRST_ORDER + ORDER_STEP, ...
    up to MAX_ORDER on the fixed simplices, every live component on the same
    nodes; past MAX_ORDER each step refines the simplices at that order
    instead, which integrands that are smooth but not analytic (a bump)
    need.  A component is accepted, and evaluated no further, once two
    successive steps each moved it by at most max(rel_tol |value|, abs_tol):
    one agreement alone can come before convergence.  Returns
    (values, deltas) with the last step of each component as its delta.

    The next step's node count is checked before its nodes are allocated:
    past NODE_BUDGET nodes, QuadratureError is raised carrying the best
    values and deltas of all components.
    """
    S = np.asarray(simplices, dtype=float)
    mu = np.asarray(measures, dtype=float)
    everything = np.arange(components)
    if S.size == 0:
        return np.zeros(components), np.zeros(components)
    m = S.shape[1] - 1
    if m == 0:  # point masses: one evaluation is exact
        return _order_values(S, mu, fn, everything, 1), np.zeros(components)
    values = np.full(components, np.nan)
    deltas = np.full(components, np.inf)
    agreed = np.zeros(components, dtype=bool)
    live = everything
    order, count = FIRST_ORDER, S.shape[0]
    while live.size:
        if count * order ** m > NODE_BUDGET:
            raise QuadratureError(
                f"{live.size} of {components} integrals did not converge to "
                f"rel_tol={rel_tol} within {NODE_BUDGET} nodes (Gauss order "
                f"{order}, largest last delta {deltas[live].max():.3g})",
                best=values, delta=deltas)
        if count > S.shape[0]:
            S, mu = _refined(S, mu)
        cur = _order_values(S, mu, fn, live, order)
        step = np.abs(cur - values[live])  # nan on the first pass
        deltas[live] = np.where(np.isnan(step), np.inf, step)
        ok = deltas[live] <= np.maximum(rel_tol * np.abs(cur), abs_tol)
        values[live] = cur
        done = ok & agreed[live]
        agreed[live] = ok
        live = live[~done]
        if order < MAX_ORDER:
            order = min(order + ORDER_STEP, MAX_ORDER)
        else:
            count <<= m
    return values, deltas


def integrate_simplices(simplices, measures, fn, rel_tol=DEFAULT_REL_TOL,
                        abs_tol=1e-12):
    """Integral of one function ``fn(nodes)`` over weighted simplices.

    ``simplices`` is (s, m+1, N); ``measures`` the intrinsic measure of
    each (Leray factors folded in).  The one-component case of
    ``integrate_orders``; returns (value, delta).
    """
    def one(nodes, live):
        return np.broadcast_to(fn(nodes), (1, len(nodes)))

    (value,), (delta,) = integrate_orders(simplices, measures, one,
                                          rel_tol=rel_tol, abs_tol=abs_tol)
    return float(value), float(delta)


@dataclass
class QuadratureScheme:
    """Simplex decomposition of a polytope with an interior-node base rule."""

    polytope: Polytope
    simplices: np.ndarray
    measures: np.ndarray
    exact_volumes: list
    rel_tol: float = DEFAULT_REL_TOL

    @classmethod
    def for_polytope(cls, P: Polytope, rel_tol=DEFAULT_REL_TOL) -> "QuadratureScheme":
        tri = P.triangulation()
        if not tri:
            return cls(P, np.zeros((0, P.dim + 1, P.dim)), np.zeros(0), [], rel_tol)
        from .polytope import _simplex_volume
        vols = [_simplex_volume(s) for s in tri]
        simplices = np.array([[[float(c) for c in v] for v in s] for s in tri])
        return cls(P, simplices, np.array([float(v) for v in vols]), vols, rel_tol)

    def integrate(self, fn, rel_tol=None):
        return integrate_simplices(
            self.simplices, self.measures, fn,
            rel_tol=rel_tol if rel_tol is not None else self.rel_tol)


def integrate(P: Polytope, f, scheme: QuadratureScheme | None = None, rel_tol=None):
    """Integral of a scalar field over the polytope: (value, delta)."""
    if scheme is None:
        scheme = QuadratureScheme.for_polytope(P)
    fld = as_field(f, P.dim)
    return scheme.integrate(fld.value, rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# section bases and densities
# ---------------------------------------------------------------------------

@dataclass
class SectionBasis:
    """Lattice points of P at level k with cached section norms.

    alphas are exact rational points alpha = beta/k; norms are the
    integrals int_P exp(-k phi(alpha, z)) dz computed adaptively.
    """

    potential: object
    k: int
    alphas: list
    norms: np.ndarray
    scheme: QuadratureScheme
    _alpha_float: np.ndarray = field(init=False)

    def __post_init__(self):
        self._alpha_float = np.array([[float(c) for c in a] for a in self.alphas])
        if np.any(self.norms <= 0.0):
            raise ValueError("section norms must be strictly positive")

    @classmethod
    def build(cls, potential, k: int, rel_tol=DEFAULT_REL_TOL,
              threads: int = 1) -> "SectionBasis":
        """All norms of level k by one order-raising pass on shared nodes.

        ``threads`` is accepted for compatibility and changes nothing.
        """
        P = potential.polytope
        pts = P.lattice_points(k)
        alphas = [tuple(Fraction(m, k) for m in p) for p in pts]
        scheme = QuadratureScheme.for_polytope(P, rel_tol=rel_tol)
        alpha_float = np.array(pts, dtype=float) / k

        def fn(nodes, live):
            return np.exp(-k * potential.phi_matrix(alpha_float[live], nodes))

        norms, _ = integrate_orders(scheme.simplices, scheme.measures, fn,
                                    len(alphas), rel_tol=rel_tol)
        return cls(potential=potential, k=k, alphas=alphas, norms=norms,
                   scheme=scheme)

    def index_of(self, alpha) -> int:
        key = _point(alpha)
        try:
            return self.alphas.index(key)
        except ValueError:
            raise ValueError(f"{alpha} is not a lattice point of the basis") from None

    def density(self, points, mask=None) -> np.ndarray:
        """Pushed-down density sum_alpha exp(-k phi(alpha, y))/norm_alpha.

        mask selects a subset of alphas (a partial basis).  Kernel values
        are formed BLOCK (alpha x point) entries at a time.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.arange(len(self.alphas)) if mask is None else np.where(mask)[0]
        out = np.zeros(pts.shape[0])
        per_block = BLOCK // 256
        for p0 in range(0, pts.shape[0], per_block):
            chunk = pts[p0:p0 + per_block]
            for start in range(0, len(idx), 256):
                sel = idx[start:start + 256]
                phi = self.potential.phi_matrix(self._alpha_float[sel], chunk)
                out[p0:p0 + per_block] += \
                    (np.exp(-self.k * phi) / self.norms[sel, None]).sum(axis=0)
        return out


def section_norm(basis: SectionBasis, alpha) -> float:
    """Cached int_P exp(-k phi(alpha, z)) dz."""
    return float(basis.norms[basis.index_of(alpha)])


def mass_density(basis: SectionBasis, alpha, y) -> float:
    """Pushed-down mass density of the unit section at alpha: exp(-k phi)/norm."""
    i = basis.index_of(alpha)
    af = basis._alpha_float[i]
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    val = np.exp(-basis.k * basis.potential.phi_many(af, pts)) / basis.norms[i]
    return float(val[0]) if pts.shape[0] == 1 else val


def pair_alpha(potential, alpha, k: int, f, scheme: QuadratureScheme | None = None,
               rel_tol=None, abs_tol=1e-13):
    """<|e_{alpha,k}|^2, f> for one lattice point, no basis required.

    The density |e_{alpha,k}|^2 and its f-moment are two components of one
    order-raising pass on shared nodes, so f = 1 pairs to exactly 1.  The
    kernel is first divided by the section norm, so ``abs_tol`` floors the
    pairing itself however small the norm.  On non-convergence the
    QuadratureError carries the best pairing and its first-order error.
    """
    if scheme is None:
        scheme = QuadratureScheme.for_polytope(potential.polytope)
    af = np.array([float(_fr(c)) for c in alpha])
    fld = as_field(f, potential.polytope.dim)
    rel_tol = rel_tol if rel_tol is not None else scheme.rel_tol
    S, mu = scheme.simplices, scheme.measures

    def kernel(nodes):
        return np.exp(-k * potential.phi_many(af, nodes))

    (norm,), _ = integrate_orders(S, mu, lambda nodes, live: kernel(nodes)[None, :],
                                  rel_tol=rel_tol)

    def fn(nodes, live):
        dens = kernel(nodes) / norm
        return np.stack([dens, dens * fld.value(nodes)])[live]

    try:
        (den, num), _ = integrate_orders(S, mu, fn, 2, rel_tol=rel_tol,
                                         abs_tol=abs_tol)
    except QuadratureError as exc:
        (den, num), (d_den, d_num) = exc.best, exc.delta
        ratio = num / den
        raise QuadratureError(
            f"section pairing did not stabilize: {exc}", best=ratio,
            delta=(d_num + abs(ratio) * d_den) / abs(den)) from None
    return num / den


def pair_section(basis: SectionBasis, alpha, f, rel_tol=None, abs_tol=1e-13):
    """<|e_{alpha,k}|^2, f>: ratio of two quadratures sharing one node set."""
    basis.index_of(alpha)  # validate membership
    return pair_alpha(basis.potential, alpha, basis.k, f, scheme=basis.scheme,
                      rel_tol=rel_tol, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# expansion check for a single section
# ---------------------------------------------------------------------------

def section_expansion_bracket(potential, alpha, k: int, f: ScalarField) -> float:
    """f(a) + (1/2k)(s(a) f(a) + 1/2 sum_ij d_i d_j (G^ij f)(a))."""
    a = np.asarray(alpha, dtype=float).reshape(-1)
    fld = as_field(f, potential.polytope.dim)
    fa = float(fld.value(a[None, :])[0])
    grad = fld.gradient(a)
    hess = fld.hessian(a)
    G, dG, d2G = potential.inverse_metric(a)
    n = potential.polytope.dim
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += (d2G[i, j][i, j] * fa + dG[i][i, j] * grad[j]
                      + dG[j][i, j] * grad[i] + G[i, j] * hess[i, j])
    s = potential.scalar_curvature(a)
    return fa + (s * fa + 0.5 * total) / (2.0 * k)


def section_expansion_residual(potential, alpha, k: int, f,
                               margin: float = 0.02, rel_tol=1e-10) -> float:
    """<|e|^2, f> minus the first-order bracket; O(k^-2) when all is well.

    Refuses alphas closer to the boundary than ``margin``: only the
    interior expansion is implemented.
    """
    from .potential import interior_distance

    a = _point(alpha)
    if interior_distance(potential.polytope, [float(c) for c in a]) < margin:
        raise ValueError(
            f"alpha {alpha} is within {margin} of the boundary; "
            "the interior expansion does not apply")
    k = int(k)
    pairing = pair_alpha(potential, a, k, f, rel_tol=rel_tol)
    return pairing - section_expansion_bracket(potential, a, k, f)


DEFAULT_K_GRIDS = {1: (10, 20, 40, 80), 2: (8, 16, 32)}


def loglog_slope(ks, values, floor=1e-13):
    """Least-squares slope of log|values| against log k.

    Returns -inf when every |value| sits below ``floor`` (residuals at
    numerical zero count as maximally decaying).
    """
    vals = np.abs(np.asarray(values, dtype=float))
    if np.all(vals < floor):
        return float("-inf")
    vals = np.maximum(vals, floor)
    lk = np.log(np.asarray(ks, dtype=float))
    lv = np.log(vals)
    A = np.stack([lk, np.ones_like(lk)], axis=1)
    slope, _ = np.linalg.lstsq(A, lv, rcond=None)[0]
    return float(slope)


def section_expansion_check(potential, alpha, f, ks=None,
                            margin: float = 0.02):
    """Residuals over a k grid together with their fitted log-log slope.

    The default grid is dimension-aware: {10,20,40,80} in one dimension,
    {8,16,32} in two.
    """
    if ks is None:
        ks = DEFAULT_K_GRIDS.get(potential.polytope.dim, (8, 16, 32))
    residuals = [section_expansion_residual(potential, alpha, k, f, margin=margin)
                 for k in ks]
    return {"ks": list(ks), "residuals": residuals,
            "slope": loglog_slope(ks, residuals)}


# ---------------------------------------------------------------------------
# partial density functions
# ---------------------------------------------------------------------------

def required_divisor(family: MovingFamily, t) -> int:
    """Smallest N with (Nm)P(t) integral for all positive integers m."""
    sl = family.slice(t)
    if sl.is_empty:
        return 1
    return sl.polytope.integrality_divisor()


def _check_divisibility(family: MovingFamily, t, k: int):
    N = required_divisor(family, t)
    if k % N != 0:
        raise ValueError(
            f"kP(t) is not an integral polytope for k={k}, t={t}: "
            f"k must be divisible by N={N}")


def partial_mask(family: MovingFamily, basis: SectionBasis, t) -> np.ndarray:
    """Exact membership of each basis alpha in P(t)."""
    t = _fr(t)
    mask = np.ones(len(basis.alphas), dtype=bool)
    for i, a in enumerate(basis.alphas):
        mask[i] = all(phi.value(a) >= t for phi in family.cuts)
    return mask


def partial_density(family: MovingFamily, potential, t, k: int, points,
                    basis: SectionBasis | None = None):
    """rho_hat_tk at the given points (pushed-down normalization)."""
    _check_divisibility(family, t, k)
    if basis is None:
        basis = SectionBasis.build(potential, k)
    mask = partial_mask(family, basis, t)
    vals = basis.density(points, mask=mask)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return float(vals[0]) if pts.shape[0] == 1 and np.ndim(points) == 1 else vals


def pair_partial_density(family: MovingFamily, potential, t, k: int, f,
                         basis: SectionBasis | None = None,
                         rel_tol=1e-9):
    """<rho_hat_tk, f> by order-raising quadrature of the density over P."""
    _check_divisibility(family, t, k)
    if basis is None:
        basis = SectionBasis.build(potential, k)
    mask = partial_mask(family, basis, t)
    fld = as_field(f, potential.polytope.dim)

    def fn(pts, live):
        return (basis.density(pts, mask=mask) * fld.value(pts))[None, :]

    vals, deltas = integrate_orders(basis.scheme.simplices, basis.scheme.measures,
                                    fn, rel_tol=rel_tol)
    return float(vals[0]), float(deltas[0])


def region_classify(family: MovingFamily, t, y) -> str:
    """Exact sign test: C (forbidden), N (interface) or D (bulk)."""
    t = _fr(t)
    yq = _point(y)
    m = min(phi.value(yq) for phi in family.cuts)
    if m < t:
        return "C"
    if m == t:
        return "N"
    return "D"


@dataclass
class DecayRow:
    point: tuple
    region: str
    ks: list
    values: list          # rho_hat at the point (C) or relative gaps (D)
    slope_per_k: float | None = None
    slope_per_doubling: float | None = None
    decreasing: bool | None = None


def decay_report(family: MovingFamily, potential, t, points, ks,
                 bases: dict | None = None) -> list[DecayRow]:
    """Pointwise decay/agreement checks of the partial density.

    C(t) points get fitted slopes of log rho_hat against k; D(t) points
    get the relative gap |rho_hat - rho|/rho computed as the excluded-mass
    sum (no catastrophic cancellation).  Points on N(t) are rejected: the
    expansion makes no pointwise claim there.
    """
    pts = [(p if isinstance(p, tuple) else tuple(p)) for p in points]
    for p in pts:
        if region_classify(family, t, p) == "N":
            raise ValueError(f"point {p} lies on the interface N(t): no pointwise claim")
    bases = bases if bases is not None else {}
    for k in ks:
        _check_divisibility(family, t, k)
        if k not in bases:
            bases[k] = SectionBasis.build(potential, k)
    rows = []
    for p in pts:
        region = region_classify(family, t, p)
        pf = np.array([[float(_fr(c)) for c in p]])
        if region == "C":
            vals = []
            for k in ks:
                mask = partial_mask(family, bases[k], t)
                vals.append(float(bases[k].density(pf, mask=mask)[0]))
            clipped = np.maximum(vals, 1e-300)
            kk = np.asarray(ks, dtype=float)
            A = np.stack([kk, np.ones_like(kk)], axis=1)
            slope_k = float(np.linalg.lstsq(A, np.log(clipped), rcond=None)[0][0])
            B = np.stack([np.log2(kk), np.ones_like(kk)], axis=1)
            slope_doubling = float(np.linalg.lstsq(B, np.log(clipped), rcond=None)[0][0])
            rows.append(DecayRow(point=p, region="C", ks=list(ks), values=vals,
                                 slope_per_k=slope_k,
                                 slope_per_doubling=slope_doubling))
        else:
            gaps = []
            for k in ks:
                basis = bases[k]
                mask = partial_mask(family, basis, t)
                rho = float(basis.density(pf)[0])
                excluded = float(basis.density(pf, mask=~mask)[0])
                gaps.append(excluded / rho)
            rows.append(DecayRow(point=p, region="D", ks=list(ks), values=gaps,
                                 decreasing=all(b <= a * (1 + 1e-12)
                                                for a, b in zip(gaps, gaps[1:]))))
    return rows


def density_profile(family: MovingFamily, potential, t, k: int, points,
                    basis: SectionBasis | None = None):
    """Rows (y..., rho_k, rho_hat_tk, region) for CSV export."""
    _check_divisibility(family, t, k)
    if basis is None:
        basis = SectionBasis.build(potential, k)
    mask = partial_mask(family, basis, t)
    pts = np.atleast_2d(np.asarray(
        [[float(_fr(c)) for c in p] for p in points], dtype=float))
    rho = basis.density(pts)
    rho_hat = basis.density(pts, mask=mask)
    rows = []
    for i, p in enumerate(points):
        rows.append({
            "point": tuple(p),
            "rho_k": float(rho[i]),
            "rho_hat_tk": float(rho_hat[i]),
            "region": region_classify(family, t, tuple(p)),
        })
    return rows
