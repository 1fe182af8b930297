"""Numerical Bergman machinery on the polytope.

Quadrature over simplex decompositions, section norms
``int_P exp(-k phi(alpha, .))``, mass densities, full and partial density
functions, pairings with test functions, and the pointwise decay and
agreement checks in the forbidden/allowed regions.

One quadrature driver, ``integrate_orders``, computes every integral on the
polytope's triangulation (a fan from the vertex centroid over facets pulled
from their lowest vertex) with a Duffy-mapped Gauss rule whose collapse
vertex is the centroid, the last vertex of each simplex.  It raises the
Gauss order on the fixed simplices, for many integrands at once on shared
nodes, and accepts an integral once two successive orders each agree with
the one before; past MAX_ORDER it refines instead, and a step beyond
NODE_BUDGET nodes raises QuadratureError before allocating.  The orders
that every live integral must still take, three at first, are evaluated
together in one integrand call per BLOCK entries, then read in sequence by
the stop rule, so the results are those of one order at a time.  Every
integrand is smooth on each simplex: section norms and pairings, and the
metric-side curvature, facet, corner, slope and Futaki integrals, whose
regions are cut exactly (the slope integrates over P cap {Phi <= c}, not a
kink over P).
``integrate_simplices`` is its one-integrand front end, and every
quadrature takes its simplices from ``QuadratureScheme.for_polytope``: the
triangulation of a polytope or of a face, weighted by exact Leray measures.

Metric integrals are computed once per potential.  ``curvature_integral``
(int_R s dx), the facet and corner integrals of ``asymptotics`` and the
Gamma integrals of ``stability`` go through ``_memoised``, which keeps one
float per distinct integral in a dict on the potential.  The keys are exact
data: the facet keys of the region, or the base and cut keys of the family
with the exact slice t; the integrand f (numbers and Polynomials by value,
any other field or callable by identity) -- and nothing else: each kind of
integral runs at one fixed tolerance, CURVATURE_REL_TOL for the integrals
weighted by the scalar curvature and FACET_REL_TOL for the facet, corner and
roof-ridge integrals.  Quadrature is deterministic, so a stored value is the
one a fresh call would compute.  A value is stored only once its computation
returns: a QuadratureError is never cached.

All results are pushed down to the polytope: the (2 pi)^n fibre factor is
dropped throughout, so pairings satisfy <|e_{alpha,k}|^2, 1> = 1 and
<rho_hat_tk, 1> = #lattice points exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .fields import Polynomial, ScalarField, as_field
from .polytope import (MovingFamily, Point, Polytope, _fr, _int, _integer_points, _min_sign,
                       _point, leray_simplex_measure)
from .potential import interior_distance

DEFAULT_REL_TOL = 1e-8
# the one relative tolerance of each kind of integral: those weighted by the
# scalar curvature, and pair_partial_density; the facet, corner, roof-ridge
# and divergence-check integrals, and the pairing of
# section_expansion_residual.  pair_alpha's absolute floor is PAIRING_FLOOR.
CURVATURE_REL_TOL = 1e-9
FACET_REL_TOL = 1e-10
PAIRING_FLOOR = 1e-13
# the interior expansion is refused this close to the boundary, and
# loglog_slope reads a |residual| below SLOPE_FLOOR as numerical zero
EXPANSION_MARGIN = 0.02
SLOPE_FLOOR = 1e-13

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
    the nodes crowd, is the simplex's last vertex: the vertex centroid of
    the triangulated polytope or face, so no node crowds its boundary.
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


def _calls(sizes, cap):
    """Group the simplices of several steps, ``sizes`` giving (simplices,
    nodes per simplex) of each, into integrand calls of at most ``cap`` nodes
    (one simplex at least).  Yields (node count, runs) per call, a run
    (step, first simplex, stop, offset of its first node)."""
    runs, used = [], 0
    for j, (count, r) in enumerate(sizes):
        s0 = 0
        while s0 < count:
            n = min(count - s0, (cap - used) // r)
            if n <= 0 and runs:
                yield used, runs
                runs, used = [], 0
                continue
            n = max(n, 1)
            runs.append((j, s0, s0 + n, used))
            used += n * r
            s0 += n
    if runs:
        yield used, runs


def _order_values(steps, fn, live):
    """Integrals of the components ``live`` at each step, given as
    (simplices, measures, Gauss order), from one ``fn`` call per BLOCK
    (component x node) entries: a call takes the nodes of every step it can.

    Each simplex is summed over its nodes by numpy's pairwise sum, and the
    simplices of each step by ``_tree_sum_rows``, as for that step alone.
    """
    rules = [reference_rule(S.shape[1] - 1, order) for S, _, order in steps]
    sizes = [(S.shape[0], len(wts)) for (S, _, _), (_, wts) in zip(steps, rules)]
    dim = steps[0][0].shape[2]
    per_simplex = [np.empty((live.size, count)) for count, _ in sizes]
    per_block = max(1, BLOCK // max(r for _, r in sizes))
    for c0 in range(0, live.size, per_block):
        comp = live[c0:c0 + per_block]
        for total, runs in _calls(sizes, max(1, BLOCK // comp.size)):
            nodes = np.empty((total, dim))
            for j, s0, s1, at in runs:
                np.einsum("rb,sbN->srN", rules[j][0], steps[j][0][s0:s1],
                          out=nodes[at:at + (s1 - s0) * sizes[j][1]].reshape(s1 - s0, -1, dim))
            vals = fn(nodes, comp)
            for j, s0, s1, at in runs:
                wts = rules[j][1]
                block = vals[:, at:at + (s1 - s0) * len(wts)]
                per_simplex[j][c0:c0 + per_block, s0:s1] = \
                    (block.reshape(comp.size, -1, len(wts)) * wts).sum(axis=2)
    return [_tree_sum_rows(sums * mu) for sums, (_, mu, _) in zip(per_simplex, steps)]


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

    The steps every live component must still take are evaluated together,
    in one ``fn`` call per BLOCK (component x node) entries: three at first,
    then two, or one once some component has agreed; the stop rule then
    reads them in sequence.  No component is accepted before the last of
    them, so the values and deltas are those of one step at a time.

    Each step's node count is checked before any nodes are formed: past
    NODE_BUDGET nodes, the steps before it are evaluated and QuadratureError
    is raised carrying the best values and deltas of all components.
    """
    S = np.asarray(simplices, dtype=float)
    mu = np.asarray(measures, dtype=float)
    everything = np.arange(components)
    if S.size == 0:
        return np.zeros(components), np.zeros(components)
    m = S.shape[1] - 1
    if m == 0:  # point masses: one evaluation is exact
        (values,) = _order_values([(S, mu, 1)], fn, everything)
        return values, np.zeros(components)
    values = np.full(components, np.nan)
    deltas = np.full(components, np.inf)
    agreed = np.zeros(components, dtype=bool)
    live = everything
    order, count, batch = FIRST_ORDER, S.shape[0], 3
    while live.size:
        steps, over = [], False
        for _ in range(batch):
            over = count * order ** m > NODE_BUDGET
            if over:
                break
            if count > S.shape[0]:
                S, mu = _refined(S, mu)
            steps.append((S, mu, order))
            if order < MAX_ORDER:
                order = min(order + ORDER_STEP, MAX_ORDER)
            else:
                count <<= m
        for cur in _order_values(steps, fn, live) if steps else ():
            step = np.abs(cur - values[live])  # nan on the first pass
            deltas[live] = np.where(np.isnan(step), np.inf, step)
            ok = deltas[live] <= np.maximum(rel_tol * np.abs(cur), abs_tol)
            values[live] = cur
            done = ok & agreed[live]
            agreed[live] = ok
        if over:
            raise QuadratureError(
                f"{live.size} of {components} integrals did not converge to "
                f"rel_tol={rel_tol} within {NODE_BUDGET} nodes (Gauss order "
                f"{order}, largest last delta {deltas[live].max():.3g})",
                best=values, delta=deltas)
        live = live[~done]
        batch = 1 if agreed[live].any() else 2
    return values, deltas


def integrate_simplices(simplices, measures, fn, rel_tol=DEFAULT_REL_TOL):
    """Integral of one function ``fn(nodes)`` over weighted simplices.

    ``simplices`` is (s, m+1, N); ``measures`` the intrinsic measure of
    each (Leray factors folded in).  The one-component case of
    ``integrate_orders``; returns (value, delta).
    """
    def one(nodes, live):
        return np.broadcast_to(fn(nodes), (1, len(nodes)))

    (value,), (delta,) = integrate_orders(simplices, measures, one, rel_tol=rel_tol)
    return float(value), float(delta)


class QuadratureScheme(NamedTuple):
    """Weighted simplices, taken as ``integrate_simplices(*scheme, fn)``."""

    simplices: np.ndarray
    measures: np.ndarray

    @classmethod
    def for_polytope(cls, P: Polytope, vertex_ids: tuple | None = None,
                     *ells) -> "QuadratureScheme":
        """The triangulation of P, or of the face on {ell = 0 for ell in ells}
        that ``vertex_ids`` span, each simplex weighted by its exact Leray
        measure d(tau) d(ell_1) ... d(ell_c) = dx: its volume without ells."""
        tri = (P.triangulation() if vertex_ids is None
               else P.face_triangulation(vertex_ids, len(ells)))
        simplices = np.array([[[float(c) for c in v] for v in s] for s in tri], dtype=float)
        return cls(simplices.reshape(len(tri), P.dim + 1 - len(ells), P.dim),
                   np.array([float(leray_simplex_measure(s, *ells)) for s in tri]))

    def integrate(self, fn, rel_tol=DEFAULT_REL_TOL):
        return integrate_simplices(*self, fn, rel_tol=rel_tol)


def integrate(P: Polytope, f, rel_tol=DEFAULT_REL_TOL):
    """Integral of a scalar field over the polytope: (value, delta)."""
    return QuadratureScheme.for_polytope(P).integrate(as_field(f, P.dim).value, rel_tol)


# ---------------------------------------------------------------------------
# metric integrals, memoised per potential
# ---------------------------------------------------------------------------

class _Same:
    """A key part equal only to itself: it holds the object, so the object's
    id is not reused while the key lives."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return isinstance(other, _Same) and other.obj is self.obj


def _field_key(f):
    """Numbers and Polynomials by value; any other field or callable by identity."""
    if isinstance(f, (int, float)):
        return float(f)
    if isinstance(f, Polynomial):
        return f.nvars, tuple(sorted(f.terms.items()))
    return _Same(f)


def _region_key(P: Polytope) -> tuple:
    """The facets of P: functionals compare by value and keep their hash."""
    return tuple(P.facets)


def _family_key(family: MovingFamily) -> tuple:
    return _region_key(family.base), tuple(family.cuts)


def _memoised(potential, key: tuple, compute):
    """compute() once per potential and exact key.  The value is stored only
    after compute returns, so a QuadratureError is never cached."""
    memo = potential._integrals
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def curvature_integral(potential, P: Polytope) -> float:
    """int_P s dx at CURVATURE_REL_TOL, computed once per potential and facets
    of P."""
    return _memoised(
        potential, ("curvature", _region_key(P)),
        lambda: integrate(P, potential.scalar_curvature_many, CURVATURE_REL_TOL)[0])


# ---------------------------------------------------------------------------
# section bases and densities
# ---------------------------------------------------------------------------

@dataclass
class SectionBasis:
    """Lattice points of P at level k with cached section norms.

    lattice holds the integer points beta, the one stored form of alpha =
    beta/k (the float copy equals float(Fraction(beta, k)) for |beta| < 2**53);
    norms are the integrals int_P exp(-k phi(alpha, z)) dz.
    """

    potential: object
    k: int
    lattice: np.ndarray
    norms: np.ndarray
    rel_tol: float
    _alpha_float: np.ndarray = field(init=False)
    _masks: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        self._alpha_float = self.lattice.astype(float) / self.k
        if np.any(self.norms <= 0.0):
            raise ValueError("section norms must be strictly positive")

    @cached_property
    def alphas(self) -> list:
        """The exact points alpha = beta/k as Fraction tuples, built on first read."""
        return [tuple(Fraction(m, self.k) for m in p) for p in self.lattice.tolist()]

    @classmethod
    def build(cls, potential, k: int, rel_tol=DEFAULT_REL_TOL) -> "SectionBasis":
        """All norms of level k by one order-raising pass on shared nodes."""
        P = potential.polytope
        k = _int(k)
        pts = P.lattice_points(k)
        alpha_float = pts.astype(float) / k
        norms, _ = integrate_orders(
            *QuadratureScheme.for_polytope(P),
            lambda nodes, live: np.exp(-k * potential.phi_matrix(alpha_float[live], nodes)),
            len(pts), rel_tol=rel_tol)
        return cls(potential=potential, k=k, lattice=pts, norms=norms, rel_tol=rel_tol)

    def index_of(self, alpha) -> int:
        """Row of the lattice point k*alpha; ValueError when there is none."""
        beta = [c * self.k for c in _point(alpha)]
        if len(beta) == self.lattice.shape[1] and all(b.denominator == 1 for b in beta):
            hit = np.flatnonzero((self.lattice == [b.numerator for b in beta]).all(axis=1))
            if len(hit):
                return int(hit[0])
        raise ValueError(f"{alpha} is not a lattice point of the basis")

    def density(self, points, mask=None) -> np.ndarray:
        """Pushed-down density sum_alpha exp(-k phi(alpha, y))/norm_alpha.

        mask selects a subset of the lattice points (a partial basis).  Kernel values
        are formed BLOCK (alpha x point) entries at a time.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.arange(len(self.lattice)) if mask is None else np.where(mask)[0]
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


def _alpha_point(P: Polytope, alpha) -> Point:
    """alpha as exact coordinates (``polytope._point``), one per dimension of
    P; ValueError naming alpha otherwise."""
    a = _point(alpha)
    if len(a) != P.dim:
        raise ValueError(f"alpha has {len(a)} coordinates, the polytope has dimension {P.dim}")
    return a


def pair_alpha(potential, alpha, k: int, f, rel_tol=DEFAULT_REL_TOL):
    """<|e_{alpha,k}|^2, f> for one lattice point, no basis required.

    The density |e_{alpha,k}|^2 and its f-moment are two components of one
    order-raising pass on shared nodes, so f = 1 pairs to exactly 1.  The
    kernel is first divided by the section norm, so PAIRING_FLOOR floors the
    pairing itself however small the norm.  On non-convergence the
    QuadratureError carries the best pairing and its first-order error.
    """
    af = np.array([float(c) for c in _alpha_point(potential.polytope, alpha)])
    fld = as_field(f, potential.polytope.dim)
    S, mu = QuadratureScheme.for_polytope(potential.polytope)

    def kernel(nodes):
        return np.exp(-k * potential.phi_many(af, nodes))

    (norm,), _ = integrate_orders(S, mu, lambda nodes, live: kernel(nodes)[None, :],
                                  rel_tol=rel_tol)

    def fn(nodes, live):
        dens = kernel(nodes) / norm
        return np.stack([dens, dens * fld.value(nodes)])[live]

    try:
        (den, num), _ = integrate_orders(S, mu, fn, 2, rel_tol=rel_tol,
                                         abs_tol=PAIRING_FLOOR)
    except QuadratureError as exc:
        (den, num), (d_den, d_num) = exc.best, exc.delta
        ratio = num / den
        raise QuadratureError(
            f"section pairing did not stabilize: {exc}", best=ratio,
            delta=(d_num + abs(ratio) * d_den) / abs(den)) from None
    return num / den


def pair_section(basis: SectionBasis, alpha, f):
    """``pair_alpha`` at the basis's build tolerance."""
    basis.index_of(alpha)  # validate membership
    return pair_alpha(basis.potential, alpha, basis.k, f, rel_tol=basis.rel_tol)


# ---------------------------------------------------------------------------
# expansion check for a single section
# ---------------------------------------------------------------------------

def section_expansion_bracket(potential, alpha, k: int, f: ScalarField) -> float:
    """f(a) + (1/2k)(<div G, grad f> + 1/2 tr(G Hess f))(a): the 1/k term
    s f + 1/2 sum_ij d_i d_j (G^ij f), in which Abreu's s = -1/2 sum_ij
    d_i d_j G^ij cancels every second derivative of G."""
    a = np.asarray(alpha, dtype=float).reshape(-1)
    fld = as_field(f, potential.polytope.dim)
    fa = float(fld.value(a[None, :])[0])
    G = potential.metric_many(a)[0]
    div = potential.metric_divergence_many(a)[0]
    return fa + float(div @ fld.gradient(a) + 0.5 * np.sum(G * fld.hessian(a))) / (2.0 * k)


def section_expansion_residual(potential, alpha, k: int, f) -> float:
    """<|e|^2, f> (paired at FACET_REL_TOL) minus the first-order bracket;
    O(k^-2) when all is well.

    Refuses alphas closer to the boundary than EXPANSION_MARGIN: only the
    interior expansion is implemented.
    """
    a = _alpha_point(potential.polytope, alpha)
    if interior_distance(potential.polytope, [float(c) for c in a]) < EXPANSION_MARGIN:
        raise ValueError(
            f"alpha {alpha} is within {EXPANSION_MARGIN} of the boundary; "
            "the interior expansion does not apply")
    k = _int(k)
    pairing = pair_alpha(potential, a, k, f, rel_tol=FACET_REL_TOL)
    return pairing - section_expansion_bracket(potential, a, k, f)


DEFAULT_K_GRIDS = {1: (10, 20, 40, 80), 2: (8, 16, 32)}


def loglog_slope(ks, values):
    """Least-squares slope of log|values| against log k.

    Returns -inf when every |value| sits below SLOPE_FLOOR (residuals at
    numerical zero count as maximally decaying).
    """
    vals = np.abs(np.asarray(values, dtype=float))
    if np.all(vals < SLOPE_FLOOR):
        return float("-inf")
    vals = np.maximum(vals, SLOPE_FLOOR)
    lk = np.log(np.asarray(ks, dtype=float))
    lv = np.log(vals)
    A = np.stack([lk, np.ones_like(lk)], axis=1)
    slope, _ = np.linalg.lstsq(A, lv, rcond=None)[0]
    return float(slope)


def section_expansion_check(potential, alpha, f, ks=None):
    """Residuals over a k grid together with their fitted log-log slope.

    The default grid is dimension-aware: {10,20,40,80} in one dimension,
    {8,16,32} in two.
    """
    if ks is None:
        ks = DEFAULT_K_GRIDS.get(potential.polytope.dim, (8, 16, 32))
    residuals = [section_expansion_residual(potential, alpha, k, f) for k in ks]
    return {"ks": list(ks), "residuals": residuals,
            "slope": loglog_slope(ks, residuals)}


# ---------------------------------------------------------------------------
# partial density functions
# ---------------------------------------------------------------------------

def required_divisor(family: MovingFamily, t) -> int:
    """Smallest N with (Nm)P(t) integral for all positive integers m; P(t)
    may be lower-dimensional (``Slice.region``)."""
    region = family.slice(t).region
    return 1 if region is None else region.integrality_divisor()


def _cut_signs(family: MovingFamily, t, num: np.ndarray, den: int) -> np.ndarray:
    """Sign of min_a Phi_a - t at each point num/den (``polytope._min_sign``
    on the cleared cuts of Phi_a - t): -1 on C(t), 0 on N(t), 1 on D(t)."""
    t = _fr(t)
    return _min_sign([phi.shifted(t).cleared() for phi in family.cuts], num, den)


def partial_mask(family: MovingFamily, basis: SectionBasis, t) -> np.ndarray:
    """Exact membership of each basis alpha = m/k in P(t), read-only, once
    per basis, family and t: no cut Phi - t is negative at m/k."""
    key = (_family_key(family), _fr(t))
    if key not in basis._masks:
        mask = _cut_signs(family, t, basis.lattice, basis.k) >= 0
        mask.flags.writeable = False
        basis._masks[key] = mask
    return basis._masks[key]


def _partial_basis(family: MovingFamily, potential, t, k: int,
                   basis: SectionBasis | None):
    """(basis, mask) of rho_hat_tk: kP(t) must be integral, the basis of
    level k is built when none is given, and the mask is its ``partial_mask``."""
    N = required_divisor(family, t)
    if k % N != 0:
        raise ValueError(
            f"kP(t) is not an integral polytope for k={k}, t={t}: "
            f"k must be divisible by N={N}")
    if basis is None:
        basis = SectionBasis.build(potential, k)
    return basis, partial_mask(family, basis, t)


def partial_density(family: MovingFamily, potential, t, k: int, points,
                    basis: SectionBasis | None = None):
    """rho_hat_tk at the given points (pushed-down normalization)."""
    basis, mask = _partial_basis(family, potential, t, k, basis)
    vals = basis.density(points, mask=mask)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return float(vals[0]) if pts.shape[0] == 1 and np.ndim(points) == 1 else vals


def pair_partial_density(family: MovingFamily, potential, t, k: int, f,
                         basis: SectionBasis | None = None):
    """<rho_hat_tk, f> by order-raising quadrature of the density over P, at
    CURVATURE_REL_TOL."""
    basis, mask = _partial_basis(family, potential, t, k, basis)
    fld = as_field(f, potential.polytope.dim)

    def fn(pts, live):
        return (basis.density(pts, mask=mask) * fld.value(pts))[None, :]

    vals, deltas = integrate_orders(*QuadratureScheme.for_polytope(potential.polytope),
                                    fn, rel_tol=CURVATURE_REL_TOL)
    return float(vals[0]), float(deltas[0])


def region_classify(family: MovingFamily, t, y) -> str:
    """Exact sign test at the point y, a float coordinate taken at its exact
    binary value: C (forbidden), N (interface) or D (bulk)."""
    return "CND"[_cut_signs(family, t, *_integer_points([_point(y)]))[0] + 1]


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
    pts = [tuple(p) for p in points]
    regions = [region_classify(family, t, p) for p in pts]
    for p, region in zip(pts, regions):
        if region == "N":
            raise ValueError(f"point {p} lies on the interface N(t): no pointwise claim")
    bases = bases if bases is not None else {}
    for k in ks:
        bases[k], _ = _partial_basis(family, potential, t, k, bases.get(k))
    rows = []
    for p, region in zip(pts, regions):
        pf = np.array([[float(c) for c in _point(p)]])
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


def density_profile(family: MovingFamily, potential, t, k: int, grid,
                    basis: SectionBasis | None = None):
    """rho_k, rho_hat_tk and the region of each point num/den of
    grid = (num, den) (``Polytope.interior_grid``), as four arrays (points,
    rho_k, rho_hat_tk, region): the points as floats, num / den, at which
    both densities are evaluated, and region 'C', 'N' or 'D' from the exact
    points."""
    basis, mask = _partial_basis(family, potential, t, k, basis)
    num, den = grid
    pts = (num / den).astype(float)
    region = np.array(list("CND"))[_cut_signs(family, t, num, den) + 1]
    return pts, basis.density(pts), basis.density(pts, mask=mask), region
