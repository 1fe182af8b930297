"""Symplectic potentials and the toric Kahler metric data they generate.

A potential is the canonical log term of the polytope plus an optional
polynomial perturbation:

    u(x) = 1/2 * sum_a ell_a(x) log ell_a(x) + w(x).

All metric data comes from one batched kernel, ``_hessian_jets``: at m
strictly interior points it forms the Hessian H in closed form and, on
request, its first and second derivatives dH and d2H; the perturbation
enters through one table of the partial derivatives of w.  On top of the
kernel sit the inverse G = H^{-1} with analytic derivatives (matrix
calculus, no finite differences), the scalar curvature
s = -1/2 sum_ij d_i d_j G^ij, the kernel function

    phi(x, y) = 2 (u(x) - u(y) - <grad u(y), x - y>),

and cotangent norms |df|^2_g = grad(f)^T G grad(f).  The batched ``*_many``
methods take an (m, n) array of points; the pointwise methods are views of
their result at one point.  A finite-difference mode exists purely as a
cross-check oracle for the curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Polynomial
from .polytope import AffineFunctional, Polytope

# points per batch of scalar_curvature_many
CURVATURE_BLOCK = 1024


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return pts


def _inv(H: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError:
        raise ValueError("Hessian is singular: strict convexity violated") from None


@dataclass
class MetricAtPoint:
    """Snapshot of the metric data at one interior point."""

    x: np.ndarray
    H: np.ndarray
    G: np.ndarray
    s: float


class SymplecticPotential:
    """u = u0 + w with u0 the canonical log potential of the polytope.

    The perturbation w is a polynomial (possibly zero), which keeps all
    derivatives of H closed-form and makes strict convexity checkable:
    the constructor samples H on an interior grid and rejects the
    potential if positive-definiteness fails anywhere on the sample.
    """

    def __init__(self, polytope: Polytope, perturbation: Polynomial | None = None,
                 convexity_grid: int = 11):
        self.polytope = polytope
        n = polytope.dim
        self.w = perturbation if perturbation is not None else Polynomial.zero(n)
        if self.w.nvars != n:
            raise ValueError("perturbation dimension does not match the polytope")
        self.normals = np.array([f.normal_float() for f in polytope.facets])
        self.offsets = np.array([float(f.offset) for f in polytope.facets])
        # d_i d_j ... w keyed by the index tuple (i, j, ...), orders 1 to 4
        self._wjet: dict[tuple, Polynomial] = {}
        level = {(): self.w}
        for _ in range(0 if self.w.is_zero else 4):
            level = {idx + (k,): p.partial(k) for idx, p in level.items()
                     for k in range(n)}
            self._wjet.update(level)
        self._check_convexity(convexity_grid)

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def _check_convexity(self, per_axis: int):
        pts = self.polytope.interior_float_grid(per_axis)
        H = self._hessian_jets(pts)[0]
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            x = pts[np.argmin(np.linalg.eigvalsh(H)[:, 0])]
            raise ValueError("potential is not strictly convex: Hessian not "
                             f"positive-definite at {x}") from None

    # -- basic evaluations ---------------------------------------------------

    def ell(self, points) -> np.ndarray:
        """Facet functional values, shape (m, d)."""
        pts = _as_points(points)
        return pts @ self.normals.T - self.offsets

    def _interior_ell(self, pts: np.ndarray) -> np.ndarray:
        """ell at points that must all be strictly interior."""
        L = self.ell(pts)
        bad = np.argwhere(L <= 0.0)
        if len(bad):
            m, a = bad[0]
            raise ValueError(
                f"point {pts[m].tolist()} is not interior: ell_{a} = {L[m, a]:.3g} "
                f"for facet {self.polytope.facets[a]!r}")
        return L

    def u(self, points) -> np.ndarray:
        """Potential values; boundary points use the convention l*log(l)=0 at l=0."""
        L = self.ell(points)
        if np.any(L < -1e-12):
            raise ValueError("point outside the polytope")
        L = np.maximum(L, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = np.where(L > 0.0, L * np.log(np.where(L > 0.0, L, 1.0)), 0.0)
        base = 0.5 * ll.sum(axis=1)
        if self.w.is_zero:
            return base
        return base + self.w(_as_points(points))

    def grad_u(self, points) -> np.ndarray:
        """Gradient of u at strictly interior points, shape (m, n)."""
        pts = _as_points(points)
        L = self._interior_ell(pts)
        out = 0.5 * (np.log(L) + 1.0) @ self.normals
        if not self.w.is_zero:
            out = out + np.stack([self._wjet[(i,)](pts) for i in range(self.dim)],
                                 axis=1)
        return out

    # -- metric tensors ------------------------------------------------------

    def _hessian_jets(self, points, order: int = 0) -> list:
        """[H, dH, d2H][:order + 1] at strictly interior points, exact formulas.

        H = 1/2 sum_a nu_a nu_a^T / ell_a + Hess w, shape (m, n, n);
        dH[:, k] = d_k H and d2H[:, k, l] = d_k d_l H.
        """
        pts = _as_points(points)
        L = self._interior_ell(pts)
        N = self.normals
        jets = [0.5 * np.einsum("ma,ai,aj->mij", 1.0 / L, N, N)]
        if order >= 1:
            jets.append(-0.5 * np.einsum("ma,ak,ai,aj->mkij", 1.0 / L**2, N, N, N))
        if order >= 2:
            jets.append(np.einsum("ma,ak,al,ai,aj->mklij", 1.0 / L**3, N, N, N, N))
        for key, poly in self._wjet.items():
            r = len(key) - 2  # H takes the 2nd derivatives of w, d2H the 4th
            if 0 <= r <= order:
                i, j, *kl = key
                jets[r][(slice(None), *kl, i, j)] += poly(pts)
        return jets

    def hessian_many(self, points) -> np.ndarray:
        """Batched Hessians, shape (m, n, n); all points strictly interior."""
        return self._hessian_jets(points)[0]

    def metric_many(self, points) -> np.ndarray:
        """Batched inverse metrics G = H^{-1}, shape (m, n, n)."""
        return _inv(self.hessian_many(points))

    def scalar_curvature_many(self, points) -> np.ndarray:
        """Batched s = -1/2 sum_ij d_i d_j G^ij by matrix calculus, organized
        so only the traced contraction of the second derivative of G is ever
        formed.  Points are taken CURVATURE_BLOCK at a time, which bounds the
        rank-5 d2H array."""
        pts = _as_points(points)
        out = np.empty(pts.shape[0])
        idx = np.arange(self.dim)
        for start in range(0, pts.shape[0], CURVATURE_BLOCK):
            H, dH, d2H = self._hessian_jets(pts[start:start + CURVATURE_BLOCK], 2)
            G = _inv(H)
            # sum_kl [G d2H_kl G]_kl
            term_a = np.einsum("mki,mklij,mjl->m", G, d2H, G)
            A = np.einsum("mij,mkjl,mlp->mkip", G, dH, G)  # A[k] = G dH_k G
            A_diag = A[:, idx, idx, :]                     # row k of A[k]
            term_b = np.einsum("mkp,mlpq,mql->m", A_diag, dH, G)
            term_c = np.einsum("mklp,mlpq,mqk->m", A, dH, G)
            out[start:start + CURVATURE_BLOCK] = -0.5 * (-term_a + term_b + term_c)
        return out

    def hessian(self, x) -> np.ndarray:
        """H(x) = 1/2 sum_a nu_a nu_a^T / ell_a(x) + Hess w(x), exact formula."""
        return self.hessian_many(x)[0]

    def hessian_derivatives(self, x):
        """(H, dH, d2H) with dH[k] = d_k H and d2H[k][l] = d_k d_l H."""
        return tuple(jet[0] for jet in self._hessian_jets(x, 2))

    def inverse_metric(self, x):
        """(G, dG, d2G) by matrix calculus on the closed-form Hessian.

        dG = -G dH G and d2G = -G d2H G + G dH G dH G + (k<->l term).
        """
        H, dH, d2H = self.hessian_derivatives(x)
        G = _inv(H)
        A = G @ dH @ G                        # A[k] = G dH_k G = -dG[k]
        B = A[:, None] @ dH[None, :] @ G      # B[k, l] = G dH_k G dH_l G
        return G, -A, -G @ d2H @ G + B + B.transpose(1, 0, 2, 3)

    def metric(self, x) -> np.ndarray:
        """G(x) = H(x)^{-1} only."""
        return self.metric_many(x)[0]

    def scalar_curvature(self, x) -> float:
        """s(x) = -1/2 sum_ij d_i d_j G^ij via the analytic derivatives."""
        return float(self.scalar_curvature_many(x)[0])

    def scalar_curvature_fd(self, x, h: float = 1e-4) -> float:
        """Finite-difference cross-check of the curvature (central stencils)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        e = h * np.eye(self.dim)

        def g(p, i, j):
            return self.metric(p)[i, j]

        total = 0.0
        for i, j in np.ndindex(self.dim, self.dim):
            if i == j:
                total += (g(x + e[i], i, i) - 2.0 * g(x, i, i)
                          + g(x - e[i], i, i)) / h**2
            else:
                total += (g(x + e[i] + e[j], i, j) - g(x + e[i] - e[j], i, j)
                          - g(x - e[i] + e[j], i, j) + g(x - e[i] - e[j], i, j)) \
                    / (4.0 * h**2)
        return -0.5 * total

    def metric_at(self, x) -> MetricAtPoint:
        x = np.asarray(x, dtype=float).reshape(-1)
        return MetricAtPoint(x=x, H=self.hessian(x), G=self.metric(x),
                             s=self.scalar_curvature(x))

    # -- the kernel function phi ----------------------------------------------

    def phi(self, x, y) -> float:
        """phi(x,y) = 2(u(x) - u(y) - <grad u(y), x-y>); x may lie on the boundary."""
        return float(self.phi_many(x, y)[0])

    def phi_many(self, x, points) -> np.ndarray:
        """phi(x, y_i) for one x in P and many strictly interior y_i."""
        x = np.asarray(x, dtype=float).reshape(-1)
        pts = _as_points(points)
        ux = self.u(x)[0]
        uy = self.u(pts)
        gy = self.grad_u(pts)
        return 2.0 * (ux - uy - np.einsum("mi,mi->m", gy, x[None, :] - pts))

    def phi_matrix(self, xs: np.ndarray, points: np.ndarray) -> np.ndarray:
        """phi(x_a, y_m) as an (A, m) array; the x_a may touch the boundary."""
        xs = _as_points(xs)
        pts = _as_points(points)
        ux = self.u(xs)
        uy = self.u(pts)
        gy = self.grad_u(pts)
        cross = xs @ gy.T - np.einsum("mi,mi->m", gy, pts)[None, :]
        return 2.0 * (ux[:, None] - uy[None, :] - cross)

    # -- cotangent norms -------------------------------------------------------

    def conorm_sq_many(self, f, points) -> np.ndarray:
        """|df|^2_g = grad(f)^T G grad(f) for an affine functional or vector."""
        v = f.normal_float() if isinstance(f, AffineFunctional) else \
            np.asarray(f, dtype=float).reshape(-1)
        return np.einsum("i,mij,j->m", v, self.metric_many(points), v)

    def conorm_sq(self, f, x) -> float:
        return float(self.conorm_sq_many(f, x)[0])


def guillemin_potential(polytope: Polytope) -> SymplecticPotential:
    """The canonical potential with zero perturbation."""
    return SymplecticPotential(polytope)


def interior_distance(polytope: Polytope, x) -> float:
    """Euclidean distance from x to the boundary (min over facets)."""
    pts = _as_points(x)
    return float(min(f.value_float(pts)[0] / np.linalg.norm(f.normal_float())
                     for f in polytope.facets))
