"""Symplectic potentials and the toric Kahler metric data they generate.

A potential is the canonical log term of the polytope plus an optional
polynomial perturbation:

    u(x) = 1/2 * sum_a ell_a(x) log ell_a(x) + w(x).

From u we get the Hessian H, its inverse G with analytic first and second
derivatives (matrix calculus, no finite differences), the scalar curvature
s = -1/2 sum_ij d_i d_j G^ij, the kernel function

    phi(x, y) = 2 (u(x) - u(y) - <grad u(y), x - y>),

and cotangent norms |df|^2_g = grad(f)^T G grad(f).  A finite-difference
mode exists purely as a cross-check oracle for the curvature.
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
        self._wgrad = [self.w.partial(i) for i in range(n)]
        self._whess = [[self._wgrad[i].partial(j) for j in range(n)] for i in range(n)]
        self._wd3 = [[[self._whess[i][j].partial(k) for k in range(n)]
                      for j in range(n)] for i in range(n)]
        self._wd4 = [[[[self._wd3[i][j][k].partial(l) for l in range(n)]
                       for k in range(n)] for j in range(n)] for i in range(n)]
        self._check_convexity(convexity_grid)

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def _check_convexity(self, per_axis: int):
        pts = self.polytope.interior_float_grid(per_axis)
        for x in pts:
            H = self.hessian(x)
            try:
                np.linalg.cholesky(H)
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"potential is not strictly convex: Hessian not positive-definite at {x}")

    # -- basic evaluations ---------------------------------------------------

    def ell(self, points) -> np.ndarray:
        """Facet functional values, shape (m, d)."""
        pts = _as_points(points)
        return pts @ self.normals.T - self.offsets

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
        L = self.ell(pts)
        if np.any(L <= 0.0):
            raise ValueError("gradient of u requires strictly interior points")
        out = 0.5 * (np.log(L) + 1.0) @ self.normals
        if not self.w.is_zero:
            out = out + np.stack([g(pts) for g in self._wgrad], axis=1)
        return out

    def _interior_ell(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        L = self.ell(x)[0]
        bad = np.where(L <= 0.0)[0]
        if len(bad):
            a = int(bad[0])
            raise ValueError(
                f"point {x.tolist()} is not interior: ell_{a} = {L[a]:.3g} "
                f"for facet {self.polytope.facets[a]!r}")
        return L

    # -- metric tensors ------------------------------------------------------

    def hessian(self, x) -> np.ndarray:
        """H(x) = 1/2 sum_a nu_a nu_a^T / ell_a(x) + Hess w(x), exact formula."""
        L = self._interior_ell(x)
        H = 0.5 * np.einsum("a,ai,aj->ij", 1.0 / L, self.normals, self.normals)
        if not self.w.is_zero:
            n = self.dim
            H = H + np.array([[self._whess[i][j].value(x) for j in range(n)]
                              for i in range(n)])
        return H

    def hessian_derivatives(self, x):
        """(H, dH, d2H) with dH[k] = d_k H and d2H[k][l] = d_k d_l H."""
        L = self._interior_ell(x)
        N = self.normals
        H = 0.5 * np.einsum("a,ai,aj->ij", 1.0 / L, N, N)
        dH = -0.5 * np.einsum("a,ak,ai,aj->kij", 1.0 / L**2, N, N, N)
        d2H = np.einsum("a,ak,al,ai,aj->klij", 1.0 / L**3, N, N, N, N)
        if not self.w.is_zero:
            n = self.dim
            H = H + np.array([[self._whess[i][j].value(x) for j in range(n)]
                              for i in range(n)])
            dH = dH + np.array([[[self._wd3[i][j][k].value(x) for j in range(n)]
                                 for i in range(n)] for k in range(n)])
            d2H = d2H + np.array(
                [[[[self._wd4[i][j][k][l].value(x) for j in range(n)]
                   for i in range(n)] for l in range(n)] for k in range(n)])
        return H, dH, d2H

    def inverse_metric(self, x):
        """(G, dG, d2G) by matrix calculus on the closed-form Hessian.

        dG = -G dH G and d2G = -G d2H G + G dH G dH G + (k<->l term).
        """
        H, dH, d2H = self.hessian_derivatives(x)
        try:
            G = np.linalg.inv(H)
        except np.linalg.LinAlgError:
            raise ValueError("Hessian is singular: strict convexity violated")
        n = self.dim
        dG = np.empty_like(dH)
        for k in range(n):
            dG[k] = -G @ dH[k] @ G
        d2G = np.empty_like(d2H)
        for k in range(n):
            for l in range(n):
                d2G[k, l] = (-G @ d2H[k, l] @ G
                             + G @ dH[k] @ G @ dH[l] @ G
                             + G @ dH[l] @ G @ dH[k] @ G)
        return G, dG, d2G

    def metric(self, x) -> np.ndarray:
        """G(x) = H(x)^{-1} only."""
        H = self.hessian(x)
        try:
            return np.linalg.inv(H)
        except np.linalg.LinAlgError:
            raise ValueError("Hessian is singular: strict convexity violated")

    def hessian_many(self, points) -> np.ndarray:
        """Batched Hessians, shape (m, n, n); all points strictly interior."""
        pts = _as_points(points)
        L = self.ell(pts)
        if np.any(L <= 0.0):
            raise ValueError("Hessian requires strictly interior points")
        H = 0.5 * np.einsum("ma,ai,aj->mij", 1.0 / L, self.normals, self.normals)
        if not self.w.is_zero:
            n = self.dim
            for i in range(n):
                for j in range(n):
                    H[:, i, j] += self._whess[i][j](pts)
        return H

    def metric_many(self, points) -> np.ndarray:
        """Batched inverse metrics G = H^{-1}, shape (m, n, n)."""
        return np.linalg.inv(self.hessian_many(points))

    def scalar_curvature(self, x) -> float:
        """s(x) = -1/2 sum_ij d_i d_j G^ij via the analytic derivatives."""
        _, _, d2G = self.inverse_metric(x)
        n = self.dim
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += d2G[i, j][i, j]
        return -0.5 * total

    def scalar_curvature_many(self, points) -> np.ndarray:
        """Batched scalar curvature via the same matrix calculus as the
        pointwise version, organized so only the traced contraction of the
        second derivative of G is ever formed.  Points are taken
        CURVATURE_BLOCK at a time, which bounds the rank-5 d2H array."""
        pts = _as_points(points)
        out = np.empty(pts.shape[0])
        n = self.dim
        N = self.normals
        for start in range(0, pts.shape[0], CURVATURE_BLOCK):
            block = pts[start:start + CURVATURE_BLOCK]
            L = self.ell(block)
            if np.any(L <= 0.0):
                raise ValueError("scalar curvature requires strictly interior points")
            H = 0.5 * np.einsum("ma,ai,aj->mij", 1.0 / L, N, N)
            dH = -0.5 * np.einsum("ma,ak,ai,aj->mkij", 1.0 / L**2, N, N, N)
            d2H = np.einsum("ma,ak,al,ai,aj->mklij", 1.0 / L**3, N, N, N, N)
            if not self.w.is_zero:
                for i in range(n):
                    for j in range(n):
                        H[:, i, j] += self._whess[i][j](block)
                        for k in range(n):
                            dH[:, k, i, j] += self._wd3[i][j][k](block)
                            for l in range(n):
                                d2H[:, k, l, i, j] += self._wd4[i][j][k][l](block)
            G = np.linalg.inv(H)
            # sum_kl [G d2H_kl G]_kl
            term_a = np.einsum("mki,mklij,mjl->m", G, d2H, G)
            A = np.einsum("mij,mkjl,mlp->mkip", G, dH, G)  # A[k] = G dH_k G
            idx = np.arange(n)
            A_diag = A[:, idx, idx, :]                     # row k of A[k]
            term_b = np.einsum("mkp,mlpq,mql->m", A_diag, dH, G)
            term_c = np.einsum("mklp,mlpq,mqk->m", A, dH, G)
            out[start:start + CURVATURE_BLOCK] = -0.5 * (-term_a + term_b + term_c)
        return out

    def scalar_curvature_fd(self, x, h: float = 1e-4) -> float:
        """Finite-difference cross-check of the curvature (central stencils)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        n = self.dim

        def g_entry(p, i, j):
            return self.metric(p)[i, j]

        total = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    e = np.zeros(n)
                    e[i] = h
                    d2 = (g_entry(x + e, i, j) - 2.0 * g_entry(x, i, j)
                          + g_entry(x - e, i, j)) / h**2
                else:
                    ei = np.zeros(n)
                    ej = np.zeros(n)
                    ei[i] = h
                    ej[j] = h
                    d2 = (g_entry(x + ei + ej, i, j) - g_entry(x + ei - ej, i, j)
                          - g_entry(x - ei + ej, i, j) + g_entry(x - ei - ej, i, j)) \
                        / (4.0 * h**2)
                total += d2
        return -0.5 * total

    def metric_at(self, x) -> MetricAtPoint:
        x = np.asarray(x, dtype=float).reshape(-1)
        H = self.hessian(x)
        return MetricAtPoint(x=x, H=H, G=np.linalg.inv(H), s=self.scalar_curvature(x))

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
        Ly = self.ell(pts)
        if np.any(Ly <= 0.0):
            raise ValueError("phi requires strictly interior second argument")
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

    def conorm_sq(self, f, x) -> float:
        """|df|^2_g = grad(f)^T G(x) grad(f) for an affine functional or vector."""
        v = f.normal_float() if isinstance(f, AffineFunctional) else \
            np.asarray(f, dtype=float).reshape(-1)
        G = self.metric(x)
        return float(v @ G @ v)

    def conorm_sq_many(self, f, points) -> np.ndarray:
        v = f.normal_float() if isinstance(f, AffineFunctional) else \
            np.asarray(f, dtype=float).reshape(-1)
        G = self.metric_many(points)
        return np.einsum("i,mij,j->m", v, G, v)


def guillemin_potential(polytope: Polytope) -> SymplecticPotential:
    """The canonical potential with zero perturbation."""
    return SymplecticPotential(polytope)


def interior_distance(polytope: Polytope, x) -> float:
    """Euclidean distance from x to the boundary (min over facets)."""
    pts = _as_points(x)
    dists = []
    for f in polytope.facets:
        nrm = np.linalg.norm(f.normal_float())
        dists.append(f.value_float(pts)[0] / nrm)
    return float(min(dists))
