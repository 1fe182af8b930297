"""Symplectic potentials and the toric Kahler metric data they generate.

A potential is the canonical log term of the polytope plus an optional
polynomial perturbation:

    u(x) = 1/2 * sum_a ell_a(x) log ell_a(x) + w(x).

Its Hessian is closed-form, H = 1/2 sum_a nu_a nu_a^T / ell_a + Hess w, and
so is everything built on it: the inverse metric G = H^{-1}, the kernel
function

    phi(x, y) = 2 (u(x) - u(y) - <grad u(y), x - y>),

cotangent norms |df|^2_g = grad(f)^T G grad(f), and Abreu's scalar
curvature s = -1/2 sum_ij d_i d_j G^ij.  The perturbation enters through
one table of the nonvanishing partial derivatives of w.

The curvature is evaluated from the identity (u_3, u_4 the third and
fourth derivatives of u, tau_s = sum_ij G_ij u_ijs)

    s = -1/2 (-<u_4, G (x) G> + tau^T G tau + |u_3|^2_G)

in Gram form.  Write b_a = nu_a / sqrt(ell_a), so that 2H = B^T B + 2 W_2
with W_2 = Hess w, and factor 2H = C C^T (Cholesky).  With U = C^{-1} B^T by
forward substitution, Pi = U^T U = B (2H)^{-1} B^T, and with
q_ab = nu_a^T G nu_b, Pi_ab = q_ab / (2 sqrt(ell_a ell_b)).  The canonical
terms of u_3 and u_4 give

    s_0 = 2 sum_a Pi_aa (sum_{b != a} Pi_ab^2 + (G nu_a)^T W_2 (G nu_a) / (2 ell_a)) / ell_a
          - sum_{a != b} (Pi_aa Pi_bb + Pi_ab^2) Pi_ab / sqrt(ell_a ell_b).

The identity Pi - Pi^2 = 2 B (2H)^{-1} W_2 (2H)^{-1} B^T gives the diagonal
Pi_aa - Pi_aa^2 without subtracting two terms of size 1/ell, so the error
near a facet grows like eps/ell, not eps/ell^3.  The third and fourth
derivatives w_3, w_4 of w add -1/2 (-<w_4, G (x) G> + B_w + C_w), with
tau_c = -1/2 sum_a q_aa nu_a / ell_a^2 and tau_w,s = sum_ij G_ij w_ijs:

    B_w = 2 tau_c^T G tau_w + tau_w^T G tau_w,
    C_w = -sum_a w_3(G nu_a, G nu_a, G nu_a) / ell_a^2 + |w_3|^2_G.

G and G nu_a come from one back substitution of 2 C^{-1} [I, N^T], and only
when w is not zero.  The factor is of 2H, not H: doubling is exact, while
scaling every b_a by sqrt(1/2) to factor H rounds each row, and on boxes
that biased s by +4e-16 on average.  Every array of the curvature keeps
the node axis last, so each step is one vector operation over a block of
points.  ``metric_many`` and ``conorm_sq_many`` keep ``np.linalg.inv``: the
Richardson d/dt stencil of ``asymptotics`` amplifies the last bits of the
conorm facet integrals.

The divergence (div G)_j = sum_i d_i G^ij is -G tau, since
d_i G = -G (d_i H) G; with tau = tau_c + tau_w it is

    div G = 1/2 sum_a q_aa G nu_a / ell_a^2 - G tau_w,

from G and w_3 alone, which is all ``density.section_expansion_bracket``
needs.  The batched ``*_many`` methods take an (m, n) array of points; the
pointwise methods are views of their result at one point.  A
finite-difference mode exists purely as a cross-check oracle for the
curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .fields import Polynomial
from .polytope import AffineFunctional, Polytope

# points per block of scalar_curvature_many (it bounds the memory of every
# array the curvature forms, the n^4 fourth derivatives of w included), and
# per axis of the interior grid on which the constructor checks convexity
CURVATURE_BLOCK = 1024
CONVEXITY_GRID = 11
# the step of the finite-difference curvature oracle
FD_STEP = 1e-4


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return pts


def _inv(H: np.ndarray) -> np.ndarray:
    """H^{-1} for a stack of H."""
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError:
        raise ValueError("Hessian is singular: strict convexity violated") from None


def _cholesky(A: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor C of a stack A = C C^T with the node axis
    last, shape (n, n, k), by a loop over the n columns."""
    n = A.shape[0]
    C = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - (C[j, :j] ** 2).sum(axis=0)
        if not np.all(d > 0.0):
            raise ValueError("Hessian is singular: strict convexity violated")
        C[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            C[i, j] = (A[i, j] - (C[i, :j] * C[j, :j]).sum(axis=0)) / C[j, j]
    return C


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

    def __init__(self, polytope: Polytope, perturbation: Polynomial | None = None):
        self.polytope = polytope
        n = polytope.dim
        self.w = perturbation if perturbation is not None else Polynomial.zero(n)
        if self.w.nvars != n:
            raise ValueError("perturbation dimension does not match the polytope")
        self.normals = np.array([f.normal_float() for f in polytope.facets])
        self.offsets = np.array([float(f.offset) for f in polytope.facets])
        # metric integrals by exact key, filled by density._memoised
        self._integrals: dict = {}
        # d_i d_j ... w keyed by the nondecreasing index tuple (i <= j <= ...),
        # orders 1 to 4; partials that vanish identically are left out
        self._wjet: dict[tuple, Polynomial] = {}
        level = {(): self.w}
        for _ in range(0 if self.w.is_zero else 4):
            level = {idx + (k,): dp for idx, p in level.items()
                     for k in range(idx[-1] if idx else 0, n)
                     if not (dp := p.partial(k)).is_zero}
            self._wjet.update(level)
        self._check_convexity()

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def _check_convexity(self):
        pts = np.divide(*self.polytope.interior_grid(CONVEXITY_GRID))
        H = self.hessian_many(pts)
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
        dw = self._w_tensor(pts, 1)
        return out if dw is None else out + dw.T

    # -- metric tensors ------------------------------------------------------

    def _w_tensor(self, pts: np.ndarray, order: int) -> np.ndarray | None:
        """The order-th derivatives of w at pts, node axis last: shape
        (n,) * order + (m,), or None when they all vanish identically."""
        keys = [key for key in self._wjet if len(key) == order]
        if not keys:
            return None
        out = np.zeros((self.dim,) * order + (len(pts),))
        for key in keys:
            value = self._wjet[key](pts)
            for perm in set(permutations(key)):
                out[perm] = value
        return out

    def hessian_many(self, points) -> np.ndarray:
        """Batched Hessians, shape (m, n, n); all points strictly interior."""
        pts = _as_points(points)
        N = self.normals
        H = 0.5 * np.einsum("ma,ai,aj->mij", 1.0 / self._interior_ell(pts), N, N)
        W2 = self._w_tensor(pts, 2)
        return H if W2 is None else H + np.moveaxis(W2, -1, 0)

    def metric_many(self, points) -> np.ndarray:
        """Batched inverse metrics G = H^{-1}, shape (m, n, n)."""
        return _inv(self.hessian_many(points))

    def metric_divergence_many(self, points) -> np.ndarray:
        """Batched div G, shape (m, n), from G and w_3 (module docstring)."""
        pts = _as_points(points)
        G = self.metric_many(pts)
        F = G @ self.normals.T                          # F[:, :, a] = G nu_a
        q = np.einsum("ai,mia->ma", self.normals, F)    # q_aa = nu_a^T G nu_a
        out = 0.5 * np.einsum("mia,ma->mi", F, q / self.ell(pts) ** 2)
        w3 = self._w_tensor(pts, 3)
        if w3 is not None:
            out -= np.einsum("mij,mj->mi", G, np.einsum("mij,ijsm->ms", G, w3))
        return out

    def scalar_curvature_many(self, points) -> np.ndarray:
        """Batched scalar curvature by Abreu's formula in Gram form (see the
        module docstring); no derivative of H is formed.  Every array keeps
        the node axis last, so each step is one vector operation over a block
        of CURVATURE_BLOCK points; each block is written into the output."""
        pts = _as_points(points)
        out = np.empty(pts.shape[0])
        N = self.normals
        n, m = self.dim, N.shape[0]
        diag = np.arange(m)
        for start in range(0, pts.shape[0], CURVATURE_BLOCK):
            block = pts[start:start + CURVATURE_BLOCK]
            L = np.ascontiguousarray(self._interior_ell(block).T)   # (m, k)
            k = L.shape[1]
            W2, w3, w4 = (self._w_tensor(block, order) for order in (2, 3, 4))
            r = 1.0 / np.sqrt(L)
            # 2H = B^T B + 2 W2 with b_a = nu_a / sqrt(ell_a)
            A = (N.T @ (N[:, :, None] / L[:, None, :]).reshape(m, -1)).reshape(n, n, k)
            if W2 is not None:
                A += 2.0 * W2
            C = _cholesky(A)
            # forward substitution: U = C^{-1} B^T, so that Pi = U^T U, and,
            # when w is not zero, 2 C^{-1} [I, N^T] (doubling is exact)
            X = np.empty((n, m if W2 is None else 2 * m + n, k))
            X[:, :m] = N.T[:, :, None] * r
            if W2 is not None:
                X[:, m:m + n] = 2.0 * np.eye(n)[:, :, None]
                X[:, m + n:] = 2.0 * N.T[:, :, None]
            for i in range(n):
                for j in range(i):
                    X[i] -= C[i, j] * X[j]
                X[i] /= C[i, i]
            U = X[:, :m]
            Pi = U[0][:, None] * U[0][None, :]
            for i in range(1, n):
                Pi += U[i][:, None] * U[i][None, :]
            P = Pi[diag, diag]
            Pi[diag, diag] = 0.0                            # Pi off the diagonal
            Pi2 = Pi * Pi
            defect = Pi2.sum(axis=1)                        # Pi_aa - Pi_aa^2
            if W2 is not None:
                # back substitution: [G, F] = C^{-T} 2 C^{-1} [I, N^T]
                Y = X[:, m:]
                for i in reversed(range(n)):
                    for j in range(i + 1, n):
                        Y[i] -= C[j, i] * Y[j]
                    Y[i] /= C[i, i]
                G, F = Y[:, :n], Y[:, n:]                   # F[:, a] = G nu_a
                defect += 0.5 * (np.einsum("ijk,jak->iak", W2, F) * F).sum(axis=0) / L
            s = 2.0 * (P * defect / L).sum(axis=0) - (
                (P[:, None] * P[None, :] + Pi2) * Pi * (r[:, None] * r[None, :])).sum(axis=(0, 1))
            if w3 is not None:  # w4 vanishes when w3 does
                # -<w4, G (x) G> + B_w + C_w, as in the module docstring
                pert = np.zeros(k) if w4 is None else -np.einsum("ijlpk,ijk,lpk->k", w4, G, G)
                tau_w = np.einsum("ijk,ijsk->sk", G, w3)
                G_tau_c = -(F * (P / L)).sum(axis=1)
                G_tau_w = np.einsum("ijk,jk->ik", G, tau_w)
                pert += (tau_w * (2.0 * G_tau_c + G_tau_w)).sum(axis=0)
                # w3(G nu_a, G nu_a, G nu_a)
                cubes = np.einsum("ijak,iak,jak->ak", np.einsum("ijlk,lak->ijak", w3, F), F, F)
                # |w3|^2_G: raise each index of w3 with G in turn
                T = w3
                for _ in range(3):
                    T = np.einsum("ijlk,lpk->pijk", T, G)
                pert += (T * w3).sum(axis=(0, 1, 2)) - (cubes / L**2).sum(axis=0)
                s -= 0.5 * pert
            out[start:start + k] = s
        return out

    def hessian(self, x) -> np.ndarray:
        """H(x) = 1/2 sum_a nu_a nu_a^T / ell_a(x) + Hess w(x), exact formula."""
        return self.hessian_many(x)[0]

    def metric(self, x) -> np.ndarray:
        """G(x) = H(x)^{-1} only."""
        return self.metric_many(x)[0]

    def scalar_curvature(self, x) -> float:
        """s(x) = -1/2 sum_ij d_i d_j G^ij via the analytic derivatives."""
        return float(self.scalar_curvature_many(x)[0])

    def scalar_curvature_fd(self, x) -> float:
        """Finite-difference cross-check of the curvature (central stencils
        of step FD_STEP)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        h = FD_STEP
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
