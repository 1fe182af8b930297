"""Metric data: Hessians, inverse metrics, curvature, phi and conorms."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricdensity as td
from toricdensity.fields import Polynomial
from toricdensity.potential import interior_distance

F = Fraction


def mp_phi_cp1(x, y):
    """High-precision oracle for phi on [0,1] with the canonical potential."""
    with mpmath.workdps(50):
        def u(z):
            z = mpmath.mpf(z)
            terms = []
            for ell in (z, 1 - z):
                terms.append(ell * mpmath.log(ell) if ell > 0 else mpmath.mpf(0))
            return sum(terms) / 2

        def du(z):
            z = mpmath.mpf(z)
            return mpmath.log(z / (1 - z)) / 2

        val = 2 * (u(x) - u(y) - du(y) * (mpmath.mpf(x) - mpmath.mpf(y)))
        return float(val)


@lru_cache(maxsize=None)
def perturbed_simplex3():
    """The 3-simplex with a cubic perturbation: w_3 and w_4 do not vanish."""
    return td.SymplecticPotential(
        td.standard_simplex(3),
        Polynomial(3, {(3, 0, 0): 0.02, (1, 1, 1): 0.03, (0, 2, 2): 0.01}))


class TestHessian:
    def test_cp1_midpoint(self, u_interval):
        assert u_interval.hessian([0.5]) == pytest.approx(np.array([[2.0]]))

    def test_cp2_centroid(self, u_simplex):
        H = u_simplex.hessian([1 / 3, 1 / 3])
        assert H == pytest.approx(np.array([[3.0, 1.5], [1.5, 3.0]]))

    def test_perturbation_adds(self, interval):
        up = td.SymplecticPotential(interval, Polynomial(1, {(2,): 1.0}))
        base = td.guillemin_potential(interval)
        assert up.hessian([0.5])[0, 0] == pytest.approx(
            base.hessian([0.5])[0, 0] + 2.0)

    def test_boundary_point_rejected(self, u_square):
        with pytest.raises(ValueError, match="ell_0"):
            u_square.hessian([0.0, 0.5])

    def test_batched_boundary_point_names_facet(self, u_simplex):
        # the second point lies on the hypotenuse x + y = 1, facet 2
        pts = np.array([[0.2, 0.3], [0.5, 0.5], [0.1, 0.1]])
        with pytest.raises(ValueError, match=r"\[0\.5, 0\.5\] is not interior: ell_2"):
            u_simplex.scalar_curvature_many(pts)
        with pytest.raises(ValueError, match=r"\[0\.5, 0\.5\] is not interior: ell_2"):
            u_simplex.conorm_sq_many(np.array([1.0, 0.0]), pts)


class TestInverseMetric:
    def test_cp1_closed_form(self, u_interval):
        for x in (0.2, 0.5, 0.9):
            assert u_interval.metric([x])[0, 0] == pytest.approx(2 * x * (1 - x))

    def test_cp2_closed_form(self, u_simplex):
        x = np.array([0.25, 0.25])
        G = u_simplex.metric(x)
        expected = 2 * (np.diag(x) - np.outer(x, x))
        assert G == pytest.approx(expected)
        assert G == pytest.approx(np.array([[0.375, -0.125], [-0.125, 0.375]]))

    def test_product_square_diagonal(self, u_square):
        x = np.array([0.3, 0.8])
        G = u_square.metric(x)
        assert G == pytest.approx(np.diag([2 * 0.3 * 0.7, 2 * 0.8 * 0.2]))

    def test_hg_identity(self, u_simplex):
        m = u_simplex.metric_at([0.2, 0.3])
        assert m.H @ m.G == pytest.approx(np.eye(2), abs=1e-12)

    def test_g_symmetric_positive(self, u_simplex):
        for p in np.divide(*u_simplex.polytope.interior_grid(5)):
            G = u_simplex.metric(p)
            assert np.abs(G - G.T).max() < 1e-12
            assert np.linalg.eigvalsh(G).min() > 0

    def test_div_g_matches_finite_differences(self, u_simplex):
        # (div G)_j = sum_i d_i G^ij by central differences of the metric
        h = 1e-6
        for u, x in ((u_simplex, [0.3, 0.2]), (perturbed_simplex3(), [0.2, 0.3, 0.25])):
            x = np.array(x)
            e = h * np.eye(u.dim)
            fd = sum((u.metric(x + e[i]) - u.metric(x - e[i]))[i] for i in range(u.dim)) / (2 * h)
            assert u.metric_divergence_many(x)[0] == pytest.approx(fd, abs=1e-8)

    def test_div_g_on_the_interval(self, u_interval):
        # G = 2x(1 - x) on [0, 1]
        x = np.array([0.1, 0.3, 0.5, 0.85])
        div = u_interval.metric_divergence_many(x[:, None])
        assert div[:, 0] == pytest.approx(2 - 4 * x, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("name,perturbed,x", [
        ("simplex3", True, [F(1, 8), F(1, 4), F(3, 8)]),
        ("simplex3", False, [F(1, 16), F(5, 8), F(1, 4)]),
        ("square", True, [F(1, 4), F(7, 8)]),
        ("non_delzant", True, [F(1, 2), F(1, 4)])])
    def test_div_g_matches_exact(self, name, perturbed, x):
        # dyadic points and coefficients: the float input is the exact one
        u = oracle_potential(name, perturbed)
        G, tau, _, _ = exact_metric(u.polytope, u.w.terms, x)
        exact = [-sum(G[i][j] * tau[j] for j in range(u.dim)) for i in range(u.dim)]
        got = u.metric_divergence_many([float(c) for c in x])[0]
        assert got == pytest.approx([float(v) for v in exact], rel=1e-14, abs=1e-14)

    def test_gnu_vanishes_at_facet_rate(self, u_square):
        # |G nu| <= C * ell along an approach to the facet x1 = 0
        nu = np.array([1.0, 0.0])
        ratios = []
        for ell in (0.1, 0.05, 0.01, 0.005, 0.001):
            G = u_square.metric([ell, 0.5])
            ratios.append(np.linalg.norm(G @ nu) / ell)
        assert max(ratios) < 2.5
        g_small = np.linalg.norm(u_square.metric([1e-6, 0.5]) @ nu)
        assert g_small < 1e-5


class TestScalarCurvature:
    @pytest.mark.parametrize("fixture,expected", [
        ("u_interval", 2.0), ("u_simplex", 6.0), ("u_square", 4.0)])
    def test_constant_curvature(self, fixture, expected, request):
        u = request.getfixturevalue(fixture)
        pts = np.divide(*u.polytope.interior_grid(10))
        s = u.scalar_curvature_many(pts)
        assert np.max(np.abs(s - expected)) < 1e-9

    def test_product_additivity(self, u_interval, u_square):
        # square = interval x interval: curvature adds
        s1 = u_interval.scalar_curvature([0.37])
        s2 = u_interval.scalar_curvature([0.81])
        assert u_square.scalar_curvature([0.37, 0.81]) == pytest.approx(s1 + s2)

    def test_cube_constant_six(self):
        uc = td.guillemin_potential(td.box([1, 1, 1]))
        for p in ([0.5, 0.5, 0.5], [0.2, 0.7, 0.4]):
            assert uc.scalar_curvature(p) == pytest.approx(6.0, abs=1e-10)

    def test_fd_cross_check(self, u_simplex):
        for x in ([0.3, 0.3], [0.2, 0.5], [0.45, 0.15]):
            analytic = u_simplex.scalar_curvature(x)
            fd = u_simplex.scalar_curvature_fd(x)
            assert abs(analytic - fd) < 1e-6

    def test_fd_cross_check_perturbed(self, square):
        up = td.SymplecticPotential(square, Polynomial(2, {(3, 0): 0.05}))
        for x in ([0.4, 0.6], [0.2, 0.2]):
            assert abs(up.scalar_curvature(x) - up.scalar_curvature_fd(x)) < 1e-6

    def test_batched_matches_pointwise(self, u_simplex, u_simplex_perturbed):
        close = dict(rtol=1e-13, atol=1e-12)
        for u in (u_simplex, u_simplex_perturbed, perturbed_simplex3()):
            pts = np.divide(*u.polytope.interior_grid(6))
            batched = u.scalar_curvature_many(pts)
            single = np.array([u.scalar_curvature(p) for p in pts])
            assert batched == pytest.approx(single, abs=1e-12)

            hess = u.hessian_many(pts)
            G = u.metric_many(pts)
            v = np.arange(1.0, u.dim + 1.0)
            conorm = u.conorm_sq_many(v, pts)
            for m, p in enumerate(pts):
                np.testing.assert_allclose(u.hessian(p), hess[m], **close)
                np.testing.assert_allclose(u.metric(p), G[m], **close)
                assert u.conorm_sq(v, p) == pytest.approx(conorm[m], rel=1e-13)


def exact_inverse(H):
    """Inverse of a nonsingular Fraction matrix by Gauss-Jordan elimination."""
    n = len(H)
    A = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(H)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                A[r] = [v - A[r][c] * pv for v, pv in zip(A[r], A[c])]
    return [row[n:] for row in A]


def exact_metric(P, w_terms, x):
    """(G, tau, d_u, ells) at a rational point, exactly, for
    u = 1/2 sum_a ell_a log ell_a + w with w = sum of c * x^e over w_terms
    {e: c}: G = H^{-1} is an exact Fraction inverse, tau_s = sum_ij G_ij u_ijs
    (so div G = -G tau), d_u(idx) the partial of u along idx (order >= 2)
    and ells the facet values."""
    n = P.dim
    x = [F(v) for v in x]
    ells = [f.value(x) for f in P.facets]
    w = {e: F(c) for e, c in w_terms.items()}

    def d_w(idx):
        total = F(0)
        for expo, c in w.items():
            e = list(expo)
            for i in idx:
                c *= e[i]
                e[i] -= 1
            if c:
                total += c * prod(xi ** ei for xi, ei in zip(x, e))
        return total

    def d_u(idx):
        # d^k of 1/2 ell log ell is 1/2 (-1)^k (k-2)! nu^(x)k / ell^(k-1)
        k = len(idx)
        coef = F((-1) ** k * factorial(k - 2), 2)
        return d_w(idx) + sum(coef * prod(f.normal[i] for i in idx) / ell ** (k - 1)
                              for f, ell in zip(P.facets, ells))

    R = range(n)
    G = exact_inverse([[d_u((i, j)) for j in R] for i in R])
    tau = [sum(G[i][j] * d_u((i, j, s)) for i in R for j in R) for s in R]
    return G, tau, d_u, ells


def exact_curvature(P, w_terms, x):
    """(s, min_a ell_a) at a rational point, exactly, from the identity
    s = -1/2 (-<u_4, G (x) G> + tau^T G tau + |u_3|^2_G), with G, tau and
    the partials of u from ``exact_metric``."""
    R = range(P.dim)
    G, tau, d_u, ells = exact_metric(P, w_terms, x)
    u3 = {idx: d_u(idx) for idx in itertools.product(R, repeat=3)}
    u4 = sum(d_u((i, j, k, l)) * G[i][j] * G[k][l]
             for i, j, k, l in itertools.product(R, repeat=4))
    tau_sq = sum(tau[i] * G[i][j] * tau[j] for i in R for j in R)
    raised = u3
    for axis in range(3):
        raised = {idx: sum(raised[idx[:axis] + (k,) + idx[axis + 1:]] * G[k][idx[axis]]
                           for k in R)
                  for idx in itertools.product(R, repeat=3)}
    u3_sq = sum(raised[idx] * u3[idx] for idx in u3)
    return -F(1, 2) * (-u4 + tau_sq + u3_sq), min(ells)


ORACLE_POLYTOPES = {
    "simplex3": td.standard_simplex(3),
    "square": td.box([1, 1]),
    "cube": td.box([1, 1, 1]),
    # the vertex (0, 1) is not Delzant: det of (1, 0) and (-1, -2) is -2
    "non_delzant": td.Polytope(2, [td.AffineFunctional([1, 0], 0),
                                   td.AffineFunctional([0, 1], 0),
                                   td.AffineFunctional([-1, -2], -2)]),
}
# dyadic coefficients, so the float perturbation is exactly the rational one
ORACLE_CUBICS = {2: {(3, 0): 1 / 32, (1, 2): -3 / 64, (2, 0): 1 / 16},
                 3: {(3, 0, 0): 1 / 32, (1, 1, 1): 3 / 64, (0, 2, 1): -1 / 32}}


@lru_cache(maxsize=None)
def oracle_potential(name, perturbed):
    P = ORACLE_POLYTOPES[name]
    return td.SymplecticPotential(
        P, Polynomial(P.dim, ORACLE_CUBICS[P.dim]) if perturbed else None)


@st.composite
def near_face(draw):
    """(polytope name, float point) at relative depth 1e-6..1e-2 from a
    facet, an edge or a vertex: a point p in the relative interior of the
    face moved towards the vertex centroid c, to p + delta (c - p)."""
    name = draw(st.sampled_from(sorted(ORACLE_POLYTOPES)))
    P = ORACLE_POLYTOPES[name]
    face = draw(st.sampled_from(P.faces(draw(st.integers(1, P.dim)))))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(face.vertex_ids),
                                     max_size=len(face.vertex_ids))))
    verts = np.array(P.vertices, dtype=float)
    p = weights / weights.sum() @ verts[list(face.vertex_ids)]
    delta = 10.0 ** draw(st.floats(-6.0, -2.0))
    return name, p + delta * (verts.mean(axis=0) - p)


class TestExactCurvatureOracle:
    def test_reproduces_constant_curvature(self):
        assert exact_curvature(td.standard_simplex(3), {}, [F(1, 4)] * 3)[0] == 12
        assert exact_curvature(td.standard_simplex(2), {}, [F(1, 5), F(1, 2)])[0] == 6

    @given(near_face(), st.booleans())
    @example(("simplex3", np.full(3, (1 - 1e-3) / 3)), False)  # 1e-3 from x+y+z=1
    @example(("simplex3", np.array([0.25e-6, 0.5 - 0.25e-6, 0.5 - 0.25e-6])), True)  # edge
    @example(("cube", np.full(3, 1e-6)), True)  # vertex
    @settings(max_examples=60, deadline=None)
    def test_error_near_boundary(self, case, perturbed):
        # the projection form errs by O(eps/ell) near a face, not O(eps/ell^3)
        name, x = case
        u = oracle_potential(name, perturbed)
        exact, ell_min = exact_curvature(u.polytope, u.w.terms, x)
        err = abs(u.scalar_curvature(x) - float(exact))
        eps = np.finfo(float).eps
        assert err <= 8 * eps * max(1.0, abs(float(exact))) / float(ell_min)


def _reference_scalar_curvature_many(u, points):
    """Abreu's curvature in projection form, node axis first: one LAPACK
    solve per point for G and F = G N^T, then Pi = (N F) / (2 sqrt(ell_a
    ell_b)).  The kernel that the Gram form replaced, kept as its reference."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    N = u.normals
    n = u.dim
    off = ~np.eye(N.shape[0], dtype=bool)
    L = u.ell(pts)
    W2, w3, w4 = (None if (t := u._w_tensor(pts, r)) is None else np.moveaxis(t, -1, 0)
                  for r in (2, 3, 4))
    H = (N.T * (0.5 / L)[:, None, :]) @ N
    if W2 is not None:
        H += W2
    GF = np.linalg.solve(H, np.broadcast_to(np.concatenate([np.eye(n), N.T], axis=1),
                                            H.shape[:-1] + (n + N.shape[0],)))
    G, F = GF[:, :, :n], GF[:, :, n:]
    r = 1.0 / np.sqrt(L)
    rr = r[:, :, None] * r[:, None, :]
    Pi = 0.5 * (N @ F) * rr
    P = np.diagonal(Pi, axis1=1, axis2=2)
    Poff = np.where(off, Pi, 0.0)
    defect = (Poff * Poff).sum(axis=2)
    if W2 is not None:
        defect += 0.5 * ((W2 @ F) * F).sum(axis=1) / L
    s = 2.0 * (P * defect / L).sum(axis=1) - (
        (P[:, :, None] * P[:, None, :] + Poff * Poff) * Poff * rr).sum(axis=(1, 2))
    if w3 is None:
        return s
    m = len(pts)
    total = np.zeros(m)
    if w4 is not None:
        Gf = G.reshape(m, n * n, 1)
        total -= (w4.reshape(m, n * n, n * n) @ Gf * Gf).sum(axis=(1, 2))
    tau_w = (G.reshape(m, 1, n * n) @ w3.reshape(m, n * n, n))[:, 0]
    G_tau_c = -(F * (P / L)[:, None, :]).sum(axis=2)
    G_tau_w = (G @ tau_w[:, :, None])[:, :, 0]
    total += (tau_w * (2.0 * G_tau_c + G_tau_w)).sum(axis=1)
    Ft = F.transpose(0, 2, 1)
    FF = (Ft[:, :, :, None] * Ft[:, :, None, :]).reshape(m, -1, n * n)
    cubes = ((Ft @ w3.reshape(m, n, n * n)) * FF).sum(axis=2)
    T = w3
    for _ in range(3):
        T = (T.reshape(m, n * n, n) @ G).reshape(m, n, n, n).transpose(0, 3, 1, 2)
    total += (T * w3).sum(axis=(1, 2, 3)) - (cubes / L**2).sum(axis=1)
    return s - 0.5 * total


# ORACLE_POLYTOPES and two 4-D ones; the quartic term makes w4 nonzero
KERNEL_POLYTOPES = {**ORACLE_POLYTOPES, "simplex4": td.standard_simplex(4),
                    "cube4": td.box([1, 1, 1, 1])}
KERNEL_PERTURBATIONS = {
    **ORACLE_CUBICS,
    4: {(3, 0, 0, 0): 1 / 32, (1, 1, 1, 0): 3 / 64, (0, 0, 2, 1): -1 / 32,
        (0, 1, 0, 3): 1 / 64, (2, 0, 0, 2): 1 / 64}}


def seeded_points(P, count, seed):
    """Points of P at relative depth 1e-6..1e-1 from a random face (a facet,
    an edge, ..., a vertex), moved towards the vertex centroid, as
    ``near_face`` draws them, plus as many uniform Dirichlet points."""
    rng = np.random.default_rng(seed)
    verts = np.array(P.vertices, dtype=float)
    faces = [f for c in range(1, P.dim + 1) for f in P.faces(c)]
    out = []
    for _ in range(count):
        ids = list(faces[rng.integers(len(faces))].vertex_ids)
        p = rng.dirichlet(np.ones(len(ids))) @ verts[ids]
        out.append(p + 10.0 ** rng.uniform(-6, -1) * (verts.mean(axis=0) - p))
    return np.vstack([out, rng.dirichlet(np.ones(len(verts)), count) @ verts])


class TestGramKernel:
    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("name", sorted(KERNEL_POLYTOPES))
    def test_matches_projection_form(self, name, perturbed):
        P = KERNEL_POLYTOPES[name]
        u = td.SymplecticPotential(
            P, Polynomial(P.dim, KERNEL_PERTURBATIONS[P.dim]) if perturbed else None)
        pts = seeded_points(P, 300, seed=sorted(KERNEL_POLYTOPES).index(name))
        got = u.scalar_curvature_many(pts)
        ref = _reference_scalar_curvature_many(u, pts)
        ell_min = u.ell(pts).min(axis=1)
        # twice the bound the projection form meets against the exact oracle
        bound = 16 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref)) / ell_min
        assert np.all(np.abs(got - ref) <= bound)

    @pytest.mark.parametrize("n", [2, 3])
    def test_unbiased_on_boxes(self, n):
        # s = 2n on the n-cube; no scaling of the rows biases the sign of
        # the rounding (scaling b_a by sqrt(1/2) read +4e-16)
        u = td.guillemin_potential(td.box([1] * n))
        x = np.random.default_rng(n).random((20000, n))
        rel = (u.scalar_curvature_many(x) - 2 * n) / (2 * n)
        assert abs(rel.mean()) <= 1e-16

    @pytest.mark.parametrize("name", ["cube3_perturbed", "cube4"])
    def test_memory_is_bounded_by_the_block(self, name):
        import tracemalloc
        n = int(name[4])
        w = Polynomial(n, ORACLE_CUBICS[n]) if name.endswith("perturbed") else None
        u = td.SymplecticPotential(td.box([1] * n), w)
        extra = []
        for count in (20_000, 200_000):
            x = np.random.default_rng(count).uniform(0.05, 0.95, (count, n))
            tracemalloc.start()
            out = u.scalar_curvature_many(x)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            extra.append(peak - out.nbytes)
        assert extra[1] - extra[0] < 1 << 20

    def test_non_positive_pivot_raises(self, square):
        u = td.guillemin_potential(square)
        u._wjet = {(0, 0): Polynomial.constant(2, -10.0)}   # Hess w = -10 e0 e0^T
        with pytest.raises(ValueError, match="strict convexity violated"):
            u.scalar_curvature_many([[0.5, 0.5]])


class TestPhi:
    def test_phi_at_diagonal(self, u_simplex):
        assert u_simplex.phi([1 / 3, 1 / 3], [1 / 3, 1 / 3]) == pytest.approx(0.0, abs=1e-14)

    def test_cp1_against_mpmath(self, u_interval):
        for x, y in [(0.5, 0.25), (0.1, 0.6), (0.9, 0.35), (1.0, 0.5), (0.0, 0.25)]:
            assert u_interval.phi([x], [y]) == pytest.approx(
                mp_phi_cp1(x, y), abs=1e-12)

    def test_cp1_reference_value(self, u_interval):
        # frozen from the 50-digit oracle above
        assert u_interval.phi([0.5], [0.25]) == pytest.approx(0.14384103622589045,
                                                              abs=1e-12)

    def test_product_additivity(self, u_interval, u_square):
        a, b, c, d = 0.2, 0.7, 0.4, 0.55
        lhs = u_square.phi([a, b], [c, d])
        rhs = u_interval.phi([a], [c]) + u_interval.phi([b], [d])
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_boundary_x_allowed(self, u_square):
        val = u_square.phi([0.0, 0.0], [0.25, 0.25])
        assert np.isfinite(val) and val > 0

    def test_boundary_y_rejected(self, u_square):
        with pytest.raises(ValueError, match="interior"):
            u_square.phi([0.5, 0.5], [0.0, 0.5])

    def test_gradient_vanishes_at_diagonal(self, u_simplex):
        # d/dx phi(x,y)|_{x=y} = 2(grad u(y) - grad u(y)); the affine part of
        # phi differentiates exactly, so the check is that the library's
        # analytic gradient matches a finite difference of the potential.
        # The FD oracle evaluates the log formula in extended precision:
        # differencing float64 u at h=1e-6 bottoms out at ~1e-10 roundoff.
        def u_ld(p):
            total = np.longdouble(0)
            for f in u_simplex.polytope.facets:
                ell = np.longdouble(0)
                for c, nu in zip(p, f.normal):
                    ell += np.longdouble(c) * int(nu)
                ell -= np.longdouble(f.offset.numerator) / int(f.offset.denominator)
                total += ell * np.log(ell)
            return total / 2

        y = np.array([0.3, 0.4])
        h = 1e-6
        grad_y = u_simplex.grad_u(y)[0]
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd_u = (u_ld(y + e) - u_ld(y - e)) / np.longdouble(2 * h)
            g = 2.0 * float(fd_u - np.longdouble(grad_y[i]))
            assert abs(g) < 1e-10

    @given(st.floats(min_value=0.02, max_value=0.98),
           st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_lower_bound(self, x, y):
        u = td.guillemin_potential(td.box([1]))
        # on this fixture phi >= c|x-y|^2 holds with c = 1 (H >= 2 inside)
        assert u.phi([x], [y]) >= 1.0 * (x - y) ** 2 - 1e-12

    def test_positivity_simplex_grid(self, u_simplex):
        pts = np.divide(*u_simplex.polytope.interior_grid(5))
        for x in pts[::3]:
            for y in pts[1::4]:
                v = u_simplex.phi(x, y)
                assert v >= 0.35 * np.sum((x - y) ** 2) - 1e-12


class TestConormSq:
    def test_cp2_corner_functional(self, u_simplex):
        for c in (0.2, 0.5, 0.8):
            x = [c / 2, c / 2]
            got = u_simplex.conorm_sq(np.array([1.0, 1.0]), x)
            assert got == pytest.approx(2 * c - 2 * c * c)

    def test_square_facet_functional(self, u_square):
        got = u_square.conorm_sq(td.AffineFunctional([1, 0], 0), [0.3, 0.9])
        assert got == pytest.approx(2 * 0.3 * 0.7)

    def test_square_difference_on_diagonal(self, u_square):
        for t in (0.2, 0.4):
            got = u_square.conorm_sq(np.array([1.0, -1.0]), [t, t])
            assert got == pytest.approx(4 * t * (1 - t))

    def test_vanishes_at_facet(self, u_square):
        got = u_square.conorm_sq(td.AffineFunctional([1, 0], 0), [1e-8, 0.5])
        assert got < 1e-7


class TestConvexityValidation:
    def test_guillemin_accepted(self, square):
        td.SymplecticPotential(square, None)

    def test_strongly_concave_perturbation_rejected(self, interval):
        with pytest.raises(ValueError, match="convex"):
            td.SymplecticPotential(td.box([1]), Polynomial(1, {(2,): -50.0}))

    def test_mild_perturbation_accepted(self, square):
        td.SymplecticPotential(square, Polynomial(2, {(3, 0): 0.05}))

    def test_dimension_mismatch(self, square):
        with pytest.raises(ValueError, match="dimension"):
            td.SymplecticPotential(square, Polynomial(1, {(1,): 1.0}))


def test_interior_distance(square):
    assert interior_distance(square, [0.5, 0.5]) == pytest.approx(0.5)
    assert interior_distance(square, [0.1, 0.4]) == pytest.approx(0.1)
