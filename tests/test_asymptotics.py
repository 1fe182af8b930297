"""Euler-Maclaurin sums, the boundary distribution and its exact identities.

Closed forms used as oracles on the unit square with cuts {x1, x2} and the
canonical potential (G diagonal, G_ii = 2 x_i (1 - x_i)):

    int_{N(t)} dsigma            = 2 (1 - t)
    int_{N(t)} |dPhi|^2 dsigma   = 4 t (1 - t)^2
    int_{N(t)} dp                = 4 t (1 - t)     (the corner (t, t))
    <a_hat_t, 1>                 = 4 t (1 - t)     (corner coefficient 1/2)

and on the tent over [0, 1]: <a_hat_t, 1> = 4t for t < 1/2.
"""

from fractions import Fraction

import pytest

import toricdensity as td
from toricdensity.asymptotics import (a_hat_components, a_hat_pair,
                                      boundary_volume_identity,
                                      divergence_identity_check, dp_integral,
                                      euler_maclaurin, expansion_residual,
                                      facet_integral)
from toricdensity.density import QuadratureScheme, curvature_integral, loglog_slope
from toricdensity.fields import Polynomial
from toricdensity.stability import gamma_scalar_integral, roof_skeleton_integral

F = Fraction


class TestEulerMaclaurin:
    @pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
    def test_square_residual_exactly_one(self, square, k):
        res = euler_maclaurin(square, 1, k)
        assert res.exact
        assert res.lattice_sum == (k + 1) ** 2
        assert res.approximation == k**2 + 2 * k
        assert res.residual == 1

    @pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
    def test_simplex_residual_exactly_one(self, simplex2, k):
        res = euler_maclaurin(simplex2, 1, k)
        assert res.lattice_sum == (k + 1) * (k + 2) // 2
        assert res.approximation == F(k**2, 2) + F(3 * k, 2)
        assert res.residual == 1

    @pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
    def test_interval_residual_exactly_zero(self, interval, k):
        assert euler_maclaurin(interval, 1, k).residual == 0

    def test_linear_field_trapezoid_exact(self, interval):
        res = euler_maclaurin(interval, td.coordinate_field(1, 0), 16)
        assert res.lattice_sum == pytest.approx((16 + 1) / 2)
        assert res.residual == pytest.approx(0.0, abs=1e-10)

    def test_smooth_field_residual_order(self, square):
        f = td.polynomial_field(2, {(2, 1): 1.0, (0, 2): -0.5})
        residuals = [euler_maclaurin(square, f, k).residual
                     for k in (8, 16, 32, 64)]
        # O(k^{n-2}) = O(1) here: bounded, no growth
        assert max(abs(r) for r in residuals) < 1.0
        assert abs(residuals[-1]) <= abs(residuals[0]) + 0.1

    def test_non_integral_k_rejected(self, square_family):
        sl = square_family.slice(F(1, 4))
        with pytest.raises(ValueError, match="divisible"):
            euler_maclaurin(sl.polytope, 1, 6)

    def test_sliced_square_exact(self, square_family):
        sl = square_family.slice(F(1, 4))
        res = euler_maclaurin(sl.polytope, 1, 8)
        assert res.lattice_sum == 49  # ((1-t)k + 1)^2 at t=1/4, k=8
        assert res.residual == 1


class TestFacetIntegral:
    @pytest.mark.parametrize("t", [F(1, 8), F(1, 4), F(1, 2), F(3, 4)])
    def test_square_weight_one(self, square_family, u_square, t):
        got = facet_integral(square_family, u_square, t, 1.0, "one")
        assert got == pytest.approx(2 * (1 - float(t)), rel=1e-10)

    @pytest.mark.parametrize("t", [F(1, 8), F(1, 4), F(1, 2)])
    def test_square_conorm(self, square_family, u_square, t):
        got = facet_integral(square_family, u_square, t, 1.0, "conorm")
        tf = float(t)
        assert got == pytest.approx(4 * tf * (1 - tf) ** 2, rel=1e-9)

    @pytest.mark.parametrize("c", [F(1, 4), F(1, 2), F(3, 4)])
    def test_cp2_vertex_conorm(self, vertex_family, u_simplex, c):
        got = facet_integral(vertex_family, u_simplex, c, 1.0, "conorm")
        cf = float(c)
        assert got == pytest.approx(2 * cf**2 * (1 - cf), rel=1e-9)

    def test_critical_t_rejected(self, square_family, u_square):
        with pytest.raises(ValueError, match="critical"):
            facet_integral(square_family, u_square, 1, 1.0, "one")


class TestDpIntegral:
    @pytest.mark.parametrize("t", [F(1, 8), F(1, 4), F(1, 2)])
    def test_square_corner(self, square_family, u_square, t):
        got = dp_integral(square_family, u_square, t, 1.0)
        tf = float(t)
        assert got == pytest.approx(4 * tf * (1 - tf), rel=1e-12)

    def test_single_cut_vanishes(self, vertex_family, u_simplex):
        assert dp_integral(vertex_family, u_simplex, F(1, 2), 1.0) == 0.0

    def test_tent_disjoint_cuts_vanish(self, tent_family, u_interval):
        assert dp_integral(tent_family, u_interval, F(1, 4), 1.0) == 0.0


class TestAHat:
    @pytest.mark.parametrize("t", [F(1, 8), F(1, 4), F(2, 5)])
    def test_square_family_value(self, square_family, u_square, t):
        tf = float(t)
        got = a_hat_pair(square_family, u_square, t, 1.0)
        assert got == pytest.approx(4 * tf * (1 - tf), abs=1e-9)

    @pytest.mark.parametrize("t", [F(1, 8), F(1, 4), F(2, 5)])
    def test_tent_value(self, tent_family, u_interval, t):
        got = a_hat_pair(tent_family, u_interval, t, 1.0)
        assert got == pytest.approx(4 * float(t), abs=1e-9)

    def test_matches_subleading_lattice_coefficient(self, square_family, u_square):
        # A1(t) = 2(1-t) from N(kP(t)) = ((1-t)k+1)^2 must equal
        # (int s + <a_hat,1>)/2
        t = F(1, 4)
        sl = square_family.slice(t)
        scheme = QuadratureScheme.for_polytope(sl.polytope)
        s_int, _ = scheme.integrate(
            lambda pts: u_square.scalar_curvature_many(pts), rel_tol=1e-10)
        a_hat = a_hat_pair(square_family, u_square, t, 1.0)
        assert 0.5 * (s_int + a_hat) == pytest.approx(2 * (1 - 0.25), abs=1e-8)

    def test_printed_convention_misses_by_half_dp(self, square_family, u_square):
        # the suite asserts the mismatch to prove the 1/2 correction is
        # load-bearing: the paper's coefficient 1 gives
        # a_hat(printed) = a_hat - dp/2
        t = F(1, 4)
        comp = a_hat_components(square_family, u_square, t, 1.0)
        printed = comp.facet_term + comp.derivative_term - \
            dp_integral(square_family, u_square, t, 1.0)
        assert comp.value - printed == pytest.approx(0.5 * 0.75, abs=1e-10)
        assert printed == pytest.approx(2 * 0.25 * 0.75, abs=1e-9)

    def test_components_split(self, square_family, u_square):
        comp = a_hat_components(square_family, u_square, F(1, 4), 1.0)
        assert comp.facet_terms == pytest.approx({0: 0.75, 1: 0.75}, rel=1e-10)
        assert comp.facet_term == pytest.approx(1.5, rel=1e-10)
        assert comp.derivative_term == pytest.approx(-0.5 * 4 * 0.75 * 0.25,
                                                     abs=1e-9)
        assert comp.corner_term == pytest.approx(-0.5 * 0.75, rel=1e-10)

    def test_stencil_near_critical_rejected(self, tent_family, u_interval):
        with pytest.raises(ValueError, match="stencil"):
            a_hat_pair(tent_family, u_interval, F(4999, 10000), 1.0)


class TestExpansionResidual:
    def test_square_family_f1_k8(self, square_family, u_square):
        res = expansion_residual(square_family, u_square, F(1, 4), 1.0, 8)
        assert res == pytest.approx(1.0, abs=1e-5)

    def test_cp1_f1_bounded(self, corner_family, u_interval, cp1_bases):
        residuals = [expansion_residual(corner_family, u_interval, F(3, 10),
                                        1.0, k, basis=cp1_bases[k])
                     for k in (10, 20, 40)]
        assert max(abs(r) for r in residuals) < 1e-3

    def test_bump_in_bulk_matches_full_expansion(self, corner_family,
                                                 u_interval, cp1_bases):
        # support inside D(t): the a_hat term vanishes by support, so the
        # residual decays like the closed-polytope expansion
        bump = td.BumpField([0.45], [0.95])
        assert a_hat_pair(corner_family, u_interval, F(3, 10), bump) == \
            pytest.approx(0.0, abs=1e-12)
        residuals = [expansion_residual(corner_family, u_interval, F(3, 10),
                                        bump, k, basis=cp1_bases[k])
                     for k in (10, 20, 40, 80)]
        assert loglog_slope((10, 20, 40, 80), residuals) <= 0.1
        assert abs(residuals[-1]) < abs(residuals[0])

    def test_linearity_in_f(self, square_family, u_square):
        t, k = F(1, 4), 8
        f1 = td.polynomial_field(2, {(1, 0): 1.0})
        f2 = td.polynomial_field(2, {(0, 2): 1.0})
        combo = td.polynomial_field(2, {(1, 0): 0.6, (0, 2): -1.1})
        r1 = expansion_residual(square_family, u_square, t, f1, k)
        r2 = expansion_residual(square_family, u_square, t, f2, k)
        rc = expansion_residual(square_family, u_square, t, combo, k)
        assert rc == pytest.approx(0.6 * r1 - 1.1 * r2, abs=1e-6)


class TestBoundaryVolumeIdentity:
    @pytest.mark.parametrize("fixture,ts", [
        ("square_family", (F(1, 8), F(1, 4), F(1, 2))),
        ("tent_family", (F(1, 8), F(1, 4), F(2, 5))),
        ("vertex_family", (F(1, 4), F(1, 2), F(3, 4))),
    ])
    def test_residual_small(self, fixture, ts, request):
        fam = request.getfixturevalue(fixture)
        u = td.guillemin_potential(fam.base)
        for t in ts:
            res = boundary_volume_identity(fam, u, t)
            assert abs(res) < 1e-6

    @pytest.mark.parametrize("t", [F(5, 6), F(7, 8)])
    def test_perturbed_thin_slices(self, vertex_family, u_simplex_perturbed, t):
        res = boundary_volume_identity(vertex_family, u_simplex_perturbed, t)
        assert abs(res) <= 1e-8

    def test_t0_degenerate_case(self, corner_family, u_interval):
        # Vol_sigma(dP) = int_P s: for [0,1] this is 2 = 2
        assert boundary_volume_identity(corner_family, u_interval, 0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_printed_convention_fails_on_square(self, square_family, u_square):
        # the identity with the paper's corner coefficient 1, from its parts
        t = F(1, 4)
        sl = square_family.slice(t)
        lhs = float(sl.polytope.boundary_leray_volume(sl.old_facets))
        rhs = (curvature_integral(u_square, sl.polytope)
               + a_hat_components(square_family, u_square, t, 1.0).derivative_term
               - dp_integral(square_family, u_square, t, 1.0))
        assert abs(lhs - rhs) == pytest.approx(0.5 * 0.75, abs=1e-6)


class TestDivergenceIdentity:
    def test_constant_field(self, u_square, square):
        fam = td.MovingFamily(square, [td.AffineFunctional([1, 1], 0)])
        xi = [Polynomial(2, {(0, 0): 1.0}), Polynomial.zero(2)]
        assert divergence_identity_check(fam, u_square, F(1, 2), xi) == \
            pytest.approx(0.0, abs=1e-10)

    def test_euler_field(self, u_square, square):
        # xi = x: div = n, LHS = n * leray-length of the slice
        fam = td.MovingFamily(square, [td.AffineFunctional([1, 1], 0)])
        xi = [Polynomial(2, {(1, 0): 1.0}), Polynomial(2, {(0, 1): 1.0})]
        assert divergence_identity_check(fam, u_square, F(1, 2), xi) == \
            pytest.approx(0.0, abs=1e-9)

    def test_tangent_field_zero_middle_term(self, u_square, square):
        # xi orthogonal to dPhi: <xi, dPhi> = 0, identity still balances
        fam = td.MovingFamily(square, [td.AffineFunctional([1, 1], 0)])
        xi = [Polynomial(2, {(0, 0): 1.0}), Polynomial(2, {(0, 0): -1.0})]
        assert divergence_identity_check(fam, u_square, F(1, 2), xi) == \
            pytest.approx(0.0, abs=1e-10)

    def test_multi_cut_rejected(self, square_family, u_square):
        xi = [Polynomial.zero(2), Polynomial.zero(2)]
        with pytest.raises(ValueError, match="single-cut"):
            divergence_identity_check(square_family, u_square, F(1, 4), xi)


def test_em_residual_integer_and_k_independent(square, simplex2, interval):
    for P in (square, simplex2, interval):
        residuals = {euler_maclaurin(P, 1, k).residual for k in (4, 8, 16, 32, 64)}
        assert len(residuals) == 1
        r = residuals.pop()
        assert r.denominator == 1


def test_em_half_integral_pentagon_exact():
    # square with the (1,1) corner cut at x+y = 3/2: vertices (1,1/2), (1/2,1)
    # force k even; on that progression the count is polynomial with the
    # lattice-polygon constant term 1 (hand-counted: N(2P)=8, N(4P)=22)
    pentagon = td.Polytope(2, [
        td.AffineFunctional([1, 0], 0), td.AffineFunctional([0, 1], 0),
        td.AffineFunctional([-1, 0], -1), td.AffineFunctional([0, -1], -1),
        td.AffineFunctional([-1, -1], F(-3, 2))])
    assert pentagon.integrality_divisor() == 2
    assert pentagon.volume() == F(7, 8)
    assert pentagon.boundary_leray_volume() == F(7, 2)
    assert pentagon.count_lattice_points(2) == 8
    assert pentagon.count_lattice_points(4) == 22
    with pytest.raises(ValueError, match="divisible"):
        euler_maclaurin(pentagon, 1, 3)
    for k in (2, 4, 8, 16):
        assert euler_maclaurin(pentagon, 1, k).residual == 1


def test_em_three_dimensional_exact():
    # N(k simplex3) = (k+1)(k+2)(k+3)/6; volume 1/6, Leray boundary 2;
    # the O(k^{n-2}) residual is the exact linear polynomial (11k+6)/6
    s3 = td.standard_simplex(3)
    assert s3.boundary_leray_volume() == 2
    for k in (2, 5, 12):
        res = euler_maclaurin(s3, 1, k)
        assert res.residual == F(11 * k + 6, 6)


# ---------------------------------------------------------------------------
# the per-potential memo of metric integrals and the exact stencil
# ---------------------------------------------------------------------------

def _memo_case(name):
    """(family, perturbation): the perturbed triangle cut at a vertex, the
    perturbed square cut at a corner, the canonical 3-simplex cut at a vertex."""
    cubic = Polynomial(2, {(3, 0): 0.02, (1, 2): 0.01})
    if name == "triangle":
        return td.MovingFamily(td.standard_simplex(2),
                               [td.AffineFunctional([1, 1], 0)]), cubic
    if name == "square":
        return td.MovingFamily(td.box([1, 1]), [td.AffineFunctional([1, 0], 0),
                                                td.AffineFunctional([0, 1], 0)]), cubic
    return td.MovingFamily(td.standard_simplex(3),
                           [td.AffineFunctional([1, 1, 1], 0)]), None


MEMO_CASES = ("triangle", "square", "simplex3")
T_MEMO = F(1, 3)


def _fresh(family, w):
    return td.SymplecticPotential(family.base, w)


def _memoised_calls(family):
    t = T_MEMO
    calls = [lambda u: a_hat_components(family, u, t, 1.0),
             lambda u: boundary_volume_identity(family, u, t),
             lambda u: td.hilbert_coeffs_geometric(family, u, t)]
    if len(family.cuts) == 1:
        calls += [lambda u, c=c: td.slope_report(family, u, c)
                  for c in (F(1, 4), F(1, 2), F(3, 4))]
    calls.append(lambda u: td.futaki_report(td.build_test_config(family), u))
    return calls


@pytest.fixture
def integrate_calls(monkeypatch):
    """A list that grows by one entry per density.integrate_orders call."""
    from toricdensity import density
    calls = []
    integrate_orders = density.integrate_orders

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate_orders(*args, **kwargs)

    monkeypatch.setattr(density, "integrate_orders", counted)
    return calls


class TestIntegralMemo:
    @pytest.mark.parametrize("name", MEMO_CASES)
    def test_warm_potential_gives_fresh_values(self, name):
        family, w = _memo_case(name)
        warm = _fresh(family, w)
        for call in _memoised_calls(family):
            assert call(warm) == call(_fresh(family, w))
        n, t = family.base.dim, T_MEMO
        cfg = td.build_test_config(family)
        variants = [
            lambda u: td.futaki_metric(cfg, u),
            lambda u: td.roof_identity_residual(cfg, u),
            lambda u: td.delta_gamma(cfg, u),
            lambda u: gamma_scalar_integral(cfg, u),
            lambda u: roof_skeleton_integral(cfg, u),
            lambda u: a_hat_components(family, u, t, Polynomial.coordinate(n, 0)),
            lambda u: boundary_volume_identity(family, u, t),
            lambda u: td.hilbert_coeffs_geometric(family, u, t),
        ]
        if len(family.cuts) == 1:
            variants.append(
                lambda u: td.slope_excess_metric(family, u, F(1, 2)))
        for call in variants:
            assert call(warm) == call(_fresh(family, w))
        # the memo tells the integrand f = 1 from f = x0
        assert a_hat_components(family, warm, t, 1.0).value != \
            a_hat_components(family, warm, t, Polynomial.coordinate(n, 0)).value

    def test_quadrature_error_is_not_cached(self, monkeypatch):
        from toricdensity import density
        family, w = _memo_case("square")
        u = _fresh(family, w)
        calls = (lambda: a_hat_components(family, u, T_MEMO, 1.0),
                 lambda: boundary_volume_identity(family, u, T_MEMO))
        with monkeypatch.context() as patch:
            patch.setattr(density, "NODE_BUDGET", 5)
            for call in calls:
                for _ in range(2):
                    with pytest.raises(td.QuadratureError):
                        call()
        assert calls[0]() == a_hat_components(family, _fresh(family, w), T_MEMO, 1.0)
        assert calls[1]() == boundary_volume_identity(family, _fresh(family, w), T_MEMO)

    @pytest.mark.parametrize("name,together,alone", [
        ("triangle", 6, 5), ("square", 12, 10), ("simplex3", 6, 5)])
    def test_each_integral_computed_once(self, name, together, alone, integrate_calls):
        family, w = _memo_case(name)
        td.build_test_config(family)

        def count(*steps):
            u = _fresh(family, w)
            integrate_calls.clear()
            for step in steps:
                step(family, u, T_MEMO)
            return len(integrate_calls)

        a_hat = lambda fam, u, t: a_hat_components(fam, u, t, 1.0)  # noqa: E731
        assert count(a_hat, boundary_volume_identity, td.hilbert_coeffs_geometric) \
            == count(td.hilbert_coeffs_geometric) == together
        assert count(boundary_volume_identity) == alone
        if len(family.cuts) == 1:
            # int_P s once; the cut region and the facet integral per c
            assert count(*[lambda fam, u, t, c=c: td.slope_report(fam, u, c)
                           for c in (F(1, 4), F(1, 2), F(3, 4))]) == 7

    @pytest.mark.parametrize("name,first", [("triangle", 2), ("square", 4), ("simplex3", 2)])
    def test_futaki_integrals_computed_once(self, name, first, integrate_calls):
        # int_Gamma pr1*(s) over each roof region, int_P s and the roof
        # skeleton (one ridge on the square) are integrated by futaki_metric;
        # the residual, Delta(Gamma) and the report then read the memo
        family, w = _memo_case(name)
        cfg = td.build_test_config(family)
        u = _fresh(family, w)
        counts = []
        for step in (td.futaki_metric, td.roof_identity_residual, td.delta_gamma,
                     td.futaki_report):
            integrate_calls.clear()
            step(cfg, u)
            counts.append(len(integrate_calls))
        assert counts == [first, 0, 0, 0]

    def test_expansion_residual_shares_a_hat(self, corner_family, interval, monkeypatch):
        from toricdensity import density
        u = td.guillemin_potential(interval)
        expansion_residual(corner_family, u, F(1, 4), 1.0, 8)
        calls = []
        monkeypatch.setattr(density, "integrate_orders",
                            lambda *args, **kwargs: calls.append(1))
        a_hat_components(corner_family, u, F(1, 4), 1.0)
        assert calls == []

    @pytest.mark.parametrize("t", [F(1, 3), F(2, 3)])
    def test_stencil_points_are_exact(self, t, simplex2, u_simplex):
        h = F(1, 1000)
        stencil = {t, t - h, t + h, t - h / 2, t + h / 2}
        family = td.MovingFamily(simplex2, [td.AffineFunctional([1, 1], 0)])
        a_hat_components(family, u_simplex, t, 1.0)
        assert set(family._slices) == stencil
        family = td.MovingFamily(simplex2, [td.AffineFunctional([1, 1], 0)])
        xi = [Polynomial(2, {(1, 0): 1.0}), Polynomial(2, {(0, 1): 1.0})]
        divergence_identity_check(family, u_simplex, t, xi)
        assert set(family._slices) == stencil
