"""Quadrature, section norms, mass densities and partial density functions."""

import math
from fractions import Fraction

import numpy as np
import pytest

import toricdensity as td
from toricdensity.density import QuadratureScheme, loglog_slope, tree_sum

F = Fraction


def trapezoid_oracle(fn, panels=1_000_000):
    """Independent 1-D quadrature on [0,1]: composite trapezoid."""
    ys = np.linspace(0.0, 1.0, panels + 1)
    vals = np.zeros_like(ys)
    vals[1:-1] = fn(ys[1:-1][:, None])
    return float(np.trapezoid(vals, ys))


class TestIntegrate:
    def test_simplex_volume(self, simplex2):
        val, delta = td.integrate(simplex2, 1.0)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_simplex_moment(self, simplex2):
        val, _ = td.integrate(simplex2, td.coordinate_field(2, 0))
        assert val == pytest.approx(1 / 6, abs=1e-12)

    def test_laplace_integrand_vs_trapezoid(self, interval, u_interval):
        def fn(pts):
            return np.exp(-10.0 * u_interval.phi_many(np.array([0.5]), pts))

        val, _ = td.integrate(interval, fn, rel_tol=1e-10)
        assert val == pytest.approx(trapezoid_oracle(fn), abs=1e-8)

    def test_scheme_volumes_exact(self, simplex2, square):
        for P in (simplex2, square):
            scheme = QuadratureScheme.for_polytope(P)
            assert sum(scheme.exact_volumes) == P.volume()

    def test_nodes_strictly_interior(self, simplex2):
        scheme = QuadratureScheme.for_polytope(simplex2)
        from toricdensity.density import reference_rule
        bary, _ = reference_rule(2, 4)
        nodes = np.einsum("rb,sbN->srN", bary, scheme.simplices).reshape(-1, 2)
        for f in simplex2.facets:
            assert np.all(f.value_float(nodes) > 1e-12)

    def test_curvature_on_3_simplex_slice(self):
        # s = 12 on the canonical 3-simplex; the slice P(5/7) of the vertex
        # cut has fan simplices whose Gauss nodes would crowd its boundary,
        # where s loses all accuracy, unless they crowd the interior apex
        family = td.MovingFamily(td.standard_simplex(3),
                                 [td.AffineFunctional([1, 1, 1], 0)])
        u = td.guillemin_potential(family.base)
        P = family.slice(F(5, 7)).polytope
        val, _ = td.integrate(P, u.scalar_curvature_many)
        assert val == pytest.approx(12 * float(P.volume()), rel=1e-12)

    def test_nonconvergence_carries_best(self, interval):
        rng = np.random.default_rng(0)

        def noisy(pts):
            return rng.standard_normal(pts.shape[0])

        with pytest.raises(td.QuadratureError) as err:
            td.integrate(interval, noisy, rel_tol=1e-14)
        assert err.value.best is not None

    def test_tree_sum_matches_fsum(self):
        import math
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(1001) * 10.0 ** rng.integers(-8, 8, 1001)
        assert tree_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-12)


class TestSectionBasis:
    def test_alpha_count_matches_lattice_count(self, u_interval, u_square):
        for u, k in ((u_interval, 13), (u_square, 4)):
            basis = td.SectionBasis.build(u, k)
            assert len(basis.alphas) == u.polytope.count_lattice_points(k)

    def test_norms_positive(self, cp1_bases):
        assert np.all(cp1_bases[10].norms > 0)

    def test_norm_against_trapezoid(self, u_interval, cp1_bases):
        basis = cp1_bases[20]

        def fn(pts):
            return np.exp(-20.0 * u_interval.phi_many(np.array([0.5]), pts))

        assert td.section_norm(basis, [F(1, 2)]) == pytest.approx(
            trapezoid_oracle(fn), rel=1e-9)

    def test_norm_symmetry(self, cp1_bases):
        basis = cp1_bases[20]
        for num in (1, 3, 7):
            a = td.section_norm(basis, [F(num, 20)])
            b = td.section_norm(basis, [F(20 - num, 20)])
            assert a == pytest.approx(b, rel=1e-12)

    def test_product_factorization(self, u_interval, u_square):
        k = 6
        b1 = td.SectionBasis.build(u_interval, k, rel_tol=1e-11)
        b2 = td.SectionBasis.build(u_square, k, rel_tol=1e-11)
        for a1, a2 in [((F(1, 2),), (F(1, 3),)), ((F(0),), (F(5, 6),))]:
            prod = td.section_norm(b1, a1) * td.section_norm(b1, a2)
            joint = td.section_norm(b2, (a1[0], a2[0]))
            assert joint == pytest.approx(prod, rel=1e-8)

    def _norm_of(self, u, alpha, k):
        import numpy as np
        a = np.array([float(c) for c in alpha])
        val, _ = td.integrate(u.polytope,
                              lambda z: np.exp(-k * u.phi_many(a, z)),
                              rel_tol=1e-10)
        return val

    def test_norm_scaling_lower_bound(self, u_interval, u_square):
        # the norm is bounded below by C k^(-(n+q)/2) with q the codim of
        # the face holding alpha; asserted as a slope bound (the measured
        # slope approaches the exponent from above as k grows)
        ks = [10, 20, 40, 80]
        interior = [self._norm_of(u_interval, [F(1, 2)], k) for k in ks]
        corner = [self._norm_of(u_interval, [F(0)], k) for k in ks]
        s_int = loglog_slope(ks, interior)
        s_cor = loglog_slope(ks, corner)
        assert s_int == pytest.approx(-0.5, abs=0.1)   # q=0: k^(-1/2)
        assert s_cor == pytest.approx(-1.0, abs=0.1)   # q=n: k^(-1)
        ks2 = [4, 8, 16, 32, 64]
        edge = [self._norm_of(u_square, (F(0), F(1, 2)), k) for k in ks2]
        s_edge = loglog_slope(ks2, edge)               # q=1: bound k^(-3/2)
        assert -1.55 <= s_edge <= -1.0

    def test_unknown_alpha_raises(self, cp1_bases):
        with pytest.raises(ValueError, match="lattice point"):
            td.section_norm(cp1_bases[10], [F(1, 3)])

    def test_threaded_build_identical(self, u_square):
        a = td.SectionBasis.build(u_square, 5, threads=1)
        b = td.SectionBasis.build(u_square, 5, threads=4)
        assert np.array_equal(a.norms, b.norms)


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def box_norm(alpha, k):
    """prod_i B(k a_i + 1, k(1 - a_i) + 1) / (a_i^{k a_i} (1 - a_i)^{k(1 - a_i)})."""
    log = 0.0
    for a in map(float, alpha):
        p, q = k * a + 1.0, k * (1.0 - a) + 1.0
        log += math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
        log -= k * (_xlogx(a) + _xlogx(1.0 - a))
    return math.exp(log)


def simplex_norm(alpha, k):
    """Dirichlet integral prod_a Gamma(k l_a + 1) / Gamma(k + n + 1) over
    prod_a l_a^{k l_a}, with l_0 = 1 - sum(alpha) and l_i = alpha_i."""
    ells = [float(a) for a in alpha]
    ells.append(1.0 - sum(ells))
    log = -math.lgamma(k + len(alpha) + 1.0)
    for ell in ells:
        log += math.lgamma(k * ell + 1.0) - k * _xlogx(ell)
    return math.exp(log)


class TestClosedFormNorms:
    @pytest.mark.parametrize("polytope,k,norm", [
        (td.box([1, 1]), 8, box_norm),
        (td.box([1, 1]), 32, box_norm),
        (td.box([1, 1, 1]), 4, box_norm),
        (td.standard_simplex(2), 16, simplex_norm),
        (td.standard_simplex(2), 32, simplex_norm),
    ], ids=["square-8", "square-32", "cube-4", "triangle-16", "triangle-32"])
    def test_norms_match_closed_form(self, polytope, k, norm):
        basis = td.SectionBasis.build(td.guillemin_potential(polytope), k,
                                      rel_tol=1e-12)
        assert len(basis.alphas) == polytope.count_lattice_points(k)
        for alpha, got in zip(basis.alphas, basis.norms):
            assert got == pytest.approx(norm(alpha, k), rel=1e-12), alpha

    def test_one_agreement_is_not_enough(self, u_square):
        # at this alpha Gauss orders 12 and 14 agree to ~5e-9 while both
        # miss the closed form by ~4e-8; accepting on that one agreement
        # would pass the default tolerance with the wrong value
        basis = td.SectionBasis.build(u_square, 32)
        for alpha in ((F(12, 32), F(27, 32)), (F(27, 32), F(12, 32))):
            assert td.section_norm(basis, alpha) == pytest.approx(
                box_norm(alpha, 32), rel=1e-9)

    def test_node_budget_raises_with_best(self, u_square, monkeypatch):
        from toricdensity import density
        monkeypatch.setattr(density, "NODE_BUDGET", 100)  # 4 triangles x 6^2 > 100
        with pytest.raises(td.QuadratureError) as err:
            td.SectionBasis.build(u_square, 8)
        assert err.value.best.shape == (81,)
        assert np.all(np.isfinite(err.value.best))
        assert np.all(err.value.delta == np.inf)  # one order only: no delta yet

    def test_pair_alpha_nonconvergence_carries_best(self, u_interval):
        rng = np.random.default_rng(0)

        def noisy(pts):
            return rng.standard_normal(pts.shape[0])

        with pytest.raises(td.QuadratureError) as err:
            td.pair_alpha(u_interval, [F(1, 2)], 10, noisy)
        assert np.isfinite(err.value.best)
        assert np.isfinite(err.value.delta) and err.value.delta > 0


class TestMassDensity:
    def test_ratio_identity(self, u_interval, cp1_bases):
        basis = cp1_bases[20]
        alpha = [F(1, 2)]
        y1, y2 = 0.3, 0.62
        ratio = td.mass_density(basis, alpha, [y1]) / td.mass_density(basis, alpha, [y2])
        expected = np.exp(-20 * (u_interval.phi([0.5], [y1])
                                 - u_interval.phi([0.5], [y2])))
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_value_against_oracle(self, u_interval, cp1_bases):
        basis = cp1_bases[20]

        def fn(pts):
            return np.exp(-20.0 * u_interval.phi_many(np.array([0.5]), pts))

        expected = float(fn(np.array([[0.3]]))[0]) / trapezoid_oracle(fn)
        got = td.mass_density(basis, [F(1, 2)], [0.3])
        assert got == pytest.approx(expected, rel=1e-8)


class TestPairSection:
    def test_f_one_is_exactly_one(self, cp1_bases):
        basis = cp1_bases[10]
        for alpha in basis.alphas:
            assert td.pair_section(basis, alpha, 1.0) == 1.0

    def test_off_support_decay(self, u_interval, cp1_bases):
        bump = td.BumpField([0.6], [0.9])  # alpha=0.1 is far from support
        vals = [td.pair_section(cp1_bases[k], [F(1, 10)], bump) for k in (10, 20, 40)]
        logs = np.log(np.maximum(vals, 1e-300))
        assert logs[1] - logs[0] < -1.0
        assert logs[2] - logs[1] < -2.0

    def test_linearity(self, cp1_bases):
        basis = cp1_bases[20]
        f = td.polynomial_field(1, {(0,): 0.7, (2,): -1.3})
        lhs = td.pair_section(basis, [F(7, 20)], f)
        one = td.pair_section(basis, [F(7, 20)], 1.0)
        ysq = td.pair_section(basis, [F(7, 20)], td.polynomial_field(1, {(2,): 1.0}))
        assert lhs == pytest.approx(0.7 * one - 1.3 * ysq, rel=1e-9)


class TestSectionExpansion:
    def test_bracket_reduces_to_one_for_f1(self, u_interval):
        from toricdensity.density import section_expansion_bracket
        val = section_expansion_bracket(u_interval, [0.5], 10, td.constant_field(1))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_field_slope(self, u_interval):
        res = td.section_expansion_check(
            u_interval, [F(1, 2)], td.polynomial_field(1, {(2,): 1.0}),
            ks=(10, 20, 40, 80))
        assert res["slope"] <= -1.7

    def test_linear_vanishing_field(self, u_interval):
        # f = y - 0.3 at alpha = 0.3: the 1/k term is d2(G f)/2 / (2k) = 0.4/k,
        # approached with an O(1/k^2) error (~0.5/k^2 here)
        f = td.polynomial_field(1, {(1,): 1.0, (0,): -0.3})
        basis = td.SectionBasis.build(u_interval, 40, rel_tol=1e-11)
        pairing = td.pair_section(basis, [F(3, 10)], f, rel_tol=1e-11)
        assert pairing == pytest.approx(0.4 / 40, abs=1e-3)
        residuals = [td.section_expansion_residual(u_interval, [F(3, 10)], k, f)
                     for k in (20, 40, 80)]
        assert loglog_slope((20, 40, 80), residuals) < -1.7

    def test_constant_scaling_linearity(self, u_interval):
        r1 = td.section_expansion_residual(u_interval, [F(1, 2)], 20,
                                           td.polynomial_field(1, {(2,): 1.0}))
        r2 = td.section_expansion_residual(u_interval, [F(1, 2)], 20,
                                           td.polynomial_field(1, {(2,): 2.0}))
        assert r2 == pytest.approx(2 * r1, rel=1e-6)

    def test_near_boundary_refused(self, u_interval):
        with pytest.raises(ValueError, match="boundary"):
            td.section_expansion_residual(u_interval, [F(1, 100)], 10,
                                          td.constant_field(1))

    def test_two_dimensional_slopes(self, u_square, u_simplex):
        # exercises the off-diagonal dG/d2G terms of the bracket; the
        # default k grid in two dimensions is {8, 16, 32}
        cases = [
            (u_square, (F(1, 2), F(1, 2)), {(2, 0): 1.0}),
            (u_square, (F(2, 5), F(3, 10)), {(1, 1): 1.0}),
            (u_simplex, (F(1, 4), F(1, 4)), {(2, 0): 1.0, (0, 1): 0.5}),
        ]
        for u, alpha, terms in cases:
            res = td.section_expansion_check(u, alpha,
                                             td.polynomial_field(2, terms))
            assert res["ks"] == [8, 16, 32]
            assert res["slope"] <= -1.7

    def test_pair_alpha_without_basis(self, u_interval, cp1_bases):
        got = td.pair_alpha(u_interval, [F(7, 20)], 20,
                            td.coordinate_field(1, 0))
        via_basis = td.pair_section(cp1_bases[20], [F(7, 20)],
                                    td.coordinate_field(1, 0))
        assert got == via_basis


class TestPartialDensity:
    def test_t0_is_full_density(self, corner_family, u_interval, cp1_bases):
        basis = cp1_bases[20]
        pts = np.array([[0.2], [0.5], [0.8]])
        rho_hat = td.partial_density(corner_family, u_interval, 0, 20, pts,
                                     basis=basis)
        rho = basis.density(pts)
        assert rho_hat == pytest.approx(rho, rel=0)

    def test_mass_conservation(self, corner_family, u_interval, cp1_bases):
        val, _ = td.pair_partial_density(corner_family, u_interval, F(3, 10), 20,
                                         1.0, basis=cp1_bases[20])
        exact = 15  # lattice points of [0.3, 1] at k=20
        assert abs(val - exact) / exact < 1e-6

    def test_divisibility_error_names_divisor(self, corner_family, u_interval):
        with pytest.raises(ValueError, match="N=10"):
            td.partial_density(corner_family, u_interval, F(3, 10), 7,
                               np.array([[0.5]]))

    def test_monotone_below_full_density(self, corner_family, u_interval,
                                         cp1_bases):
        basis = cp1_bases[40]
        pts = u_interval.polytope.interior_float_grid(17)
        rho_hat = td.partial_density(corner_family, u_interval, F(3, 10), 40,
                                     pts, basis=basis)
        rho = basis.density(pts)
        assert np.all(rho_hat <= rho + 1e-12)

    def test_symmetry_of_full_density(self, cp1_bases):
        basis = cp1_bases[20]
        ys = np.array([[0.17], [0.83]])
        rho = basis.density(ys)
        assert abs(rho[0] - rho[1]) < 1e-10 * abs(rho[0])

    def test_square_density_symmetry(self, u_square):
        basis = td.SectionBasis.build(u_square, 6)
        a = basis.density(np.array([[0.2, 0.7]]))[0]
        b = basis.density(np.array([[0.7, 0.2]]))[0]
        c = basis.density(np.array([[0.8, 0.3]]))[0]
        assert a == pytest.approx(b, rel=1e-10)
        assert a == pytest.approx(c, rel=1e-10)

    def test_forbidden_region_suppression(self, corner_family, u_interval,
                                          cp1_bases):
        # exp(-k phi(0.3, 0.1)) with phi ~ 0.1537 needs k ~ 50 before the
        # suppression passes 1e-4; k=60 gives ~8e-6
        basis = cp1_bases[60]
        y = np.array([[0.1]])
        rho_hat = td.partial_density(corner_family, u_interval, F(3, 10), 60, y,
                                     basis=basis)
        rho = basis.density(y)
        assert rho_hat[0] < 1e-4 * rho[0]


class TestRegionClassify:
    @pytest.mark.parametrize("y,expected", [
        ((F(1, 10), F(1, 2)), "C"),
        ((F(1, 4), F(6, 10)), "N"),
        ((F(1, 2), F(1, 2)), "D"),
    ])
    def test_square_family(self, square_family, y, expected):
        assert td.region_classify(square_family, F(1, 4), y) == expected


class TestDecayReport:
    def test_forbidden_point_slopes(self, corner_family, u_interval, cp1_bases):
        rows = td.decay_report(corner_family, u_interval, F(3, 10),
                               [(F(1, 10),)], (10, 20, 40, 60), bases=cp1_bases)
        assert rows[0].region == "C"
        assert rows[0].slope_per_k < -0.05
        assert rows[0].slope_per_doubling < -0.5
        assert all(b < a for a, b in zip(rows[0].values, rows[0].values[1:]))

    def test_bulk_point_agreement(self, corner_family, u_interval, cp1_bases):
        rows = td.decay_report(corner_family, u_interval, F(3, 10),
                               [(F(4, 5),)], (10, 20, 40, 60), bases=cp1_bases)
        assert rows[0].region == "D"
        assert rows[0].decreasing
        assert rows[0].values[-1] < 1e-6

    def test_interface_point_rejected(self, corner_family, u_interval):
        with pytest.raises(ValueError, match="N\\(t\\)"):
            td.decay_report(corner_family, u_interval, F(3, 10),
                            [(F(3, 10),)], (10,))


def test_density_profile_rows(corner_family, u_interval, cp1_bases):
    rows = td.density_profile(corner_family, u_interval, F(3, 10), 20,
                              [(F(1, 10),), (F(1, 2),)], basis=cp1_bases[20])
    assert [r["region"] for r in rows] == ["C", "D"]
    assert rows[0]["rho_hat_tk"] < rows[0]["rho_k"]
