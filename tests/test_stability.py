"""Hilbert coefficients, slopes and Donaldson-Futaki invariants, both pipelines.

Exact references derived by hand from the lattice counts:

    vertex family on the 2-simplex:  N(kP(t)) = (k+1)(k+2)/2 - tk(tk+1)/2
        A0(t) = (1-t^2)/2,  A1(t) = (3-t)/2,  mu_c = 3(3-c)/(3-c^2)
    square family:                   N(kP(t)) = ((1-t)k+1)^2
        A0(t) = (1-t)^2,    A1(t) = 2(1-t)
    tent configuration over [0,1]:   w_k = k^2/4 (even k), d_k = k+1
        F1 = -1/4, Delta = 2
    square corner configuration:     w_k = k(k+1)(2k+1)/6, d_k = (k+1)^2
        F1 = -1/6, Delta = 1
"""

from fractions import Fraction

import numpy as np
import pytest

import toricdensity as td
from toricdensity.stability import (_interpolate, _poly_eval,
                                    hilbert_polynomials)

F = Fraction


class TestHilbertCoefficients:
    def test_cp2_vertex_family(self, vertex_family):
        for t in (F(1, 5), F(1, 2), F(3, 4)):
            hc = td.hilbert_coeffs_combinatorial(vertex_family, t)
            assert hc.A0 == (1 - t * t) / 2
            assert hc.A1 == (3 - t) / 2

    @pytest.mark.parametrize("t", [F(5, 6), F(7, 8)])
    def test_geometric_a1_on_thin_slices(self, vertex_family, u_simplex_perturbed, t):
        hc = td.hilbert_coeffs_geometric(vertex_family, u_simplex_perturbed, t)
        assert hc.A1 == pytest.approx(float((3 - t) / 2), abs=1e-8)

    def test_t0_full_hilbert(self, vertex_family):
        hc = td.hilbert_coeffs_combinatorial(vertex_family, 0)
        assert (hc.A0, hc.A1) == (F(1, 2), F(3, 2))

    def test_square_family(self, square_family):
        for t in (F(1, 4), F(1, 3), F(2, 3)):
            hc = td.hilbert_coeffs_combinatorial(square_family, t)
            assert hc.A0 == (1 - t) ** 2
            assert hc.A1 == 2 * (1 - t)

    def test_a0_is_volume(self, square_family, vertex_family):
        for fam, t in ((square_family, F(1, 4)), (vertex_family, F(2, 5))):
            hc = td.hilbert_coeffs_combinatorial(fam, t)
            assert hc.A0 == fam.slice(t).polytope.volume()

    def test_inadmissible_grid_rejected(self, square_family):
        with pytest.raises(ValueError, match="divisib"):
            td.hilbert_coeffs_combinatorial(square_family, F(1, 4),
                                            k_samples=[3, 6, 9, 12])

    def test_polynomials_on_first_interval(self, vertex_family):
        A0, A1 = hilbert_polynomials(vertex_family)
        assert A0 == [F(1, 2), 0, F(-1, 2)]
        assert A1 == [F(3, 2), F(-1, 2)]

    @pytest.mark.parametrize("fixture,ufix,ts", [
        ("square_family", "u_square", (F(1, 8), F(1, 4), F(1, 2))),
        ("tent_family", "u_interval", (F(1, 8), F(1, 4), F(2, 5))),
        ("vertex_family", "u_simplex", (F(1, 4), F(1, 2), F(3, 4))),
    ])
    def test_geometric_pipeline_agrees(self, fixture, ufix, ts, request):
        # the k^{n-1} coefficient from exact counts matches (int s + a_hat)/2
        fam = request.getfixturevalue(fixture)
        u = request.getfixturevalue(ufix)
        for t in ts:
            comb = td.hilbert_coeffs_combinatorial(fam, t)
            geom = td.hilbert_coeffs_geometric(fam, u, t)
            assert geom.A0 == pytest.approx(float(comb.A0), rel=1e-12)
            assert geom.A1 == pytest.approx(float(comb.A1), rel=1e-5)


class TestSlopeMu:
    def test_values(self, interval, simplex2, square):
        assert td.slope_mu(interval) == 1
        assert td.slope_mu(simplex2) == 3
        assert td.slope_mu(square) == 2

    @pytest.mark.parametrize("fixture,mu", [
        ("u_interval", 1.0), ("u_simplex", 3.0), ("u_square", 2.0)])
    def test_equals_half_average_curvature(self, fixture, mu, request):
        u = request.getfixturevalue(fixture)
        P = u.polytope
        s_int, _ = td.integrate(P, lambda pts: u.scalar_curvature_many(pts),
                                rel_tol=1e-10)
        assert 0.5 * s_int / float(P.volume()) == pytest.approx(mu, abs=1e-6)


class TestSlopeMuC:
    def test_closed_form(self, vertex_family):
        for c in (F(1, 4), F(1, 2), F(3, 4)):
            assert td.slope_mu_c(vertex_family, c) == 3 * (3 - c) / (3 - c * c)

    def test_specific_value(self, vertex_family):
        assert td.slope_mu_c(vertex_family, F(1, 2)) == F(30, 11)

    def test_seshadri_boundary_recovers_mu(self, vertex_family, simplex2):
        eps = td.seshadri_constant(simplex2, td.AffineFunctional([1, 1], 0))
        assert eps == 1
        assert td.slope_mu_c(vertex_family, eps) == td.slope_mu(simplex2) == 3

    def test_out_of_range_rejected(self, vertex_family):
        with pytest.raises(ValueError, match="outside"):
            td.slope_mu_c(vertex_family, F(3, 2))

    def test_continuity_near_midpoint(self, vertex_family):
        # dense sampling around c = 1/2: the rational formula has no jump
        base = td.slope_mu_c(vertex_family, F(1, 2))
        for dc in (F(1, 97), F(1, 193), F(1, 389)):
            lo = td.slope_mu_c(vertex_family, F(1, 2) - dc)
            hi = td.slope_mu_c(vertex_family, F(1, 2) + dc)
            assert abs(float(lo - base)) < 2 * float(dc)
            assert abs(float(hi - base)) < 2 * float(dc)


class TestSlopeMetricFormula:
    @pytest.mark.parametrize("c", [F(1, 4), F(1, 2), F(3, 4)])
    def test_matches_exact_excess(self, vertex_family, u_simplex, c):
        exact = td.slope_mu_c(vertex_family, c) - 3
        metric = td.slope_excess_metric(vertex_family, u_simplex, c)
        assert metric == pytest.approx(float(exact), abs=1e-4)
        # closed form -3c(1-c)/(3-c^2)
        cf = float(c)
        assert metric == pytest.approx(-3 * cf * (1 - cf) / (3 - cf * cf),
                                       abs=1e-4)

    @pytest.mark.parametrize("c", [F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 4)])
    def test_perturbed_matches_exact_excess(self, vertex_family, u_simplex_perturbed, c):
        # s - Av s is far from 0 here, so the sign of the curvature term
        # and the cut at c both show; the canonical potential hides them
        exact = float(td.slope_mu_c(vertex_family, c) - 3)
        metric = td.slope_excess_metric(vertex_family, u_simplex_perturbed, c)
        assert metric == pytest.approx(exact, rel=1e-8)

    def test_strictly_negative_for_csck(self, vertex_family, u_simplex):
        for c in (F(1, 4), F(1, 2), F(3, 4)):
            assert td.slope_excess_metric(vertex_family, u_simplex, c) < 0

    def test_vanishes_as_c_to_zero(self, vertex_family, u_simplex):
        small = td.slope_excess_metric(vertex_family, u_simplex, F(1, 50))
        assert abs(small) < 0.03

    def test_multi_cut_rejected(self, square_family, u_square):
        with pytest.raises(ValueError, match="single-cut"):
            td.slope_excess_metric(square_family, u_square, F(1, 4))

    def test_report_verdict(self, vertex_family, u_simplex):
        rep = td.slope_report(vertex_family, u_simplex, F(1, 2))
        assert rep.verdict == "stable at c"
        assert rep.excess == F(30, 11) - 3
        assert abs(float(rep.excess) - rep.metric_excess) < 1e-4


class TestFutakiCombinatorial:
    def test_tent(self, tent_family):
        cfg = td.build_test_config(tent_family)
        assert td.futaki_combinatorial(cfg) == F(-1, 4)

    def test_trivial_prism(self, prism_family):
        cfg = td.build_test_config(prism_family)
        assert td.futaki_combinatorial(cfg) == 0

    def test_cp2_product(self, product_family):
        cfg = td.build_test_config(product_family)
        assert td.futaki_combinatorial(cfg) == 0

    def test_square_corner_config(self, square_family):
        cfg = td.build_test_config(square_family)
        assert td.futaki_combinatorial(cfg) == F(-1, 6)

    def test_tent_wk_identity(self, tent_family, interval):
        cfg = td.build_test_config(tent_family)
        for k in (2, 4, 6, 8):
            wk = cfg.gamma.count_lattice_points(k) - interval.count_lattice_points(k)
            assert wk == k * k // 4


class TestDeltaGamma:
    def test_tent(self, tent_family, u_interval):
        cfg = td.build_test_config(tent_family)
        assert td.delta_gamma(cfg, u_interval) == pytest.approx(2.0, abs=1e-10)

    def test_printed_convention_doubles(self, tent_family, u_interval):
        cfg = td.build_test_config(tent_family)
        printed = td.delta_gamma(cfg, u_interval, dp_convention="printed")
        assert printed == pytest.approx(4.0, abs=1e-10)

    def test_products_vanish(self, product_family, prism_family, u_simplex,
                             u_interval):
        for fam, u in ((product_family, u_simplex), (prism_family, u_interval)):
            cfg = td.build_test_config(fam)
            assert td.delta_gamma(cfg, u) == 0.0
            assert cfg.roof_skeleton == []

    def test_square_corner(self, square_family, u_square):
        cfg = td.build_test_config(square_family)
        assert td.delta_gamma(cfg, u_square) == pytest.approx(1.0, abs=1e-9)

    def test_skeleton_integral_vs_dp_time_integral(self, square_family,
                                                   u_square):
        # the non-horizontal skeleton integral equals int_0^{c_m} dp_t dt
        from toricdensity.stability import roof_skeleton_integral
        from toricdensity.asymptotics import dp_integral
        cfg = td.build_test_config(square_family)
        skel = roof_skeleton_integral(cfg, u_square)
        ts = np.linspace(0.005, 0.995, 200)
        vals = [dp_integral(square_family, u_square, F(t).limit_denominator(10**6),
                            1.0) for t in ts]
        time_integral = float(np.trapezoid(vals, ts))
        assert skel == pytest.approx(time_integral, abs=5e-4)

    def test_nonnegative(self, tent_family, square_family, u_interval, u_square):
        for fam, u in ((tent_family, u_interval), (square_family, u_square)):
            assert td.delta_gamma(td.build_test_config(fam), u) >= 0.0

    def test_horizontal_skeleton_matches_conorm_jump(self, tent_family,
                                                     skew_tent, u_interval):
        # a tent's only ridge is horizontal at the top critical value, so
        # the skeleton mass equals the limit of int_{N(t)} |dPhi|^2 dsigma
        # as t approaches it from below; the skew tent exercises the
        # cut-scale normalization of both sides
        from toricdensity.stability import roof_skeleton_integral
        from toricdensity.asymptotics import facet_integral
        for fam, near in ((tent_family, F(4999, 10000)),
                          (skew_tent, F(6665, 10000))):
            cfg = td.build_test_config(fam)
            assert cfg.roof_skeleton[0].horizontal
            skel = roof_skeleton_integral(cfg, u_interval)
            near_top = facet_integral(fam, u_interval, near, 1.0, "conorm")
            assert skel == pytest.approx(near_top, abs=1e-3)


class TestFutakiMetric:
    def test_tent(self, tent_family, u_interval):
        cfg = td.build_test_config(tent_family)
        assert td.futaki_metric(cfg, u_interval) == pytest.approx(-0.25, abs=1e-10)

    def test_products_zero(self, product_family, prism_family, u_simplex,
                           u_interval):
        for fam, u in ((product_family, u_simplex), (prism_family, u_interval)):
            cfg = td.build_test_config(fam)
            assert abs(td.futaki_metric(cfg, u)) < 1e-6

    def test_square_corner(self, square_family, u_square):
        cfg = td.build_test_config(square_family)
        assert td.futaki_metric(cfg, u_square) == pytest.approx(-1 / 6, abs=1e-9)

    @pytest.mark.parametrize("fixture,ufix", [
        ("tent_family", "u_interval"), ("product_family", "u_simplex"),
        ("prism_family", "u_interval"), ("square_family", "u_square")])
    def test_pipeline_agreement(self, fixture, ufix, request):
        fam = request.getfixturevalue(fixture)
        u = request.getfixturevalue(ufix)
        cfg = td.build_test_config(fam)
        comb = float(td.futaki_combinatorial(cfg))
        metric = td.futaki_metric(cfg, u)
        assert abs(comb - metric) <= 1e-4


class TestRoofIdentity:
    @pytest.mark.parametrize("fixture,ufix", [
        ("tent_family", "u_interval"), ("product_family", "u_simplex"),
        ("prism_family", "u_interval"), ("square_family", "u_square")])
    def test_corrected_identity_holds(self, fixture, ufix, request):
        fam = request.getfixturevalue(fixture)
        u = request.getfixturevalue(ufix)
        cfg = td.build_test_config(fam)
        assert abs(td.roof_identity_residual(cfg, u)) < 1e-6

    def test_printed_identity_fails_on_tent(self, tent_family, u_interval):
        cfg = td.build_test_config(tent_family)
        res = td.roof_identity_residual(cfg, u_interval, dp_convention="printed")
        assert abs(res) == pytest.approx(0.5, abs=1e-9)  # half the skeleton mass


class TestPolystabilityReport:
    def test_verdicts_on_csck_fixtures(self, interval, u_interval, tent_family,
                                       prism_family):
        configs = [td.build_test_config(tent_family),
                   td.build_test_config(prism_family)]
        reports = td.polystability_report(interval, u_interval, configs)
        assert reports[0].verdict == "F1 < 0 strictly"
        assert not reports[0].is_product
        assert reports[1].verdict == "F1 = 0 and product"
        assert reports[1].is_product
        for rep in reports:
            assert abs(rep.roof_identity_residual) < 1e-6
            assert (rep.delta == 0.0) == rep.is_product

    def test_perturbed_potential_runs(self, interval, tent_family):
        # exploratory: a non-canonical potential still produces a report
        from toricdensity.fields import Polynomial
        up = td.SymplecticPotential(interval, Polynomial(1, {(3,): 0.05}))
        cfg = td.build_test_config(tent_family)
        rep = td.futaki_report(cfg, up)
        assert rep.F1_combinatorial == F(-1, 4)  # combinatorics ignores the metric
        assert np.isfinite(rep.F1_metric)
        assert abs(rep.roof_identity_residual) < 1e-5

    def test_mismatched_base_rejected(self, square, u_square, tent_family):
        cfg = td.build_test_config(tent_family)
        with pytest.raises(ValueError, match="base"):
            td.polystability_report(square, u_square, [cfg])


def test_exact_interpolation_roundtrip():
    xs = [F(1), F(2), F(3), F(5)]
    coeffs = [F(2), F(-1, 3), F(0), F(7, 2)]
    ys = [_poly_eval(coeffs, x) for x in xs]
    assert _interpolate(xs, ys) == coeffs


@pytest.fixture(scope="module")
def skew_tent(interval):
    # cuts x and 2 - 2x: P(t) = [t, 1 - t/2], dies at t = 2/3
    return td.MovingFamily(interval, [td.AffineFunctional([1], 0),
                                      td.AffineFunctional([-2], -2)])


@pytest.fixture(scope="module")
def skew_square(square):
    # cuts x1 and 2 x2: P(t) = [t,1] x [t/2,1]
    return td.MovingFamily(square, [td.AffineFunctional([1, 0], 0),
                                    td.AffineFunctional([0, 2], 0)])


class TestNonPrimitiveCuts:
    """Families whose cut gradients are not primitive separate the two Leray
    normalizations: the facet term of the boundary distribution carries the
    primitive-conormal measure, the derivative and corner terms the
    cut-scale measure.  Exact lattice counts are the referee."""

    def test_skew_tent_hilbert(self, skew_tent, u_interval):
        assert skew_tent.critical_values() == [0, F(2, 3)]
        for t in (F(1, 4), F(1, 2)):
            comb = td.hilbert_coeffs_combinatorial(skew_tent, t)
            geom = td.hilbert_coeffs_geometric(skew_tent, u_interval, t)
            assert comb.A1 == 1
            assert geom.A1 == pytest.approx(1.0, abs=1e-8)

    def test_skew_tent_futaki(self, skew_tent, u_interval):
        cfg = td.build_test_config(skew_tent)
        assert cfg.gamma.volume() == F(1, 3)
        assert td.futaki_combinatorial(cfg) == F(-1, 3)
        assert td.futaki_metric(cfg, u_interval) == pytest.approx(-1 / 3, abs=1e-9)
        assert td.delta_gamma(cfg, u_interval) == pytest.approx(2.0, abs=1e-9)
        assert abs(td.roof_identity_residual(cfg, u_interval)) < 1e-9

    def test_skew_square_hilbert(self, skew_square, u_square):
        # N(kP(t)) = ((1-t)k+1)((1-t/2)k+1): A1(t) = 2 - 3t/2
        for t in (F(1, 4), F(1, 2)):
            comb = td.hilbert_coeffs_combinatorial(skew_square, t)
            assert comb.A1 == 2 - 3 * t / 2
            geom = td.hilbert_coeffs_geometric(skew_square, u_square, t)
            assert geom.A1 == pytest.approx(float(comb.A1), rel=1e-7)

    def test_skew_square_futaki(self, skew_square, u_square):
        # Vol(Gamma) = int min(x1, 2 x2) = 5/12; Delta = 1; F1 = -5/24
        cfg = td.build_test_config(skew_square)
        assert cfg.gamma.volume() == F(5, 12)
        assert td.futaki_combinatorial(cfg) == F(-5, 24)
        assert td.delta_gamma(cfg, u_square) == pytest.approx(1.0, abs=1e-8)
        assert td.futaki_metric(cfg, u_square) == pytest.approx(-5 / 24, abs=1e-8)
        assert abs(td.roof_identity_residual(cfg, u_square)) < 1e-8

    def test_skew_square_boundary_identity(self, skew_square, u_square):
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            assert abs(td.boundary_volume_identity(skew_square, u_square, t)) \
                < 1e-6
