"""Quadrature, section norms, mass densities and partial density functions."""

import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricdensity as td
from toricdensity.asymptotics import _slice_at_regular
from toricdensity.density import (QuadratureScheme, _cut_signs, loglog_slope, partial_mask,
                                  required_divisor, tree_sum)

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

    def test_schemes_match_face_fans(self):
        # the whole polytope, every facet (primitive normal and twice it),
        # every codim-2 face, the new facets of a slice in the scale of
        # their non-primitive cut functionals, and the roof ridges of Gamma
        from toricdensity.polytope import leray_simplex_measure

        family = td.MovingFamily(td.box([1, 1, 1]), [td.AffineFunctional([2, 0, 0], 0),
                                                      td.AffineFunctional([0, 3, 3], 0)])
        sl = family.slice(F(1, 2))
        config = td.build_test_config(td.MovingFamily(
            td.box([1, 1]), [td.AffineFunctional([1, 0], 0), td.AffineFunctional([0, 1], 0)]))
        lifted = config.roof_functionals()
        ridges = [(r.vertex_ids, (lifted[r.cut_a], lifted[r.cut_b]))
                  for r in config.roof_skeleton]
        cuts = [(sl.polytope.facet_vertex_ids(fid), (func,))
                for (_, func), fid in zip(sl.new_facets, sl.new_facet_ids)]
        assert ridges and cuts
        for P, extra in ((td.box([1, 1, 1]), []), (td.standard_simplex(3), []),
                         (sl.polytope, cuts), (config.gamma, ridges)):
            faces = [(None, ())] + extra
            for a in P.essential_facets():
                f = P.facets[a]
                twice = td.AffineFunctional([2 * c for c in f.normal], 2 * f.offset)
                faces += [(P.facet_vertex_ids(a), (f,)), (P.facet_vertex_ids(a), (twice,))]
            faces += [(face.vertex_ids, tuple(P.facets[a] for a in sorted(face.active_facets)[:2]))
                      for face in P.faces(2)]
            for ids, ells in faces:
                tri = P.triangulation() if ids is None else P.face_triangulation(ids, len(ells))
                got = QuadratureScheme.for_polytope(P, ids, *ells)
                assert got.simplices.shape == (len(tri), P.dim + 1 - len(ells), P.dim)
                assert np.array_equal(got.simplices,
                                      [[[float(c) for c in v] for v in s] for s in tri])
                assert np.array_equal(got.measures,
                                      [float(leray_simplex_measure(s, *ells)) for s in tri])
            assert math.fsum(QuadratureScheme.for_polytope(P).measures) == \
                pytest.approx(float(P.volume()), rel=1e-14)

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

    def test_curvature_integral_on_thin_slice_is_boundary_volume(self):
        # with the slice's own canonical potential, the integral of s over P
        # is the Leray volume of its boundary (Donaldson); nodes near the
        # facets of the thin slab P(5/7) must carry s to ~eps/ell
        family = td.MovingFamily(td.standard_simplex(3),
                                 [td.AffineFunctional([1, 1, 1], 0)])
        P = family.slice(F(5, 7)).polytope
        u = td.guillemin_potential(P)
        val, _ = td.integrate(P, u.scalar_curvature_many, rel_tol=1e-12)
        assert val == pytest.approx(float(P.boundary_leray_volume()), rel=1e-14)

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


def _reference_integrate_orders(simplices, measures, fn, components=1,
                                rel_tol=1e-8, abs_tol=1e-12):
    """The order-raising driver one Gauss order per step: every step forms
    its nodes and calls ``fn`` on its own.  The reference that
    ``integrate_orders``, which evaluates several orders per call, must
    reproduce bit for bit."""
    from toricdensity import density

    S = np.asarray(simplices, dtype=float)
    mu = np.asarray(measures, dtype=float)
    m = S.shape[1] - 1

    def order_values(S, mu, live, order):
        s = S.shape[0]
        bary, wts = density.reference_rule(m, order)
        r = len(wts)
        per_simplex = np.empty((live.size, s))
        per_block = max(1, density.BLOCK // r)
        for c0 in range(0, live.size, per_block):
            comp = live[c0:c0 + per_block]
            step = max(1, density.BLOCK // (comp.size * r))
            for s0 in range(0, s, step):
                nodes = np.einsum("rb,sbN->srN", bary, S[s0:s0 + step])
                vals = fn(nodes.reshape(-1, S.shape[2]), comp)
                per_simplex[c0:c0 + per_block, s0:s0 + step] = \
                    (vals.reshape(comp.size, -1, r) * wts).sum(axis=2)
        return density._tree_sum_rows(per_simplex * mu)

    values = np.full(components, np.nan)
    deltas = np.full(components, np.inf)
    agreed = np.zeros(components, dtype=bool)
    live = np.arange(components)
    order, count = density.FIRST_ORDER, S.shape[0]
    while live.size:
        if count * order ** m > density.NODE_BUDGET:
            raise td.QuadratureError("budget", best=values, delta=deltas)
        if count > S.shape[0]:
            S, mu = density._refined(S, mu)
        cur = order_values(S, mu, live, order)
        step = np.abs(cur - values[live])
        deltas[live] = np.where(np.isnan(step), np.inf, step)
        ok = deltas[live] <= np.maximum(rel_tol * np.abs(cur), abs_tol)
        values[live] = cur
        done = ok & agreed[live]
        agreed[live] = ok
        live = live[~done]
        if order < density.MAX_ORDER:
            order = min(order + density.ORDER_STEP, density.MAX_ORDER)
        else:
            count <<= m
    return values, deltas


def _both_drivers(S, mu, fn, components, rel_tol, abs_tol):
    """(values, deltas) or the QuadratureError's (best, delta), with a flag
    for the error, from the batched driver and from the reference."""
    from toricdensity.density import integrate_orders

    out = []
    for driver in (integrate_orders, _reference_integrate_orders):
        try:
            out.append((False, *driver(S, mu, fn, components, rel_tol=rel_tol,
                                       abs_tol=abs_tol)))
        except td.QuadratureError as exc:
            out.append((True, exc.best, exc.delta))
    return out


@st.composite
def smooth_integrands(draw):
    """(simplices, measures, fn, components): a box or simplex fan in
    dimension 1-3 and up to four components exp(<a, x>) cos(<b, x> + c),
    some converging in a few orders and some needing many."""
    from toricdensity.density import QuadratureScheme

    n = draw(st.integers(1, 3))
    P = draw(st.sampled_from([td.box([1] * n), td.standard_simplex(n)]))
    scheme = QuadratureScheme.for_polytope(P)
    components = draw(st.integers(1, 4))
    coef = st.floats(-6.0, 6.0, allow_nan=False)
    a = np.array(draw(st.lists(coef, min_size=components * n, max_size=components * n)))
    b = np.array(draw(st.lists(coef, min_size=components * n, max_size=components * n)))
    c = np.array(draw(st.lists(coef, min_size=components, max_size=components)))
    a, b = a.reshape(components, n), b.reshape(components, n)

    def fn(nodes, live):
        return np.exp(a[live] @ nodes.T) * np.cos(b[live] @ nodes.T + c[live, None])

    return scheme.simplices, scheme.measures, fn, components


def _bump(nodes, live):
    """Smooth but not analytic at x = 0.3: order raising alone stalls."""
    x = nodes[:, 0] - 0.3
    out = np.zeros(len(x))
    out[x > 0] = np.exp(-1.0 / x[x > 0])
    return np.stack([out, out * nodes[:, -1]])[live]


class TestBatchedOrders:
    @given(smooth_integrands(), st.sampled_from([1e-6, 1e-9, 1e-12, 1e-14]),
           st.sampled_from([0.0, 1e-12, 1e-6]),
           st.sampled_from([None, 60, 400, 5000]))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_one_order_per_call(self, case, rel_tol, abs_tol, budget):
        from toricdensity import density

        S, mu, fn, components = case
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(density, "NODE_BUDGET", budget)
            (err, v, d), (ref_err, ref_v, ref_d) = _both_drivers(
                S, mu, fn, components, rel_tol, abs_tol)
        assert err == ref_err
        assert np.array_equal(v, ref_v, equal_nan=True)
        assert np.array_equal(d, ref_d)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("refinements", [None, 1])
    def test_bump_refining_past_max_order(self, n, refinements, monkeypatch):
        from toricdensity import density

        scheme = td.QuadratureScheme.for_polytope(td.box([1] * n))
        S, mu = scheme.simplices, scheme.measures
        at_max_order = len(S) * density.MAX_ORDER ** n
        if refinements is not None:  # stop after that many refinements
            monkeypatch.setattr(density, "NODE_BUDGET", at_max_order << n * refinements)
        (err, v, d), (ref_err, ref_v, ref_d) = _both_drivers(S, mu, _bump, 2, 1e-12, 0.0)
        assert err == ref_err == (refinements is not None)
        assert np.array_equal(v, ref_v) and np.array_equal(d, ref_d)
        # one order per call: a call past MAX_ORDER's node count is a refinement
        steps = []

        def counted(nodes, live):
            steps.append(len(nodes))
            return _bump(nodes, live)

        with pytest.raises(td.QuadratureError) if err else contextlib.nullcontext():
            _reference_integrate_orders(S, mu, counted, 2, rel_tol=1e-12, abs_tol=0.0)
        assert max(steps) > at_max_order

    def test_third_order_acceptance_is_one_call(self, square):
        from toricdensity.density import integrate_orders

        scheme = td.QuadratureScheme.for_polytope(square)
        calls = []

        def fn(nodes, live):
            calls.append((len(live), len(nodes)))
            return np.stack([1.0 + nodes[:, 0] * nodes[:, 1], nodes[:, 1] ** 2])[live]

        values, deltas = integrate_orders(scheme.simplices, scheme.measures, fn, 2,
                                          rel_tol=1e-12)
        assert len(calls) == 1
        # orders 4, 6 and 8 of four triangles on one call
        assert calls[0] == (2, 4 * (16 + 36 + 64))
        assert values == pytest.approx([1.25, 1 / 3], rel=1e-14)

    @pytest.mark.parametrize("block", [5000, 30000, 1 << 18])
    def test_no_call_exceeds_block(self, block, monkeypatch):
        from toricdensity import density

        scheme = td.QuadratureScheme.for_polytope(td.box([1, 1, 1]))
        k = np.arange(1, 6, dtype=float)
        calls = []

        def fn(nodes, live):
            calls.append(len(live) * len(nodes))
            return np.exp(-np.outer(k[live], nodes.sum(axis=1)))

        want = density.integrate_orders(scheme.simplices, scheme.measures, fn, 5,
                                        rel_tol=1e-12)
        monkeypatch.setattr(density, "BLOCK", block)
        calls.clear()
        got = density.integrate_orders(scheme.simplices, scheme.measures, fn, 5,
                                       rel_tol=1e-12)
        assert max(calls) <= block
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
        basis = cp1_bases[10]
        # k*alpha not integral, the wrong length, outside kP
        for alpha in ([F(1, 3)], [], [F(1, 2), F(1, 2)], [F(11, 10)], [F(-1, 10)]):
            with pytest.raises(ValueError, match="lattice point"):
                td.section_norm(basis, alpha)
        assert basis.index_of([0.5]) == basis.index_of([F(1, 2)]) == 5

    def test_section_norm_of_every_point(self, u_simplex):
        basis = td.SectionBasis.build(u_simplex, 40)
        assert len(basis.alphas) == 861
        for i, alpha in enumerate(basis.alphas):
            assert td.section_norm(basis, alpha) == basis.norms[i]


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
    def test_bracket_reduces_to_one_for_f1(self, u_interval, u_simplex_perturbed):
        # the curvature cancels, so f = 1 has no 1/k term at all
        from toricdensity.density import section_expansion_bracket
        assert section_expansion_bracket(u_interval, [0.5], 10, td.constant_field(1)) == 1.0
        assert section_expansion_bracket(u_simplex_perturbed, [0.2, 0.3], 7,
                                         td.constant_field(2)) == 1.0

    def test_bracket_on_the_interval(self, u_interval):
        # G = 2a(1 - a), div G = 2 - 4a: f(a) + ((2 - 4a) f'(a) + a(1 - a) f''(a))/2k
        from toricdensity.density import section_expansion_bracket
        f = td.polynomial_field(1, {(0,): 0.7, (1,): 1.3, (3,): -2.0})
        for a, k in ((0.3, 10), (0.5, 40), (0.85, 7)):
            fa, d1, d2 = 0.7 + 1.3 * a - 2 * a**3, 1.3 - 6 * a**2, -12 * a
            want = fa + ((2 - 4 * a) * d1 + a * (1 - a) * d2) / (2 * k)
            assert section_expansion_bracket(u_interval, [a], k, f) == \
                pytest.approx(want, rel=1e-14)

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
        pairing = td.pair_section(basis, [F(3, 10)], f)
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

    @pytest.mark.parametrize("call,size", [
        (lambda u: td.pair_alpha(u, ("1/2", "1/3"), 10, 1.0), 2),
        (lambda u: td.section_expansion_check(u, (), 1.0), 0)],
        ids=["pair_alpha", "expansion_check"])
    def test_alpha_of_the_wrong_length(self, u_interval, call, size):
        # both failed inside numpy, with a matmul message that did not name alpha
        with pytest.raises(ValueError, match=f"^alpha has {size} coordinates, "
                                             f"the polytope has dimension 1$"):
            call(u_interval)

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

    def test_divisor_of_a_lower_dimensional_slice(self):
        # P(1/2) of [0, 1/2] x [0, 1] cut by x is the edge x = 1/2, integral
        # at even k; it was taken to be empty, of divisor 1
        family = td.MovingFamily(td.box([F(1, 2), 1]), [td.AffineFunctional([1, 0], 0)])
        assert required_divisor(family, F(1, 2)) == 2
        assert required_divisor(family, 1) == 1

    def test_monotone_below_full_density(self, corner_family, u_interval,
                                         cp1_bases):
        basis = cp1_bases[40]
        pts = np.divide(*u_interval.polytope.interior_grid(17))
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


@st.composite
def masked_bases(draw):
    """(family, basis, t, alpha): the unit box or simplex in dimension 1..3
    at level k <= 6 with one to three rational cuts, some of whose cleared
    integers pass 2**62, and a basis whose norms are placeholders.  t is
    drawn, or is the smallest cut value at the lattice point alpha, which
    then lies exactly on N(t); alpha is None otherwise."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    P = draw(st.sampled_from([td.box([1] * n), td.standard_simplex(n)]))
    dens = st.one_of(st.integers(1, 5), st.integers(10**19, 10**21))
    cuts = {}
    for _ in range(draw(st.integers(1, 3))):
        nu = draw(st.lists(st.builds(F, st.integers(-4, 4), dens), min_size=n, max_size=n)
                  .filter(any))
        lowest = min(sum(a * b for a, b in zip(nu, v)) for v in P.vertices)
        ell = td.AffineFunctional(nu, lowest - draw(st.builds(F, st.integers(0, 3), dens)))
        cuts[ell.key()] = ell
    family = td.MovingFamily(P, list(cuts.values()))
    lattice = P.lattice_points(k)
    alphas = [tuple(F(m, k) for m in p) for p in lattice.tolist()]
    basis = td.SectionBasis(potential=None, k=k, lattice=lattice, norms=np.ones(len(alphas)),
                            rel_tol=1e-8)
    if draw(st.booleans()):
        return family, basis, draw(st.builds(F, st.integers(0, 9), dens)), None
    alpha = draw(st.sampled_from(alphas))
    return family, basis, min(phi.value(alpha) for phi in family.cuts), alpha


class TestPartialMask:
    @given(masked_bases())
    @settings(max_examples=120, deadline=None)
    def test_mask_matches_fraction_values(self, case):
        family, basis, t, alpha = case
        want = [all(phi.value(a) >= t for phi in family.cuts) for a in basis.alphas]
        mask = partial_mask(family, basis, t)
        assert mask.dtype == bool and mask.tolist() == want
        if alpha is not None:
            assert mask[basis.alphas.index(alpha)]
            assert td.region_classify(family, t, alpha) == "N"
        assert partial_mask(family, basis, t) is mask and not mask.flags.writeable

    def test_origin_only_lattice_with_huge_cut(self):
        # k[0, 1/2] holds the origin alone at k=1, so the reach of the lattice
        # is 0 and only |nu| = 2**70 can send the cut test to Python ints
        P = td.standard_simplex(1, F(1, 2))
        family = td.MovingFamily(P, [td.AffineFunctional([2**70], 0)])
        basis = td.SectionBasis(potential=None, k=1, lattice=P.lattice_points(1),
                                norms=np.ones(1), rel_tol=1e-8)
        assert basis.lattice.tolist() == [[0]]
        assert partial_mask(family, basis, 0).tolist() == [True]
        assert partial_mask(family, basis, 1).tolist() == [False]
        assert td.region_classify(family, 1, (0,)) == "C"

    @given(masked_bases(), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_grid_and_regions_match_fraction_values(self, case, per_axis):
        # the exact grid of a random slice P(t) (or of the base when P(t) is
        # empty), and the vectorised regions of its points, against Fractions
        family, _, t, _ = case
        sl = family.slice(t)
        P = family.base if sl.is_empty else sl.polytope
        num, den = P.interior_grid(per_axis)
        pts = [tuple(F(m, den) for m in row) for row in num.tolist()]
        lo, hi = P.bounding_box()
        ticks = [[a + (b - a) * (i + 1) / (per_axis + 1) for i in range(per_axis)]
                 for a, b in zip(lo, hi)]
        inside = [p for p in itertools.product(*ticks) if P.contains(p, strict=True)]
        assert pts == (inside or [P.centroid_of_vertices()])
        for p, sign in zip(pts, _cut_signs(family, t, num, den).tolist()):
            m = min(phi.value(p) for phi in family.cuts)
            assert sign == (m > t) - (m < t)
            assert td.region_classify(family, t, p) == "CND"[sign + 1]


class TestExactInput:
    """Parameters refuse floats; a float coordinate is its exact binary value."""

    @pytest.mark.parametrize("call", [
        lambda family, basis: partial_mask(family, basis, 0.3),
        lambda family, basis: family.slice(0.3),
        lambda family, basis: td.slope_mu_c(family, 0.5),
        lambda family, basis: _slice_at_regular(family, 0.3),
    ], ids=["partial_mask", "slice", "slope_mu_c", "slice_at_regular"])
    def test_float_parameter_rejected(self, corner_family, cp1_bases, call):
        with pytest.raises(ValueError, match="got float"):
            call(corner_family, cp1_bases[20])

    def test_float_coordinate_is_exact(self, corner_family, u_interval):
        y = 0.1 + 0.2  # 0.30000000000000004, just above 3/10
        for t, region in ((F(3, 10), "D"), (F(y), "N")):
            assert td.region_classify(corner_family, t, (y,)) == region
            assert td.region_classify(corner_family, t, (F(y),)) == region
        P = td.box([F(3, 10)])
        assert not P.contains((y,)) and P.contains((0.3,), strict=True)
        assert td.pair_alpha(u_interval, [y], 20, td.coordinate_field(1, 0)) == \
            td.pair_alpha(u_interval, [F(y)], 20, td.coordinate_field(1, 0))


class TestRegionClassify:
    @pytest.mark.parametrize("y,expected", [
        ((F(1, 10), F(1, 2)), "C"),
        ((F(1, 4), F(6, 10)), "N"),
        ((F(1, 2), F(1, 2)), "D"),
    ])
    def test_square_family(self, square_family, y, expected):
        assert td.region_classify(square_family, F(1, 4), y) == expected

    def test_numerators_past_int64(self):
        # y1 - 3/4 = 1/(16 * 10**18) > 0, and over that one denominator y has
        # numerators 12 * 10**18 + 1 and 8 * 10**18: numpy would store the row
        # as floats, round the first to 1.2e19 and put y on N(3/4)
        family = td.MovingFamily(td.box([1, 1]), [td.AffineFunctional([1, 0], 0)])
        y = (F(12 * 10**18 + 1, 16 * 10**18), F(1, 2))
        assert td.region_classify(family, F(3, 4), y) == "D"


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
    # the grid points 1/10, 3/10 and 1/2, as numerators over 20
    pts, rho, rho_hat, region = td.density_profile(
        corner_family, u_interval, F(3, 10), 20, (np.array([[2], [6], [10]]), 20),
        basis=cp1_bases[20])
    assert pts.tolist() == [[0.1], [0.3], [0.5]]
    assert region.tolist() == ["C", "N", "D"]
    assert rho_hat[0] < rho[0]
