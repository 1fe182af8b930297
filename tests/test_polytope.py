"""Exact combinatorics: vertices, faces, counts, Leray measures, families."""

import ast
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricdensity as td
from toricdensity.polytope import AffineFunctional, Polytope, leray_simplex_measure

F = Fraction


def brute_force_vertices(facets, dim):
    """Independent oracle: solve every dim-subset with numpy-free rational
    elimination and filter by feasibility."""
    out = set()
    for combo in itertools.combinations(facets, dim):
        # Cramer solve over Fractions
        A = [list(f.normal) for f in combo]
        b = [f.offset for f in combo]
        det = _det(A)
        if det == 0:
            continue
        x = []
        for j in range(dim):
            Aj = [row[:j] + [b[i]] + row[j + 1:] for i, row in enumerate(A)]
            x.append(_det(Aj) / det)
        if all(f.value(x) >= 0 for f in facets):
            out.add(tuple(x))
    return sorted(out)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
# integers up to 10^30, so the fraction-free elimination carries big ints
big_integers = st.integers(-10**30, 10**30)


@st.composite
def rational_matrices(draw):
    """An r x c rational matrix, r, c <= 4, of small fractions or of
    integers up to 10^30.

    Half the draws are products B C through an inner size below min(r, c),
    so singular and rank-deficient matrices come up often (inner size 0
    gives the zero matrix, of rank 0)."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.sampled_from([small_fractions, big_integers]))

    def matrix(p, q):
        return [[draw(entries) for _ in range(q)] for _ in range(p)]

    if draw(st.booleans()):
        rows = matrix(r, c)
    else:
        inner = draw(st.integers(0, min(r, c) - 1))
        B, C = matrix(r, inner), matrix(inner, c)
        rows = [[sum((B[i][m] * C[m][j] for m in range(inner)), F(0))
                 for j in range(c)] for i in range(r)]
    return rows


def _largest_nonzero_minor(rows):
    r, c = len(rows), len(rows[0])
    return max((size for size in range(1, min(r, c) + 1)
                for ri in itertools.combinations(range(r), size)
                for ci in itertools.combinations(range(c), size)
                if _det([[rows[i][j] for j in ci] for i in ri]) != 0), default=0)


class TestExactLinearAlgebra:
    @given(rational_matrices())
    @settings(max_examples=150, deadline=None)
    @example([[F(0), F(0), F(0)]])
    @example([[0, 0], [0, 0]])
    @example([[F(1, 3), 10**30, F(-2, 7), 5]])
    @example([[10**30, 10**30 + 1], [10**30 - 1, 10**30]])
    def test_row_reduction_wrappers(self, rows):
        from toricdensity import polytope as tp

        r, c = len(rows), len(rows[0])
        rank = _largest_nonzero_minor(rows)
        assert tp._rank(rows) == rank

        k = min(r, c)
        square = [row[:k] for row in rows[:k]]
        assert tp._det(square) == _det(square)

    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(st.integers(-5, 5), min_size=d, max_size=d), min_size=1, max_size=7)))
    @settings(max_examples=150, deadline=None)
    @example([[0, 0], [2, 4], [1, 2], [0, 3]])
    def test_start_cone_rays_come_from_the_adjugate(self, rows):
        from toricdensity import polytope as tp

        d = len(rows[0])
        start = tp._start_cone(rows, d)
        if tp._rank(rows) < d:
            assert start is None
            return
        basis, rays = start
        # the first d independent rows, in order
        assert basis == [i for i in range(len(rows))
                         if tp._rank(rows[:i + 1]) > tp._rank(rows[:i])]
        B = [rows[a] for a in basis]
        for i, ray in enumerate(rays):
            assert math.gcd(*ray) == 1 and all(isinstance(v, int) for v in ray)
            image = [sum(a * b for a, b in zip(row, ray)) for row in B]
            assert image[i] > 0 and image[:i] + image[i + 1:] == [0] * (d - 1)


def _lagrange_reference(xs, ys):
    """Monomial coefficients, low degree first and trailing zeros dropped, of
    the Lagrange polynomial through (xs, ys), on Fractions throughout."""
    coeffs = [F(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, den = [F(1)], F(1)
        for j, xj in enumerate(xs):
            if j != i:
                # times (x - xj)
                basis = [a - xj * b for a, b in zip([F(0)] + basis, basis + [F(0)])]
                den *= xi - xj
        coeffs = [c + yi * b / den for c, b in zip(coeffs, basis)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


rationals = st.one_of(st.integers(-50, 50),
                      st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4)))


class TestExactPolynomials:
    @given(st.integers(0, 5).flatmap(lambda degree: st.tuples(
        st.just(degree), st.lists(rationals, min_size=degree + 2, max_size=degree + 2,
                                  unique_by=F),
        st.lists(rationals, min_size=degree + 1, max_size=degree + 1),
        rationals.filter(bool))))
    @settings(max_examples=200, deadline=None)
    def test_integer_fit_matches_fraction_lagrange(self, case):
        from toricdensity.polytope import _fit, _poly_eval

        degree, xs, ys, miss = case
        want = _lagrange_reference(xs[:-1], ys)
        assert _fit(xs[:-1], ys, degree, "fit") == want
        assert all(type(c) is Fraction for c in _fit(xs[:-1], ys, degree, "fit"))
        x = xs[-1]
        y = sum((c * F(x) ** d for d, c in enumerate(want)), F(0))
        assert _poly_eval(want, x) == y
        # an extra sample on the polynomial is accepted, one off it refused
        assert _fit(xs, ys + [y], degree, "fit") == want
        with pytest.raises(ValueError, match=f"fit: the sample at {x} does not fit a "
                                             f"degree-{degree} polynomial"):
            _fit(xs, ys + [y + miss], degree, "fit")

    def test_exact_core_makes_only_its_results(self, monkeypatch):
        # _fit, _poly_eval and the Leray recursion run on ints; the only
        # Fractions they make are the values they return
        from toricdensity.polytope import _fit, _poly_eval

        cubic = [F(1, 3), F(-2), F(0), F(5, 7)]
        xs = [F(1, 3), F(1, 2), 2, F(7, 5), F(-3, 4)]
        ys = [_poly_eval(cubic, x) for x in xs]
        x, want = F(2, 9), F(1, 3) - F(4, 9) + F(5, 7) * F(2, 9) ** 3
        P = td.box([F(1, 2), 3, F(5, 3)])
        P.vertices
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw))
        results = [_fit(xs, ys, 3, "cubic"), _poly_eval(cubic, x),
                   P.volume(), P.boundary_leray_volume()]
        assert len(made) == 4 + 1 + 1 + 1
        monkeypatch.undo()
        assert results == [cubic, want, F(5, 2), 2 * (F(3, 2) + 5 + F(5, 6))]

    def test_poly_eval_of_no_coefficients_is_zero(self):
        from toricdensity.polytope import _poly_eval

        assert _poly_eval([], F(3, 7)) == 0


class TestVertexEnumeration:
    def test_unit_square(self, square):
        assert square.vertices == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_standard_simplex(self, simplex2):
        assert simplex2.vertices == [(0, 0), (0, 1), (1, 0)]

    def test_sliced_square_matches_brute_force(self):
        facets = [AffineFunctional([1, 0], F(1, 4)),
                  AffineFunctional([0, 1], F(1, 4)),
                  AffineFunctional([-1, 0], -1),
                  AffineFunctional([0, -1], -1)]
        got = td.enumerate_vertices(facets, 2)
        assert got == brute_force_vertices(facets, 2)
        assert set(got) == {(F(1, 4), F(1, 4)), (1, F(1, 4)),
                            (F(1, 4), 1), (1, 1)}

    def test_empty_raises(self):
        facets = [AffineFunctional([1], 1), AffineFunctional([-1], 0)]
        with pytest.raises(ValueError, match="empty"):
            td.enumerate_vertices(facets, 1)

    def test_unbounded_raises(self):
        facets = [AffineFunctional([1, 0], 0), AffineFunctional([0, 1], 0),
                  AffineFunctional([1, 1], 0)]
        with pytest.raises(ValueError, match="unbounded"):
            td.enumerate_vertices(facets, 2)

    @pytest.mark.parametrize("dim,rows", [
        (1, [([1], 0), ([1], 1)]),
        (2, [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)]),
        (2, [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0)]),
        (2, [([1, 0], 1), ([-1, 0], 0), ([0, 1], 0)]),
        (3, [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), ([1, 1, 1], 1)]),
    ])
    def test_unbounded_error_names_a_recession_ray(self, dim, rows):
        facets = _facets(rows)
        with pytest.raises(ValueError, match="unbounded polytope: recession ray") as err:
            Polytope(dim, facets)
        ray = ast.literal_eval(str(err.value).split("recession ray ")[1])
        assert len(ray) == dim and any(ray)
        assert all(sum(nu * r for nu, r in zip(f.normal, ray)) >= 0 for f in facets)

    def test_lower_dimensional_raises(self):
        facets = [AffineFunctional([1], 0), AffineFunctional([-1], 0)]
        with pytest.raises(ValueError, match="full-dimensional|empty"):
            td.enumerate_vertices(facets, 1)

    def test_duplicate_facet_rejected(self):
        facets = [AffineFunctional([1, 0], 0), AffineFunctional([2, 0], 0),
                  AffineFunctional([0, 1], 0), AffineFunctional([-1, -1], -1)]
        with pytest.raises(ValueError, match="duplicate"):
            Polytope(2, facets)

    def test_equal_functionals_hash_equal_and_are_duplicates(self):
        forms = [AffineFunctional([1, -2], 3), AffineFunctional([F(1), F(-2)], F(3)),
                 AffineFunctional(["1", "-2"], "3"), AffineFunctional(["2/2", "-4/2"], "6/2")]
        assert len({hash(f) for f in forms}) == 1 and len(set(forms)) == 1
        rest = [AffineFunctional([0, 1], 0), AffineFunctional([-1, 0], -5)]
        assert Polytope(2, forms[:1] + rest).vertices == [(3, 0), (5, 0), (5, 1)]
        for f in forms[1:]:
            with pytest.raises(ValueError, match="duplicate facet inequality"):
                Polytope(2, [forms[0], f] + rest)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=2),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_box_counts_match_product_formula(self, widths, k):
        P = td.box(widths)
        assert P.count_lattice_points(k) == (k * widths[0] + 1) * (k * widths[1] + 1)
        assert len(P.vertices) == 4


class TestDelzant:
    def test_simplex_is_delzant_integral(self, simplex2):
        rep = td.check_delzant(simplex2)
        assert rep.is_delzant and rep.is_integral

    def test_square_is_delzant(self, square):
        rep = td.check_delzant(square)
        assert rep.is_delzant and rep.is_integral

    def test_bad_triangle(self):
        # vertices (0,0), (2,0), (0,1): hypotenuse normal (-1,-2)
        facets = [AffineFunctional([0, 1], 0), AffineFunctional([1, 0], 0),
                  AffineFunctional([-1, -2], -2)]
        rep = td.check_delzant(Polytope(2, facets))
        assert not rep.is_delzant
        bad = [c for c in rep.certificates if not c.ok]
        assert len(bad) == 1
        assert bad[0].vertex == (0, 1)
        assert abs(bad[0].determinant) == 2

    def test_non_simple_vertex_reported(self):
        # square pyramid apex in 3d has 4 facets meeting
        facets = [AffineFunctional([0, 0, 1], 0),
                  AffineFunctional([1, 0, -1], 0),
                  AffineFunctional([-1, 0, -1], -1),
                  AffineFunctional([0, 1, -1], 0),
                  AffineFunctional([0, -1, -1], -1)]
        rep = td.check_delzant(Polytope(3, facets))
        assert not rep.is_delzant
        assert any("non-simple" in c.reason for c in rep.certificates)


class TestLatticeCounting:
    @pytest.mark.parametrize("k,expected", [(1, 3), (2, 6), (3, 10)])
    def test_simplex(self, simplex2, k, expected):
        assert td.count_lattice_points(simplex2, k) == expected

    def test_square_k3(self, square):
        assert td.count_lattice_points(square, 3) == 16

    def test_sliced_square(self, square_family):
        sl = square_family.slice(F(1, 4))
        assert sl.polytope.count_lattice_points(4) == 16

    def test_empty_counts_zero(self, tent_family):
        sl = tent_family.slice(F(3, 4))
        assert sl.is_empty
        hc = td.hilbert_coeffs_combinatorial(tent_family, F(3, 4))
        assert hc.A0 == hc.A1 == 0

    def test_brute_force_agreement(self, simplex2, square):
        for P, k in [(simplex2, 7), (square, 5)]:
            lo, hi = P.bounding_box()
            count = 0
            for p in itertools.product(
                    range(int(lo[0] * k) - 1, int(hi[0] * k) + 2),
                    range(int(lo[1] * k) - 1, int(hi[1] * k) + 2)):
                x = (F(p[0], k), F(p[1], k))
                if P.contains(x):
                    count += 1
            assert P.count_lattice_points(k) == count


def _walk(P, k):
    """|Z^n cap kP| summed over the fibres, the oracle of every count."""
    return sum(int(length.sum()) for _, _, length in P._fibres(k))


def brute_force_points(P, lo, hi, k):
    """Independent oracle: every integer point of the box k*[lo, hi], kept
    when P contains it by Fraction membership, in lexicographic order."""
    ranges = [range(math.ceil(a * k), math.floor(b * k) + 1) for a, b in zip(lo, hi)]
    return [list(p) for p in itertools.product(*ranges)
            if P.contains(tuple(F(c, k) for c in p))]


fractions_small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def _without_duplicates(facets):
    return list({f.normalized().key(): f for f in facets}.values())


@st.composite
def boxed_polytopes(draw):
    """A rational box, possibly of width 0 along some axes, cut by up to
    three random half-spaces: full-dimensional, lower-dimensional or empty."""
    n = draw(st.integers(1, 3))
    lo = [draw(fractions_small) for _ in range(n)]
    hi = [a + draw(st.builds(F, st.integers(0, 3), st.integers(1, 3))) for a in lo]
    facets = []
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        facets += [AffineFunctional(e, lo[i]), AffineFunctional([-v for v in e], -hi[i])]
    for _ in range(draw(st.integers(0, 3))):
        nu = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        facets.append(AffineFunctional(nu, draw(fractions_small)))
    return Polytope(n, _without_duplicates(facets), require_full_dim=False), lo, hi


class TestFibrewiseCounting:
    @given(boxed_polytopes(), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_points_and_counts_match_brute_force(self, data, k):
        P, lo, hi = data
        want = brute_force_points(P, lo, hi, k)
        pts = P.lattice_points(k)
        assert pts.shape == (len(want), P.dim)
        assert pts.tolist() == want
        assert P.count_lattice_points(k) == len(want)

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(any),
           st.builds(F, st.integers(0, 40), st.integers(1, 4)),
           st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_slices_match_brute_force(self, nu, t, k):
        n = len(nu)
        base = td.box([2] * n)
        cut = AffineFunctional(nu, min(sum(a * b for a, b in zip(nu, v))
                                       for v in base.vertices))
        lo, hi = [F(0)] * n, [F(2)] * n
        # the slice inequalities as they stand, empty or lower-dimensional
        raw = Polytope(n, _without_duplicates(base.facets + [cut.shifted(t)]),
                       require_full_dim=False)
        want = brute_force_points(raw, lo, hi, k)
        assert raw.lattice_points(k).tolist() == want
        assert raw.count_lattice_points(k) == len(want)
        sl = td.MovingFamily(base, [cut]).slice(t)
        if not sl.is_empty:
            assert sl.polytope.lattice_points(k).tolist() == want
            assert sl.polytope.count_lattice_points(k) == len(want)

    def test_empty_polytope(self):
        P = Polytope(2, [AffineFunctional([1, 0], 1), AffineFunctional([-1, 0], 0),
                         AffineFunctional([0, 1], 0), AffineFunctional([0, -1], -1)],
                     require_full_dim=False)
        assert P.is_empty
        assert P.count_lattice_points(3) == 0
        assert P.count_lattice_points(10**6) == 0
        assert P.lattice_points(3).shape == (0, 2)

    def test_empty_polytope_past_int64(self):
        # the facets pass int64 and there is no vertex to bound the slack table
        P = Polytope(2, [AffineFunctional([1, 0], 2 * 10**19), AffineFunctional([-1, 0], 0),
                         AffineFunctional([0, 1], 0), AffineFunctional([0, -1], -1)],
                     require_full_dim=False)
        assert P.is_empty and P.count_lattice_points(3) == 0

    def test_k_must_be_positive(self, square):
        with pytest.raises(ValueError, match="positive"):
            square.count_lattice_points(0)
        with pytest.raises(ValueError, match="positive"):
            square.lattice_points(0)

    @pytest.mark.parametrize("per_axis", [0, -3])
    def test_grid_needs_a_point_per_axis(self, square, per_axis):
        # it returned the vertex centroid as a one-point grid
        with pytest.raises(ValueError, match=f"at least one point per axis, got {per_axis}$"):
            square.interior_grid(per_axis)

    def test_lattice_budget(self, monkeypatch):
        from toricdensity import polytope
        tri = td.standard_simplex(2)
        monkeypatch.setattr(polytope, "LATTICE_BUDGET", 66)  # 66 points at k=10
        assert len(tri.lattice_points(10)) == 66
        with pytest.raises(ValueError, match="78 lattice points at k=11, past the budget of 66"):
            tri.lattice_points(11)
        assert tri.count_lattice_points(11) == 78  # counting builds no point

    @pytest.mark.parametrize("budget", [1, 7, 40, 150])
    def test_blocks_join_to_one_walk(self, monkeypatch, budget):
        # the 6^3 fibre box of the 4-simplex at k=5 (126 points) cut in
        # blocks of every shape: single fibres, slabs of axis 2, 1 and 0
        from toricdensity import polytope
        P = td.standard_simplex(4)
        whole = [np.concatenate(parts) for parts in zip(*P._fibres(5))]
        points = P.lattice_points(5)
        monkeypatch.setattr(polytope, "LATTICE_BUDGET", budget)
        blocks = list(P._fibres(5))
        assert len(blocks) > 1 and all(len(prefix) <= budget for prefix, _, _ in blocks)
        for parts, want in zip(zip(*blocks), whole):
            assert np.array_equal(np.concatenate(parts), want)
        assert P.count_lattice_points(5) == math.comb(9, 4) == 126
        if budget >= 126:
            assert np.array_equal(P.lattice_points(5), points)
        else:
            with pytest.raises(ValueError, match=f"has 126 lattice points at k=5, past the "
                                                 f"budget of {budget}$"):
                P.lattice_points(5)

    def test_count_in_bounded_memory(self, run_capped):
        # the 51^4 fibre box of the 5-simplex at k=50 is walked in blocks
        proc = run_capped(["-c", "import toricdensity as td; print(sum(int(length.sum()) "
                           "for _, _, length in td.standard_simplex(5)._fibres(50)))"],
                          cap=512 << 20)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == math.comb(55, 5) == 3478761

    def test_simplex3_k1000_fast_and_small(self):
        s3 = td.standard_simplex(3)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            count = _walk(s3, 1000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == math.comb(1003, 3)
        assert elapsed < 1.0
        assert peak < 200 * 2**20

    def test_counts_walk_once_per_k(self, monkeypatch):
        walks = []
        fibres = Polytope._fibres

        def counted(P, k):
            walks.append(k)
            return fibres(P, k)

        monkeypatch.setattr(Polytope, "_fibres", counted)
        s3 = td.standard_simplex(3)
        assert [s3.count_lattice_points(2) for _ in range(2)] == [10, 10]
        assert walks == [2]
        # the Ehrhart fit walks k = 1, ..., 4 and finds k = 2 counted
        assert s3.count_lattice_points(100) == math.comb(103, 3)
        assert s3.count_lattice_points(4) == math.comb(7, 3)
        assert walks == [2, 1, 3, 4]

    def test_count_past_the_walk_is_evaluated(self):
        k = 10**6
        assert td.box([1] * 4).count_lattice_points(k) == (k + 1) ** 4

    def test_fibre_budget(self, monkeypatch):
        from toricdensity import polytope
        s3 = td.standard_simplex(3)
        monkeypatch.setattr(polytope, "FIBRE_BUDGET", 100)  # the 10^2 fibres at k=9
        assert len(s3.lattice_points(9)) == _walk(s3, 9) == math.comb(12, 3)
        for refuse in (lambda: _walk(s3, 10), lambda: s3.lattice_points(10)):
            with pytest.raises(ValueError, match="121 fibres at k=10, past the budget of 100$"):
                refuse()
        # evaluation walks no further than k = 4
        assert s3.count_lattice_points(10**6) == math.comb(10**6 + 3, 3)

    @given(boxed_polytopes(), st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_counts_match_the_walk(self, data, k):
        P = data[0]
        assert P.count_lattice_points(k) == _walk(P, k)

    def test_counts_of_a_4d_slice_match_the_walk(self):
        # P(1/7) of the 4-simplex cut at its vertex: D = 7, so k > 42 evaluates
        P = td.MovingFamily(td.standard_simplex(4), [AffineFunctional([1] * 4, 0)]) \
            .slice(F(1, 7)).polytope
        assert P.integrality_divisor() == 7
        assert [P.count_lattice_points(k) for k in range(1, 61)] == \
            [_walk(P, k) for k in range(1, 61)]

    def test_huge_box_count_is_exact(self):
        k = 10**4
        assert td.box([1, 10**15]).count_lattice_points(k) == (k + 1) * (10**19 + 1)

    def test_huge_coordinates_are_python_ints(self):
        far = 10**19
        P = Polytope(1, [AffineFunctional([1], far), AffineFunctional([-1], -far - 2)])
        pts = P.lattice_points(1)
        assert pts.dtype == object
        assert pts.tolist() == [[far], [far + 1], [far + 2]]

    def test_points_are_int64_and_lexicographic(self, simplex2):
        pts = simplex2.lattice_points(4)
        assert pts.dtype == np.int64
        rows = pts.tolist()
        assert rows == sorted(rows)
        assert len(rows) == 15

    def test_section_basis_alphas_are_exact(self, u_simplex):
        basis = td.SectionBasis.build(u_simplex, 4, rel_tol=1e-8)
        assert basis.alphas == sorted(basis.alphas)
        assert len(basis.alphas) == 15
        for alpha in basis.alphas:
            assert all(type(c) is Fraction and type(c.numerator) is int for c in alpha)


def _brute_dim(points):
    """Affine dimension of a point set by the cofactor-determinant oracle."""
    if not points:
        return -1
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    return _largest_nonzero_minor(diffs) if diffs else 0


def _brute_on(facets, verts):
    """For each facet, the ids of the vertices where it vanishes (Fraction)."""
    return [tuple(i for i, v in enumerate(verts) if f.value(v) == 0) for f in facets]


def _brute_intersection(P, extra):
    """(facets, vertices) of P cap {ell >= 0 for ell in extra} by brute force:
    the normalized inequalities in input order without repeats, kept where
    their vertices span n-1 dimensions; None when empty or lower-dimensional."""
    n = P.dim
    ineqs = []
    for ell in list(P.facets) + list(extra):
        if ell.is_constant():
            if ell.offset > 0:
                return None
            continue
        if ell.normalized() not in ineqs:
            ineqs.append(ell.normalized())
    verts = brute_force_vertices(ineqs, n)
    if _brute_dim(verts) < n:
        return None
    facets = [f for f, ids in zip(ineqs, _brute_on(ineqs, verts))
              if _brute_dim([verts[i] for i in ids]) == n - 1]
    return facets, verts


def _assert_polytope(Q, facets, verts):
    assert Q.facets == facets
    assert Q.vertices == verts
    assert [Q.facet_vertex_ids(a) for a in range(len(facets))] == _brute_on(facets, verts)


def _assert_vertices_and_incidence(P, verts):
    """P's vertices, incidence, essential facets and the active facets of
    its codim-2 faces against the brute-force vertices ``verts``."""
    n = P.dim
    on = _brute_on(P.facets, verts)
    assert P.vertices == verts
    assert [P.facet_vertex_ids(a) for a in range(len(P.facets))] == on
    assert P.essential_facets() == [
        a for a, ids in enumerate(on) if _brute_dim([verts[i] for i in ids]) == n - 1]
    for face in (P.faces(2) if n >= 2 else []):
        assert face.active_facets == {a for a, ids in enumerate(on)
                                      if set(face.vertex_ids) <= set(ids)}


def _is_unbounded(P):
    P.vertices  # fills the recession ray
    return P._ray is not None


def _assert_unbounded_faces_raise(P):
    """The faces of an unbounded region are not its vertex sets, so faces
    and essential_facets refuse it; a nonempty one holds infinitely many
    lattice points, so counts and lattice_points refuse it too."""
    with pytest.raises(ValueError, match="unbounded region"):
        P.essential_facets()
    for codim in range(1, P.dim + 1):
        with pytest.raises(ValueError, match="unbounded region"):
            P.faces(codim)
    if P.is_empty:  # no point at all, bounded or not
        assert [P.count_lattice_points(k) for k in (1, 5, 10**6)] == [0, 0, 0]
        return
    for k in (1, 5, 10**6):
        for refuse in (P.count_lattice_points, P.lattice_points):
            with pytest.raises(ValueError, match="unbounded region"):
                refuse(k)
    with pytest.raises(ValueError, match="unbounded region"):
        P.interior_grid(5)


def _facets(rows):
    return [AffineFunctional(nu, offset) for nu, offset in rows]


def _vertex_family_gamma(n):
    family = td.MovingFamily(td.standard_simplex(n), [AffineFunctional([1] * n, 0)])
    return td.build_test_config(family).gamma


SQUARE_PYRAMID = [([0, 0, 1], 0), ([1, 0, -1], 0), ([-1, 0, -1], -1),
                  ([0, 1, -1], 0), ([0, -1, -1], -1)]
OCTAHEDRON = [(nu, -1) for nu in itertools.product((-1, 1), repeat=3)]

# Inputs on which a vertex enumeration could go wrong: vertices with more
# than n active facets, and, with require_full_dim=False, unbounded regions
# (which keep their vertices) and normals that do not span (no vertex).
NON_GENERIC = {
    "square_pyramid": lambda: Polytope(3, _facets(SQUARE_PYRAMID)),
    "octahedron": lambda: Polytope(3, _facets(OCTAHEDRON)),
    "cube_with_an_inequality_through_one_vertex": lambda: Polytope(
        3, td.box([1, 1, 1]).facets + [AffineFunctional([1, 1, 1], 0)]),
    "simplex_vertex2_gamma": lambda: _vertex_family_gamma(2),
    "simplex_vertex3_gamma": lambda: _vertex_family_gamma(3),
    "unbounded_half_line": lambda: Polytope(
        1, _facets([([1], 0), ([2], 1)]), require_full_dim=False),
    "unbounded_strip": lambda: Polytope(
        2, _facets([([1, 0], 0), ([-1, 0], -1), ([0, 1], 0), ([1, 1], F(1, 2))]),
        require_full_dim=False),
    # the box around its two vertices holds 6 points of 5P, the region infinitely many
    "unbounded_wedge": lambda: Polytope(
        2, _facets([([1, 0], 0), ([0, 1], 0), ([1, -1], -1)]), require_full_dim=False),
    "unbounded_corner_3d": lambda: Polytope(
        3, _facets([([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), ([1, 1, 1], 1)]),
        require_full_dim=False),
    "unbounded_empty": lambda: Polytope(
        2, _facets([([1, 0], 1), ([-1, 0], 0), ([0, 1], 0)]), require_full_dim=False),
    "flat_pentagon_in_3d": lambda: Polytope(
        3, _facets([([0, 0, 1], 0), ([0, 0, -1], 0), ([1, 0, 0], 0), ([-1, 0, 0], -1),
                    ([0, 1, 0], 0), ([0, -1, 0], -1), ([1, 1, 0], F(1, 2))]),
        require_full_dim=False),
    "slab_normals_do_not_span": lambda: Polytope(
        2, _facets([([1, 0], 0), ([-1, 0], -1)]), require_full_dim=False),
    "prism_normals_do_not_span": lambda: Polytope(
        3, _facets([([1, 0, 0], 0), ([0, 1, 0], 0), ([-1, -1, 0], -1)]),
        require_full_dim=False),
}


small_normals = st.lists(st.integers(-3, 3), min_size=3, max_size=3)


class TestIncidenceAndPruning:
    @given(boxed_polytopes(), st.lists(st.tuples(small_normals, fractions_small), max_size=2),
           small_normals.filter(any), st.builds(F, st.integers(0, 12), st.integers(1, 4)))
    @settings(max_examples=100, deadline=None)
    def test_match_brute_force(self, data, extra, cut_normal, t):
        from toricdensity import polytope as tp

        P, _, _ = data
        n = P.dim
        verts = brute_force_vertices(P.facets, n)
        _assert_vertices_and_incidence(P, verts)
        if _brute_dim(verts) < n:
            return

        # a cut region: P cut by random half-spaces, constant ones included
        cuts = [AffineFunctional(nu[:n], off) for nu, off in extra]
        got, want = tp._intersect(P, cuts), _brute_intersection(P, cuts)
        assert (got is None) == (want is None)
        if got is not None:
            _assert_polytope(got[0], *want)
            assert [(P.facets + cuts)[i].normalized() for i in got[1]] == want[0]

        # a slice P(t) of a cut that is >= 0 on P and vanishes somewhere on it
        nu = cut_normal[:n] if any(cut_normal[:n]) else [1] * n
        phi = AffineFunctional(nu, min(sum(a * b for a, b in zip(nu, v)) for v in verts))
        sl = td.MovingFamily(P, [phi]).slice(t)
        want = _brute_intersection(P, [phi.shifted(t)])
        assert sl.is_empty == (want is None)
        if want is not None:
            _assert_polytope(sl.polytope, *want)
            facets = want[0]
            new = [i for i, f in enumerate(facets)
                   if f == phi.shifted(t).normalized() and f not in P.facets]
            assert sl.new_facet_ids == new
            assert sl.new_facets == [(0, phi.shifted(t))] * len(new)
            assert sl.old_facets == [i for i in range(len(facets)) if i not in new]

    @pytest.mark.parametrize("build", NON_GENERIC.values(), ids=NON_GENERIC.keys())
    def test_non_generic_inputs_match_brute_force(self, build):
        P = build()
        verts = brute_force_vertices(P.facets, P.dim)
        if _is_unbounded(P):
            assert P.vertices == verts
            assert [P.facet_vertex_ids(a) for a in range(len(P.facets))] == \
                _brute_on(P.facets, verts)
            _assert_unbounded_faces_raise(P)
        else:
            _assert_vertices_and_incidence(P, verts)

    def test_polygon_64_and_box_corner5_gamma_solve_no_system(self):
        # the 64-gon on the parabola y = x^2 that the exact_lattice
        # benchmark builds at seed 1
        rng = random.Random("exact_lattice:1")
        xs = [0] + sorted(rng.sample(range(1, 79), 62)) + [79]
        rows = [([-(a + b), 1], -a * b) for a, b in zip(xs, xs[1:])]
        rows.append(([xs[0] + xs[-1], -1], xs[0] * xs[-1]))
        rng.shuffle(rows)
        P = Polytope(2, _facets(rows))
        assert P.vertices == [(x, x * x) for x in xs]
        assert len(P.essential_facets()) == 64

        cuts = [AffineFunctional([int(i == j) for j in range(5)], 0) for i in range(5)]
        gamma = td.build_test_config(td.MovingFamily(td.box([1] * 5), cuts)).gamma
        assert len(gamma.vertices) == 33

    def test_slice_gamma_and_cut_region_enumerate_vertices_once(self, monkeypatch):
        from toricdensity import polytope as tp
        from toricdensity.stability import _roof_projection_pieces

        calls = []
        enumerate_once = tp._candidate_vertices

        def counted(facets, dim):
            calls.append(dim)
            return enumerate_once(facets, dim)

        monkeypatch.setattr(tp, "_candidate_vertices", counted)
        fam = td.MovingFamily(td.box([1, 1]), [AffineFunctional([1, 0], 0),
                                               AffineFunctional([0, 1], 0)])

        def touch(Q):
            Q.vertices, Q.faces(2), Q.essential_facets(), Q.volume()

        calls.clear()
        touch(fam.slice(F(1, 4)).polytope)
        assert len(calls) == 1

        calls.clear()
        cfg = td.build_test_config(fam)
        touch(cfg.gamma)
        assert len(calls) == 1

        calls.clear()
        pieces = _roof_projection_pieces(cfg)
        for _, _, region in pieces:
            touch(region)
        assert len(pieces) == 2 and len(calls) == 2


@st.composite
def face_simplices(draw):
    """(simplex, ells): a rational (n-c)-simplex on {ell_1 = ... = ell_c = 0}
    in dimension n = 2..4, c = 1, 2 (a point when c = n).

    An invertible integer matrix A gives the face: its first n-c columns
    span the tangent space and the last c rows of A^-1 are the normals."""
    n = draw(st.integers(2, 4))
    c = draw(st.integers(1, 2))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n).filter(lambda rows: _det(rows) != 0))
    det = _det(A)
    inv = [[(-1) ** (i + j) * F(_det([r[:i] + r[i + 1:] for k, r in enumerate(A) if k != j]))
            / det for j in range(n)] for i in range(n)]
    p0 = [draw(small_fractions) for _ in range(n)]
    m = n - c
    coefs = draw(st.lists(st.lists(small_fractions, min_size=m, max_size=m),
                          min_size=m + 1, max_size=m + 1).filter(
        lambda q: m == 0 or _det([[a - b for a, b in zip(r, q[0])] for r in q[1:]]) != 0))
    simplex = [tuple(p0[i] + sum((coef[j] * A[i][j] for j in range(m)), F(0))
                     for i in range(n)) for coef in coefs]
    ells = [AffineFunctional(nu, sum(a * b for a, b in zip(nu, p0)))
            for nu in inv[n - c:]]
    return simplex, ells


def _euclidean_times_gram(simplex, ells):
    """Euclidean volume of the simplex over sqrt(det Gram(normals)), the
    formula of the float Leray densities.  Both squares are exact Gram
    determinants (sqrt(det E E^T) / m! is the volume), so the only rounding
    is the last square root."""
    E = [[a - b for a, b in zip(p, simplex[0])] for p in simplex[1:]]
    N = [ell.normal for ell in ells]

    def gram(rows):
        if not rows:
            return 1
        return _det([[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows])

    return math.sqrt(gram(E) / gram(N)) / math.factorial(len(E))


class TestLerayMeasures:
    def test_axis_facet_density(self):
        seg = [(F(0), F(0)), (F(0), F(1))]
        assert leray_simplex_measure(seg, AffineFunctional([1, 0], 0)) == 1

    def test_diagonal_density(self):
        seg = [(F(1, 2), F(0)), (F(0), F(1, 2))]
        assert leray_simplex_measure(seg, AffineFunctional([1, 1], F(1, 2))) == F(1, 2)

    def test_general_density(self):
        seg = [(F(2), F(0)), (F(0), F(1))]
        assert leray_simplex_measure(seg, AffineFunctional([-1, -2], -2)) == 1

    def test_zero_normal_raises(self):
        with pytest.raises(ValueError, match="dependent"):
            leray_simplex_measure([(F(0), F(0)), (F(0), F(1))],
                                  AffineFunctional([0, 0], 1))

    def test_codim2_orthonormal(self):
        got = leray_simplex_measure([(F(0), F(0))], AffineFunctional([1, 0], 0),
                                    AffineFunctional([0, 1], 0))
        assert got == 1

    def test_codim2_tent_pair(self):
        # lifted tent cuts in (x, t): gradients (1,-1) and (-1,-1) meet at (1/2, 1/2)
        got = leray_simplex_measure([(F(1, 2), F(1, 2))], AffineFunctional([1, -1], 0),
                                    AffineFunctional([-1, -1], -1))
        assert got == F(1, 2)

    def test_codim2_gram(self):
        got = leray_simplex_measure([(F(0), F(0))], AffineFunctional([1, 0], 0),
                                    AffineFunctional([1, 1], 0))
        assert got == 1

    def test_parallel_raises(self):
        with pytest.raises(ValueError, match="dependent"):
            leray_simplex_measure([(F(0), F(0))], AffineFunctional([1, 1], 0),
                                  AffineFunctional([2, 2], 1))

    @given(face_simplices(), st.integers(0, 1), st.builds(F, st.integers(1, 9), st.integers(1, 9)))
    @settings(max_examples=150, deadline=None)
    def test_exact_measure_matches_euclidean_times_gram(self, face, which, lam):
        simplex, ells = face
        got = leray_simplex_measure(simplex, *ells)
        assert float(got) == pytest.approx(_euclidean_times_gram(simplex, ells), rel=1e-12)
        a = which % len(ells)
        scaled = list(ells)
        scaled[a] = AffineFunctional([lam * v for v in ells[a].normal], lam * ells[a].offset)
        assert leray_simplex_measure(simplex, *scaled) == got / lam

    def test_boundary_leray_volumes_exact(self, square, simplex2):
        assert square.boundary_leray_volume() == 4
        assert simplex2.boundary_leray_volume() == 3
        assert square.boundary_leray_volume([0, 2]) == 2
        assert simplex2.boundary_leray_volume([]) == 0

    def test_facet_leray_vs_euclidean_times_density(self, simplex2):
        # hypotenuse: euclidean length sqrt(2) times 1/sqrt(2) equals 1
        a = next(i for i, f in enumerate(simplex2.facets)
                 if f.normal == (-1, -1))
        assert simplex2.facet_leray_volume(a) == 1


class TestVolumesAndTriangulation:
    def test_volumes(self, square, simplex2):
        assert square.volume() == 1
        assert simplex2.volume() == F(1, 2)

    def test_triangulation_volume_sums_exactly(self):
        # a pentagon: square cut by a corner
        facets = [AffineFunctional([1, 0], 0), AffineFunctional([0, 1], 0),
                  AffineFunctional([-1, 0], -1), AffineFunctional([0, -1], -1),
                  AffineFunctional([-1, -1], F(-3, 2))]
        P = Polytope(2, facets)
        from toricdensity.polytope import _simplex_volume
        tri = P.triangulation()
        assert sum(_simplex_volume(s) for s in tri) == P.volume() == F(7, 8)

    def test_gamma_volume_3d(self, square_family):
        cfg = td.build_test_config(square_family)
        assert cfg.gamma.volume() == F(1, 3)


@st.composite
def rational_polytopes(draw):
    """A rational box in dimension 1..4 cut by up to three half-spaces, each
    through a random point of the box: mostly full-dimensional, sometimes
    lower-dimensional or empty."""
    n = draw(st.integers(1, 4))
    lo = [draw(fractions_small) for _ in range(n)]
    hi = [a + draw(st.builds(F, st.integers(1, 3), st.integers(1, 3))) for a in lo]
    facets = []
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        facets += [AffineFunctional(e, lo[i]), AffineFunctional([-v for v in e], -hi[i])]
    for _ in range(draw(st.integers(0, 3))):
        nu = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        p = [a + (b - a) * draw(st.builds(F, st.integers(0, 4), st.just(4)))
             for a, b in zip(lo, hi)]
        facets.append(AffineFunctional(nu, sum(v * c for v, c in zip(nu, p))))
    return Polytope(n, _without_duplicates(facets), require_full_dim=False)


def _assert_measures_match_centroid_fan(P):
    """volume, facet and boundary Leray volumes against their sums over the
    centroid fan: exact simplex volumes of ``triangulation`` and
    ``leray_simplex_measure`` over the ``face_triangulation`` of each
    essential facet (an inessential one carries no measure)."""
    from toricdensity.polytope import _simplex_volume

    essential = P.essential_facets()
    fan = [sum((leray_simplex_measure(s, f)
                for s in P.face_triangulation(P.facet_vertex_ids(a), 1)), F(0))
           if a in essential else F(0) for a, f in enumerate(P.facets)]
    assert P.volume() == sum((_simplex_volume(s) for s in P.triangulation()), F(0))
    assert [P.facet_leray_volume(a) for a in range(len(P.facets))] == fan
    assert P.boundary_leray_volume() == sum(fan)


def _affine_dim(points):
    """Affine dimension of a point set by row reduction (the rank that
    TestExactLinearAlgebra checks against the minors); -1 for none."""
    from toricdensity.polytope import _rank

    return _rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]]) if points else -1


def _brute_faces(P, codim):
    """The C(m, codim) enumeration: each codim-subset of facets, kept when its
    common vertices span n - codim dimensions; (vertex ids, active facets)
    sorted by vertex ids."""
    found = {}
    for combo in itertools.combinations(range(len(P.facets)), codim):
        common = frozenset.intersection(*(P.incidence[a] for a in combo))
        if common and _affine_dim([P.vertices[i] for i in common]) == P.dim - codim:
            found[common] = frozenset(a for a, on in enumerate(P.incidence) if common <= on)
    return sorted((tuple(sorted(ids)), active) for ids, active in found.items())


def _assert_faces_match_brute_force(P):
    faces = {codim: _brute_faces(P, codim) for codim in range(1, P.dim + 1)}
    for codim, want in faces.items():
        assert [(f.vertex_ids, f.active_facets) for f in P.faces(codim)] == want

    def fan(ids, m, pulled=False):
        """The centroid fan over pulled brute-force faces, in their order:
        the face's centroid over all its facets, each facet below it pulled
        from its lowest vertex over the facets that miss that vertex."""
        verts = [P.vertices[i] for i in ids]
        if len(verts) == m + 1:
            return [tuple(verts)]
        subs = [sub for sub, _ in faces[P.dim - m + 1] if set(sub) <= set(ids)]
        if pulled:
            apex = P.vertices[ids[0]]
            subs = [sub for sub in subs if ids[0] not in sub]
        else:
            apex = tuple(sum(v[i] for v in verts) / len(verts) for i in range(P.dim))
        return [s + (apex,) for sub in subs for s in fan(sub, m - 1, pulled=True)]

    if P.is_full_dim:
        tri = P.triangulation()
        assert tri == fan(tuple(range(len(P.vertices))), P.dim)
        if len(P.vertices) > P.dim + 1:
            assert all(s[-1] == P.centroid_of_vertices() for s in tri)


BOUNDED_NON_GENERIC = ("square_pyramid", "octahedron",
                       "cube_with_an_inequality_through_one_vertex",
                       "simplex_vertex2_gamma", "simplex_vertex3_gamma",
                       "flat_pentagon_in_3d")


class TestFaceRecursion:
    @given(rational_polytopes())
    @settings(max_examples=60, deadline=None)
    def test_measures_match_centroid_fan(self, P):
        _assert_measures_match_centroid_fan(P)

    @given(rational_polytopes())
    @settings(max_examples=60, deadline=None)
    def test_faces_match_brute_force(self, P):
        _assert_faces_match_brute_force(P)
        assert P.is_full_dim == (_affine_dim(P.vertices) == P.dim)

    @pytest.mark.parametrize("n,count", [(2, 4), (3, 12), (4, 48)])
    def test_cube_fan_sizes(self, n, count):
        cube = td.box([1] * n)
        _assert_faces_match_brute_force(cube)
        assert len(cube.triangulation()) == count

    @pytest.mark.parametrize("build", NON_GENERIC.values(), ids=NON_GENERIC.keys())
    def test_non_generic_faces(self, build):
        P = build()
        if _is_unbounded(P):
            _assert_unbounded_faces_raise(P)
        else:
            _assert_faces_match_brute_force(P)

    @pytest.mark.parametrize("name", BOUNDED_NON_GENERIC)
    def test_non_generic_measures(self, name):
        _assert_measures_match_centroid_fan(NON_GENERIC[name]())

    def test_measures_past_int64(self):
        # the slack table passes 2**62, so it is a product on Python ints
        huge = 10**19
        P = Polytope(3, td.box([huge] * 3).facets + [AffineFunctional([2, 1, 1], F(huge, 3))])
        assert max(abs(s) for row in P._slacks for s in row) >= 2**62
        _assert_measures_match_centroid_fan(P)
        assert P.volume() == huge**3 - F(huge, 6) * F(huge, 3) * F(huge, 3) / 6

    @pytest.mark.parametrize("kind,n,volume,boundary", [
        ("box_corner", 4, F(1, 5), 3), ("box_corner", 5, F(1, 6), 3),
        ("simplex_vertex", 4, F(1, 30), F(3, 4)), ("simplex_vertex", 5, F(1, 144), F(9, 40))])
    def test_gamma_measures_take_no_triangulation_or_rank(self, kind, n, volume, boundary,
                                                          monkeypatch):
        from toricdensity import polytope as tp

        def fail(*args):
            raise AssertionError("a triangulation or a rank was computed")

        if kind == "box_corner":
            fam = td.MovingFamily(td.box([1] * n), [
                AffineFunctional([int(i == j) for j in range(n)], 0) for i in range(n)])
        else:
            fam = td.MovingFamily(td.standard_simplex(n), [AffineFunctional([1] * n, 0)])
        gamma = td.build_test_config(fam).gamma
        monkeypatch.setattr(tp, "_simplex_volume", fail)
        monkeypatch.setattr(tp, "_rank", fail)
        monkeypatch.setattr(Polytope, "triangulation", fail)
        monkeypatch.setattr(Polytope, "_triangulate_face", fail)
        start = time.perf_counter()
        assert (gamma.volume(), gamma.boundary_leray_volume()) == (volume, boundary)
        # summed over the centroid fan (9600 simplices), box_corner5's Gamma
        # takes 9-13 s on 2 vCPUs
        assert time.perf_counter() - start < 1.0
        assert gamma.is_full_dim and gamma.essential_facets() == list(range(len(gamma.facets)))
        assert tp._intersect(gamma, [])[0].facets == gamma.facets
        assert len(gamma.faces(n + 1)) == len(gamma.vertices)


class TestFaceLattice:
    def test_codim2_faces_have_two_facets(self, square, simplex2, square_family):
        for P in (square, simplex2,
                  td.build_test_config(square_family).gamma,
                  square_family.slice(F(1, 4)).polytope):
            for face in P.faces(2):
                assert len(face.active_facets) >= 2
                # the geometric face lies on exactly 2 facet hyperplanes
                verts = [P.vertices[i] for i in face.vertex_ids]
                on = [a for a, f in enumerate(P.facets)
                      if all(f.value(v) == 0 for v in verts)]
                assert len(on) == 2


class TestSlice:
    def test_square_slice_partition(self, square_family):
        sl = square_family.slice(F(1, 4))
        assert len(sl.new_facets) == 2 and len(sl.old_facets) == 2
        assert sorted(sl.active_cuts) == [0, 1]
        assert set(sl.polytope.vertices) == {
            (F(1, 4), F(1, 4)), (F(1, 4), 1), (1, F(1, 4)), (1, 1)}

    def test_t0_is_base(self, square_family, square):
        sl = square_family.slice(0)
        assert sl.new_facets == []
        assert sl.polytope.vertices == square.vertices

    def test_tent_crossing_empty(self, tent_family):
        assert tent_family.slice(F(3, 4)).is_empty

    def test_constant_structure_between_criticals(self, square_family,
                                                  vertex_family, tent_family):
        for fam in (square_family, vertex_family, tent_family):
            crit = fam.critical_values()
            for lo, hi in zip(crit, crit[1:]):
                shapes = set()
                for j in (1, 2, 3):
                    t = lo + (hi - lo) * F(j, 4)
                    sl = fam.slice(t)
                    shapes.add((len(sl.polytope.vertices),
                                tuple(sorted(f.normal for f in sl.polytope.facets)),
                                tuple(sorted(sl.active_cuts))))
                assert len(shapes) == 1

    @given(st.fractions(min_value=F(1, 100), max_value=F(99, 100)))
    @settings(max_examples=30, deadline=None)
    def test_slice_vertices_exact_rationals(self, t):
        P = td.box([1, 1])
        fam = td.MovingFamily(P, [AffineFunctional([1, 0], 0),
                                  AffineFunctional([0, 1], 0)])
        sl = fam.slice(t)
        assert set(sl.polytope.vertices) == {(t, t), (t, 1), (1, t), (1, 1)}


class TestCriticalValues:
    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_single_cut_criticals_are_vertex_values(self, p, q, den):
        # for a single moving hyperplane the critical values are exactly the
        # distinct values of the cut at the vertices of P (plus 0)
        if p == 0 and q == 0:
            return
        P = td.box([1, 1])
        cut = AffineFunctional([F(p, den), F(q, den)], 0)
        fam = td.MovingFamily(P, [cut])
        expected = sorted({F(0)} | {cut.value(v) for v in P.vertices})
        assert fam.critical_values() == expected

    def test_tent(self, tent_family):
        assert tent_family.critical_values() == [0, F(1, 2)]

    def test_simplex_vertex_cut(self, vertex_family):
        assert vertex_family.critical_values() == [0, 1]

    def test_square(self, square_family):
        assert square_family.critical_values() == [0, 1]

    def test_prism(self, prism_family):
        assert prism_family.critical_values() == [0, 1]


class TestRegularityInterval:
    def test_interior(self, vertex_family):
        assert vertex_family.regularity_interval(F(1, 2)) == (0, 1)

    def test_unbounded_above_top_critical_value(self, vertex_family):
        assert vertex_family.regularity_interval(F(3, 2)) == (1, None)

    def test_stencil_above_top_critical_value(self, vertex_family):
        from toricdensity.asymptotics import _validate_stencil
        # a finite sentinel for the upper end would reject this stencil
        _validate_stencil(vertex_family, 2 * 10**9)
        with pytest.raises(ValueError, match="leaves the regularity interval"):
            _validate_stencil(vertex_family, F(2001, 2000))


class TestMemoisation:
    def test_slice_cached_by_exact_t(self):
        fam = td.MovingFamily(td.box([1, 1]), [AffineFunctional([1, 1], 0)])
        assert fam.slice(F(1, 2)) is fam.slice(F(2, 4))
        assert fam.slice(F(1, 2)) is not fam.slice(F(1, 3))

    def test_test_config_built_once(self):
        fam = td.MovingFamily(td.box([1, 1]), [AffineFunctional([1, 1], 0)])
        cfg = td.build_test_config(fam)
        assert fam.critical_values() == [0, 1, 2]
        assert td.build_test_config(fam) is cfg


class TestSeshadri:
    def test_simplex_vertex(self, simplex2):
        assert td.seshadri_constant(simplex2, AffineFunctional([1, 1], 0)) == 1

    def test_square_facet(self, square):
        assert td.seshadri_constant(square, AffineFunctional([1, 0], 0)) == 1

    def test_square_corner(self, square):
        assert td.seshadri_constant(square, AffineFunctional([1, 1], 0)) == 1

    def test_negative_raises(self, square):
        with pytest.raises(ValueError, match="negative"):
            td.seshadri_constant(square, AffineFunctional([1, 0], F(1, 2)))


class TestTestConfig:
    def test_tent_geometry(self, tent_family):
        cfg = td.build_test_config(tent_family)
        assert set(cfg.gamma.vertices) == {(0, 0), (1, 0), (F(1, 2), F(1, 2))}
        assert len(cfg.roof_facets) == 2
        assert cfg.side_facets == []
        assert len(cfg.roof_skeleton) == 1
        assert cfg.roof_skeleton[0].horizontal

    def test_product_config_is_simplex(self, product_family):
        cfg = td.build_test_config(product_family)
        assert len(cfg.gamma.vertices) == 4
        assert cfg.gamma.volume() == F(1, 6)
        assert cfg.roof_skeleton == []

    def test_prism(self, prism_family):
        cfg = td.build_test_config(prism_family)
        assert set(cfg.gamma.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert cfg.roof_skeleton == []

    def test_square_config_skeleton_not_horizontal(self, square_family):
        cfg = td.build_test_config(square_family)
        assert len(cfg.roof_skeleton) == 1
        assert not cfg.roof_skeleton[0].horizontal

    def test_facets_classified_exclusively(self, square_family):
        cfg = td.build_test_config(square_family)
        roof = set(cfg.roof_facets.values())
        sides = set(cfg.side_facets)
        base = {cfg.base_facet}
        all_ids = roof | sides | base
        assert len(all_ids) == len(roof) + len(sides) + len(base)
        assert all_ids == set(range(len(cfg.gamma.facets)))

    def test_no_cuts_raises(self, interval):
        fam = td.MovingFamily(interval, [])
        with pytest.raises(ValueError, match="unbounded"):
            td.build_test_config(fam)

    def test_repeated_cut_rejected(self):
        x = AffineFunctional([1, 0], 0)
        with pytest.raises(ValueError, match=r"cut AffineFunctional\(1\*x0 - 0\) is repeated"):
            td.MovingFamily(td.box([1, 1]), [x, AffineFunctional([0, 1], 0), x])


class TestPrismCountIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_excess_equals_kc_times_base(self, prism_family, k):
        cfg = td.build_test_config(prism_family)
        base = prism_family.base.count_lattice_points(k)
        excess = cfg.gamma.count_lattice_points(k) - base
        assert excess == k * 1 * base


def test_exact_arithmetic_independent_of_facet_order(square_family):
    # permuted facet lists give the same vertex set and counts
    P = square_family.base
    for perm in itertools.permutations(P.facets):
        Q = Polytope(2, list(perm))
        assert Q.vertices == P.vertices
        assert Q.count_lattice_points(3) == P.count_lattice_points(3)


class TestThreeDimensional:
    def test_cube(self):
        cube = td.box([1, 1, 1])
        assert len(cube.vertices) == 8
        assert cube.volume() == 1
        assert cube.boundary_leray_volume() == 6
        assert cube.count_lattice_points(3) == 64
        assert td.check_delzant(cube).is_delzant

    def test_simplex3(self):
        s3 = td.standard_simplex(3)
        assert s3.volume() == F(1, 6)
        for k in (1, 2, 5):
            assert s3.count_lattice_points(k) == \
                (k + 1) * (k + 2) * (k + 3) // 6
        assert td.check_delzant(s3).is_delzant

    def test_cube_vertex_family(self):
        cube = td.box([1, 1, 1])
        fam = td.MovingFamily(cube, [AffineFunctional([1, 1, 1], 0)])
        assert fam.critical_values() == [0, 1, 2, 3]
        sl = fam.slice(F(1, 2))
        assert sl.polytope.volume() == 1 - F(1, 48)
        assert len(sl.new_facets) == 1
        cfg = td.build_test_config(fam)
        # Vol(Gamma) = int_cube (x1+x2+x3) dx = 3/2
        assert cfg.gamma.volume() == F(3, 2)

    def test_prism_over_square(self, square):
        fam = td.MovingFamily(square, [AffineFunctional([0, 0], -1)])
        cfg = td.build_test_config(fam)
        assert cfg.gamma.volume() == 1
        assert cfg.roof_skeleton == []
        for k in (2, 4):
            wk = cfg.gamma.count_lattice_points(k) - square.count_lattice_points(k)
            assert wk == k * square.count_lattice_points(k)
