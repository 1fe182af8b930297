"""The closed-form oracles and the seeded generators of the benchmark."""

import math
import random
from fractions import Fraction

import pytest

import oracles
import workloads


def test_box_norms_known_values():
    # k=1 at a vertex: int_0^1 (1-y) dy = 1/2
    assert math.exp(oracles.box_log_norm((0.0,), 1)) == pytest.approx(0.5, rel=1e-14)
    # k=2 at the midpoint: int_0^1 4 y (1-y) dy = 2/3
    assert math.exp(oracles.box_log_norm((0.5,), 2)) == pytest.approx(2 / 3, rel=1e-14)
    # the box norm is a product over coordinates
    two = oracles.box_log_norm((0.25, 0.75), 4)
    assert two == pytest.approx(oracles.box_log_norm((0.25,), 4)
                                + oracles.box_log_norm((0.75,), 4), rel=1e-14)


def test_simplex_norms_known_values():
    # k=1 at the origin: int_Delta (1 - x - y) = 1/6
    assert math.exp(oracles.simplex_log_norm((0.0, 0.0), 1)) == pytest.approx(1 / 6, rel=1e-14)
    # in one dimension the simplex is the unit interval
    assert oracles.simplex_log_norm((0.3,), 10) == pytest.approx(
        oracles.box_log_norm((0.7,), 10), rel=1e-13)


def test_interval_density_has_mass_k_plus_one():
    k, m = 5, 20000
    total = sum(oracles.interval_density((i + 0.5) / m, k) for i in range(m)) / m
    assert total == pytest.approx(k + 1, rel=1e-6)


def test_counts():
    assert oracles.simplex_count(3, 100) == 176851
    assert oracles.simplex_count(2, 4) == 15
    assert oracles.pick_count([(0, 0), (1, 0), (1, 1), (0, 1)]) == 4
    assert oracles.pick_count([(0, 0), (4, 0), (0, 4)]) == 15
    # 15 points in 4*Delta_2 minus the 3 with x + y < 2
    assert oracles.triangle_slice_count(4, Fraction(1, 2)) == 12
    with pytest.raises(ValueError):
        oracles.triangle_slice_count(4, Fraction(1, 3))


def test_family_oracle_known_values():
    cp2 = oracles.FamilyOracle("simplex_vertex", 2)
    assert cp2.mu() == 3
    assert cp2.mu_c(Fraction(1, 2)) == Fraction(30, 11)
    assert cp2.futaki() == 0
    assert cp2.hilbert_at(Fraction(1, 5)) == (Fraction(12, 25), Fraction(7, 5))
    assert oracles.FamilyOracle("box_corner", 2).futaki() == Fraction(-1, 6)
    assert oracles.FamilyOracle("box_corner", 3).futaki() == Fraction(-1, 4)
    assert oracles.FamilyOracle("simplex_vertex", 3).hilbert() == (
        [Fraction(1, 6), 0, 0, Fraction(-1, 6)], [1, 0, Fraction(-1, 2)])


def test_rel_gap():
    assert oracles.rel_gap(1.5, Fraction(1)) == 0.5
    assert oracles.rel_gap(-2e-12, 0) == 2e-12


def test_generators_are_deterministic():
    assert workloads.polygon_64(random.Random(3)) == workloads.polygon_64(random.Random(3))
    assert workloads.polygon_64(random.Random(3)) != workloads.polygon_64(random.Random(4))
    assert workloads.perturbation(random.Random(3)) == workloads.perturbation(random.Random(3))
    for wl in workloads.WORKLOADS:
        assert random.Random(f"{wl}:7").random() == random.Random(f"{wl}:7").random()


@pytest.mark.parametrize("seed", [0, 1, 2, 17])
def test_polygon_has_64_essential_facets(seed):
    import toricdensity as td

    vertices, facets = workloads.polygon_64(random.Random(seed))
    P = td.Polytope(2, [td.AffineFunctional(n, c) for n, c in facets])
    assert len(P.facets) == 64
    assert len(P.essential_facets()) == 64
    assert P.vertices == sorted((Fraction(x), Fraction(y)) for x, y in vertices)
    assert td.count_lattice_points(P, 1) == oracles.pick_count(vertices)


def test_family_oracle_matches_exact_pipeline():
    import toricdensity as td

    for kind, n in (("simplex_vertex", 2), ("box_corner", 2)):
        oracle = oracles.FamilyOracle(kind, n)
        family = workloads.make_family(td, kind, n)
        a0, a1 = td.hilbert_polynomials(family)
        assert [list(a0), list(a1)] == list(oracle.hilbert())
        assert td.futaki_combinatorial(td.build_test_config(family)) == oracle.futaki()
        assert td.slope_mu_c(family, Fraction(2, 7)) == oracle.mu_c(Fraction(2, 7))
