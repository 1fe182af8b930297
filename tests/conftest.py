"""Shared fixtures: the standard polytopes, potentials and families."""

from fractions import Fraction

import pytest

import toricdensity as td


@pytest.fixture(scope="session")
def interval():
    return td.box([1])


@pytest.fixture(scope="session")
def square():
    return td.box([1, 1])


@pytest.fixture(scope="session")
def simplex2():
    return td.standard_simplex(2)


@pytest.fixture(scope="session")
def u_interval(interval):
    return td.guillemin_potential(interval)


@pytest.fixture(scope="session")
def u_square(square):
    return td.guillemin_potential(square)


@pytest.fixture(scope="session")
def u_simplex(simplex2):
    return td.guillemin_potential(simplex2)


@pytest.fixture(scope="session")
def u_simplex_perturbed(simplex2):
    """Canonical potential plus 0.02 x^3 + 0.01 x y^2: s is not constant."""
    from toricdensity.fields import Polynomial
    return td.SymplecticPotential(simplex2, Polynomial(2, {(3, 0): 0.02, (1, 2): 0.01}))


@pytest.fixture(scope="session")
def corner_family(interval):
    """Single moving facet x >= t on [0, 1]."""
    return td.MovingFamily(interval, [td.AffineFunctional([1], 0)])


@pytest.fixture(scope="session")
def tent_family(interval):
    """Cuts x and 1-x: the tent configuration over [0, 1]."""
    return td.MovingFamily(interval, [td.AffineFunctional([1], 0),
                                      td.AffineFunctional([-1], -1)])


@pytest.fixture(scope="session")
def square_family(square):
    """Cuts x1 and x2 on the unit square."""
    return td.MovingFamily(square, [td.AffineFunctional([1, 0], 0),
                                    td.AffineFunctional([0, 1], 0)])


@pytest.fixture(scope="session")
def vertex_family(simplex2):
    """Cut x1 + x2 at the origin vertex of the 2-simplex."""
    return td.MovingFamily(simplex2, [td.AffineFunctional([1, 1], 0)])


@pytest.fixture(scope="session")
def product_family(simplex2):
    """Single cut along the hypotenuse: a product configuration."""
    return td.MovingFamily(simplex2, [td.AffineFunctional([-1, -1], -1)])


@pytest.fixture(scope="session")
def prism_family(interval):
    """Constant cut of height 1: the trivial prism over [0, 1]."""
    return td.MovingFamily(interval, [td.AffineFunctional([0], -1)])


@pytest.fixture(scope="session")
def cp1_bases(u_interval):
    """Section bases on [0,1] for the standard k grid, shared across tests."""
    return {k: td.SectionBasis.build(u_interval, k, rel_tol=1e-10)
            for k in (10, 20, 40, 60, 80)}


def F(*args):
    return Fraction(*args)
