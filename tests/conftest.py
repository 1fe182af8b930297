"""Shared fixtures: the standard polytopes, potentials and families.

The potentials are session-scoped, and each keeps its memo of metric
integrals (curvature, facet and corner integrals) across tests: a later
call with the same exact arguments returns the stored value without
integrating.  A test that patches the quadrature constants (NODE_BUDGET,
MAX_ORDER, ...) and expects a memoised call to integrate again must build
its own potential.
"""

import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


@pytest.fixture(scope="session")
def run_capped():
    """run(args, cap, timeout=30): ``python *args`` in a child process whose
    address space is capped at cap bytes (RLIMIT_AS), with BLAS pinned to one
    thread and this package importable; returns the CompletedProcess."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(td.__file__).resolve().parent.parent))

    def run(args, cap, timeout=30):
        return subprocess.run(
            [sys.executable, *map(str, args)], capture_output=True, text=True, env=env,
            timeout=timeout,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    return run


def F(*args):
    return Fraction(*args)
