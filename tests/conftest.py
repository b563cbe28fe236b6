import random
from fractions import Fraction as F

import pytest
from hypothesis import settings

from quasigrade import polytope as pt

# Every property test checks the same examples on every run, at a fixed cost;
# each test sets only its own max_examples.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def square():
    return pt.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture(scope="session")
def cube():
    return pt.from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@pytest.fixture(scope="session")
def halfseg():
    return pt.from_vertices([(F(0),), (F(1, 2),)])


@pytest.fixture(scope="session")
def tri_half():
    return pt.from_vertices([(0, 0), (F(1, 2), 0), (0, F(1, 2))])


@pytest.fixture(scope="session")
def tri_int():
    return pt.from_vertices([(0, 0), (1, 0), (0, 1)])


@pytest.fixture(scope="session")
def cloud40():
    """40 seeded integer points in [-10, 10]^3; their hull has 21 vertices and 37 facets."""
    rng = random.Random(26)
    return [tuple(rng.randint(-10, 10) for _ in range(3)) for _ in range(40)]
