import pytest
from hypothesis import settings

from ptclab.generators import RepId, build_generators
from ptclab.vocabulary import DEFAULT_SEED

from oracles import sample_points

# every property test draws the same examples on every run; each test keeps
# its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def points():
    return sample_points()


@pytest.fixture(scope="session")
def points_alt():
    # disjoint from the default set: different seed stream
    return sample_points(seed=DEFAULT_SEED + 1)


@pytest.fixture(scope="session")
def points100():
    return sample_points(count=100, seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def massless_points():
    return sample_points(masses=(0.0,))


@pytest.fixture(scope="session")
def canonical8():
    return build_generators(RepId("canonical8"))


@pytest.fixture(scope="session")
def dirac8():
    return build_generators(RepId("dirac8"))


@pytest.fixture(scope="session")
def rep1():
    return build_generators(RepId("rep1"))


@pytest.fixture(scope="session")
def rep2():
    return build_generators(RepId("rep2"))


@pytest.fixture(scope="session")
def rep3():
    return build_generators(RepId("rep3"))
