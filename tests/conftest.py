import numpy as np
import pytest

from viscoflow import Grid, random_field
from viscoflow.operators import _pairs, skew_field

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same few examples on every run, no example database on disk
    settings.register_profile("viscoflow", derandomize=True, deadline=None,
                              max_examples=15, database=None)
    settings.load_profile("viscoflow")


def random_skew(grid, rng, **kwargs):
    """A random antisymmetric field in the stored layout: the i < j entries
    of (M - M^T)/2 for a random matrix field M, drawn as ``random_field``
    draws it (``kwargs`` go to that call)."""
    M = random_field(grid, "matrix", rng, **kwargs).coeff
    return skew_field(grid, [0.5 * (M[i, j] - M[j, i]) for i, j in _pairs(grid.dim)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def grid2d():
    return Grid(2, 32, length=8.0)


@pytest.fixture
def grid2d_unit():
    return Grid(2, 32, length=1.0)


@pytest.fixture
def grid3d():
    return Grid(3, 16, length=4.0)
