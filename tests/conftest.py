"""Shared builders for the test suite: the CLI's own fixture and sampler."""

import pytest

from crhls.cli import _random_sphere_grid, _random_sphere_kernel, _two_node_fixture
from crhls.core import make_params


@pytest.fixture
def params_n1():
    return make_params(1, 2.0)


random_sphere_grid = _random_sphere_grid


def random_sphere_kernel(n_nodes, min_sep, rng, params):
    K = _random_sphere_kernel(n_nodes, min_sep, params, rng)
    return K.grid, K


def two_node_fixture(params):
    """Two orthogonal sphere nodes, unit weights, unit off-diagonal kernel."""
    K = _two_node_fixture(params)
    return K.grid, K
