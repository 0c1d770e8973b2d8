"""Shared builders for the test suite: the CLI's own fixture and sampler."""

import numpy as np
import pytest

from crhls.cli import _random_sphere_grid, _random_sphere_kernel, _two_node_fixture
from crhls.core import make_params
from crhls.discretization import KernelMatrix, KernelSpec


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


def seeded_kernel_set(params, count=120, seed=20260601):
    """The shared (kernel, p) set on which solver mechanisms are compared.

    Even cases are pure singular kernels assembled on random sphere nodes,
    so they carry symmetric = True; odd cases are uniform random matrices
    with zero diagonal, asymmetric and built directly. N runs over 3..59
    and p cycles through q_alpha + 0.002, q_alpha + 0.01 and mid-window.
    """
    rng = np.random.default_rng(seed)
    q = params.q_alpha
    exponents = (q + 0.002, q + 0.01, 0.5 * (q + 2.0))
    cases = []
    for k in range(count):
        N = int(rng.integers(3, 60))
        if k % 2 == 0:
            K = _random_sphere_kernel(N, 0.1, params, rng)
        else:
            entries = rng.uniform(size=(N, N))
            np.fill_diagonal(entries, 0.0)
            grid = _random_sphere_grid(N, 0.1, rng)
            K = KernelMatrix(entries, KernelSpec("pure_singular"), grid, params)
        cases.append((K, exponents[k % 3]))
    return cases
