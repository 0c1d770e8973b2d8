"""Shared builders for the test suite: the CLI's own fixture and sampler."""

import numpy as np
import pytest

from crhls.cli import _random_sphere_grid, _two_node_fixture
from crhls.core import make_params
from crhls.discretization import KernelMatrix, KernelSpec, assemble_kernel


@pytest.fixture
def params_n1():
    return make_params(1, 2.0)


random_sphere_grid = _random_sphere_grid


def random_sphere_kernel(n_nodes, min_sep, rng, params):
    """Pure singular kernel on random sphere nodes, built as covariance-check builds it."""
    grid = _random_sphere_grid(n_nodes, min_sep, rng)
    return grid, assemble_kernel(grid, KernelSpec("pure_singular"), params)


def two_node_fixture(params):
    """Two orthogonal sphere nodes, unit weights, unit off-diagonal kernel."""
    K = _two_node_fixture(params)
    return K.grid, K


def symmetric(entries):
    """The symmetric matrix a kernel's entries hold, rebuilt from their upper
    triangle (diagonal included) as every reader of the entries takes it."""
    return np.triu(entries) + np.triu(entries, 1).T


def pair_kernel(grid, spec, params):
    """The kernel of every node pair from the whole grid's distances, zero diagonal:
    a reference for the tiled assembly, equal to it up to a few roundings."""
    Q, alpha, n = params.Q, params.alpha, params.n
    base = grid.dist_sq(slice(None))
    np.fill_diagonal(base, 1.0)  # no zero to raise to a negative power
    if spec.kind == "pure_singular":
        K = base ** (0.5 * (alpha - Q))
    else:
        mean_mass = 0.5 * (spec.mass[:, None] + spec.mass[None, :])
        K = (base ** -float(n) + mean_mass + spec.c_w * np.sqrt(base)) ** ((Q - alpha) / (Q - 2))
    np.fill_diagonal(K, 0.0)
    return K


def seeded_kernel_set(params, count=120, seed=20260601):
    """The shared (kernel, p) set on which solver mechanisms are compared.

    Even cases are pure singular kernels assembled on random sphere nodes;
    odd cases are built directly as (A + A^T) / 2 of a uniform random
    matrix A with zero diagonal, so every case is symmetric, as a
    KernelMatrix must be. N runs over 3..59 and p cycles through
    q_alpha + 0.002, q_alpha + 0.01 and mid-window.
    """
    rng = np.random.default_rng(seed)
    q = params.q_alpha
    exponents = (q + 0.002, q + 0.01, 0.5 * (q + 2.0))
    cases = []
    for k in range(count):
        N = int(rng.integers(3, 60))
        if k % 2 == 0:
            _, K = random_sphere_kernel(N, 0.1, rng, params)
        else:
            entries = rng.uniform(size=(N, N))
            np.fill_diagonal(entries, 0.0)
            entries = 0.5 * (entries + entries.T)
            grid = _random_sphere_grid(N, 0.1, rng)
            K = KernelMatrix(entries, KernelSpec("pure_singular"), grid, params)
        cases.append((K, exponents[k % 3]))
    return cases
