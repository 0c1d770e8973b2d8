"""Norms, bilinear forms, quotients, Young-type bounds, tail integrals."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad

from crhls import discretization
from crhls.core import make_params
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
    cylinder_shell_grid,
    extremal_values,
    sphere_grid,
)
from crhls.functional import (
    TAIL_ENLARGEMENT,
    bilinear_form,
    lp_norm,
    rayleigh_quotient,
    tail_integral_I1,
    young_bound,
)
from conftest import random_sphere_grid, random_sphere_kernel, symmetric, two_node_fixture


def _apply(K, f):
    # weighted kernel operator (A f)_i = sum_j K_ij f_j w_j
    return symmetric(K.entries) @ (f * K.grid.weights)


def test_lp_norm_hand_values():
    g = QuadratureGrid(
        kind="sphere",
        n=1,
        weights=np.array([3.0, 4.0]),
        resolution=(2,),
        xi=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    )
    f = np.array([1.0, -2.0])
    assert lp_norm(f, g, 1.0) == pytest.approx(11.0, rel=1e-15)
    assert lp_norm(f, g, 2.0) == pytest.approx(np.sqrt(19.0), rel=1e-15)
    assert lp_norm(f, g, 3.0) == pytest.approx((3.0 + 32.0) ** (1.0 / 3.0), rel=1e-15)


def test_lp_norm_validation():
    g = sphere_grid(1, (4, 4, 4))
    f = np.ones(len(g))
    for p in (0.9, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite p >= 1"):
            lp_norm(f, g, p)
    with pytest.raises(ValueError):
        lp_norm(f[:-1], g, 2.0)
    bad = f.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        lp_norm(bad, g, 2.0)


def test_bilinear_form_matches_double_sum():
    params = make_params(1, 2.0)
    rng = np.random.default_rng(31)
    grid, K = random_sphere_kernel(9, 0.3, rng, params)
    f = rng.normal(size=len(grid))
    g = rng.normal(size=len(grid))
    w = grid.weights
    E = symmetric(K.entries)
    explicit = sum(
        f[i] * E[i, j] * g[j] * w[i] * w[j]
        for i in range(len(grid))
        for j in range(len(grid))
    )
    assert bilinear_form(K, f, g) == pytest.approx(explicit, rel=1e-12)
    assert bilinear_form(K, f, g) == pytest.approx(bilinear_form(K, g, f), rel=1e-12)


def test_rayleigh_quotient_scale_invariant():
    params = make_params(1, 2.0)
    rng = np.random.default_rng(77)
    grid, K = random_sphere_kernel(10, 0.3, rng, params)
    f = rng.uniform(0.1, 2.0, size=len(grid))
    base = rayleigh_quotient(K, f, params.p_alpha)
    for c in (1e-6, 0.37, 1.0, 42.0, 1e7):
        assert rayleigh_quotient(K, c * f, params.p_alpha) == pytest.approx(
            base, rel=1e-12
        )
    with pytest.raises(ValueError):
        rayleigh_quotient(K, np.zeros(len(grid)), params.p_alpha)


def _two_node_weighted(params, w0, w1):
    grid = QuadratureGrid(
        kind="sphere",
        n=1,
        weights=np.array([w0, w1]),
        resolution=(2,),
        xi=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    )
    K = KernelMatrix(
        entries=np.array([[0.0, 1.0], [1.0, 0.0]]),
        spec=KernelSpec("pure_singular"),
        grid=grid,
        params=params,
    )
    return grid, K


def test_young_bound_hand_value():
    params = make_params(1, 2.0)
    grid, K = _two_node_weighted(params, 2.0, 3.0)
    # entries [[0, 1], [1, 0]]: every row/column r-mass is one weight
    for r in (1.0, 1.5, 2.0, 4.0):
        assert young_bound(K, grid, r) == pytest.approx(3.0 ** (1.0 / r), rel=1e-14)


def test_young_bound_validation():
    params = make_params(1, 2.0)
    grid, K = two_node_fixture(params)
    for r in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite r >= 1"):
            young_bound(K, grid, r)
    other = sphere_grid(1, (4, 4, 4))
    with pytest.raises(ValueError):
        young_bound(K, other, 2.0)


def test_young_bound_guards_operator_norm():
    # zero confirmed violations of ||A f||_q <= C ||f||_p across random
    # admissible exponent triples 1/q = 1/p + 1/r - 1 on a random grid
    params = make_params(1, 2.0)
    rng = np.random.default_rng(5150)
    grid, K = random_sphere_kernel(24, 0.2, rng, params)
    violations = 0
    worst = 0.0
    for _ in range(100):
        r = float(rng.uniform(1.05, 3.0))
        inv_p = float(rng.uniform(1.0 - 1.0 / r + 0.05, 1.0))
        p = 1.0 / inv_p
        q = 1.0 / (inv_p + 1.0 / r - 1.0)
        C = young_bound(K, grid, r)
        f = rng.normal(size=len(grid))
        lhs = lp_norm(_apply(K, f), grid, q)
        rhs = C * lp_norm(f, grid, p)
        ratio = lhs / rhs
        worst = max(worst, ratio)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    assert violations == 0
    assert worst <= 1.0 + 1e-12


def test_young_bound_guards_bilinear_form():
    # with p = 2r/(2r - 1) the bound controls |B(f, f)| by C ||f||_p^2
    params = make_params(1, 2.0)
    rng = np.random.default_rng(6021)
    grid, K = random_sphere_kernel(20, 0.2, rng, params)
    for _ in range(50):
        r = float(rng.uniform(1.05, 3.0))
        p = 2.0 * r / (2.0 * r - 1.0)
        C = young_bound(K, grid, r)
        f = rng.normal(size=len(grid))
        assert abs(bilinear_form(K, f, f)) <= C * lp_norm(f, grid, p) ** 2 * (
            1.0 + 1e-12
        )


def test_sharpness_rung_16_matches_the_perfbench_reference():
    # the 16^3 rung of perfbench's sharpness ladder, called as the harness calls
    # it (a float32 request: the matrix-free operator), against its recorded values
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())
    checks = {c["path"]: c for c in reference["sharpness"]["checks"]}
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (16, 16, 16))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params, dtype=np.float32)
    observed = {"quotient.n4096": rayleigh_quotient(K, np.ones(len(grid)), params.q_alpha),
                "young_bound.n4096": young_bound(K, grid, 1.2)}
    for path, value in observed.items():
        assert checks[path]["rtol"] == 1e-6
        assert value == pytest.approx(checks[path]["value"], rel=1e-6, abs=0.0), path


def test_young_bound_blocked_path():
    # 3375 nodes span 14 x 14 tiles, so the accumulation runs over many
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (15, 15, 15))
    assert len(grid) > 13 * discretization._TILE
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    C = young_bound(K, grid, 1.5)
    assert np.isfinite(C) and C > 0.0
    f = np.ones(len(grid))
    applied = K.matvec(f * grid.weights)
    lhs = lp_norm(applied, grid, 3.0)
    # 1/q = 1/p + 1/r - 1 with r = 1.5, q = 3 gives p = 1
    assert lhs <= C * lp_norm(f, grid, 1.0) * (1.0 + 1e-6)


def test_young_bound_block_size_independent(monkeypatch):
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    single = young_bound(K, grid, 1.2)
    monkeypatch.setattr(discretization, "_TILE", 16)  # 14 x 14 tiles, ragged 8-node edges
    assert young_bound(K, grid, 1.2) == pytest.approx(single, rel=1e-12)


def _dense_young(K, grid, r):
    P = symmetric(K.entries) ** r
    w = grid.weights
    return max(np.max(P @ w), np.max(w @ P)) ** (1.0 / r)


def test_young_bound_matches_dense_reference(monkeypatch):
    # 16-node tiles over 180 nodes: 12 x 12 tiles with ragged 4-node edges
    monkeypatch.setattr(discretization, "_TILE", 16)
    params = make_params(1, 2.0)
    rng = np.random.default_rng(5)
    grid = random_sphere_grid(180, 0.05, rng)
    N = len(grid)
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    assert young_bound(K, grid, 1.2) == pytest.approx(_dense_young(K, grid, 1.2), rel=1e-12)
    # green_model with per-node mass: the pair-mean mass keeps it symmetric
    ramp = KernelSpec("green_model", mass=np.linspace(0.0, 3.0, N), c_w=0.2)
    G = assemble_kernel(grid, ramp, params)
    for r in (1.0, 1.3):
        assert young_bound(G, grid, r) == pytest.approx(_dense_young(G, grid, r), rel=1e-12)


def test_tail_integral_positive_decreasing():
    params = make_params(1, 2.0)
    res = (8, 6, 8)
    vals = [tail_integral_I1(1.0, R, params, res) for R in (4.0, 6.0, 9.0, 13.5)]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_tail_integral_depends_only_on_ratio():
    params = make_params(1, 2.0)
    res = (8, 6, 8)
    a = tail_integral_I1(0.1, 5.0, params, res)
    b = tail_integral_I1(0.2, 10.0, params, res)
    c = tail_integral_I1(1.0, 50.0, params, res)
    assert a == b == c


def test_tail_integral_dyadic_slope_near_minus_Q():
    params = make_params(1, 2.0)
    res = (8, 6, 8)
    vals = [tail_integral_I1(1.0, R, params, res) for R in (8.0, 16.0, 32.0, 64.0)]
    slopes = np.diff(np.log(vals)) / np.log(2.0)
    assert np.all(np.abs(slopes + params.Q) < 0.05 * params.Q)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_tail_integral_constant_matches_its_integral(alpha):
    # I_1 = C * tail mass, C = 2 * integral of H(v) |v|^{alpha-Q} dV_0 over H^1,
    # where dV_0 = 4 dx dy dt carries cylinder_grid's factor 2^{2n} n!. With
    # s = |z|^2 the integral is 4 pi over s > 0 and all t; the integrand is even
    # in t, and (s, t) = sigma^2 (cos phi, sin phi) removes the singularity at 0
    params = make_params(1, alpha)
    Q = params.Q

    def integrand(sigma, phi):
        s, t = sigma**2 * math.cos(phi), sigma**2 * math.sin(phi)
        return 2.0 * sigma ** (alpha + 3.0 - Q) * ((1.0 + s) ** 2 + t**2) ** (-0.25 * (Q + alpha))

    value = dblquad(integrand, 0.0, 0.5 * math.pi, 0.0, np.inf, epsabs=0.0, epsrel=1e-11)[0]
    C = 2.0 * 8.0 * math.pi * value
    res = (8, 6, 8)
    shell = cylinder_shell_grid(4.0, 4.0 * TAIL_ENLARGEMENT, res, params)
    mass = float(np.dot(extremal_values(shell, params) ** params.q_alpha, shell.weights))
    assert tail_integral_I1(1.0, 4.0, params, res) / mass == pytest.approx(C, rel=1e-8)


def test_tail_integral_validation():
    params = make_params(1, 2.0)
    with pytest.raises(ValueError):
        tail_integral_I1(0.0, 4.0, params, (8, 6, 8))
    with pytest.raises(ValueError):
        tail_integral_I1(-1.0, 4.0, params, (8, 6, 8))
    with pytest.raises(ValueError):
        tail_integral_I1(2.0, 2.0, params, (8, 6, 8))
