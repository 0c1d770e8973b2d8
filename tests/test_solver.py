"""Subcritical fixed-point solver, continuation, blow-up diagnostics."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from crhls.core import make_params, sharp_constant_DH
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    assemble_kernel,
    cylinder_grid,
    distances_from_node,
    sphere_grid,
)
from crhls.functional import rayleigh_quotient
from crhls.solver import (
    SubcriticalResult,
    blowup_diagnostic,
    continuation,
    default_p_schedule,
    result_to_dict,
    save_result_json,
    solve_subcritical,
)
from conftest import random_sphere_kernel, seeded_kernel_set, two_node_fixture


def _brute_max_quotient(K, p, rng, restarts=6):
    """Independent check: maximize the quotient over positive functions."""
    N = len(K)

    def neg(u):
        return -rayleigh_quotient(K, np.exp(u), p)

    best = -np.inf
    for _ in range(restarts):
        u0 = rng.normal(scale=1.5, size=N)
        out = minimize(
            neg,
            u0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 20000},
        )
        best = max(best, -out.fun)
    return best


def test_two_node_oracle(params_n1):
    # symmetric maximizer, D = 2^{1 - 2/p} in closed form
    grid, K = two_node_fixture(params_n1)
    for p in (1.4, 1.5, 1.8):
        res = solve_subcritical(K, grid, p)
        assert res.converged
        assert res.D_estimate == pytest.approx(2.0 ** (1.0 - 2.0 / p), rel=1e-12)
        assert res.f[0] == pytest.approx(res.f[1], rel=1e-9)


def test_two_node_asymmetric_start(params_n1):
    grid, K = two_node_fixture(params_n1)
    res = solve_subcritical(K, grid, 1.5, f0=np.array([9.0, 0.25]))
    assert res.converged
    assert res.D_estimate == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-12)


def test_constant_kernel_oracle(params_n1):
    # all-ones kernel: B(f, f) = (sum f w)^2, maximized by the constant,
    # D = V^{2 - 2/p} with V the total weight
    rng = np.random.default_rng(12)
    grid, _ = random_sphere_kernel(6, 0.3, rng, params_n1)
    K = KernelMatrix(
        entries=np.ones((6, 6)),
        spec=KernelSpec("pure_singular"),
        grid=grid,
        params=params_n1,
    )
    V = grid.total_weight
    for p in (1.45, 1.7):
        res = solve_subcritical(K, grid, p)
        assert res.converged
        assert res.D_estimate == pytest.approx(V ** (2.0 - 2.0 / p), rel=1e-10)
        assert np.ptp(res.f) <= 1e-8 * np.max(res.f)


def test_solver_matches_brute_force(params_n1):
    rng = np.random.default_rng(314)
    q = params_n1.q_alpha
    for trial in range(8):
        grid, K = random_sphere_kernel(3, 0.4, rng, params_n1)
        # include near-critical exponents, where plain iteration can cycle
        p = q + 0.011 if trial % 3 == 0 else float(rng.uniform(q + 0.05, 1.95))
        res = solve_subcritical(K, grid, p)
        assert res.converged, f"trial {trial} at p = {p} did not converge"
        brute = _brute_max_quotient(K, p, rng)
        assert res.D_estimate == pytest.approx(brute, rel=1e-6)


def test_quotient_history_nondecreasing(params_n1):
    rng = np.random.default_rng(99)
    grid, K = random_sphere_kernel(8, 0.25, rng, params_n1)
    res = solve_subcritical(K, grid, 1.4)
    h = res.quotient_history
    assert len(h) == res.iterations + 1
    assert np.all(np.diff(h) >= -1e-12 * np.abs(h[:-1]))
    assert h[-1] == pytest.approx(res.D_estimate, rel=1e-15)


def test_seeded_kernel_set(params_n1):
    for k, (K, p) in enumerate(seeded_kernel_set(params_n1)):
        res = solve_subcritical(K, K.grid, p)
        assert res.converged, f"case {k} (N = {len(K)}, p = {p}) did not converge"
        h = res.quotient_history
        assert np.all(np.diff(h) >= -1e-12 * np.abs(h[:-1])), f"case {k} descended"


def _logged(entries):
    """View of entries that logs each product, "E" for E @ v, "T" for E.T @ v."""
    log = []

    class Logged(np.ndarray):
        def __matmul__(self, other):
            log.append("E" if self.flags.c_contiguous else "T")
            return np.asarray(self) @ other

    return entries.view(Logged), log


def test_matvecs_one_product_per_evaluation_when_symmetric(params_n1):
    # every KernelMatrix is symmetric, assembled or built directly alike
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    direct = KernelMatrix(K.entries.copy(), K.spec, grid, params_n1)
    fixture_grid, fixture = two_node_fixture(params_n1)
    for kernel, g in ((K, grid), (direct, grid), (fixture, fixture_grid)):
        kernel.entries, log = _logged(kernel.entries)
        res = solve_subcritical(kernel, g, 1.5)
        assert res.converged
        assert res.matvecs == len(log) > 0
        assert set(log) == {"E"}


def test_solver_validation(params_n1):
    grid, K = two_node_fixture(params_n1)
    q = params_n1.q_alpha
    for bad_p in (q, 2.0, 2.5, 1.0):
        with pytest.raises(ValueError):
            solve_subcritical(K, grid, bad_p)
    with pytest.raises(ValueError):
        solve_subcritical(K, grid, 1.5, tol=0.0)
    with pytest.raises(ValueError):
        solve_subcritical(K, grid, 1.5, max_iter=0)
    with pytest.raises(ValueError):
        solve_subcritical(K, grid, 1.5, f0=np.ones(3))
    with pytest.raises(ValueError):
        solve_subcritical(K, grid, 1.5, f0=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        solve_subcritical(K, grid, 1.5, f0=np.zeros(2))
    K0 = KernelMatrix(
        entries=np.zeros((2, 2)),
        spec=KernelSpec("pure_singular"),
        grid=grid,
        params=params_n1,
    )
    with pytest.raises(ValueError, match="no positive entry"):
        solve_subcritical(K0, grid, 1.5)
    K0.entries = np.array([[np.nan, 1.0], [1.0, 0.0]])  # a positive entry beside NaN
    with pytest.raises(ValueError, match="NaN"):
        solve_subcritical(K0, grid, 1.5)


def test_solve_scratch_is_order_N(params_n1):
    # beyond the kernel a solve holds a few N-vectors, no N x N temporary
    grid = sphere_grid(1, (12, 12, 12))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    tracemalloc.start()
    try:
        res = solve_subcritical(K, grid, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < len(grid) ** 2 / 4


def test_solver_max_iter_reports_unconverged(params_n1):
    rng = np.random.default_rng(4)
    grid, K = random_sphere_kernel(6, 0.3, rng, params_n1)
    res = solve_subcritical(K, grid, 1.4, tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.iterations == 2


def test_default_p_schedule(params_n1):
    sched = default_p_schedule(params_n1)
    q = params_n1.q_alpha
    assert sched[-1] == pytest.approx(q + 1e-3, abs=1e-15)
    assert all(b < a for a, b in zip(sched, sched[1:]))
    assert all(q < p < 2.0 for p in sched)
    short = default_p_schedule(params_n1, endpoint_offset=0.6)
    assert short[-1] == pytest.approx(q + 0.6)
    assert all(b < a for a, b in zip(short, short[1:]))
    with pytest.raises(ValueError):
        default_p_schedule(params_n1, endpoint_offset=0.0)
    with pytest.raises(ValueError):
        default_p_schedule(params_n1, endpoint_offset=2.0 - q)


def test_continuation_on_sphere(params_n1):
    grid = sphere_grid(1, (10, 10, 10))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    results = continuation(K, grid, default_p_schedule(params_n1))
    assert all(r.converged for r in results)
    D = [r.D_estimate for r in results]
    assert all(b < a for a, b in zip(D, D[1:]))
    # near the critical exponent the discrete maximum sits just under the
    # sharp constant at this resolution
    assert D[-1] == pytest.approx(7.805649, abs=5e-6)
    assert D[-1] < sharp_constant_DH(params_n1)


def test_continuation_validation(params_n1):
    grid, K = two_node_fixture(params_n1)
    with pytest.raises(ValueError):
        continuation(K, grid, [])
    with pytest.raises(ValueError):
        continuation(K, grid, [1.8, 1.8])
    with pytest.raises(ValueError):
        continuation(K, grid, [1.5, 1.7])
    with pytest.raises(ValueError):
        continuation(K, grid, [1.8, 2.1])


def test_blowup_planted_bubble(params_n1):
    # planting the model bubble with amplitude eps^{-alpha/(2-p)} makes the
    # predicted scale equal eps, so the profile matches the model exactly
    Q, al = params_n1.Q, params_n1.alpha
    grid = cylinder_grid(1.0, (8, 6, 8), params_n1)
    center = len(grid) // 2
    d = distances_from_node(grid, center)
    p, eps = 1.5, 0.3
    A = eps ** (-al / (2.0 - p))
    f = A * (1.0 + (d / eps) ** 2) ** (-0.5 * (Q + al))
    res = SubcriticalResult(
        p=p,
        D_estimate=1.0,
        f=f,
        iterations=0,
        residual=0.0,
        converged=True,
        quotient_history=np.array([1.0]),
    )
    report = blowup_diagnostic(res, grid, params_n1)
    assert report.center_index == center
    assert report.mu_p == pytest.approx(eps, rel=1e-12)
    assert report.radii[0] == 0.0 and report.profile[0] == 1.0
    assert np.all(np.diff(report.radii) >= 0.0)
    assert report.profile_deviation < 1e-12


def test_blowup_flat_profile_scores_large_deviation(params_n1):
    grid = cylinder_grid(1.0, (8, 6, 8), params_n1)
    res = SubcriticalResult(
        p=1.5,
        D_estimate=1.0,
        f=np.ones(len(grid)),
        iterations=0,
        residual=0.0,
        converged=True,
        quotient_history=np.array([1.0]),
    )
    report = blowup_diagnostic(res, grid, params_n1)
    assert report.mu_p == 1.0
    assert report.profile_deviation > 0.3


def test_blowup_validation(params_n1):
    grid = cylinder_grid(1.0, (6, 4, 6), params_n1)
    res = SubcriticalResult(
        p=1.5,
        D_estimate=1.0,
        f=np.ones(len(grid)),
        iterations=0,
        residual=0.0,
        converged=True,
        quotient_history=np.array([1.0]),
    )
    with pytest.raises(ValueError):
        blowup_diagnostic(res, grid, params_n1, radius_factor=0.0)
    bad = SubcriticalResult(
        p=1.5,
        D_estimate=1.0,
        f=np.ones(3),
        iterations=0,
        residual=0.0,
        converged=True,
        quotient_history=np.array([1.0]),
    )
    with pytest.raises(ValueError):
        blowup_diagnostic(bad, grid, params_n1)


def test_result_json_round_trip(tmp_path, params_n1):
    grid, K = two_node_fixture(params_n1)
    res = solve_subcritical(K, grid, 1.5)
    path = tmp_path / "result.json"
    save_result_json(res, path)
    data = json.loads(path.read_text())
    assert data == result_to_dict(res)
    assert data["p"] == 1.5
    assert data["converged"] is True
    assert data["D"] == pytest.approx(res.D_estimate, rel=0)
    assert np.allclose(data["f"], res.f, rtol=0, atol=0)
