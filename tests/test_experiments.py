"""Numerical experiments: lower bounds, invariances, mass shifts, covariance."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from crhls import experiments
from crhls.core import make_params
from crhls.discretization import (
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
    sphere_extremal_values,
    sphere_grid,
)
from crhls.experiments import (
    _transported_extremal_values,
    conformal_covariance_check,
    curvature_equation_residual,
    eps_invariance_experiment,
    lower_bound_experiment,
    mass_perturbation_experiment,
)
from crhls.functional import rayleigh_quotient
from crhls.heisenberg import HPoint, extremal_family
from crhls.sphere import SpherePoint, cayley_inv, cayley_jacobian
from conftest import random_sphere_kernel


def _reweighted(grid):
    # same nodes and size as grid, other weights
    return QuadratureGrid(kind=grid.kind, n=grid.n, weights=2.0 * grid.weights,
                          resolution=grid.resolution, xi=grid.xi)


def test_transported_extremal_constant_at_unit_scale(params_n1):
    # at eps = 1 the untruncated transported extremal is a constant function
    grid = sphere_grid(1, (10, 10, 10))
    g = _transported_extremal_values(grid, params_n1, 1.0, 1e12)
    assert np.all(g > 0.0)
    assert np.ptp(g) <= 1e-12 * np.max(g)


def test_transported_extremal_matches_pointwise_pullback(params_n1):
    # vectorized pullback == scalar extremal at the Cayley preimage times
    # the inverse-map Jacobian raised to 1/q_alpha
    grid = sphere_grid(1, (8, 8, 8))
    eps = 0.7
    g = _transported_extremal_values(grid, params_n1, eps, 1e12)
    inv_q = 1.0 / params_n1.q_alpha
    for i in range(0, len(grid), 37):
        u = cayley_inv(SpherePoint(grid.xi[i]))
        jac_inv = 1.0 / cayley_jacobian(u)
        expect = extremal_family(eps, u, params_n1) * jac_inv**inv_q
        assert g[i] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("eps", [0.1, 0.5, 2.0])
def test_transported_extremal_is_a_sphere_extremal(alpha, eps):
    # closed form, independent of the pullback's formulas: the transported
    # eps-scale extremal is the sphere extremal with pole
    # (0, (1 - eps^2)/(1 + eps^2)) times the constant
    # (2 eps/(1 + eps^2))^{(Q+alpha)/2} * 2^{-(Q-1)(Q+alpha)/(2Q)}
    params = make_params(1, alpha)
    Q = params.Q
    grid = sphere_grid(1, (10, 10, 10))
    g = _transported_extremal_values(grid, params, eps, 1e12)
    pole = [0.0, (1.0 - eps**2) / (1.0 + eps**2)]
    quotient = g / sphere_extremal_values(grid, pole, params)
    const = (2.0 * eps / (1.0 + eps**2)) ** ((Q + alpha) / 2) * 2.0 ** (
        -(Q - 1) * (Q + alpha) / (2 * Q)
    )
    assert np.max(np.abs(quotient / const - 1.0)) <= 1e-12


def test_transported_extremal_truncation_mask(params_n1):
    grid = sphere_grid(1, (10, 10, 10))
    g_all = _transported_extremal_values(grid, params_n1, 0.5, 1e12)
    g_cut = _transported_extremal_values(grid, params_n1, 0.5, 2.0)
    assert np.all((g_cut == 0.0) | (g_cut == g_all))
    assert 0 < np.count_nonzero(g_cut == 0.0) < len(grid)
    for i in np.flatnonzero(g_cut == 0.0)[:20]:
        u = cayley_inv(SpherePoint(grid.xi[i]))
        assert float(np.abs(u.z[0]) ** 4 + u.t**2) > 2.0**4


def test_transported_extremal_needs_sphere_grid(params_n1):
    from crhls.discretization import cylinder_grid

    grid = cylinder_grid(1.0, (4, 4, 4), params_n1)
    with pytest.raises(ValueError):
        _transported_extremal_values(grid, params_n1, 1.0, 5.0)


def test_lower_bound_experiment_window(params_n1):
    res = lower_bound_experiment(1.0, 8.0, (12, 12, 12), params_n1)
    assert res.quotient == pytest.approx(7.843118, abs=5e-6)
    assert 7.6 < res.quotient < res.sharp_constant
    assert res.sharp_constant == pytest.approx(8.0, rel=1e-12)
    assert res.ratio == 8.0
    assert res.n_nodes == 12**3
    d = json.loads(json.dumps(asdict(res)))
    assert d["quotient"] == res.quotient
    assert d["resolution"] == [12, 12, 12]


def test_lower_bound_stores_no_kernel(params_n1):
    # the CLI default grid: its stored float64 kernel would take 32 MiB; the
    # matrix-free quotient holds a few tiles at a time
    resolution = (16, 8, 16)
    tracemalloc.start()
    try:
        res = lower_bound_experiment(0.1, 5.0, resolution, params_n1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20
    # the quotient of the stored kernel, summed in dsymv's order: the two orders
    # may part by an ulp
    grid = sphere_grid(1, resolution)
    g = _transported_extremal_values(grid, params_n1, 0.1, 5.0)
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    assert K.entries is not None
    assert res.quotient == pytest.approx(rayleigh_quotient(K, g, params_n1.q_alpha), rel=1e-14)


def test_lower_bound_validation(params_n1):
    with pytest.raises(ValueError):
        lower_bound_experiment(0.0, 5.0, (8, 8, 8), params_n1)
    with pytest.raises(ValueError):
        lower_bound_experiment(-0.1, 5.0, (8, 8, 8), params_n1)
    with pytest.raises(ValueError):
        lower_bound_experiment(2.0, 1.0, (8, 8, 8), params_n1)
    with pytest.raises(ValueError):
        lower_bound_experiment(1.0, 8.0, (8, 8, 8), make_params(2, 2.0))


def test_eps_invariance_spread(params_n1):
    res = eps_invariance_experiment(
        [0.05, 0.1, 0.2, 1.0, 5.0], 50.0, (10, 8, 10), params_n1
    )
    assert res.spread_rel < 1e-10
    assert all(nrm > 0.0 for nrm in res.norms)
    d = json.loads(json.dumps(asdict(res)))
    assert d["eps_list"] == [0.05, 0.1, 0.2, 1.0, 5.0]


def test_eps_invariance_validation(params_n1):
    with pytest.raises(ValueError):
        eps_invariance_experiment([0.1], 0.5, (8, 6, 8), params_n1)
    with pytest.raises(ValueError):
        eps_invariance_experiment([], 50.0, (8, 6, 8), params_n1)
    with pytest.raises(ValueError):
        eps_invariance_experiment([0.1, -0.2], 50.0, (8, 6, 8), params_n1)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_mass_perturbation_zero_mass_is_exactly_neutral(alpha):
    # only at alpha = 2 is the green_model power 1 and its kernel the pure one bit for
    # bit; elsewhere a second solve parted from the first by a few ulps (3.6e-15 at
    # alpha = 1 on 6^3), so A0 = 0 with c_w = 0 reuses the pure solve
    (res,) = mass_perturbation_experiment(0.0, 0.0, alpha, (6, 6, 6))
    assert res.delta == 0.0
    assert res.quotient_mass == res.quotient_pure
    assert res.all_converged


def test_mass_perturbation_positive_mass_raises_quotient():
    deltas = []
    for A0 in (0.5, 1.0):
        (res,) = mass_perturbation_experiment([A0], 0.0, 2.0, (6, 6, 6))
        assert res.all_converged
        assert res.delta > 0.0
        deltas.append(res.delta)
    assert deltas[1] > deltas[0]


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts of the calls the mass sweep makes to assemble_kernel and continuation."""
    calls = {"assemble_kernel": 0, "continuation": 0}

    def counting(name):
        real = getattr(experiments, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(experiments, name, counting(name))
    return calls


def test_mass_perturbation_validation(solve_calls):
    # every A0 is checked before anything is assembled
    for A0_list, message in [
        (-0.5, "A0 must be nonnegative, got -0.5"),
        ([0.5, -1.0], "A0 must be nonnegative, got -1.0"),
        ([], "A0_list must not be empty"),
    ]:
        with pytest.raises(ValueError, match=message):
            mass_perturbation_experiment(A0_list, 0.0, 2.0, (6, 6, 6))
    assert solve_calls == {"assemble_kernel": 0, "continuation": 0}


def test_mass_sweep_records_equal_one_entry_sweeps():
    sweep = mass_perturbation_experiment([0.0, 0.5, 1.0], 0.3, 2.0, (6, 6, 6))
    assert [res.A0 for res in sweep] == [0.0, 0.5, 1.0]
    for res in sweep:
        (alone,) = mass_perturbation_experiment(res.A0, 0.3, 2.0, (6, 6, 6))
        assert res == alone
        assert type(res.A0) is float


@pytest.mark.parametrize("c_w, mass_solves", [(0.0, 3), (0.5, 4)])
def test_mass_sweep_solves_the_pure_kernel_once(solve_calls, c_w, mass_solves):
    # A0 = 0 with c_w = 0 is the pure kernel, solved once for the whole sweep
    A0_list = [0.0, 0.5, 1.0, 2.0]
    records = mass_perturbation_experiment(A0_list, c_w, 2.0, (4, 4, 4))
    assert len(records) == len(A0_list)
    assert solve_calls == {"assemble_kernel": 1 + mass_solves, "continuation": 1 + mass_solves}


def test_conformal_covariance_residual_is_roundoff(params_n1):
    rng = np.random.default_rng(2718)
    grid, K = random_sphere_kernel(40, 0.15, rng, params_n1)
    worst = 0.0
    for _ in range(20):
        phi = rng.uniform(0.5, 2.0, size=len(grid))
        u = rng.normal(size=len(grid))
        worst = max(worst, conformal_covariance_check(K, grid, phi, u, params_n1))
    assert worst < 1e-10


def test_conformal_covariance_validation(params_n1):
    rng = np.random.default_rng(3)
    grid, K = random_sphere_kernel(6, 0.3, rng, params_n1)
    with pytest.raises(ValueError):
        conformal_covariance_check(K, grid, -np.ones(6), np.ones(6), params_n1)
    with pytest.raises(ValueError):
        conformal_covariance_check(K, grid, np.ones(5), np.ones(6), params_n1)
    with pytest.raises(ValueError):
        conformal_covariance_check(K, grid, np.ones(6), np.ones(5), params_n1)
    for bad in (np.nan, np.inf):  # a NaN in u used to come back as a nan residual
        with pytest.raises(ValueError, match="u must be finite"):
            conformal_covariance_check(K, grid, np.ones(6), np.array([1, 1, bad, 1, 1, 1]),
                                       params_n1)
    with pytest.raises(ValueError, match="grid does not match"):
        conformal_covariance_check(K, _reweighted(grid), np.ones(6), np.ones(6), params_n1)
    for other in (make_params(2, 2.0), make_params(1, 1.0)):
        with pytest.raises(ValueError, match="params do not match"):
            conformal_covariance_check(K, grid, np.ones(6), np.ones(6), other)


def test_conformal_covariance_scratch_is_order_N(params_n1):
    # the kernel is multiplied as stored, not copied: a copy of its 22.8 MiB
    # of entries at 12^3 would show in the peak
    grid = sphere_grid(1, (12, 12, 12))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    phi = np.linspace(0.5, 2.0, len(grid))
    tracemalloc.start()
    try:
        residual = conformal_covariance_check(K, grid, phi, np.ones(len(grid)), params_n1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(residual)
    assert peak <= 2**20


def test_curvature_residual_constant_row_sum_oracle(params_n1):
    # circulant kernel has constant row sums s, solved exactly by the
    # constant phi = s^{(Q-alpha)/(2 alpha)}; the residual normalization
    # must find that constant from any positive rescaling
    from crhls.discretization import KernelMatrix, QuadratureGrid

    N = 5
    base = np.array([0.0, 1.0, 2.0, 2.0, 1.0])
    entries = np.array([np.roll(base, k) for k in range(N)], dtype=np.float64)
    rng = np.random.default_rng(8)
    pts = []
    while len(pts) < N:
        v = rng.standard_normal(4)
        xi = v[:2] + 1j * v[2:]
        pts.append(xi / np.linalg.norm(xi))
    grid = QuadratureGrid(
        kind="sphere",
        n=1,
        weights=np.ones(N),
        resolution=(N,),
        xi=np.array(pts),
    )
    K = KernelMatrix(
        entries=entries, spec=KernelSpec("pure_singular"), grid=grid, params=params_n1
    )
    for scale in (1.0, 0.01, 37.0):
        resid = curvature_equation_residual(K, grid, scale * np.ones(N), params_n1)
        assert resid < 1e-10


def test_curvature_residual_decreases_under_refinement(params_n1):
    vals = []
    for m in (8, 12, 16):
        grid = sphere_grid(1, (m, m, m))
        K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
        vals.append(
            curvature_equation_residual(K, grid, np.ones(len(grid)), params_n1)
        )
    assert vals[1] < vals[0] and vals[2] < vals[1]
    assert vals[1] < 45.0


def test_curvature_residual_positive_finite_for_generic_inputs(params_n1):
    rng = np.random.default_rng(5)
    grid, K = random_sphere_kernel(12, 0.25, rng, params_n1)
    phi = rng.uniform(0.5, 2.0, size=len(grid))
    resid = curvature_equation_residual(K, grid, phi, params_n1)
    assert np.isfinite(resid) and resid > 0.0
    with pytest.raises(ValueError):
        curvature_equation_residual(K, grid, np.zeros(len(grid)), params_n1)
    with pytest.raises(ValueError, match="grid does not match"):
        curvature_equation_residual(K, _reweighted(grid), phi, params_n1)
    with pytest.raises(ValueError, match="params do not match"):
        curvature_equation_residual(K, grid, phi, make_params(1, 1.0))
