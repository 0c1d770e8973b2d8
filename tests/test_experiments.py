"""Numerical experiments: lower bounds, invariances, mass shifts, covariance."""

import json
import tracemalloc

import numpy as np
import pytest

from crhls import experiments
from crhls.core import make_params
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
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
from crhls.heisenberg import extremal_family
from crhls.solver import continuation, default_p_schedule
from crhls.sphere import SpherePoint, _sphere_extremal, cayley_inv, cayley_jacobian
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
    quotient = g / _sphere_extremal(grid.xi, pole, params)
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


def test_lower_bound_experiment_window(params_n1):
    res = lower_bound_experiment(1.0, 8.0, (12, 12, 12), params_n1)
    assert res["quotient"] == pytest.approx(7.843118, abs=5e-6)
    assert 7.6 < res["quotient"] < res["sharp_constant"]
    assert res["sharp_constant"] == pytest.approx(8.0, rel=1e-12)
    assert res["ratio"] == 8.0
    assert res["n_nodes"] == 12**3
    d = json.loads(json.dumps(res))
    assert d["quotient"] == res["quotient"]
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
    assert res["quotient"] == pytest.approx(rayleigh_quotient(K, g, params_n1.q_alpha), rel=1e-14)


def test_lower_bound_validation(params_n1):
    with pytest.raises(ValueError):
        lower_bound_experiment(0.0, 5.0, (8, 8, 8), params_n1)
    with pytest.raises(ValueError):
        lower_bound_experiment(-0.1, 5.0, (8, 8, 8), params_n1)
    with pytest.raises(ValueError):
        lower_bound_experiment(2.0, 1.0, (8, 8, 8), params_n1)
    with pytest.raises(ValueError):
        lower_bound_experiment(1.0, 8.0, (8, 8, 8), make_params(2, 2.0))
    # a trial function zero at every node is refused before any kernel is built
    with pytest.raises(ValueError, match=r"no node lies within gauge radius R = 0\.2 .*"
                       r"resolution \(4, 4, 4\).* eps = 0\.1 is zero at every node"):
        lower_bound_experiment(0.1, 0.2, (4, 4, 4), params_n1)


def test_lower_bound_takes_a_radius_whose_square_overflows(params_n1):
    # R * R overflows to inf, so a huge R truncates nothing, like any R beyond the grid
    far = lower_bound_experiment(0.1, 1e160, (4, 4, 4), params_n1)
    assert far["quotient"] == lower_bound_experiment(0.1, 1e12, (4, 4, 4), params_n1)["quotient"]
    assert far["R"] == 1e160 and far["ratio"] == 1e160 / 0.1
    # a ratio R/eps beyond the float range would be written as Infinity
    with pytest.raises(ValueError, match=r"R/eps exceeds the float range: eps = 1e-10"):
        lower_bound_experiment(1e-10, 1e300, (4, 4, 4), params_n1)


def test_eps_invariance_spread(params_n1):
    res = eps_invariance_experiment(
        [0.05, 0.1, 0.2, 1.0, 5.0], 50.0, (10, 8, 10), params_n1
    )
    assert res["spread_rel"] < 1e-10
    assert all(nrm > 0.0 for nrm in res["norms"])
    d = json.loads(json.dumps(res))
    assert d["eps_list"] == [0.05, 0.1, 0.2, 1.0, 5.0]


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_eps_invariance_norm_matches_its_closed_form(alpha):
    # int H^{q_alpha} dV_0 = pi^{n+1} for every alpha, so each norm tends to
    # pi^{(n+1)/q_alpha}; at this resolution all three lie within 2.3e-5
    params = make_params(1, alpha)
    res = eps_invariance_experiment([0.1, 1.0], 50.0, (48, 16, 48), params)
    exact = np.pi ** ((params.n + 1) / params.q_alpha)
    assert res["norms"] == pytest.approx([exact] * 2, rel=1e-4)


def test_eps_invariance_validation(params_n1):
    with pytest.raises(ValueError):
        eps_invariance_experiment([0.1], 0.5, (8, 6, 8), params_n1)
    with pytest.raises(ValueError):
        eps_invariance_experiment([], 50.0, (8, 6, 8), params_n1)
    with pytest.raises(ValueError):
        eps_invariance_experiment([0.1, -0.2], 50.0, (8, 6, 8), params_n1)


def test_eps_invariance_refuses_norms_that_all_underflow(params_n1):
    # on cylinders of radius 1e50 * eps every norm underflows to 0, and the
    # spread would divide by the largest
    with pytest.raises(ValueError, match=r"underflows to 0 on every cylinder at ratio 1e\+50"):
        eps_invariance_experiment([0.05, 0.1, 0.2], 1e50, (6, 4, 6), params_n1)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_mass_perturbation_zero_mass_is_exactly_neutral(alpha):
    # only at alpha = 2 is the green_model power 1 and its kernel the pure one bit for
    # bit; elsewhere a second solve parted from the first by a few ulps (3.6e-15 at
    # alpha = 1 on 6^3), so A0 = 0 with c_w = 0 reuses the pure solve
    (res,) = mass_perturbation_experiment(0.0, 0.0, alpha, (6, 6, 6))
    assert res["delta"] == 0.0
    assert res["quotient_mass"] == res["quotient_pure"]
    assert res["all_converged"]


def test_mass_perturbation_positive_mass_raises_quotient():
    deltas = []
    for A0 in (0.5, 1.0):
        (res,) = mass_perturbation_experiment([A0], 0.0, 2.0, (6, 6, 6))
        assert res["all_converged"]
        assert res["delta"] > 0.0
        deltas.append(res["delta"])
    assert deltas[1] > deltas[0]


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts of the calls the mass sweep makes to assemble_kernel and solve_subcritical."""
    calls = {"assemble_kernel": 0, "solve_subcritical": 0}

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
    assert solve_calls == {"assemble_kernel": 0, "solve_subcritical": 0}


def test_mass_sweep_records_equal_one_entry_sweeps():
    sweep = mass_perturbation_experiment([0.0, 0.5, 1.0], 0.3, 2.0, (6, 6, 6))
    assert [res["A0"] for res in sweep] == [0.0, 0.5, 1.0]
    for res in sweep:
        (alone,) = mass_perturbation_experiment(res["A0"], 0.3, 2.0, (6, 6, 6))
        assert res == alone
        assert type(res["A0"]) is float


@pytest.mark.parametrize("c_w, mass_solves", [(0.0, 3), (0.5, 4)])
def test_mass_sweep_solves_the_pure_kernel_once(solve_calls, c_w, mass_solves):
    # A0 = 0 with c_w = 0 is the pure kernel, solved once for the whole sweep
    A0_list = [0.0, 0.5, 1.0, 2.0]
    records = mass_perturbation_experiment(A0_list, c_w, 2.0, (4, 4, 4))
    assert len(records) == len(A0_list)
    assert solve_calls == {
        "assemble_kernel": 1 + mass_solves,
        "solve_subcritical": 1 + mass_solves,
    }


@pytest.mark.parametrize("resolution", [(6, 6, 6), (8, 6, 8)])
@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_mass_sweep_endpoint_solve_matches_the_continuation(alpha, resolution):
    # one solve at the endpoint from the constant reaches the branch that the
    # warm-started continuation's last stage reaches, pure and green_model alike
    (res,) = mass_perturbation_experiment(0.5, 0.3, alpha, resolution)
    params = make_params(1, alpha)
    grid = sphere_grid(1, resolution)
    schedule = default_p_schedule(params)
    assert res["p_endpoint"] == schedule[-1]
    for spec, D in [
        (KernelSpec("pure_singular"), res["quotient_pure"]),
        (KernelSpec("green_model", mass=np.full(len(grid), 0.5), c_w=0.3), res["quotient_mass"]),
    ]:
        last = continuation(assemble_kernel(grid, spec, params), grid, schedule)[-1]
        assert last.converged and res["all_converged"]
        assert D == pytest.approx(last.D_estimate, rel=1e-14, abs=0.0)


def test_mass_sweep_envelope_at_alpha_2():
    # at alpha = 2 a constant mass adds A0 to every off-diagonal entry, so delta/A0
    # does not decrease in A0 and stays below Hoelder's V^{2-2/p} (1 - 1/N) on
    # equal weights; the digits are those the continuation gave on 8x6x8
    records = mass_perturbation_experiment([0.5, 1.0, 2.0], 0.0, 2.0, (8, 6, 8))
    slopes = [res["delta"] / res["A0"] for res in records]
    assert [round(s, 6) for s in slopes] == [12.598421, 12.600795, 12.602588]
    w = sphere_grid(1, (8, 6, 8)).weights
    assert np.all(w == w[0])
    p = records[0]["p_endpoint"]
    upper = w.sum() ** (2.0 - 2.0 / p) * (1.0 - 1.0 / len(w))
    assert round(upper, 6) == 12.605172
    assert slopes[0] < slopes[1] < slopes[2] < upper


def test_driver_results_hold_their_artifact_keys(params_n1):
    # the keys of the verify-hls, lower-bound and mass-experiment JSON sections, each
    # holding a plain value that json writes as it stands
    bound = lower_bound_experiment(1.0, 8.0, (4, 4, 4), params_n1)
    inv = eps_invariance_experiment([0.1, 0.2], 50.0, (10, 8, 10), params_n1)
    runs = mass_perturbation_experiment([0.0, 0.5], 0.0, 2.0, (4, 4, 4))
    assert set(bound) == {"n", "alpha", "eps", "R", "ratio", "resolution", "n_nodes",
                          "quotient", "sharp_constant"}
    assert set(inv) == {"n", "alpha", "ratio", "resolution", "eps_list", "norms", "spread_rel"}
    assert len(runs) == 2
    for run in runs:
        assert set(run) == {"alpha", "A0", "c_w", "resolution", "n_nodes", "p_endpoint",
                            "quotient_mass", "quotient_pure", "delta", "all_converged"}
    for res in (bound, inv, *runs):
        assert all(type(v) in (bool, int, float, tuple) for v in res.values()), res


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


def test_curvature_residual_refuses_a_zero_kernel(params_n1):
    # K phi has no weighted mass, so no scale of phi balances the two sides
    grid = sphere_grid(1, (4, 4, 4))
    K = KernelMatrix(np.zeros((64, 64)), KernelSpec("pure_singular"), grid, params_n1)
    with pytest.raises(ValueError, match="positive weighted masses on both sides"):
        curvature_equation_residual(K, grid, np.ones(64), params_n1)


def test_curvature_residual_takes_one_product(params_n1, monkeypatch):
    # the second side is lam E(phi w), which the first product already holds: one
    # product per call, one walk of the matrix-free operator, and the value of the
    # two-product form within 1e-12
    grid = sphere_grid(1, (6, 6, 6))
    stored = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    free = KernelMatrix(None, stored.spec, grid, params_n1)
    Q, alpha = params_n1.Q, params_n1.alpha
    s, w = (Q + alpha) / (Q - alpha), grid.weights
    phi = 1.0 + 0.3 * grid.xi[:, 0].real
    calls = []
    matvec = KernelMatrix.matvec
    monkeypatch.setattr(
        KernelMatrix, "matvec", lambda self, x: calls.append(self) or matvec(self, x)
    )
    for K in (stored, free):
        applied = matvec(K, phi * w)
        lam = (np.dot(w, applied) / np.dot(w, phi**s)) ** ((Q - alpha) / (2.0 * alpha))
        two = float(np.max(np.abs((lam * phi) ** s - matvec(K, lam * phi * w))))
        calls.clear()
        resid = curvature_equation_residual(K, grid, phi, params_n1)
        assert calls == [K]
        assert resid == pytest.approx(two, rel=1e-12) and resid > 0.0


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
