"""Subcritical fixed-point solver and continuation."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from crhls import _blas, solver
from crhls.core import make_params, sharp_constant_DH
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    assemble_kernel,
    cylinder_grid,
    sphere_grid,
)
from crhls.experiments import _mass_spec, conformal_covariance_check, curvature_equation_residual
from crhls.functional import bilinear_form, rayleigh_quotient, young_bound
from crhls.solver import (
    continuation,
    default_p_schedule,
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


def test_matvecs_one_product_per_evaluation_when_symmetric(params_n1, monkeypatch):
    # every KernelMatrix is symmetric, assembled or built directly alike;
    # products are counted at KernelMatrix.matvec, whichever BLAS call it makes
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    direct = KernelMatrix(K.entries.copy(), K.spec, grid, params_n1)
    fixture_grid, fixture = two_node_fixture(params_n1)
    calls = []
    matvec = KernelMatrix.matvec

    def counted(self, x):
        calls.append(self)
        return matvec(self, x)

    monkeypatch.setattr(KernelMatrix, "matvec", counted)
    for kernel, g in ((K, grid), (direct, grid), (fixture, fixture_grid)):
        calls.clear()
        res = solve_subcritical(kernel, g, 1.5)
        assert res.converged
        assert res.matvecs == len(calls) > 0
        assert all(c is kernel for c in calls)


def test_roundoff_costs_no_products(params_n1):
    # every step of the 12^3 sphere continuation is one product, beside the
    # five image products of the stage that first stalls: no dip of one
    # rounding error refuses a candidate or damps a map step
    grid = sphere_grid(1, (12, 12, 12))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    for res in continuation(K, grid, default_p_schedule(params_n1)):
        assert res.converged
        assert res.rejected == res.backtracks == 0
        assert res.seeded in (0, 5)
        assert res.matvecs == res.iterations + 1 + res.seeded


@pytest.mark.parametrize(
    "m, most, endpoint_most, D",
    [(12, 59, 20, 7.8933916205594805), (16, 53, 20, 7.938270158879471)],
    ids=["12^3", "16^3"],
)
def test_seeds_cut_the_products_of_sphere_solves(params_n1, m, most, endpoint_most, D):
    # the conformal directions stall the last stages: without seeds the
    # continuations took 90 and 97 products and the endpoint solves 38 and 55,
    # at the same quotient; with seeds from four finite-difference products in
    # each stalled stage, 67 and 60. One stage takes the kernel's five images
    # and the later stages reuse them
    grid = sphere_grid(1, (m, m, m))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    schedule = default_p_schedule(params_n1)
    runs = continuation(K, grid, schedule)
    endpoint = solve_subcritical(K, grid, schedule[-1])
    for res in (*runs, endpoint):
        assert res.converged and res.stop_reason == "converged"
        assert res.rejected == res.backtracks == 0
    assert sum(r.matvecs for r in runs) <= most
    assert endpoint.matvecs <= endpoint_most
    assert sorted(r.seeded for r in runs) == [0, 0, 0, 0, 5]
    assert runs[-1].seeded == 0 and endpoint.seeded == 5
    assert runs[-1].D_estimate == pytest.approx(D, rel=1e-13)
    assert endpoint.D_estimate == pytest.approx(D, rel=1e-13)


def test_solve_without_seed_directions_keeps_the_unseeded_bits(params_n1, monkeypatch):
    # with no coordinate functions to seed along, the 12^3 continuation is the
    # unseeded solver's, bit for bit on each BLAS thread count
    if _blas._openblas() is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    monkeypatch.setattr(solver, "_seed_directions", lambda grid: [])
    grid = sphere_grid(1, (12, 12, 12))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    for threads, D in ((1, 7.893391620559479), (2, 7.8933916205594805)):
        with _blas.blas_threads(threads):
            runs = continuation(K, grid, default_p_schedule(params_n1))
        assert [r.iterations for r in runs] == [8, 9, 13, 20, 35]
        assert sum(r.matvecs for r in runs) == 90
        assert all(r.seeded == 0 for r in runs)
        assert runs[-1].D_estimate == D


def test_solves_that_never_stall_take_no_seed(params_n1):
    # green_model kernels of positive mass, cylinder grids, the sphere at
    # p = 1.6 and the two-node fixture: no iteration falls by less than half,
    # so the solve is the unseeded one
    alpha2 = params_n1
    for alpha in (1.0, 2.0, 3.0):
        params = make_params(1, alpha)
        grid = sphere_grid(1, (8, 6, 8))
        endpoint = default_p_schedule(params)[-1]
        for A0, c_w in ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 0.5)):
            K = assemble_kernel(grid, _mass_spec(A0, c_w, len(grid)), params)
            assert solve_subcritical(K, grid, endpoint).seeded == 0
    grid = sphere_grid(1, (12, 12, 12))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), alpha2)
    assert solve_subcritical(K, grid, 1.6).seeded == 0
    grid = cylinder_grid(1.0, (6, 6, 6), alpha2)
    K = assemble_kernel(grid, KernelSpec("pure_singular"), alpha2)
    assert len(solver._seed_directions(grid)) == 0
    assert all(r.seeded == 0 for r in continuation(K, grid, default_p_schedule(alpha2)))
    grid, K = two_node_fixture(alpha2)
    for p in (1.4, 1.5, 1.8):
        assert solve_subcritical(K, grid, p).seeded == 0
    assert solve_subcritical(K, grid, 1.5, f0=np.array([9.0, 0.25])).seeded == 0


def _defect(K, res):
    # the stationarity defect of the returned iterate, from a fresh product
    y = K.matvec(res.f * K.grid.weights)
    return 2.0 * float(np.max(np.abs(res.D_estimate * res.f ** (res.p - 1.0) - y)))


def test_residual_is_the_defect_of_the_returned_iterate(params_n1):
    # the solver takes the defect only when the quotient is flat or max_iter is
    # reached; the value it returns is that of the returned f and D, bit for bit
    grid = sphere_grid(1, (8, 8, 8))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    done = solve_subcritical(K, grid, 1.5)
    cut = solve_subcritical(K, grid, 1.5, max_iter=2)
    assert done.converged and not cut.converged and cut.iterations == 2
    assert (done.stop_reason, cut.stop_reason) == ("converged", "max_iter")
    for res in (done, cut):
        assert res.residual == _defect(K, res)
        # 2 max |D f^{p-1} - y| is the form 2 D f^{p-1} - 2 y scaled by an exact 2
        y = K.matvec(res.f * grid.weights)
        twice = 2.0 * res.D_estimate * res.f ** (res.p - 1.0) - 2.0 * y
        assert res.residual == float(np.max(np.abs(twice)))
    assert cut.residual > done.residual


def test_warm_start_with_zeros_clears_the_history(params_n1):
    # a zero entry has no logarithm, so the first residual is not finite and
    # the history is cleared; the solve goes on from the map step and reaches
    # the maximizer of the constant start
    grid = sphere_grid(1, (8, 8, 8))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    f0 = np.ones(len(grid))
    f0[::5] = 0.0
    ref = solve_subcritical(K, grid, 1.5)
    res = solve_subcritical(K, grid, 1.5, f0=f0)
    assert ref.converged and res.converged
    assert res.D_estimate == pytest.approx(ref.D_estimate, rel=1e-12)
    assert np.all(res.f > 0.0)
    assert res.matvecs == res.iterations + 1 + res.rejected + res.backtracks + res.seeded
    assert res.residual == _defect(K, res)


def _refused_at_first_product(params, monkeypatch, entry, message):
    """Set entry [3, 40] of the 6^3 sphere kernel and check that the solve refuses
    the kernel, with message, after its first product."""
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    entries = K.entries.copy()
    entries[3, 40] = entry
    calls = []
    matvec = KernelMatrix.matvec

    def counted(self, x):
        calls.append(self)
        return matvec(self, x)

    monkeypatch.setattr(KernelMatrix, "matvec", counted)
    bad = KernelMatrix(entries, K.spec, grid, params)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=f"^kernel .*{message}"):
        solve_subcritical(bad, grid, 1.5, max_iter=50)
    assert len(calls) == 1


def test_solver_refuses_an_infinite_entry(params_n1, monkeypatch):
    # an infinite product is refused; the solve raises rather than iterate on NaN
    _refused_at_first_product(params_n1, monkeypatch, np.inf, "finite")


def test_solver_refuses_a_negative_entry(params_n1, monkeypatch):
    # a -1e6 entry makes rows 3 and 40 of the first product negative: unrefused,
    # the solve ran 50 of 50 iterations down to D = -1237.3
    _refused_at_first_product(params_n1, monkeypatch, -1e6, "negative entry")


def test_solver_names_overflow_of_finite_entries(params_n1):
    # every entry of the A0 = 1e308 kernel is finite; the sums of its first product
    # overflow, which the refusal once blamed on a NaN, infinite or negative entry
    grid = sphere_grid(1, (4, 4, 4))
    K = assemble_kernel(grid, _mass_spec(1e308, 0.0, len(grid)), params_n1)
    assert np.all(np.isfinite(K.entries)) and np.max(K.entries) == pytest.approx(1e308)
    with pytest.raises(ValueError, match="^kernel .*entries whose sums overflow: its first product"):
        solve_subcritical(K, grid, 1.5)


def _fits_with_a_zeroed_product(K, grid, monkeypatch, at, keep_quotient):
    """Solve at p = 1.5 with node 7 of product number at (from 0) set to zero, its
    quotient kept if keep_quotient by scaling the rest; return the result and each
    Anderson fit as (products made before it, its column count)."""
    products, fits = [], []
    matvec, lstsq = KernelMatrix.matvec, np.linalg.lstsq

    def zeroed(self, x):
        y = matvec(self, x)
        if len(products) == at:
            quotient = np.dot(x, y)
            y[7] = 0.0
            if keep_quotient:
                y *= quotient / np.dot(x, y)
        products.append(y)
        return y

    def recorded(a, b, rcond=None):
        fits.append((len(products), a.shape[1]))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(KernelMatrix, "matvec", zeroed)
    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    return solve_subcritical(K, grid, 1.5), fits


def test_refused_candidate_cuts_the_history(params_n1, monkeypatch):
    # the zeroed product is the second Anderson candidate's, which falls by
    # about 1/N and is refused: the map step is taken and the next fit has one
    # window column, not the two kept differences and a new one. That map
    # step stalls, so the five image products (5 to 9) are taken and the four
    # seed pairs join that fit and the later ones
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    res, fits = _fits_with_a_zeroed_product(K, grid, monkeypatch, at=3, keep_quotient=False)
    assert res.converged and (res.rejected, res.backtracks, res.seeded) == (1, 0, 5)
    assert fits[:5] == [(2, 1), (3, 2), (5 + 5, 1 + 4), (6 + 5, 2 + 4), (7 + 5, 3 + 4)]


def test_non_finite_residual_clears_the_history(params_n1, monkeypatch):
    # with row and column 7 of the kernel scaled by 0.1, the first map step's
    # product, zeroed at node 7 with its quotient kept, is taken, and so is the
    # map step from it, which is zero at node 7: the residuals of the two
    # iterations that step from a zero are not finite, and the iteration after
    # them only records u and r. So the first fit comes after 5 products (the
    # start and four map steps), not after 4, as when a difference to the
    # iterate before the zero is taken; that iteration stalls, and the five
    # image products and the four seed columns come before its fit
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    entries = K.entries.copy()
    entries[7, :] *= 0.1
    entries[:, 7] *= 0.1
    K = KernelMatrix(entries, K.spec, grid, params_n1)
    res, fits = _fits_with_a_zeroed_product(K, grid, monkeypatch, at=1, keep_quotient=True)
    assert res.converged and (res.rejected, res.backtracks, res.seeded) == (0, 0, 5)
    assert fits[0] == (5 + 5, 1 + 4)


def test_exhausted_damped_search_ends_the_solve(params_n1, monkeypatch):
    # the first map step's product, zeroed at node 7 with its quotient kept, is
    # taken. The map value from it is zero at node 7, and it and every damped
    # step toward it lower the quotient: after 20 backtracks the solve ends at
    # the iterate it kept, unconverged. Taking the last damped step instead
    # lowered the quotient by 0.32 % (17.20484 to 17.15056)
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    res, fits = _fits_with_a_zeroed_product(K, grid, monkeypatch, at=1, keep_quotient=True)
    assert not res.converged and res.stop_reason == "no_ascent" and fits == []
    assert (res.iterations, res.matvecs, res.rejected, res.backtracks) == (1, 23, 0, 20)
    h = res.quotient_history
    assert len(h) == 2 and h[1] > h[0] and res.D_estimate == h[1]
    assert res.D_estimate == pytest.approx(17.20484, rel=1e-6)
    # the residual is the defect at the returned iterate, with its zeroed product
    x = res.f * grid.weights
    y = K.matvec(x)
    y[7] = 0.0
    y *= res.D_estimate / np.dot(x, y)
    defect = 2.0 * np.max(np.abs(res.D_estimate * res.f ** (res.p - 1.0) - y))
    assert res.residual == pytest.approx(defect, rel=1e-12)


def test_solve_does_not_depend_on_blas_thread_count():
    # dsymv splits its sum by thread, so the bits differ; the steps taken do
    # not, nor does the float comparison that finds the stall and seeds: the
    # continuations and the endpoint solve at alpha = 1, 2 and 3
    if _blas._openblas() is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    for alpha in (1.0, 2.0, 3.0):
        params = make_params(1, alpha)
        schedule = default_p_schedule(params)
        for m in (8, 12, 16):
            grid = sphere_grid(1, (m, m, m))
            K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
            counts = []
            for threads in (1, 2):
                with _blas.blas_threads(threads):
                    results = continuation(K, grid, schedule)
                    results.append(solve_subcritical(K, grid, schedule[-1]))
                counts.append([(r.iterations, r.matvecs, r.seeded) for r in results])
            assert counts[0] == counts[1], f"alpha = {alpha}, {m}^3"
            assert counts[0][-1][2] == 5, f"alpha = {alpha}, {m}^3: the endpoint solve seeds"


@pytest.mark.parametrize(
    "fall, rejected, backtracks, seeded",
    [(1e-10, 1, 1, 5), (1e-15, 0, 0, 0)],
    ids=["descent-refused", "roundoff-kept"],
)
def test_ascent_test_slack(params_n1, monkeypatch, fall, rejected, backtracks, seeded):
    # the first Anderson candidate (the third product) and the product after
    # it are scaled to the quotient D (1 - fall), D that of the iterate the
    # candidate steps from: a fall of 1e-10 is a descent, so the candidate is
    # refused and the map step after it damped once, and the solve then
    # stalls and takes its five image products; one of 1e-15 is roundoff, and
    # the candidate is kept
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    quotients = []
    matvec = KernelMatrix.matvec

    def lowered(self, x):
        y = matvec(self, x)
        if len(quotients) in (2, 3):
            y = y * (quotients[1] * (1.0 - fall) / np.dot(x, y))
        quotients.append(float(np.dot(x, y)))
        return y

    monkeypatch.setattr(KernelMatrix, "matvec", lowered)
    res = solve_subcritical(K, grid, 1.5)
    assert (quotients[1] - quotients[2]) / quotients[1] == pytest.approx(fall, rel=0.5)
    assert res.converged
    assert (res.rejected, res.backtracks, res.seeded) == (rejected, backtracks, seeded)
    assert res.matvecs == len(quotients) == res.iterations + 1 + rejected + backtracks + seeded
    h = res.quotient_history
    assert np.all(np.diff(h) >= -1e-12 * np.abs(h[:-1]))


def test_concentrating_solve_accounts_for_every_product():
    # the 12^3 alpha = 1 endpoint solve of green_model A0 = -0.2 concentrates:
    # it refuses candidates, backtracks and seeds, and each product is one of
    # the start, a kept step, a refused candidate, a damped step or an image. Its
    # path follows the last bits of the product, so its counts and D are not pinned
    params = make_params(1, 1.0)
    grid = sphere_grid(1, (12, 12, 12))
    K = assemble_kernel(grid, _mass_spec(-0.2, 0.0, len(grid)), params)
    res = solve_subcritical(K, grid, default_p_schedule(params)[-1])
    assert res.converged and res.rejected > 0 and res.backtracks > 0 and res.seeded == 5
    assert res.matvecs == 1 + res.iterations + res.rejected + res.backtracks + res.seeded
    h = res.quotient_history
    assert np.all(h[1:] >= h[:-1] - 1e-14 * np.abs(h[:-1]))


def test_solver_validation(params_n1, monkeypatch):
    grid, K = two_node_fixture(params_n1)
    q = params_n1.q_alpha
    for bad_p in (q, 2.0, 2.5, 1.0):
        with pytest.raises(ValueError):
            solve_subcritical(K, grid, bad_p)
    # an infinite tol once reported converged after one iteration; max_iter = 1.5 ran
    # two iterations, and max_iter = inf raised OverflowError; tol = True ran as 1.0,
    # and max_iter = True ran one iteration
    for bad_tol in (0.0, -1.0, np.inf, np.nan, True):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_subcritical(K, grid, 1.5, tol=bad_tol)
    for bad_max_iter in (0, -3, 1.5, 2.0, np.inf, np.nan, True):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            solve_subcritical(K, grid, 1.5, max_iter=bad_max_iter)
    assert solve_subcritical(K, grid, 1.5, max_iter=np.int64(1)).iterations == 1
    with pytest.raises(ValueError):
        solve_subcritical(K, grid, 1.5, f0=np.ones(3))
    with pytest.raises(ValueError):
        solve_subcritical(K, grid, 1.5, f0=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        solve_subcritical(K, grid, 1.5, f0=np.zeros(2))
    for bad in (np.nan, np.inf):  # refused as the warm start, not as some f
        with pytest.raises(ValueError, match="warm start must be finite"):
            solve_subcritical(K, grid, 1.5, f0=[bad, 1.0])
    K0 = KernelMatrix(
        entries=np.zeros((2, 2)),
        spec=KernelSpec("pure_singular"),
        grid=grid,
        params=params_n1,
    )
    with pytest.raises(ValueError, match="no positive entry"):
        solve_subcritical(K0, grid, 1.5)
    K0.entries = np.array([[np.nan, 1.0], [1.0, 0.0]])  # a positive entry beside NaN
    # through dsymv, and through the tile walk that replaces it without the bundled OpenBLAS
    for bundled in (True, False):
        if not bundled:
            monkeypatch.setattr(_blas, "_openblas", lambda: None)
        with pytest.raises(ValueError, match="NaN"):
            solve_subcritical(K0, grid, 1.5)
        # the first product finds a NaN even in a column the warm start zeroes: 0 * NaN is NaN
        with pytest.raises(ValueError, match="NaN"):
            solve_subcritical(K0, grid, 1.5, f0=np.array([0.0, 1.0]))


def test_solver_refuses_nan_in_upper_triangle(params_n1):
    # a product reads the upper triangle only: a NaN there is found on every
    # row and column, also where the warm start is zero (0 * NaN is NaN)
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    N = len(grid)
    for i, j in ((0, 0), (0, N - 1), (N // 2, N - 1), (N - 1, N - 1), (3, 4)):
        entries = K.entries.copy()
        entries[i, j] = np.nan
        bad = KernelMatrix(entries, K.spec, grid, params_n1)
        f0 = np.ones(N)
        f0[[i, j]] = 0.0
        for start in (None, f0):
            with pytest.raises(ValueError, match="NaN"):
                solve_subcritical(bad, grid, 1.5, f0=start)


def test_float32_request_solves_as_float64_at_every_size(params_n1):
    # kernels are stored only as float64: a float32 request gives the
    # matrix-free operator, which the solver densifies into the same entries
    for m in (4, 6):
        grid = sphere_grid(1, (m, m, m))
        K32 = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1, dtype=np.float32)
        K64 = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1, dtype=np.float64)
        assert K32.entries is None and K64.entries is not None
        r32, r64 = (solve_subcritical(K, grid, 1.5) for K in (K32, K64))
        assert r32.D_estimate == r64.D_estimate
        assert r32.iterations == r64.iterations
        assert np.array_equal(r32.f, r64.f)


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
    assert not res.converged and res.stop_reason == "max_iter"
    assert res.iterations == 2


def test_default_p_schedule(params_n1):
    sched = default_p_schedule(params_n1)
    q = params_n1.q_alpha
    assert sched[-1] == pytest.approx(q + 1e-3, abs=1e-15)
    assert all(b < a for a, b in zip(sched, sched[1:]))
    assert all(q < p < 2.0 for p in sched)
    # at alpha = 0.01 the window is 0.005 wide: of its fractions 0.7, 0.4,
    # 0.175 and 0.04, the last two fall below the endpoint and are dropped
    narrow = make_params(1, 0.01)
    q = narrow.q_alpha
    short = default_p_schedule(narrow)
    assert short[:-1] == [q + (2.0 - q) * fr for fr in (0.7, 0.4)]
    assert short[-1] == pytest.approx(q + 1e-3, abs=1e-15)
    # a window narrower than the endpoint offset has no default schedule
    with pytest.raises(ValueError, match="narrower"):
        default_p_schedule(make_params(1, 0.001))


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


def _chain(K, grid, schedule):
    runs, f_warm = [], None
    for p in schedule:
        runs.append(solve_subcritical(K, grid, p, f0=f_warm))
        f_warm = runs[-1].f
    return runs


@pytest.mark.parametrize(
    "alpha, resolution, A0",
    [(1.0, (8, 8, 8), 0.0), (2.0, (8, 8, 8), 0.0), (3.0, (8, 8, 8), 0.0), (2.0, (8, 6, 8), 0.5)],
    ids=["alpha1-8^3", "alpha2-8^3", "alpha3-8^3", "green_model-0.5"],
)
def test_continuation_is_its_chain_of_warm_started_solves(alpha, resolution, A0):
    # each stage equals solve_subcritical from the previous stage's f, bit for bit
    # in D, f, residual and iterations; the continuation takes the kernel's images
    # once, in its first stage that stalls, where the chain takes them in every
    # stalled solve: only matvecs and seeded differ
    params = make_params(1, alpha)
    grid = sphere_grid(1, resolution)
    spec = _mass_spec(A0, 0.0, len(grid)) if A0 else KernelSpec("pure_singular")
    K = assemble_kernel(grid, spec, params)
    schedule = default_p_schedule(params)
    runs, chain = continuation(K, grid, schedule), _chain(K, grid, schedule)
    for k, (a, b) in enumerate(zip(runs, chain, strict=True)):
        assert a.converged and b.converged
        assert a.D_estimate == b.D_estimate, f"stage {k}"
        assert a.f.tobytes() == b.f.tobytes(), f"stage {k}"
        assert (a.residual, a.iterations) == (b.residual, b.iterations), f"stage {k}"
        assert a.matvecs - a.seeded == b.matvecs - b.seeded, f"stage {k}"
    stalled = [k for k, b in enumerate(chain) if b.seeded]
    assert all(b.seeded == 5 for b in chain if b.seeded)
    if A0:  # a positive mass never stalls
        assert stalled == [] and all(a.seeded == 0 for a in runs)
    else:  # the later stalled stages take no product of their own
        assert len(stalled) >= 2
        assert [a.seeded for a in runs] == [5 if k == stalled[0] else 0 for k in range(len(runs))]


def test_continuation_validation(params_n1, monkeypatch):
    grid, K = two_node_fixture(params_n1)
    with pytest.raises(ValueError):
        continuation(K, grid, [])
    with pytest.raises(ValueError):
        continuation(K, grid, [1.8, 1.8])
    with pytest.raises(ValueError):
        continuation(K, grid, [1.5, 1.7])
    with pytest.raises(ValueError):
        continuation(K, grid, [1.8, 2.1])
    # the arguments of the solves are refused before the matrix-free operator is
    # densified, not after the dense kernel is built
    densified = []
    monkeypatch.setattr(KernelMatrix, "densified", lambda self: densified.append(self) or self)
    grid = sphere_grid(1, (6, 6, 6))
    K = KernelMatrix(None, KernelSpec("pure_singular"), grid, params_n1)
    for bad in ({"tol": -1.0}, {"tol": np.inf}, {"max_iter": 0}, {"max_iter": 1.5},
                {"max_iter": np.inf}):
        with pytest.raises(ValueError, match="tol must be|max_iter must be"):
            continuation(K, grid, [1.8, 1.7], **bad)
    assert densified == []


def test_solve_refuses_every_argument_before_densify(params_n1, monkeypatch):
    # a wrong-shape warm start was refused only after the densify: at 32^3 the caller
    # read that a dense kernel needs 8.0 GiB rather than the f0 message
    densified = []
    monkeypatch.setattr(KernelMatrix, "densified", lambda self: densified.append(self) or self)
    grid = sphere_grid(1, (6, 6, 6))
    K = KernelMatrix(None, KernelSpec("pure_singular"), grid, params_n1)
    N, q = len(grid), params_n1.q_alpha
    spike = np.zeros(N)
    spike[5] = 1.0
    cases = [
        ({"f0": np.ones(3)}, rf"f0 must have shape \({N},\), got \(3,\)"),
        ({"f0": np.where(spike > 0, np.nan, 1.0)}, "warm start must be finite"),
        ({"f0": spike - 0.5 * np.roll(spike, 1)}, "warm start must be finite, nonnegative"),
        ({"f0": np.zeros(N)}, "not identically zero"),
        ({"p": q}, "outside the subcritical window"),
        ({"p": 2.0}, "outside the subcritical window"),
        ({"tol": 0.0}, "tol must be finite and positive"),
        ({"tol": np.nan}, "tol must be finite and positive"),
        ({"max_iter": 0}, "max_iter must be an integer"),
        ({"max_iter": 2.0}, "max_iter must be an integer"),
    ]
    for bad, message in cases:
        kwargs = {"p": 1.5, **bad}
        with pytest.raises(ValueError, match=message):
            solve_subcritical(K, grid, **kwargs)
    assert densified == []


class _ProtocolKernel:
    """The kernel protocol and nothing more: grid, params, len, matvec and a
    densified() that returns the operator itself; it wraps a KernelMatrix."""

    def __init__(self, K):
        self.grid, self.params, self._K = K.grid, K.params, K

    def __len__(self):
        return len(self._K)

    def matvec(self, x):
        return self._K.matvec(x)

    def densified(self):
        return self


def test_any_operator_of_the_kernel_protocol_gives_the_kernels_bits(params_n1):
    # the solver and the identity checks read a kernel only through the
    # protocol of the solver's module docstring, so any other operator of it,
    # a spectral one say, plugs in with no type switch
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    op = _ProtocolKernel(K)
    f, g = np.random.default_rng(20261022).uniform(0.5, 1.5, (2, len(K)))
    schedule = default_p_schedule(params_n1)
    pairs = [(solve_subcritical(K, grid, 1.5), solve_subcritical(op, grid, 1.5))]
    pairs += zip(continuation(K, grid, schedule), continuation(op, grid, schedule))
    for a, b in pairs:
        assert (a.D_estimate, a.residual, a.iterations, a.matvecs, a.seeded) == (
            b.D_estimate, b.residual, b.iterations, b.matvecs, b.seeded
        )
        assert np.array_equal(a.f, b.f)
    assert bilinear_form(op, f, g) == bilinear_form(K, f, g)
    assert rayleigh_quotient(op, f, 1.5) == rayleigh_quotient(K, f, 1.5)
    for check, args in [(conformal_covariance_check, (f, g)), (curvature_equation_residual, (f,))]:
        assert check(op, grid, *args, params_n1) == check(K, grid, *args, params_n1)
    op.row_power_sums = K.row_power_sums  # young_bound reads one more method
    assert young_bound(op, grid, 1.2) == young_bound(K, grid, 1.2)
