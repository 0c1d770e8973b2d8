"""End-to-end acceptance checks.

One check per shipped guarantee, each printing a single
"criterion N (label): PASS/FAIL (details)" line before asserting, so a
full run reads as a nine-line scorecard. The sphere quotient that two
checks share is computed once per session.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from crhls.core import make_params, sharp_constant_DH
from crhls.discretization import KernelSpec, assemble_kernel, sphere_grid
from crhls.experiments import (
    conformal_covariance_check,
    eps_invariance_experiment,
    mass_perturbation_experiment,
)
from crhls.functional import (
    lp_norm,
    rayleigh_quotient,
    tail_integral_I1,
    young_bound,
)
from crhls.solver import continuation, default_p_schedule, solve_subcritical
from conftest import random_sphere_kernel, symmetric, two_node_fixture


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@pytest.fixture(scope="module")
def sphere_quotient_32():
    """Constant-function quotient on the 32^3 sphere rule, matrix-free operator.

    The constant is the exact critical extremal on the sphere, so the
    quotient approaches the sharp constant from below under refinement.
    Shared by the sharpness and continuation-limit checks.
    """
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (32, 32, 32))
    t0 = time.perf_counter()
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    quotient = rayleigh_quotient(K, np.ones(len(grid)), params.q_alpha)
    return quotient, len(grid), time.perf_counter() - t0


def test_criterion_1_sharp_constant(tmp_path):
    t0 = time.perf_counter()
    # The checkout's CLI through `python -m crhls`, not a launcher looked up on
    # PATH: this criterion checks the constant; the console script has its own test.
    proc = subprocess.run(
        [sys.executable, "-m", "crhls", "constants", "--n", "1", "--alpha", "2", "--output", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    runtime = time.perf_counter() - t0
    if proc.returncode != 0:
        stderr_tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        _report(1, "sharp constant", False, f"exit code {proc.returncode}, {runtime:.2f} s, stderr: {stderr_tail}")
    assert proc.returncode == 0
    with open(tmp_path / "constants.json") as fh:
        value = json.load(fh)["results"]["sharp_constant"]
    rel_err = abs(value - 8.0) / 8.0
    ok = proc.returncode == 0 and rel_err <= 1e-12 and runtime < 1.0
    _report(1, "sharp constant", ok, f"value {value!r}, rel err {rel_err:.2e}, {runtime:.2f} s")
    assert ok


def test_criterion_2_sphere_sharpness(sphere_quotient_32):
    quotient, n_nodes, seconds = sphere_quotient_32
    ok = n_nodes >= 32**3 and 7.84 <= quotient <= 8.00
    _report(
        2,
        "sphere sharpness at desk scale",
        ok,
        f"quotient {quotient:.6f} on {n_nodes} nodes in [7.84, 8.00], {seconds:.0f} s",
    )
    assert ok


def test_criterion_3_tail_scaling_law():
    params = make_params(1, 2.0)
    ratios = np.array([8.0, 16.0, 32.0, 64.0])
    vals = np.array([tail_integral_I1(1.0, R, params, (14, 10, 14)) for R in ratios])
    slope = float(np.polyfit(np.log(ratios), np.log(vals), 1)[0])
    ok = abs(slope + params.Q) <= 0.10 * params.Q
    _report(3, "tail scaling law", ok, f"log-log slope {slope:.4f}, target -4 within 10%")
    assert ok


def test_criterion_4_eps_invariance():
    params = make_params(1, 2.0)
    res = eps_invariance_experiment([0.05, 0.1, 0.2], 50.0, (12, 8, 12), params)
    ok = res.spread_rel <= 0.01
    _report(4, "eps-invariance of extremal norms", ok, f"relative spread {res.spread_rel:.2e} <= 1e-2")
    assert ok


def test_criterion_5_subcritical_oracle():
    params = make_params(1, 2.0)
    grid, K = two_node_fixture(params)
    res = solve_subcritical(K, grid, 1.5)
    fixture_err = abs(res.D_estimate - 2.0 ** (-1.0 / 3.0))
    fixture_ok = res.converged and fixture_err <= 1e-6

    rng = np.random.default_rng(20260815)
    q = params.q_alpha
    worst = 0.0
    solved = 0
    for trial in range(25):
        n_nodes = int(rng.integers(2, 5))
        g, Kr = random_sphere_kernel(n_nodes, 0.4, rng, params)
        p = float(rng.uniform(q + 0.01, 1.95))
        out = solve_subcritical(Kr, g, p)
        solved += out.converged

        def neg(u, Kr=Kr, p=p):
            return -rayleigh_quotient(Kr, np.exp(u), p)

        brute = -np.inf
        for _ in range(6):
            trial_out = minimize(
                neg,
                rng.normal(scale=1.5, size=n_nodes),
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 20000},
            )
            brute = max(brute, -trial_out.fun)
        worst = max(worst, abs(out.D_estimate - brute) / brute)
    ok = fixture_ok and solved == 25 and worst <= 1e-3
    _report(
        5,
        "subcritical oracle equivalence",
        ok,
        f"fixture err {fixture_err:.2e} <= 1e-6, {solved}/25 random solves, worst rel dev {worst:.2e} <= 1e-3",
    )
    assert ok


def test_criterion_6_continuation_limit(sphere_quotient_32):
    target = sphere_quotient_32[0]
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (12, 12, 12))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    runs = continuation(K, grid, default_p_schedule(params))
    endpoint = runs[-1].D_estimate
    rel_gap = abs(endpoint - target) / target
    ok = all(r.converged for r in runs) and rel_gap <= 0.03
    _report(
        6,
        "continuation limit",
        ok,
        f"endpoint {endpoint:.6f} at p = q_alpha + 1e-3 vs {target:.6f}, gap {rel_gap:.2%} <= 3%",
    )
    assert ok


def test_criterion_7_positive_mass_strict_inequality():
    records = mass_perturbation_experiment((0.5, 1.0, 2.0), 0.0, 2.0, (8, 6, 8))
    deltas = [res.delta for res in records]
    converged = all(res.all_converged for res in records)
    positive = all(d > 0.0 for d in deltas)
    nondecreasing = all(b >= a for a, b in zip(deltas, deltas[1:]))
    ok = converged and positive and nondecreasing
    _report(
        7,
        "positive-mass strict inequality",
        ok,
        "deltas " + ", ".join(f"{d:.4f}" for d in deltas) + " positive and nondecreasing",
    )
    assert ok


def test_criterion_8_conformal_covariance():
    params = make_params(1, 2.0)
    rng = np.random.default_rng(8)
    grid, K = random_sphere_kernel(50, 0.2, rng, params)
    worst = 0.0
    for _ in range(100):
        phi = np.exp(rng.uniform(-0.7, 0.7, len(grid)))
        u = rng.standard_normal(len(grid))
        worst = max(worst, conformal_covariance_check(K, grid, phi, u, params))
    ok = worst <= 1e-10
    _report(8, "conformal covariance", ok, f"max residual {worst:.2e} <= 1e-10 over 100 pairs")
    assert ok


def test_criterion_9_young_bound():
    params = make_params(1, 2.0)
    rng = np.random.default_rng(9)
    violations = 0
    worst_ratio = 0.0
    for _ in range(100):
        n_nodes = int(rng.integers(5, 13))
        grid, K = random_sphere_kernel(n_nodes, 0.25, rng, params)
        r = float(rng.uniform(1.2, 2.5))
        # keep 1/q >= 0.05 so |f|^q stays inside float range
        inv_p = float(rng.uniform(1.0 - 1.0 / r + 0.05, 1.0))
        p = 1.0 / inv_p
        qq = 1.0 / (inv_p + 1.0 / r - 1.0)
        C = young_bound(K, grid, r)
        f = rng.normal(size=len(grid))
        E = symmetric(K.entries)
        lhs = lp_norm(E @ (f * grid.weights), grid, qq)
        rhs = C * lp_norm(f, grid, p)
        worst_ratio = max(worst_ratio, lhs / rhs)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    ok = violations == 0
    _report(
        9,
        "Young-type operator bound",
        ok,
        f"{violations}/100 violations, worst lhs/rhs {worst_ratio:.3f}",
    )
    assert ok
