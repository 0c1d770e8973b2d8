"""Dimensional bookkeeping, the closed-form sharp constant and the sphere kernel's eigenvalues."""

import math

import numpy as np
import pytest

from crhls.core import make_params, sharp_constant_DH, sphere_kernel_eigenvalue


def test_make_params_basic():
    p = make_params(1, 2.0)
    assert p.n == 1
    assert p.Q == 4
    assert p.alpha == 2.0
    assert p.p_alpha == pytest.approx(4.0, rel=0, abs=0)
    assert p.q_alpha == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert p.b_n == pytest.approx(4.0, rel=0, abs=0)


def test_make_params_exponent_duality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        Q = 2 * n + 2
        alpha = float(rng.uniform(0.05, Q - 0.05))
        p = make_params(n, alpha)
        assert p.Q == Q
        # duality: 1/q - 1/p = alpha/Q
        assert 1.0 / p.q_alpha - 1.0 / p.p_alpha == pytest.approx(alpha / Q, rel=1e-12)
        # conjugate pair around 2: 1/q + 1/p' with p' = p/(p-1)
        assert p.q_alpha == pytest.approx(p.p_alpha / (p.p_alpha - 1.0), rel=1e-12)
        assert p.b_n == pytest.approx(2.0 * Q / (Q - 2.0), rel=1e-12)
        assert p.q_alpha < 2.0 < p.p_alpha


def test_make_params_rejects_bad_n():
    for bad in (0, -1, True, 1.5, "2"):
        with pytest.raises(ValueError):
            make_params(bad, 1.0)


def test_make_params_rejects_bad_alpha():
    with pytest.raises(ValueError):
        make_params(1, 0.0)
    with pytest.raises(ValueError):
        make_params(1, 4.0)
    with pytest.raises(ValueError):
        make_params(1, -1.0)
    with pytest.raises(ValueError):
        make_params(2, 6.0)


def test_params_frozen():
    p = make_params(1, 2.0)
    with pytest.raises(Exception):
        p.alpha = 3.0


def test_sharp_constant_closed_form_n1_alpha2():
    # (2 pi)^{(Q-alpha)/2} n! Gamma(alpha/2) / Gamma((Q+alpha)/4)^2 = 8 here
    p = make_params(1, 2.0)
    assert sharp_constant_DH(p) == pytest.approx(8.0, rel=1e-12)


def test_sharp_constant_general_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        Q = 2 * n + 2
        alpha = float(rng.uniform(0.1, Q - 0.1))
        p = make_params(n, alpha)
        # direct product of gammas, independent of the log-space evaluation
        expect = (
            (2.0 * math.pi) ** (0.5 * (Q - alpha))
            * math.factorial(n)
            * math.gamma(0.5 * alpha)
            / math.gamma(0.25 * (Q + alpha)) ** 2
        )
        assert sharp_constant_DH(p) == pytest.approx(expect, rel=1e-12)


def test_sharp_constant_out_of_float_range():
    # the constant grows like n!; it passes the largest float at n = 282
    assert math.isfinite(sharp_constant_DH(make_params(281, 2.0)))
    for n in (282, 400):
        with pytest.raises(ValueError, match=f"n = {n}, alpha = 2.0"):
            sharp_constant_DH(make_params(n, 2.0))


def test_sharp_constant_alpha_limits_n1():
    # alpha -> Q: every factor tends to n! Gamma(Q/2) / Gamma(Q/2)^2 = 1 at n = 1
    assert sharp_constant_DH(make_params(1, 3.999999)) == pytest.approx(1.0, rel=1e-4)
    # alpha -> 0: Gamma(alpha/2) diverges, and D_H decreases in between
    vals = [sharp_constant_DH(make_params(1, a)) for a in (0.2, 1.0, 2.0, 3.0, 3.8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] > 100.0


def test_sphere_kernel_eigenvalue_of_the_conformal_directions():
    # E_{1,0} / E_{0,0} = a / b = (Q - alpha)/(Q + alpha) = q_alpha - 1
    for alpha in (1.0, 2.0, 3.0):
        p = make_params(1, alpha)
        for jk in ((1, 0), (0, 1)):
            assert sphere_kernel_eigenvalue(*jk, p) == pytest.approx(p.q_alpha - 1.0, abs=1e-15)
        assert sphere_kernel_eigenvalue(0, 0, p) == 1.0


def test_sphere_kernel_eigenvalue_closed_form():
    # at n = 1, alpha = 2: a = 1/2 and b = 3/2, so (a)_j / (b)_j = 1 / (2 j + 1)
    p = make_params(1, 2.0)
    for (j, k), value in (((2, 0), 1 / 5), ((1, 1), 1 / 9), ((2, 1), 1 / 15), ((3, 2), 1 / 35)):
        assert sphere_kernel_eigenvalue(j, k, p) == pytest.approx(value, rel=1e-14)
        assert sphere_kernel_eigenvalue(k, j, p) == sphere_kernel_eigenvalue(j, k, p)
    # each added degree scales by (a + m) / (b + m) < 1
    ladder = [sphere_kernel_eigenvalue(j, 0, make_params(2, 1.5)) for j in range(6)]
    assert all(b < a for a, b in zip(ladder, ladder[1:]))
    for bad in (-1, 1.0, True, "1"):
        with pytest.raises(ValueError, match="j must be a nonnegative integer"):
            sphere_kernel_eigenvalue(bad, 0, p)
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            sphere_kernel_eigenvalue(0, bad, p)
