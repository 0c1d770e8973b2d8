"""Group operations, gauge norm, dilations, and the model extremal."""

import numpy as np
import pytest

from crhls.core import make_params
from crhls.heisenberg import (
    HPoint,
    dilate,
    extremal_H,
    extremal_family,
    gauge_dist_sq,
    group_inv,
    group_mul,
    hdist,
    hnorm,
)


def random_point(rng, n=1, scale=2.0):
    z = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return HPoint(z, scale * float(rng.standard_normal()))


def test_hpoint_validation():
    p = HPoint([1.0 + 2.0j], 0.5)
    assert p.n == 1
    assert p.t == 0.5
    with pytest.raises(ValueError):
        HPoint(np.zeros((2, 2)), 0.0)


def test_group_identity_and_inverse():
    rng = np.random.default_rng(0)
    e = HPoint(np.zeros(1), 0.0)
    for _ in range(30):
        u = random_point(rng)
        lu = group_mul(e, u)
        ru = group_mul(u, e)
        assert np.allclose(lu.z, u.z) and lu.t == pytest.approx(u.t)
        assert np.allclose(ru.z, u.z) and ru.t == pytest.approx(u.t)
        w = group_mul(group_inv(u), u)
        assert np.allclose(w.z, 0.0, atol=1e-14)
        assert w.t == pytest.approx(0.0, abs=1e-12)


def test_group_associativity():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        for _ in range(20):
            u, v, w = (random_point(rng, n) for _ in range(3))
            a = group_mul(group_mul(u, v), w)
            b = group_mul(u, group_mul(v, w))
            assert np.allclose(a.z, b.z, rtol=1e-13, atol=1e-13)
            assert a.t == pytest.approx(b.t, rel=1e-12, abs=1e-12)


def test_group_mul_noncommutative():
    u = HPoint([1.0 + 0.0j], 0.0)
    v = HPoint([0.0 + 1.0j], 0.0)
    uv = group_mul(u, v)
    vu = group_mul(v, u)
    assert uv.t != pytest.approx(vu.t)


def test_group_dimension_mismatch():
    with pytest.raises(ValueError):
        group_mul(HPoint([1.0], 0.0), HPoint([1.0, 2.0], 0.0))


def test_hnorm_values_and_homogeneity():
    assert hnorm(HPoint([0.0], 0.0)) == 0.0
    assert hnorm(HPoint([1.0], 0.0)) == pytest.approx(1.0)
    assert hnorm(HPoint([0.0], 1.0)) == pytest.approx(1.0)
    assert hnorm(HPoint([1.0], 1.0)) == pytest.approx(2.0 ** 0.25)
    rng = np.random.default_rng(2)
    for _ in range(40):
        u = random_point(rng)
        r = float(rng.uniform(0.1, 5.0))
        assert hnorm(dilate(r, u)) == pytest.approx(r * hnorm(u), rel=1e-12)


def test_dilate_group_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(25):
        u, v = random_point(rng), random_point(rng)
        r = float(rng.uniform(0.2, 3.0))
        a = dilate(r, group_mul(u, v))
        b = group_mul(dilate(r, u), dilate(r, v))
        assert np.allclose(a.z, b.z, rtol=1e-13)
        assert a.t == pytest.approx(b.t, rel=1e-12, abs=1e-13)
    with pytest.raises(ValueError):
        dilate(0.0, HPoint([1.0], 0.0))


def test_hdist_left_invariance():
    rng = np.random.default_rng(4)
    for _ in range(30):
        u, v, w = (random_point(rng) for _ in range(3))
        d0 = hdist(u, v)
        d1 = hdist(group_mul(w, u), group_mul(w, v))
        assert d1 == pytest.approx(d0, rel=1e-10, abs=1e-12)


def test_hdist_dilation_covariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        u, v = random_point(rng), random_point(rng)
        r = float(rng.uniform(0.1, 4.0))
        assert hdist(dilate(r, u), dilate(r, v)) == pytest.approx(r * hdist(u, v), rel=1e-11)


def test_hdist_diagonal_zero():
    rng = np.random.default_rng(6)
    u = random_point(rng)
    assert hdist(u, u) == pytest.approx(0.0, abs=1e-12)


def test_hdist_symmetric_and_zero_on_diagonal():
    # the gauge norm is invariant under the group inverse (-z, -t), so
    # |u^{-1} v| = |(v^{-1} u)^{-1}| = |v^{-1} u|
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for _ in range(20):
            u, v = random_point(rng, n), random_point(rng, n)
            assert hdist(u, v) == pytest.approx(hdist(v, u), rel=1e-12)
            assert hdist(u, u) == 0.0


def test_gauge_dist_sq_shapes_match_pointwise():
    rng = np.random.default_rng(10)
    for n in (1, 2):
        pts = [random_point(rng, n) for _ in range(5)]
        z = np.array([p.z for p in pts])
        t = np.array([p.t for p in pts])
        block = gauge_dist_sq(z[:3], t[:3], z, t)
        assert block.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert block[i, j] == pytest.approx(hdist(pts[i], pts[j]) ** 2, rel=1e-14)
        assert np.allclose(gauge_dist_sq(z, t, z[1], t[1]), block[1], rtol=1e-14, atol=1e-15)
        assert gauge_dist_sq(z[0], t[0], z[2:], t[2:]).shape == (3,)
        assert gauge_dist_sq(z[0], t[0], z[1], t[1]).shape == ()
        assert gauge_dist_sq(z[0], t[0], 0.0 * z[0], 0.0) == pytest.approx(hnorm(pts[0]) ** 2)


def test_extremal_H_peak_and_decay():
    p = make_params(1, 2.0)
    e = HPoint(np.zeros(1), 0.0)
    assert extremal_H(e, p) == pytest.approx(1.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = random_point(rng)
        assert extremal_H(u, p) < 1.0
    # decay exponent: H ~ hnorm^{-(Q+alpha)} far out
    far = HPoint([100.0 + 0.0j], 0.0)
    ratio = extremal_H(far, p) * hnorm(far) ** (p.Q + p.alpha)
    assert ratio == pytest.approx(1.0, rel=1e-3)


def test_extremal_H_dimension_guard():
    p = make_params(2, 2.0)
    with pytest.raises(ValueError):
        extremal_H(HPoint([1.0], 0.0), p)


def test_extremal_family_scaling_identity():
    p = make_params(1, 2.0)
    rng = np.random.default_rng(8)
    for _ in range(25):
        u = random_point(rng)
        eps = float(rng.uniform(0.1, 3.0))
        expect = eps ** (-0.5 * (p.Q + p.alpha)) * extremal_H(dilate(1.0 / eps, u), p)
        assert extremal_family(eps, u, p) == pytest.approx(expect, rel=1e-13)
    assert extremal_family(1.0, HPoint(np.zeros(1), 0.0), p) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        extremal_family(0.0, HPoint([1.0], 0.0), p)


def test_extremal_family_refuses_eps_beyond_the_float_range():
    # at alpha = 2 on H^1 the peak is eps^-3: finite at 1e-102, beyond the float range at
    # 1e-103; the scale eps^2 is finite at 1e154 and not at 1e155
    p = make_params(1, 2.0)
    origin = HPoint(np.zeros(1), 0.0)
    assert extremal_family(1e-102, origin, p) == 1e-102**-3.0
    assert extremal_family(1e154, origin, p) == 0.0  # the peak underflows
    with pytest.raises(ValueError, match=r"eps = 1e-103 is out of range: the peak eps\^\{-\(Q\+alpha\)/2\}"):
        extremal_family(1e-103, origin, p)
    with pytest.raises(ValueError, match=r"eps = 1e\+155 is out of range: eps\^2 overflows"):
        extremal_family(1e155, origin, p)
