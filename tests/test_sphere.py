"""Cayley transform, CR chordal distance, and the intertwining identity."""

import math

import numpy as np
import pytest

from crhls.core import make_params
from crhls.discretization import cylinder_grid, sphere_extremal_values, sphere_grid
from crhls.heisenberg import HPoint, hdist, hnorm
from crhls.sphere import (
    SpherePoint,
    _cayley,
    _cayley_inv,
    cayley,
    cayley_inv,
    cayley_jacobian,
    sphere_dist,
    sphere_dist_sq,
    sphere_extremal,
)


def random_hpoint(rng, n=1, scale=1.5):
    z = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return HPoint(z, scale * float(rng.standard_normal()))


def random_sphere_point(rng, n=1):
    v = rng.standard_normal(2 * (n + 1))
    return SpherePoint(v[: n + 1] + 1j * v[n + 1 :])


def test_sphere_point_normalized():
    p = SpherePoint([3.0, 4.0j])
    assert np.linalg.norm(p.xi) == pytest.approx(1.0, rel=1e-15)
    assert p.n == 1
    with pytest.raises(ValueError):
        SpherePoint([0.0, 0.0])
    with pytest.raises(ValueError):
        SpherePoint([1.0])


def test_sphere_dist_axioms():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b = random_sphere_point(rng), random_sphere_point(rng)
        dab = sphere_dist(a, b)
        assert dab == pytest.approx(sphere_dist(b, a), rel=1e-15)
        assert dab >= 0.0
        assert sphere_dist(a, a) == pytest.approx(0.0, abs=1e-7)
    north = SpherePoint([0.0, 1.0])
    south = SpherePoint([0.0, -1.0])
    assert sphere_dist(north, south) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(ValueError):
        sphere_dist(north, SpherePoint([0.0, 0.0, 1.0]))


def test_sphere_dist_sq_shapes_match_pointwise():
    rng = np.random.default_rng(4)
    pts = [random_sphere_point(rng) for _ in range(5)]
    xi = np.array([p.xi for p in pts])
    block = sphere_dist_sq(xi[:3], xi)
    assert block.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            expected = sphere_dist(pts[i], pts[j]) ** 2
            assert block[i, j] == pytest.approx(expected, rel=1e-14, abs=1e-15)
    assert np.allclose(sphere_dist_sq(xi, xi[1]), block[1], rtol=1e-14, atol=1e-15)
    assert sphere_dist_sq(xi[0], xi[2:]).shape == (3,)
    assert sphere_dist_sq(xi[0], xi[1]).shape == ()


def test_cayley_image_is_unit_and_origin_maps_north():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        for _ in range(20):
            u = random_hpoint(rng, n)
            xi = cayley(u).xi
            assert np.linalg.norm(xi) == pytest.approx(1.0, rel=1e-14)
        e = HPoint(np.zeros(n), 0.0)
        north = cayley(e).xi
        assert np.allclose(north[:-1], 0.0)
        assert north[-1] == pytest.approx(1.0)


def test_cayley_round_trip():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        for _ in range(30):
            u = random_hpoint(rng, n)
            v = cayley_inv(cayley(u))
            assert np.allclose(v.z, u.z, rtol=1e-12, atol=1e-13)
            assert v.t == pytest.approx(u.t, rel=1e-11, abs=1e-12)
        for _ in range(30):
            p = random_sphere_point(rng, n)
            q = cayley(cayley_inv(p))
            assert np.allclose(q.xi, p.xi, rtol=1e-11, atol=1e-12)


def test_cayley_inv_pole_guard():
    with pytest.raises(ValueError):
        cayley_inv(SpherePoint([0.0, -1.0]))


def test_cayley_inv_rows_match_pointwise():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        pts = [random_sphere_point(rng, n) for _ in range(6)]
        z, t = _cayley_inv(np.array([p.xi for p in pts]))
        assert z.shape == (6, n) and t.shape == (6,)
        for k, p in enumerate(pts):
            u = cayley_inv(p)
            assert np.array_equal(z[k], u.z) and t[k] == u.t
    with pytest.raises(ValueError, match="south pole"):
        _cayley_inv(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def test_cayley_rows_match_pointwise():
    rng = np.random.default_rng(6)
    for n in (1, 2):
        pts = [random_hpoint(rng, n) for _ in range(6)]
        xi = _cayley(np.array([u.z for u in pts]), np.array([u.t for u in pts]))
        assert xi.shape == (6, n + 1)
        for k, u in enumerate(pts):
            assert np.array_equal(xi[k], _cayley(u.z, u.t))
            assert np.array_equal(SpherePoint(xi[k]).xi, cayley(u).xi)


def test_cayley_round_trip_on_rows():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        z = 1.5 * (rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n)))
        t = 1.5 * rng.standard_normal(40)
        z_back, t_back = _cayley_inv(_cayley(z, t))
        assert z_back.shape == (40, n) and t_back.shape == (40,)
        assert np.allclose(z_back, z, rtol=1e-12, atol=1e-13)
        assert np.allclose(t_back, t, rtol=1e-11, atol=1e-12)


def test_cayley_jacobian_formula_and_decay():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        for _ in range(20):
            u = random_hpoint(rng, n)
            zz = float(np.real(np.vdot(u.z, u.z)))
            expect = 2.0 ** (2 * n + 1) / ((1.0 + zz) ** 2 + u.t**2) ** (n + 1)
            assert cayley_jacobian(u) == pytest.approx(expect, rel=1e-13)
    # decay ~ hnorm^{-2Q}
    u = HPoint([50.0 + 0.0j], 0.0)
    val = cayley_jacobian(u) * hnorm(u) ** (2 * 4)
    assert val == pytest.approx(2.0**3, rel=1e-2)


def test_distance_intertwining_identity():
    # d_S(Cu, Cv)^2 |w_u| |w_v| = 4 |u v^{-1}|^2 with w = 1 + |z|^2 + it.
    # The right quotient |u v^{-1}| carries the identity; the left-invariant
    # hdist = |v^{-1} u| is a conjugate element with a different gauge norm.
    from crhls.heisenberg import group_inv, group_mul, hnorm

    rng = np.random.default_rng(4)
    for n in (1, 2):
        for _ in range(40):
            u, v = random_hpoint(rng, n), random_hpoint(rng, n)
            wu = abs(complex(1.0 + float(np.real(np.vdot(u.z, u.z))), u.t))
            wv = abs(complex(1.0 + float(np.real(np.vdot(v.z, v.z))), v.t))
            lhs = sphere_dist(cayley(u), cayley(v)) ** 2 * wu * wv
            rhs = 4.0 * hnorm(group_mul(u, group_inv(v))) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_sphere_extremal_poisson_normalization():
    # Poisson-Szego normalization on S^3: f^{q_alpha} = |1 - conj(a) . xi|^{-Q}
    # has mean (1 - |a|^2)^{-2} over the sphere, whatever alpha is
    grid = sphere_grid(1, (12, 12, 12))
    poles = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5j], [0.3, -0.4], [0.2 + 0.1j, -0.3j]]
    for alpha in (1.0, 2.0, 3.0):
        params = make_params(1, alpha)
        for a in poles:
            f = sphere_extremal_values(grid, a, params)
            mean = np.dot(grid.weights, f**params.q_alpha) / grid.total_weight
            assert mean == pytest.approx((1.0 - np.vdot(a, a).real) ** -2, rel=2e-3)


def test_sphere_extremal_values_match_pointwise():
    grid = sphere_grid(1, (4, 4, 4))
    a = [0.3 - 0.1j, 0.2j]
    for alpha in (1.0, 2.0):
        params = make_params(1, alpha)
        vals = sphere_extremal_values(grid, a, params)
        for i in range(0, len(grid), 7):
            expected = sphere_extremal(SpherePoint(grid.xi[i]), a, params)
            assert vals[i] == pytest.approx(expected, rel=1e-14)


def test_sphere_extremal_validation():
    p1, p2 = make_params(1, 2.0), make_params(2, 2.0)
    grid = sphere_grid(1, (4, 4, 4))
    north = SpherePoint([0.0, 1.0])
    assert sphere_extremal(north, [0.0, 0.0], p1) == 1.0
    # the pole has n + 1 components and lies strictly inside the unit ball
    for bad_pole in ([0.1, 0.2, 0.3], [0.6, 0.8], [1.0, 0.0]):
        with pytest.raises(ValueError, match="pole"):
            sphere_extremal(north, bad_pole, p1)
        with pytest.raises(ValueError, match="pole"):
            sphere_extremal_values(grid, bad_pole, p1)
    # the points live on S^{2n+1} for the n of params
    for pole in ([0.0, 0.5], [0.0, 0.0, 0.5]):
        with pytest.raises(ValueError, match="params have n = 2"):
            sphere_extremal(north, pole, p2)
        with pytest.raises(ValueError, match="params have n = 2"):
            sphere_extremal_values(grid, pole, p2)
    with pytest.raises(ValueError, match="sphere grid"):
        sphere_extremal_values(cylinder_grid(1.0, (4, 4, 4), p1), [0.0, 0.0], p1)
