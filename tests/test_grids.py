"""Quadrature grids: measures, dilation covariance, node arrays, kernel rebuilds."""

import math

import numpy as np
import pytest

from crhls import discretization
from crhls.core import make_params
from crhls.discretization import (
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
    cylinder_grid,
    cylinder_shell_grid,
    distances_from_node,
    extremal_values,
    hnorm_values,
    sphere_grid,
)
from crhls.heisenberg import HPoint, dilate, extremal_family, hdist, hnorm
from crhls.sphere import SpherePoint, sphere_dist


def test_sphere_grid_total_weight_exact():
    for res in ((4, 4, 4), (8, 8, 8), (12, 12, 12), (6, 8, 10)):
        g = sphere_grid(1, res)
        assert len(g) == res[0] * res[1] * res[2]
        assert g.total_weight == pytest.approx(16.0 * math.pi**2, rel=1e-14)


def test_sphere_grid_nodes_on_unit_sphere():
    g = sphere_grid(1, (8, 8, 8))
    norms = np.linalg.norm(g.xi, axis=1)
    assert np.allclose(norms, 1.0, rtol=1e-14, atol=0)


def test_sphere_grid_low_discrepancy_mean():
    # equal-weight nodes nearly cancel; the plastic-sequence rule keeps the
    # vector mean at the low-discrepancy level, not at machine zero
    g = sphere_grid(1, (12, 12, 12))
    mean = np.abs(g.xi.mean(axis=0))
    assert np.all(mean <= 5e-3)


def test_sphere_grid_min_separation():
    g = sphere_grid(1, (8, 8, 8))
    d = distances_from_node(g, 0)
    assert np.min(d[1:]) > 1e-3


def test_sphere_grid_validation():
    with pytest.raises(ValueError):
        sphere_grid(2, (8, 8, 8))
    with pytest.raises(ValueError):
        sphere_grid(1, (8, 8))
    with pytest.raises(ValueError):
        sphere_grid(1, (8, 3, 8))
    # non-integral components are refused, not truncated; integral floats pass
    for bad in ((12.7, 8, 12), (8, 8.5, 8), (8, float("inf"), 8), (8, float("nan"), 8)):
        with pytest.raises(ValueError, match="integers"):
            sphere_grid(1, bad)
    assert np.array_equal(sphere_grid(1, (8.0, 8, 8)).xi, sphere_grid(1, (8, 8, 8)).xi)


def test_cylinder_grid_total_weight():
    p = make_params(1, 2.0)
    for R in (1.0, 2.5):
        g = cylinder_grid(R, (8, 6, 8), p)
        assert g.total_weight == pytest.approx(8.0 * math.pi * R**4, rel=1e-13)
    p2 = make_params(2, 2.0)
    g2 = cylinder_grid(1.5, (6, 6, 6), p2)
    # direction-sphere rule is Gauss-Legendre, exact only asymptotically
    assert g2.total_weight == pytest.approx(2.0**5 * math.pi**2 * 1.5**6, rel=1e-8)


def test_cylinder_grid_is_exact_dilate_family():
    # the parabolic vertical rule makes grids at different radii exact
    # dilates of one another: z scales by s, t by s^2, weights by s^Q
    p = make_params(1, 2.0)
    g1 = cylinder_grid(1.0, (6, 6, 6), p)
    s = 3.7
    g2 = cylinder_grid(s, (6, 6, 6), p)
    assert np.allclose(g2.z, s * g1.z, rtol=1e-14)
    assert np.allclose(g2.t, s**2 * g1.t, rtol=1e-14)
    assert np.allclose(g2.weights, s**p.Q * g1.weights, rtol=1e-14)


def test_cylinder_shell_grid_weight_is_difference():
    p = make_params(1, 2.0)
    inner = cylinder_grid(1.0, (8, 6, 8), p)
    outer = cylinder_grid(2.0, (8, 6, 8), p)
    shell = cylinder_shell_grid(1.0, 2.0, (8, 6, 8), p)
    assert shell.total_weight == pytest.approx(
        outer.total_weight - inner.total_weight, rel=1e-12
    )
    # every node inside the outer cylinder but outside the inner one
    az = np.abs(shell.z[:, 0])
    at = np.abs(shell.t)
    assert np.all(az <= 2.0) and np.all(at <= 4.0)
    assert not np.any((az < 1.0) & (at < 1.0))
    with pytest.raises(ValueError):
        cylinder_shell_grid(2.0, 1.0, (8, 6, 8), p)


def test_hnorm_and_extremal_values_match_pointwise():
    p = make_params(1, 2.0)
    g = cylinder_grid(1.5, (4, 4, 4), p)
    hv = hnorm_values(g)
    ev = extremal_values(g, p, eps=0.7)
    for i in (0, 7, 19, len(g) - 1):
        u = HPoint(g.z[i], g.t[i])
        assert hv[i] == pytest.approx(hnorm(u), rel=1e-13)
        assert ev[i] == pytest.approx(extremal_family(0.7, u, p), rel=1e-13)


def test_distances_from_node_match_pointwise():
    for n in (1, 2):
        p = make_params(n, 2.0)
        g = cylinder_grid(1.0, (4, 4, 4), p)
        d = distances_from_node(g, 2)
        v = HPoint(g.z[2], g.t[2])
        for i in (0, 5, 11, len(g) - 1):
            assert d[i] == pytest.approx(hdist(HPoint(g.z[i], g.t[i]), v), rel=1e-12)
    s = sphere_grid(1, (4, 4, 4))
    ds = distances_from_node(s, 1)
    q = SpherePoint(s.xi[1])
    for i in (0, 9):
        assert ds[i] == pytest.approx(sphere_dist(SpherePoint(s.xi[i]), q), rel=1e-12)


def test_distances_from_node_self_distance_is_zero():
    # the sphere's inner-product distance leaves ~1e-15 on the diagonal,
    # which the square root turned into up to 2e-8
    for g in (sphere_grid(1, (6, 6, 6)), cylinder_grid(1.0, (6, 6, 6), make_params(1, 2.0))):
        assert all(distances_from_node(g, i)[i] == 0.0 for i in range(len(g)))


def test_quadrature_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(kind="torus", n=1, weights=np.ones(2), resolution=(2,),
                       xi=np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        QuadratureGrid(kind="sphere", n=1, weights=np.ones(3), resolution=(3,),
                       xi=np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        QuadratureGrid(kind="sphere", n=1, weights=-np.ones(2), resolution=(2,),
                       xi=np.eye(2, dtype=complex))


def test_quadrature_grid_refuses_non_finite_nodes():
    # a NaN node made NaN quotients, and t = inf a finite, wrong one (5.786), without an error
    g = sphere_grid(1, (4, 4, 4))
    xi = g.xi.copy()
    xi[3, 0] = np.nan
    with pytest.raises(ValueError, match="xi must be finite"):
        QuadratureGrid(kind="sphere", n=1, weights=g.weights, resolution=g.resolution, xi=xi)
    c = cylinder_grid(2.0, (4, 5, 4), make_params(1, 2.0))
    t = c.t.copy()
    t[0] = np.inf
    with pytest.raises(ValueError, match="t must be finite"):
        QuadratureGrid(kind="cylinder", n=1, weights=c.weights, resolution=c.resolution,
                       z=c.z, t=t)
    z = c.z.copy()
    z[5, 0] = complex(0.0, -np.inf)
    with pytest.raises(ValueError, match="z must be finite"):
        QuadratureGrid(kind="cylinder", n=1, weights=c.weights, resolution=c.resolution,
                       z=z, t=c.t)


def _assert_kernels_rebuild(g, h, p):
    # a kernel is a pure function of its grid, its spec and (n, alpha), and an
    # artifact's embedded config repeats the constructor call: assembly on the
    # rebuilt grid gives the same bits, pure and green_model
    specs = (KernelSpec("pure_singular"),
             KernelSpec("green_model", mass=np.linspace(0.0, 2.0, len(g)), c_w=0.3))
    for spec in specs:
        K, L = assemble_kernel(g, spec, p), assemble_kernel(h, spec, p)
        assert np.array_equal(L.entries, K.entries)


def test_grid_csv_round_trip_sphere():
    # an artifact's config gives the constructor call back, with lists for tuples
    g, h = sphere_grid(1, (4, 4, 6)), sphere_grid(1, [4, 4, 6])
    assert np.array_equal(h.weights, g.weights)
    assert np.array_equal(h.xi, g.xi)
    _assert_kernels_rebuild(g, h, make_params(1, 2.0))


def test_grid_csv_round_trip_cylinder():
    p = make_params(1, 2.0)
    g, h = cylinder_grid(2.0, (4, 4, 4), p), cylinder_grid(2.0, [4, 4, 4], p)
    assert np.array_equal(h.weights, g.weights)
    assert np.array_equal(h.z, g.z)
    assert np.array_equal(h.t, g.t)
    _assert_kernels_rebuild(g, h, make_params(1, 1.3))


def test_grid_memory_bound_is_its_node_arrays(monkeypatch):
    # weights, t and n + 1 complex coordinates: 48 bytes a node at n = 1, checked from the
    # resolution before any node is computed; 10^12 nodes through the CLI in test_cli.py
    physical = {"SC_PHYS_PAGES": 128 * 48, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(discretization.os, "sysconf", physical.__getitem__)
    assert len(sphere_grid(1, (4, 4, 4))) == 64
    assert len(cylinder_grid(1.0, (4, 4, 4), make_params(1, 2.0))) == 128
    physical["SC_PHYS_PAGES"] = 128 * 48 - 1
    assert len(sphere_grid(1, (4, 4, 4))) == 64
    with pytest.raises(ValueError, match="a grid of 128 nodes"):
        cylinder_grid(1.0, (4, 4, 4), make_params(1, 2.0))
    with pytest.raises(ValueError, match="a grid of 256 nodes"):
        cylinder_shell_grid(1.0, 2.0, (4, 4, 4), make_params(1, 2.0))
    physical["SC_PHYS_PAGES"] = 64 * 48 - 1
    with pytest.raises(ValueError, match=r"a grid of 64 nodes needs .* of physical memory"):
        sphere_grid(1, (4, 4, 4))
