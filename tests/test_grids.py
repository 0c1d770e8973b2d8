"""Quadrature grids: measures, dilation covariance, node arrays, kernel rebuilds."""

import math
import re

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
    sphere_grid,
)
from crhls.heisenberg import HPoint, _extremal, extremal_family, gauge_dist_sq, hdist, hnorm
from crhls.solver import SubcriticalResult, blowup_diagnostic
from crhls.sphere import SpherePoint, sphere_dist
from conftest import random_sphere_grid


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
    d = np.sqrt(g.dist_sq(slice(None), 0))
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


def test_cylinder_shell_grid_at_n2():
    # at n >= 2 each of the shell's two blocks carries the Gauss-Legendre
    # direction rule on S^3
    p = make_params(2, 2.0)
    inner = cylinder_grid(1.0, (6, 4, 6), p)
    outer = cylinder_grid(2.0, (6, 4, 6), p)
    shell = cylinder_shell_grid(1.0, 2.0, (6, 4, 6), p)
    assert shell.total_weight == pytest.approx(
        outer.total_weight - inner.total_weight, rel=1e-12
    )
    az = np.linalg.norm(shell.z, axis=1)
    at = np.abs(shell.t)
    assert np.all(az <= 2.0) and np.all(at <= 4.0)
    assert not np.any((az < 1.0) & (at < 1.0))


def test_hnorm_and_extremal_values_match_pointwise():
    p = make_params(1, 2.0)
    g = cylinder_grid(1.5, (4, 4, 4), p)
    hv = np.sqrt(gauge_dist_sq(g.z, g.t, np.zeros(1), 0.0))
    ev = _extremal(g.z, g.t, 0.7, p)
    for i in (0, 7, 19, len(g) - 1):
        u = HPoint(g.z[i], g.t[i])
        assert hv[i] == pytest.approx(hnorm(u), rel=1e-13)
        assert ev[i] == pytest.approx(extremal_family(0.7, u, p), rel=1e-13)


def test_distances_from_node_match_pointwise():
    for n in (1, 2):
        p = make_params(n, 2.0)
        g = cylinder_grid(1.0, (4, 4, 4), p)
        d = np.sqrt(g.dist_sq(slice(None), 2))
        v = HPoint(g.z[2], g.t[2])
        for i in (0, 5, 11, len(g) - 1):
            assert d[i] == pytest.approx(hdist(HPoint(g.z[i], g.t[i]), v), rel=1e-12)
    s = sphere_grid(1, (4, 4, 4))
    ds = np.sqrt(s.dist_sq(slice(None), 1))
    q = SpherePoint(s.xi[1])
    for i in (0, 9):
        assert ds[i] == pytest.approx(sphere_dist(SpherePoint(s.xi[i]), q), rel=1e-12)


def test_distances_from_node_self_distance_is_zero():
    # blowup_diagnostic puts its centre at radius exactly 0: the sphere's
    # inner-product distance leaves ~1e-15 on the diagonal, which the square
    # root turns into up to 2e-8
    p = make_params(1, 2.0)
    for g in (sphere_grid(1, (6, 6, 6)), cylinder_grid(1.0, (6, 6, 6), p)):
        for i in range(len(g)):
            f = np.ones(len(g))
            f[i] = 2.0
            res = SubcriticalResult(p=1.5, D_estimate=1.0, f=f, iterations=0, residual=0.0,
                                    converged=True, quotient_history=np.array([1.0]))
            report = blowup_diagnostic(res, g, p)
            assert report.center_index == i
            assert report.radii[0] == 0.0


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


@pytest.mark.parametrize(
    "kind, arrays, message",
    [
        ("sphere", {"weights": np.ones((4, 2))}, "weights must be a nonempty 1-d array"),
        ("sphere", {"xi": None}, "sphere grids need node array xi"),
        ("cylinder", {"z": None}, "cylinder grids need node arrays z and t"),
        ("cylinder", {"t": None}, "cylinder grids need node arrays z and t"),
        ("cylinder", {"z": np.zeros((1, 1))}, r"z must have shape \(128, 1\), got \(1, 1\)"),
        ("cylinder", {"t": np.zeros((128, 1))}, r"t must have shape \(128,\), got \(128, 1\)"),
    ],
    ids=["2-d-weights", "sphere-without-xi", "without-z", "without-t", "z-shape", "t-shape"],
)
def test_quadrature_grid_refuses_missing_or_misshapen_arrays(kind, arrays, message):
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4)) if kind == "sphere" else cylinder_grid(1.0, (4, 4, 4), p)
    given = {"weights": g.weights, "xi": g.xi, "z": g.z, "t": g.t, **arrays}
    with pytest.raises(ValueError, match=message):
        QuadratureGrid(kind=kind, n=1, resolution=g.resolution, **given)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s, p: cylinder_grid(0.0, (4, 4, 4), p), "cylinder radius must be positive"),
    ],
    ids=["zero-radius"],
)
def test_grid_functions_refuse_their_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(sphere_grid(1, (4, 4, 4)), make_params(1, 2.0))


def test_quadrature_grid_refuses_sphere_nodes_off_the_unit_sphere():
    # 2 |1 - xi . conj(eta)| is the CR distance only on the unit sphere: two zero
    # nodes were accepted and lay 2 apart, where they coincide
    g = sphere_grid(1, (4, 4, 4))
    for row, value in ((5, 0.0), (9, 2.0)):
        xi = g.xi.copy()
        xi[row] *= value
        xi[row + 1] = 0.0
        with pytest.raises(ValueError, match=rf"^sphere node {row} lies off the unit sphere"):
            QuadratureGrid(kind="sphere", n=1, weights=g.weights, resolution=g.resolution, xi=xi)
    xi = g.xi.copy()
    xi[7] = [2.0, 0.0]
    with pytest.raises(ValueError, match=r"node 7 .*\|xi\|\^2 = 4\.0"):
        QuadratureGrid(kind="sphere", n=1, weights=g.weights, resolution=g.resolution, xi=xi)
    # the rules the package builds lie within the limit, as do the hand-built test grids
    for built in (g, sphere_grid(1, (16, 16, 16)),
                  random_sphere_grid(200, 0.05, np.random.default_rng(3))):
        dev = np.abs(np.sum(np.abs(built.xi) ** 2, axis=1) - 1.0)
        assert np.max(dev) < 1e-14
    t = np.array([0.1, 0.2, 0.3])
    QuadratureGrid(kind="sphere", n=1, weights=np.ones(3), resolution=(3,),
                   xi=np.stack([np.cos(t) * np.exp(1j * t), np.sin(t)], axis=-1))
    QuadratureGrid(kind="sphere", n=1, weights=np.ones(2), resolution=(2,),
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


@pytest.mark.parametrize("n", [1, 2])
def test_cylinder_radius_beyond_the_float_range_refused_before_any_rule(monkeypatch, n):
    # heights R^2 or total weight 2^(2n+1) pi^n R^(2n+2) outside the finite normal
    # floats: refused, naming R, before leggauss or any numpy overflow warning
    params = make_params(n, 2.0)
    top = (1e308 / (2.0 ** (2 * n + 1) * math.pi**n)) ** (1.0 / (2 * n + 2))
    assert cylinder_grid(top / 2, (4, 4, 4), params).total_weight < math.inf

    def no_rule(m):
        raise AssertionError(f"leggauss({m}) was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    for R in (2.0 * top, 1e160, 1e-160, 1e-200):
        with pytest.raises(ValueError, match=re.escape(f"cylinder radius R = {R} is beyond the float")):
            cylinder_grid(R, (4, 4, 4), params)
    for R1, R2 in ((1.0, 1e160), (1e-200, 1.0)):
        with pytest.raises(ValueError, match="is beyond the float range"):
            cylinder_shell_grid(R1, R2, (4, 4, 4), params)


def test_cylinder_component_refused_before_any_rule(monkeypatch):
    # a Gauss-Legendre rule costs time cubic in its nodes, so a component above the
    # bound is refused before leggauss is called; the memory refusal still comes first
    top, params = discretization._MAX_COMPONENT, make_params(1, 2.0)
    assert len(cylinder_grid(1.0, (top, 4, 4), params)) == top * 4 * 8

    def no_rule(m):
        raise AssertionError(f"leggauss({m}) was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    for res in ((top + 1, 4, 4), (4, top + 1, 4), (4, 4, top + 1)):
        with pytest.raises(ValueError, match=rf"components must be at most {top}, got"):
            cylinder_grid(1.0, res, params)
        with pytest.raises(ValueError, match=rf"components must be at most {top}, got"):
            cylinder_shell_grid(1.0, 2.0, res, params)
    with pytest.raises(ValueError, match=r"a grid of \d+ nodes needs"):
        cylinder_grid(1.0, (10**6, 10**6, 4), params)
