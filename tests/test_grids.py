"""Quadrature grids: measures, dilation covariance, node accessors, CSV I/O."""

import math

import numpy as np
import pytest

from crhls.core import make_params
from crhls.discretization import (
    QuadratureGrid,
    cylinder_grid,
    cylinder_shell_grid,
    distances_from_node,
    extremal_values,
    hnorm_values,
    load_grid_csv,
    save_grid_csv,
    sphere_grid,
)
from crhls.heisenberg import HPoint, dilate, extremal_family, hdist, hnorm
from crhls.sphere import sphere_dist


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


def test_grid_node_accessors():
    p = make_params(1, 2.0)
    g = cylinder_grid(1.0, (4, 4, 4), p)
    u = g.node(3)
    assert isinstance(u, HPoint)
    assert np.allclose(u.z, g.z[3])
    assert u.t == pytest.approx(float(g.t[3]))
    assert len(g.nodes) == len(g)
    s = sphere_grid(1, (4, 4, 4))
    assert np.allclose(s.node(5).xi, s.xi[5])


def test_hnorm_and_extremal_values_match_pointwise():
    p = make_params(1, 2.0)
    g = cylinder_grid(1.5, (4, 4, 4), p)
    hv = hnorm_values(g)
    ev = extremal_values(g, p, eps=0.7)
    for i in (0, 7, 19, len(g) - 1):
        u = g.node(i)
        assert hv[i] == pytest.approx(hnorm(u), rel=1e-13)
        assert ev[i] == pytest.approx(extremal_family(0.7, u, p), rel=1e-13)


def test_distances_from_node_match_pointwise():
    for n in (1, 2):
        p = make_params(n, 2.0)
        g = cylinder_grid(1.0, (4, 4, 4), p)
        d = distances_from_node(g, 2)
        for i in (0, 5, 11, len(g) - 1):
            assert d[i] == pytest.approx(hdist(g.node(i), g.node(2)), rel=1e-12)
    s = sphere_grid(1, (4, 4, 4))
    ds = distances_from_node(s, 1)
    for i in (0, 9):
        assert ds[i] == pytest.approx(sphere_dist(s.node(i), s.node(1)), rel=1e-12)


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


@pytest.mark.parametrize("kind, column, value", [("sphere", 1, "nan"), ("cylinder", 2, "inf")])
def test_grid_csv_refuses_non_finite_nodes(tmp_path, kind, column, value):
    # load_grid_csv builds through the constructor: column 1 is Im xi0, column 2 is t
    g = sphere_grid(1, (4, 4, 4)) if kind == "sphere" else cylinder_grid(
        2.0, (4, 5, 4), make_params(1, 2.0))
    path = tmp_path / "grid.csv"
    save_grid_csv(g, path)
    lines = path.read_text().split("\n")
    row = lines[7].split(",")
    row[column] = value
    lines[7] = ",".join(row)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"{'xi' if kind == 'sphere' else 't'} must be finite"):
        load_grid_csv(path)


def test_grid_csv_round_trip_sphere(tmp_path):
    g = sphere_grid(1, (4, 4, 6))
    path = tmp_path / "sphere.csv"
    save_grid_csv(g, path)
    h = load_grid_csv(path)
    assert h.kind == g.kind and h.n == g.n
    assert tuple(h.resolution) == tuple(g.resolution)
    assert np.array_equal(h.weights, g.weights)
    assert np.array_equal(h.xi, g.xi)


def test_grid_csv_round_trip_cylinder(tmp_path):
    p = make_params(1, 2.0)
    g = cylinder_grid(2.0, (4, 4, 4), p)
    path = tmp_path / "cyl.csv"
    save_grid_csv(g, path)
    h = load_grid_csv(path)
    assert h.kind == "cylinder"
    assert np.array_equal(h.weights, g.weights)
    assert np.array_equal(h.z, g.z)
    assert np.array_equal(h.t, g.t)


@pytest.mark.parametrize("drop", ["kind", "resolution"])
def test_grid_csv_rejects_header_without_key(tmp_path, drop):
    g = sphere_grid(1, (4, 4, 4))
    path = tmp_path / "sphere.csv"
    save_grid_csv(g, path)
    header, rest = path.read_text().split("\n", 1)
    kept = [item for item in header.split(",") if not item.startswith(drop + "=")]
    path.write_text(",".join(kept) + "\n" + rest)
    with pytest.raises(ValueError, match=drop):
        load_grid_csv(path)
