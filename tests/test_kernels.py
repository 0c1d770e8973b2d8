"""Kernel assembly: symmetry, positivity, the green/pure identity, CSV I/O."""

import tracemalloc

import numpy as np
import pytest

from crhls import discretization
from crhls.core import make_params
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
    cylinder_grid,
    load_kernel_csv,
    save_kernel_csv,
    sphere_grid,
)
from conftest import random_sphere_grid


def test_kernel_spec_validation():
    KernelSpec("pure_singular")
    KernelSpec("green_model", mass=np.ones(5), c_w=0.5)
    with pytest.raises(ValueError):
        KernelSpec("unknown_kind")
    with pytest.raises(ValueError):
        KernelSpec("pure_singular", mass=np.ones(5))
    with pytest.raises(ValueError):
        KernelSpec("green_model", mass=np.ones(5), c_w=-0.1)
    with pytest.raises(ValueError):
        KernelSpec("green_model", mass=np.ones((2, 2)))
    with pytest.raises(ValueError):
        KernelSpec("pure_singular", c_w=0.5)
    # non-finite values would assemble into NaN or inf entries
    with pytest.raises(ValueError, match="finite"):
        KernelSpec("green_model", mass=np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        KernelSpec("green_model", mass=np.ones(5), c_w=np.inf)
    with pytest.raises(ValueError, match="finite"):
        KernelSpec("green_model", mass=np.ones(5), c_w=np.nan)


def test_assemble_zero_diagonal_and_symmetry():
    p = make_params(1, 2.0)
    g = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(g, KernelSpec("pure_singular"), p)
    assert np.all(np.diag(K.entries) == 0.0)
    assert np.array_equal(K.entries, K.entries.T)
    off = K.entries[~np.eye(len(g), dtype=bool)]
    assert np.all(off > 0.0)
    assert len(K) == len(g)


def test_assembled_kernels_bitwise_symmetric():
    # the solver applies E alone for (E + E^T) / 2, so E == E^T must hold
    # by construction on every assembled kernel
    p = make_params(1, 2.0)
    sphere, cyl = sphere_grid(1, (6, 6, 6)), cylinder_grid(1.5, (5, 4, 5), p)
    for g in (sphere, cyl):
        mass = np.full(len(g), 0.7)
        for spec in (KernelSpec("pure_singular"), KernelSpec("green_model", mass=mass, c_w=0.3)):
            K = assemble_kernel(g, spec, p)
            assert np.array_equal(K.entries, K.entries.T), (g.kind, spec.kind)
    # per-node mass enters as the pair mean, so it is symmetric too
    ramp = KernelSpec("green_model", mass=np.linspace(0.0, 1.0, len(sphere)))
    K = assemble_kernel(sphere, ramp, p)
    assert np.array_equal(K.entries, K.entries.T)


def test_assemble_pure_matches_distance_power():
    p = make_params(1, 2.0)
    rng = np.random.default_rng(9)
    g = random_sphere_grid(12, 0.3, rng)
    K = assemble_kernel(g, KernelSpec("pure_singular"), p)
    from crhls.sphere import sphere_dist

    i, j = 3, 7
    d = sphere_dist(g.node(i), g.node(j))
    assert K.entries[i, j] == pytest.approx(d ** (p.alpha - p.Q), rel=1e-13)


def test_green_model_reduces_to_pure_at_zero_mass():
    # (rho^{-2n} + 0 + 0)^{(Q-alpha)/(Q-2)} = rho^{alpha-Q} for every n, alpha
    g = sphere_grid(1, (5, 5, 5))
    for alpha in (2.0, 1.3):
        p = make_params(1, alpha)
        spec0 = KernelSpec("green_model", mass=np.zeros(len(g)), c_w=0.0)
        K0 = assemble_kernel(g, spec0, p)
        K1 = assemble_kernel(g, KernelSpec("pure_singular"), p)
        assert np.allclose(K0.entries, K1.entries, rtol=1e-12, atol=0)


def test_green_model_mass_monotone():
    p = make_params(1, 2.0)
    g = sphere_grid(1, (5, 5, 5))
    m0 = np.full(len(g), 0.5)
    K0 = assemble_kernel(g, KernelSpec("green_model", mass=m0, c_w=0.0), p)
    K1 = assemble_kernel(g, KernelSpec("green_model", mass=3.0 * m0, c_w=0.0), p)
    off = ~np.eye(len(g), dtype=bool)
    assert np.all(K1.entries[off] > K0.entries[off])


def test_green_model_pair_mean_mass_does_not_overflow():
    # m_i + m_j overflows here; the mean of the two does not
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    K = assemble_kernel(g, KernelSpec("green_model", mass=np.full(len(g), 1e308)), p)
    off = ~np.eye(len(g), dtype=bool)
    assert np.all(K.entries[off] == 1e308)


def test_green_model_assembly_requires_mass():
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    with pytest.raises(ValueError):
        assemble_kernel(g, KernelSpec("green_model"), p)
    with pytest.raises(ValueError):
        assemble_kernel(g, KernelSpec("green_model", mass=np.ones(3)), p)


def test_assemble_rejects_coincident_nodes():
    p = make_params(1, 2.0)
    xi = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
    g = QuadratureGrid(kind="sphere", n=1, weights=np.ones(3), resolution=(3,), xi=xi)
    with pytest.raises(ValueError):
        assemble_kernel(g, KernelSpec("pure_singular"), p)


def test_assemble_refuses_kernel_beyond_physical_memory(monkeypatch):
    p = make_params(1, 2.0)
    big = sphere_grid(1, (100, 100, 100))  # 10^6 nodes: 8 TB of float64 entries
    with pytest.raises(ValueError, match="physical memory"):
        assemble_kernel(big, KernelSpec("pure_singular"), p)
    # the bound is N^2 * itemsize against SC_PHYS_PAGES * SC_PAGE_SIZE
    g = sphere_grid(1, (4, 4, 4))
    physical = {"SC_PHYS_PAGES": 64 * 64 * 4, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(discretization.os, "sysconf", physical.__getitem__)
    assert len(assemble_kernel(g, KernelSpec("pure_singular"), p, dtype=np.float32)) == 64
    with pytest.raises(ValueError, match="64 x 64 kernel of 8-byte entries"):
        assemble_kernel(g, KernelSpec("pure_singular"), p)


def test_assemble_float32_storage():
    p = make_params(1, 2.0)
    g = sphere_grid(1, (5, 5, 5))
    K64 = assemble_kernel(g, KernelSpec("pure_singular"), p)
    K32 = assemble_kernel(g, KernelSpec("pure_singular"), p, dtype=np.float32)
    assert K32.entries.dtype == np.float32
    assert np.allclose(K32.entries, K64.entries.astype(np.float32), rtol=0, atol=0)


def test_assemble_block_rows_independent(monkeypatch):
    p = make_params(1, 2.0)
    g = sphere_grid(1, (5, 5, 5))
    ramp = KernelSpec("green_model", mass=np.linspace(0.0, 1.0, len(g)), c_w=0.3)
    specs = (KernelSpec("pure_singular"), ramp)
    K_all = [assemble_kernel(g, spec, p) for spec in specs]
    monkeypatch.setattr(discretization, "_TILE", 16)  # 8 x 8 tiles, ragged 13-node edges
    for spec, K in zip(specs, K_all):
        K_blk = assemble_kernel(g, spec, p)
        assert np.array_equal(K.entries, K_blk.entries), spec.kind


def test_assembly_scratch_is_a_few_tiles():
    # beyond the N^2 entries, assembly holds only the scratch of a few tiles
    p = make_params(1, 2.0)
    for g in (sphere_grid(1, (12, 12, 12)), cylinder_grid(1.0, (12, 8, 12), p)):
        tracemalloc.start()
        try:
            K = assemble_kernel(g, KernelSpec("pure_singular"), p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - K.entries.nbytes <= 16 * 2**20, (g.kind, peak)


def test_cylinder_kernel_uses_group_distance(monkeypatch):
    # every pair; the n = 2 product grid has 2048 nodes, so n = 2 uses 60
    # random nodes instead. Small tiles make both grids span several.
    from crhls.heisenberg import hdist

    monkeypatch.setattr(discretization, "_TILE", 16)
    rng = np.random.default_rng(11)
    z = rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2))
    grids = [cylinder_grid(1.0, (4, 4, 4), make_params(1, 2.0)),
             QuadratureGrid(kind="cylinder", n=2, weights=np.ones(60), resolution=(60,),
                            z=z, t=rng.standard_normal(60))]
    for g in grids:
        p = make_params(g.n, 2.0)
        K = assemble_kernel(g, KernelSpec("pure_singular"), p)
        nodes = g.nodes
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                if i != j:
                    d = hdist(u, v)
                    assert K.entries[i, j] == pytest.approx(d ** (p.alpha - p.Q), rel=1e-12)


def test_kernel_matrix_shape_guard():
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    with pytest.raises(ValueError):
        KernelMatrix(entries=np.zeros((3, 3)), spec=KernelSpec("pure_singular"),
                     grid=g, params=p)


def test_kernel_matrix_refuses_params_of_other_n(tmp_path):
    # q_alpha of n = 2 would set the solver's window on an n = 1 kernel
    p1, p2 = make_params(1, 2.0), make_params(2, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    K = assemble_kernel(g, KernelSpec("pure_singular"), p1)
    with pytest.raises(ValueError, match="n = 1 but params have n = 2"):
        KernelMatrix(K.entries, K.spec, g, p2)
    path = tmp_path / "kernel.csv"
    save_kernel_csv(K, path)
    with pytest.raises(ValueError, match="n = 1 but params have n = 2"):
        load_kernel_csv(path, g, p2)
    with pytest.raises(ValueError, match="n = 1 but params have n = 2"):
        assemble_kernel(g, KernelSpec("pure_singular"), p2)


def test_kernel_csv_round_trip(tmp_path):
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    spec = KernelSpec("green_model", mass=np.full(len(g), 0.7), c_w=0.2)
    K = assemble_kernel(g, spec, p)
    path = tmp_path / "kernel.csv"
    save_kernel_csv(K, path)
    K2 = load_kernel_csv(path, g, p)
    assert np.array_equal(K2.entries, K.entries)
    assert K2.spec.kind == "green_model"


def test_kernel_csv_rejects_asymmetric_entries(tmp_path):
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    E = assemble_kernel(g, KernelSpec("pure_singular"), p).entries.copy()
    path = tmp_path / "kernel.csv"
    save_kernel_csv(KernelMatrix(E, KernelSpec("pure_singular"), g, p), path)
    load_kernel_csv(path, g, p)
    E[3, 17] = np.nextafter(E[3, 17], np.inf)  # one entry off by one ulp
    save_kernel_csv(KernelMatrix(E, KernelSpec("pure_singular"), g, p), path)
    with pytest.raises(ValueError, match="symmetric"):
        load_kernel_csv(path, g, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_kernel_csv_rejects_nonfinite_or_negative_entries(tmp_path, bad):
    # a NaN entry used to load, then fail the solve as "function values must be finite"
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    E = assemble_kernel(g, KernelSpec("pure_singular"), p).entries.copy()
    E[3, 17] = E[17, 3] = bad
    path = tmp_path / "kernel.csv"
    save_kernel_csv(KernelMatrix(E, KernelSpec("pure_singular"), g, p), path)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        load_kernel_csv(path, g, p)


def test_kernel_csv_rejects_malformed_header(tmp_path):
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    K = assemble_kernel(g, KernelSpec("pure_singular"), p)
    path = tmp_path / "kernel.csv"
    save_kernel_csv(K, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(f"{len(g)},pure_singular\n" + "".join(lines[1:]))
    with pytest.raises(ValueError, match="N,kind,alpha"):
        load_kernel_csv(path, g, p)


def test_kernel_csv_rejects_mismatched_grid_or_alpha(tmp_path):
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    K = assemble_kernel(g, KernelSpec("pure_singular"), p)
    path = tmp_path / "kernel.csv"
    save_kernel_csv(K, path)
    other = sphere_grid(1, (5, 5, 5))
    with pytest.raises(ValueError):
        load_kernel_csv(path, other, p)
    with pytest.raises(ValueError):
        load_kernel_csv(path, g, make_params(1, 1.5))
