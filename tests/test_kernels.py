"""Kernel assembly: symmetry, positivity, the green/pure identity, memory refusals."""

import io
import mmap
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from crhls import discretization
from crhls.core import make_params, sphere_kernel_eigenvalue
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
    cylinder_grid,
    sphere_grid,
)
from crhls.functional import rayleigh_quotient
from crhls.solver import continuation, solve_subcritical
from conftest import pair_kernel, random_sphere_grid, symmetric, two_node_fixture


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
    # a green_model spec always carries its mass
    with pytest.raises(ValueError, match="needs per-node mass"):
        KernelSpec("green_model")
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
    assert not np.tril(K.entries, -1).any()  # each pair is stored once, above the diagonal
    off = symmetric(K.entries)[~np.eye(len(g), dtype=bool)]
    assert np.all(off > 0.0)
    assert len(K) == len(g)


def test_assembled_kernels_store_the_upper_triangle():
    # the kernel is symmetric in the node pair, so each pair is evaluated and
    # stored once: the upper triangle holds the pair's value, the rest is zero.
    # At alpha = 3 the pure kernel raises rho^2 to the power -1/2.
    for alpha in (2.0, 3.0):
        p = make_params(1, alpha)
        sphere, cyl = sphere_grid(1, (6, 6, 6)), cylinder_grid(1.5, (5, 4, 5), p)
        for g in (sphere, cyl):
            mass = np.full(len(g), 0.7)
            ramp = np.linspace(0.0, 1.0, len(g))  # per-node mass enters as the pair mean
            for spec in (KernelSpec("pure_singular"),
                         KernelSpec("green_model", mass=mass, c_w=0.3),
                         KernelSpec("green_model", mass=ramp)):
                E = assemble_kernel(g, spec, p).entries
                label = (alpha, g.kind, spec.kind)
                assert not np.tril(E).any(), label
                upper = np.triu_indices(len(g), 1)
                reference = pair_kernel(g, spec, p)[upper]
                assert np.allclose(E[upper], reference, rtol=1e-13, atol=0), label


def test_assemble_pure_matches_distance_power():
    p = make_params(1, 2.0)
    rng = np.random.default_rng(9)
    g = random_sphere_grid(12, 0.3, rng)
    K = assemble_kernel(g, KernelSpec("pure_singular"), p)
    from crhls.sphere import SpherePoint, sphere_dist

    i, j = 3, 7
    d = sphere_dist(SpherePoint(g.xi[i]), SpherePoint(g.xi[j]))
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
    assert np.all(symmetric(K1.entries)[off] > symmetric(K0.entries)[off])


def test_green_model_pair_mean_mass_does_not_overflow():
    # m_i + m_j overflows here; the mean of the two does not
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    K = assemble_kernel(g, KernelSpec("green_model", mass=np.full(len(g), 1e308)), p)
    off = ~np.eye(len(g), dtype=bool)
    assert np.all(symmetric(K.entries)[off] == 1e308)


def test_green_model_refuses_nonpositive_base():
    # mass -2 at node k gives its pairs the base rho^{-2} - 1, lowest and
    # negative at the node farthest from k; that pair is named
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    k = 5
    mass = np.zeros(len(g))
    mass[k] = -2.0
    far = int(np.argmax(g.dist_sq(slice(None), k)))
    assert g.dist_sq(far, k) > 1.0
    i, j = sorted((k, far))
    message = rf"green_model base is nonpositive at node pair \({i}, {j}\)"
    spec = KernelSpec("green_model", mass=mass)
    with pytest.raises(ValueError, match=message):
        assemble_kernel(g, spec, p)
    K = KernelMatrix(None, spec, g, p)
    for read in (lambda: K.matvec(np.ones(64)), lambda: K.row_power_sums(1.2)):
        with pytest.raises(ValueError, match=message):
            read()


def test_green_model_refuses_a_base_that_overflows():
    # c_w rho overflows to inf at every pair farther apart than rho = 1; the
    # first such pair in tile order is named, with no overflow warning first
    # (pyproject turns a RuntimeWarning into an error)
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    spec = KernelSpec("green_model", mass=np.zeros(len(g)), c_w=1e308)
    message = r"green_model entry is not finite at node pair \(0, 2\): inf"
    with pytest.raises(ValueError, match=message):
        assemble_kernel(g, spec, p)
    K = KernelMatrix(None, spec, g, p)
    with pytest.raises(ValueError, match=message):
        K.matvec(np.ones(64))
    # the row sums take each entry to the power 1.2, and the finite entry
    # 1e308 rho of the closer pair (0, 1) overflows there
    with pytest.raises(ValueError, match=r"entry is not finite at node pair \(0, 1\): inf"):
        K.row_power_sums(1.2)


def test_green_model_refuses_an_entry_that_overflows():
    # a finite base, raised to (Q - alpha) / (Q - 2) > 1, overflows: at alpha = 1
    # the exponent is 3/2 and a mass of 1e300 gives 1e450 at every pair; at
    # alpha = 2 the row sums square c_w rho = 1e300 rho
    g = sphere_grid(1, (4, 4, 4))
    message = r"green_model entry is not finite at node pair \(0, 1\): inf"
    spec = KernelSpec("green_model", mass=np.full(len(g), 1e300))
    with pytest.raises(ValueError, match=message):
        assemble_kernel(g, spec, make_params(1, 1.0))
    spec = KernelSpec("green_model", mass=np.zeros(len(g)), c_w=1e300)
    K = KernelMatrix(None, spec, g, make_params(1, 2.0))
    with pytest.raises(ValueError, match=message):
        K.row_power_sums(2.0)


def test_stored_row_sums_refuse_a_power_that_overflows():
    # the entries c_w rho = 1e300 rho are finite and stored; their squares are
    # not, and the stored operator refuses them as the matrix-free one does,
    # at the same node pair and with no overflow warning. So do the finite
    # pure_singular entries of an 8^3 sphere grid to the power 1000, which the
    # float32 operator once summed to inf with three overflow warnings
    g = sphere_grid(1, (4, 4, 4))
    spec = KernelSpec("green_model", mass=np.zeros(len(g)), c_w=1e300)
    params = make_params(1, 2.0)
    stored = assemble_kernel(g, spec, params)
    assert stored.entries is not None and np.all(np.isfinite(stored.entries))
    g8, pure = sphere_grid(1, (8, 8, 8)), KernelSpec("pure_singular")
    pure_message = (r"pure_singular entry to the power 1000.0 is not finite "
                    r"at node pair \(0, 4\): inf")
    for K, r, message in [
        (stored, 2.0,
         r"green_model entry to the power 2.0 is not finite at node pair \(0, 1\): inf"),
        (KernelMatrix(None, spec, g, params), 2.0,
         r"green_model entry is not finite at node pair \(0, 1\): inf"),
        (assemble_kernel(g8, pure, params), 1000.0, pure_message),
        (assemble_kernel(g8, pure, params, dtype=np.float32), 1000.0, pure_message),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                K.row_power_sums(r)


def test_green_model_base_check_skips_the_diagonal():
    # three close nodes: every pair has rho^{-2} > 2, so mass -1.5 keeps each
    # pair's base positive, while 1 + mass at the dropped diagonal is not
    p = make_params(1, 2.0)
    t, a = np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.1, -0.1])
    xi = np.stack([np.cos(t) * np.exp(1j * a), np.sin(t)], axis=-1)
    g = QuadratureGrid(kind="sphere", n=1, weights=np.ones(3), resolution=(3,), xi=xi)
    spec = KernelSpec("green_model", mass=np.full(3, -1.5))
    E = assemble_kernel(g, spec, p).entries
    upper = np.triu_indices(3, 1)
    assert np.all(E[upper] > 0.0)
    assert np.allclose(E[upper], pair_kernel(g, spec, p)[upper], rtol=1e-13, atol=0)


def test_green_model_assembly_requires_mass():
    # the spec refuses a missing mass, the kernel one of another length than the grid
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    with pytest.raises(ValueError, match="needs per-node mass"):
        KernelSpec("green_model", c_w=0.5)
    for build in (assemble_kernel, lambda g, spec, p: KernelMatrix(None, spec, g, p)):
        with pytest.raises(ValueError, match=r"mass must have shape \(64,\)"):
            build(g, KernelSpec("green_model", mass=np.ones(3)), p)


def test_assemble_rejects_coincident_nodes():
    p = make_params(1, 2.0)
    xi = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex)
    g = QuadratureGrid(kind="sphere", n=1, weights=np.ones(3), resolution=(3,), xi=xi)
    message = r"coincident nodes at indices \(0, 1\): zero distance"
    with pytest.raises(ValueError, match=message):
        assemble_kernel(g, KernelSpec("pure_singular"), p)
    # the matrix-free operator builds the same tiles when it walks them
    K = KernelMatrix(None, KernelSpec("pure_singular"), g, p)
    for read in (lambda: K.matvec(np.ones(3)), lambda: K.row_power_sums(1.2)):
        with pytest.raises(ValueError, match=message):
            read()


def test_assemble_refuses_kernel_beyond_physical_memory(monkeypatch):
    p = make_params(1, 2.0)
    big = sphere_grid(1, (100, 100, 100))  # 10^6 nodes: 8 TB of float64 entries
    # beyond the dense budget nothing is stored; the bound holds where entries are made
    K = assemble_kernel(big, KernelSpec("pure_singular"), p)
    assert K.entries is None and len(K) == 10**6
    with pytest.raises(ValueError, match="physical memory"):
        K.densified()
    with pytest.raises(ValueError, match="physical memory"):
        solve_subcritical(K, big, 1.5)
    # the bound is N^2 * 8 bytes against SC_PHYS_PAGES * SC_PAGE_SIZE
    g = sphere_grid(1, (4, 4, 4))
    physical = {"SC_PHYS_PAGES": 64 * 64 * 8, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(discretization.os, "sysconf", physical.__getitem__)
    assert assemble_kernel(g, KernelSpec("pure_singular"), p).entries is not None
    physical["SC_PHYS_PAGES"] -= 1
    with pytest.raises(ValueError, match="64 x 64 kernel of 8-byte entries"):
        assemble_kernel(g, KernelSpec("pure_singular"), p)


def test_assemble_refuses_kernel_beyond_available_memory(monkeypatch):
    p = make_params(1, 2.0)
    available = discretization._mem_available()
    assert available is None or available > 0
    # the bound is N^2 * 8 bytes plus the walk's scratch against MemAvailable,
    # after the physical check
    need = discretization._assembly_bytes(64, 1)
    monkeypatch.setattr(discretization, "_mem_available", lambda: need)
    g = sphere_grid(1, (4, 4, 4))
    assert assemble_kernel(g, KernelSpec("pure_singular"), p).entries is not None
    monkeypatch.setattr(discretization, "_mem_available", lambda: need - 1)
    with pytest.raises(ValueError, match="64 x 64 kernel of 8-byte entries .* available memory"):
        assemble_kernel(g, KernelSpec("pure_singular"), p)
    monkeypatch.setattr(discretization, "_mem_available", lambda: int(0.3 * 2**30))
    big = sphere_grid(1, (20, 20, 20))  # 0.48 GiB of float64 entries: matrix-free
    K = assemble_kernel(big, KernelSpec("pure_singular"), p)
    with pytest.raises(ValueError, match=r"needs 0\.5 GiB, more than the 0\.3 GiB of available"):
        K.densified()
    with pytest.raises(ValueError, match="available memory"):
        continuation(K, big, [1.5])


def _meminfo_without_available(path):
    return io.StringIO("MemTotal:  8000000 kB\nMemFree:  4000000 kB\n")


def _meminfo_unreadable(path):
    raise OSError(f"cannot open {path}")


@pytest.mark.parametrize(
    "opener", [_meminfo_without_available, _meminfo_unreadable], ids=["no-field", "oserror"]
)
def test_memory_refusal_without_mem_available_checks_physical_memory(monkeypatch, opener):
    # a /proc/meminfo without MemAvailable (Linux before 3.14), or one that
    # cannot be read, leaves _mem_available None: only physical memory bounds
    # a request then
    monkeypatch.setattr(discretization, "open", opener, raising=False)
    assert discretization._mem_available() is None
    monkeypatch.setattr(discretization.os, "sysconf", {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 1}.get)
    discretization._refuse_beyond_memory("a request", 1000, 10**30)
    with pytest.raises(ValueError, match="a request needs .* GiB of physical memory"):
        discretization._refuse_beyond_memory("a request", 1001, 0)


def test_assemble_beyond_the_dense_budget_stores_nothing(monkeypatch):
    # 20^3 entries would take 488 MiB, above the 128 MiB budget: the operator
    # is returned whatever memory is free, with the same bits
    p = make_params(1, 2.0)
    g = sphere_grid(1, (20, 20, 20))
    assert len(g) ** 2 * 8 > discretization._DENSE_BYTES
    K = assemble_kernel(g, KernelSpec("pure_singular"), p)
    assert K.entries is None and len(K) == len(g)
    x = np.ones(len(g))
    monkeypatch.setattr(discretization, "_mem_available", lambda: 2**20)
    K_low = assemble_kernel(g, KernelSpec("pure_singular"), p)
    assert K_low.entries is None
    assert np.array_equal(K_low.matvec(x), K.matvec(x))


def test_matrix_free_quotient_holds_a_few_tiles():
    # the entries of this kernel alone would take 488 MiB
    p = make_params(1, 2.0)
    g = sphere_grid(1, (20, 20, 20))
    K = assemble_kernel(g, KernelSpec("pure_singular"), p)
    tracemalloc.start()
    try:
        quotient = rayleigh_quotient(K, np.ones(len(g)), p.q_alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 7.8 < quotient < 8.0
    assert peak < 16 * 2**20, peak


def test_matrix_free_walk_beyond_its_pair_bound_is_refused_before_any_tile(monkeypatch):
    # 40^3 nodes make 2 048 032 000 node pairs, just above the 2e9 bound; 39^3 and
    # the 32^3 quotient of the sphere-sharpness criterion stay inside it
    p = make_params(1, 2.0)
    tiles = []
    kernel_tile = discretization._kernel_tile
    monkeypatch.setattr(
        discretization, "_kernel_tile", lambda *args: tiles.append(args) or kernel_tile(*args)
    )
    big = KernelMatrix(None, KernelSpec("pure_singular"), sphere_grid(1, (40, 40, 40)), p)
    message = (r"^a matrix-free walk over 64000 nodes visits 2048032000 node pairs, "
               r"about 10 s at 2e\+08 pairs a second: more than the 2000000000 pairs")
    for read in (lambda: big.matvec(np.ones(len(big))), lambda: big.row_power_sums(1.2),
                 lambda: rayleigh_quotient(big, np.ones(len(big)), p.q_alpha)):
        with pytest.raises(ValueError, match=message):
            read()
    assert tiles == []
    for m in (32, 39):
        assert (m**3 * (m**3 + 1)) // 2 <= discretization._WALK_PAIRS
    # the bound is on N (N + 1) / 2, the pairs of the upper triangle, diagonal included
    g = sphere_grid(1, (4, 4, 4))
    K = KernelMatrix(None, KernelSpec("pure_singular"), g, p)
    stored = assemble_kernel(g, KernelSpec("pure_singular"), p)
    monkeypatch.setattr(discretization, "_WALK_PAIRS", 64 * 65 // 2)
    assert np.allclose(K.matvec(g.weights), stored.matvec(g.weights), rtol=1e-13, atol=0.0)
    assert tiles
    monkeypatch.setattr(discretization, "_WALK_PAIRS", 64 * 65 // 2 - 1)
    tiles.clear()
    with pytest.raises(ValueError, match="visits 2080 node pairs"):
        K.row_power_sums(1.0)
    assert tiles == []
    # stored entries walk no tile of the operator and take no bound
    assert stored.row_power_sums(1.0).shape == (64,)


def _assembly_cases():
    p1, p2 = make_params(1, 2.0), make_params(2, 1.3)
    sphere, cylinder = sphere_grid(1, (12, 12, 12)), cylinder_grid(2.0, (4, 4, 4), p2)
    ramp = KernelSpec("green_model", mass=np.linspace(0.0, 1.0, len(sphere)), c_w=0.3)
    yield sphere, KernelSpec("pure_singular"), p1
    yield sphere, ramp, p1
    yield cylinder, KernelSpec("pure_singular"), p2


def test_assemble_refuses_entries_without_room_for_scratch(monkeypatch):
    # MemAvailable just above the entries alone leaves no room for the walk's
    # scratch: refused before the entries are allocated
    for grid, spec, params in _assembly_cases():
        entries = len(grid) ** 2 * 8
        monkeypatch.setattr(discretization, "_mem_available", lambda: entries + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="available memory"):
                assemble_kernel(grid, spec, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < entries / 16


def test_assembly_bytes_bound_the_assembly(monkeypatch):
    # with exactly _assembly_bytes available the assembly runs, and allocates no more
    for grid, spec, params in _assembly_cases():
        need = discretization._assembly_bytes(len(grid), grid.n)
        monkeypatch.setattr(discretization, "_mem_available", lambda: need)
        tracemalloc.start()
        try:
            K = assemble_kernel(grid, spec, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert K.entries is not None
        assert peak <= need


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


def _is_mapped(entries) -> bool:
    """Whether entries view an mmap, which np.frombuffer keeps behind a memoryview."""
    while isinstance(entries, np.ndarray):
        entries = entries.base
    return isinstance(entries, memoryview) and isinstance(entries.obj, mmap.mmap)


def _assemble_stored(monkeypatch, grid, spec, params, mapped):
    """assemble_kernel with every stored kernel mapped (mapped=True) or none."""
    monkeypatch.setattr(discretization, "_MAPPED_BYTES", 0 if mapped else 2**62)
    K = assemble_kernel(grid, spec, params)
    assert _is_mapped(K.entries) == mapped
    return K


def test_mapped_entries_have_the_bits_of_np_zeros(monkeypatch):
    rng = np.random.default_rng(23)
    for grid, spec, params in _assembly_cases():
        heap, mapped = (_assemble_stored(monkeypatch, grid, spec, params, m) for m in (False, True))
        E = mapped.entries
        assert E.dtype == np.float64 and E.flags.c_contiguous and E.flags.writeable
        assert not np.tril(E, -1).any()
        assert E.tobytes() == heap.entries.tobytes()
        x = rng.uniform(size=len(grid))
        assert mapped.matvec(x).tobytes() == heap.matvec(x).tobytes()
        assert mapped.row_power_sums(1.2).tobytes() == heap.row_power_sums(1.2).tobytes()
        # densified() allocates as assembly does
        dense = KernelMatrix(None, spec, grid, params).densified()
        assert _is_mapped(dense.entries)
        assert dense.entries.tobytes() == heap.entries.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_childs_writes_to_mapped_entries_stay_its_own(monkeypatch, params_n1):
    # the mapping is private: a shared one would carry the child's write to the parent
    grid = sphere_grid(1, (4, 4, 4))
    K = _assemble_stored(monkeypatch, grid, KernelSpec("pure_singular"), params_n1, mapped=True)
    before = float(K.entries[0, 1])
    pid = os.fork()
    if pid == 0:
        try:
            K.entries[0, 1] = before + 1.0
        finally:
            os._exit(0 if K.entries[0, 1] == before + 1.0 else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0  # the child wrote
    assert K.entries[0, 1] == before


def _vm_rss() -> int:
    with open("/proc/self/status") as fh:
        return 1024 * int(next(ln for ln in fh if ln.startswith("VmRSS:")).split()[1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_stored_kernel_keeps_about_its_upper_triangle_resident(params_n1):
    # 16^3 entries take 128 MiB, but only the pages that the upper tiles write
    # become resident: 72 MiB. tracemalloc does not see the mapping, VmRSS does.
    grid = sphere_grid(1, (16, 16, 16))
    nbytes = len(grid) ** 2 * 8
    assert nbytes > discretization._MAPPED_BYTES
    # a first assembly warms the walker threads' heaps, which then hold its scratch
    assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    before = _vm_rss()
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params_n1)
    grown = _vm_rss() - before
    assert K.entries.nbytes == nbytes
    assert grown <= 0.6 * nbytes, grown / 2**20


def test_cylinder_kernel_uses_group_distance(monkeypatch):
    # every pair; the n = 2 product grid has 2048 nodes, so n = 2 uses 60
    # random nodes instead. Small tiles make both grids span several.
    from crhls.heisenberg import HPoint, hdist

    monkeypatch.setattr(discretization, "_TILE", 16)
    rng = np.random.default_rng(11)
    z = rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2))
    grids = [cylinder_grid(1.0, (4, 4, 4), make_params(1, 2.0)),
             QuadratureGrid(kind="cylinder", n=2, weights=np.ones(60), resolution=(60,),
                            z=z, t=rng.standard_normal(60))]
    for g in grids:
        p = make_params(g.n, 2.0)
        E = symmetric(assemble_kernel(g, KernelSpec("pure_singular"), p).entries)
        nodes = [HPoint(z, t) for z, t in zip(g.z, g.t)]
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                if i != j:
                    d = hdist(u, v)
                    assert E[i, j] == pytest.approx(d ** (p.alpha - p.Q), rel=1e-12)


def test_kernel_matrix_shape_guard():
    p = make_params(1, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    with pytest.raises(ValueError):
        KernelMatrix(entries=np.zeros((3, 3)), spec=KernelSpec("pure_singular"),
                     grid=g, params=p)
    for dtype in (np.float16, np.float32, np.int64):
        with pytest.raises(ValueError, match="entries must be float64"):
            KernelMatrix(np.zeros((64, 64), dtype), KernelSpec("pure_singular"), g, p)


def test_assemble_refuses_an_integer_dtype(params_n1):
    with pytest.raises(ValueError, match="entries must be float32 or float64, got int32"):
        assemble_kernel(sphere_grid(1, (4, 4, 4)), KernelSpec("pure_singular"), params_n1,
                        dtype=np.int32)


def test_kernel_matrix_takes_a_nested_list_of_floats(params_n1):
    # a list is taken as an array, with the dtype of its values: floats are
    # float64, ints and float32 values are refused like arrays of them
    grid, K = two_node_fixture(params_n1)
    L = KernelMatrix([[0.0, 1.0], [1.0, 0.0]], K.spec, grid, params_n1)
    assert L.entries.dtype == np.float64 and L.entries.flags.c_contiguous
    assert np.array_equal(L.entries, symmetric(K.entries))
    assert np.array_equal(L.matvec(np.array([2.0, 3.0])), [3.0, 2.0])
    for bad in ([[0, 1], [1, 0]], [[np.float32(0.0), np.float32(1.0)]] * 2):
        with pytest.raises(ValueError, match="entries must be float64"):
            KernelMatrix(bad, K.spec, grid, params_n1)


def test_kernel_matrix_refuses_params_of_other_n():
    # q_alpha of n = 2 would set the solver's window on an n = 1 kernel
    p1, p2 = make_params(1, 2.0), make_params(2, 2.0)
    g = sphere_grid(1, (4, 4, 4))
    K = assemble_kernel(g, KernelSpec("pure_singular"), p1)
    with pytest.raises(ValueError, match="n = 1 but params have n = 2"):
        KernelMatrix(K.entries, K.spec, g, p2)
    with pytest.raises(ValueError, match="n = 1 but params have n = 2"):
        assemble_kernel(g, KernelSpec("pure_singular"), p2)


def test_coordinate_function_ratio_rises_below_its_eigenvalue():
    # B(f, f) / ||f||_2^2 for f = Re xi_1, over the same ratio for the constant,
    # approaches E_{1,0} / E_{0,0} = 1/3 from below as the Kronecker rule refines
    params = make_params(1, 2.0)
    ratios = []
    for m in (8, 12, 16):
        grid = sphere_grid(1, (m, m, m))
        K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
        w = grid.weights

        def ratio(f):
            fw = f * w
            return np.dot(fw, K.matvec(fw)) / np.dot(fw, f)

        ratios.append(ratio(grid.xi[:, 0].real) / ratio(np.ones(len(grid))))
    assert ratios == pytest.approx([0.29646, 0.31861, 0.32365], abs=5e-6)
    assert ratios[0] < ratios[1] < ratios[2] < sphere_kernel_eigenvalue(1, 0, params)
