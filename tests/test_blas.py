"""numpy's bundled OpenBLAS: the threaded tile walk (same bits on one or two walkers
and in any chunks, items consumed in order, first error in walk order, the BLAS thread
count restored after every walk), the one-thread reductions beside it, the product
through dsymv beside its tile-walk fallback, and the readers of a kernel's entries,
which ignore its lower triangle."""

import os
import re
import sys
import threading
import time
import types

import numpy as np
import pytest

from crhls import _blas, discretization
from crhls.core import make_params
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
    cylinder_grid,
    sphere_grid,
)
from crhls.experiments import eps_invariance_experiment
from crhls.functional import bilinear_form, lp_norm, rayleigh_quotient, young_bound
from crhls.solver import solve_subcritical
from conftest import symmetric


@pytest.fixture
def blas_count():
    """Reader of numpy's bundled OpenBLAS thread count, which is restored afterwards."""
    lib = _blas._openblas()
    if lib is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    get = lib.scipy_openblas_get_num_threads64_
    previous = get()
    yield get
    lib.scipy_openblas_set_num_threads64_(previous)


def _walk_cases():
    p2, p13 = make_params(1, 2.0), make_params(1, 1.3)
    sphere = sphere_grid(1, (5, 5, 5))
    cylinder = cylinder_grid(2.0, (4, 5, 4), p13)
    for grid, params in ((sphere, p2), (cylinder, p13)):
        mass = np.linspace(-0.5, 1.0, len(grid))
        for spec in (KernelSpec("pure_singular"), KernelSpec("green_model", mass=mass, c_w=0.3)):
            yield grid, spec, params


@pytest.fixture
def small_walks(monkeypatch):
    """Tiles of 16 nodes (ragged edges), and two walkers from two tiles on."""
    monkeypatch.setattr(discretization, "_TILE", 16)
    monkeypatch.setattr(_blas, "_ITEMS_PER_WALKER", 1)


def test_walk_bits_do_not_depend_on_walker_count(monkeypatch, blas_count, small_walks):
    seen, pow_neg = set(), discretization._pow_neg

    def recorded_pow_neg(base, expo, out=None):
        seen.add(blas_count())
        return pow_neg(base, expo, out=out)

    monkeypatch.setattr(discretization, "_pow_neg", recorded_pow_neg)
    for grid, spec, params in _walk_cases():
        runs = []
        for count in (1, 2):
            with _blas.blas_threads(count):
                walkers = _blas.walkers(10**6)
                assert walkers == min(count, len(os.sched_getaffinity(0)))
                seen.clear()
                K = assemble_kernel(grid, spec, params)
                runs.append((K.entries, young_bound(K, grid, 1.0), young_bound(K, grid, 1.2)))
                assert blas_count() == count
            # BLAS runs on one thread inside a walk on two walkers
            assert seen == {1 if walkers > 1 else count}
        (E1, *y1), (E2, *y2) = runs
        assert np.array_equal(E1, E2)
        assert y1 == y2


def test_matrix_free_sums_do_not_depend_on_walker_count(blas_count, small_walks):
    # each tile's sums are added in the caller's thread in tile order, whichever
    # walker computed the tile
    for grid, spec, params in _walk_cases():
        K = KernelMatrix(None, spec, grid, params)
        x = np.linspace(-1.0, 1.0, len(grid))
        runs = []
        for count in (1, 2):
            with _blas.blas_threads(count):
                runs.append((K.matvec(x), K.row_power_sums(1.0), K.row_power_sums(1.2)))
                assert blas_count() == count
        for one, two in zip(*runs):
            assert np.array_equal(one, two)


def test_walk_bits_do_not_depend_on_chunk_count(monkeypatch, blas_count, small_walks):
    # on two walkers: the default chunks, one chunk per walker, and one item per chunk
    for grid, spec, params in _walk_cases():
        tiles = len(list(discretization._tiles(len(grid))))
        K = KernelMatrix(None, spec, grid, params)
        x = np.linspace(-1.0, 1.0, len(grid))
        runs = []
        with _blas.blas_threads(2):
            for chunks in (_blas._CHUNKS_PER_WALKER, 1, tiles):
                monkeypatch.setattr(_blas, "_CHUNKS_PER_WALKER", chunks)
                S = assemble_kernel(grid, spec, params)
                runs.append([K.matvec(x), K.row_power_sums(1.0), K.row_power_sums(1.2),
                             S.entries, young_bound(S, grid, 1.2)])
        for other in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], other))


def test_walk_consumes_every_item_in_order(blas_count, small_walks):
    # on two walkers the items go out in contiguous chunks, and the caller still
    # consumes each result once, in item order
    for n in (1, 2, 17, 100):
        for count in (1, 2):
            seen, threads = [], set()

            def fn(item):
                threads.add(threading.get_ident())
                return item

            with _blas.blas_threads(count):
                walkers = _blas.walkers(n)
                _blas.walk(fn, list(range(n)), seen.append)
            assert seen == list(range(n))
            # one walker walks in the caller's thread, two never do
            assert (threading.get_ident() in threads) == (walkers == 1)


def test_walk_raises_first_error_in_walk_order(monkeypatch, blas_count, small_walks):
    # 64 nodes: 4 x 4 tiles of 16, walked (0, 0), (0, 16), (0, 32), (0, 48), (16, 16),
    # (16, 32), (16, 48), (32, 32), (32, 48), (48, 48)
    params = make_params(1, 2.0)
    later = {40: 5, 60: 20, 55: 50}  # tiles (0, 32), (16, 48) and (48, 48)
    same = {20: 3, 40: 5}  # tiles (0, 16) and (0, 32)
    cases = (
        (later, _blas._CHUNKS_PER_WALKER, "(5, 40)"),  # one tile per chunk
        (later, 1, "(5, 40)"),  # chunks of five tiles: the second one fails too
        (same, 1, "(3, 20)"),  # both in the first chunk
    )
    for copies, chunks, first in cases:
        monkeypatch.setattr(_blas, "_CHUNKS_PER_WALKER", chunks)
        xi = sphere_grid(1, (4, 4, 4)).xi.copy()
        for i, j in copies.items():
            xi[i] = xi[j]
        grid = QuadratureGrid(kind="sphere", n=1, weights=np.ones(64), resolution=(4, 4, 4),
                              xi=xi)
        message = re.escape(f"coincident nodes at indices {first}")
        for count in (1, 2):
            with _blas.blas_threads(count):
                with pytest.raises(ValueError, match=message):
                    assemble_kernel(grid, KernelSpec("pure_singular"), params)
                assert blas_count() == count


def test_concurrent_callers_keep_blas_count(monkeypatch, blas_count, small_walks):
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (6, 6, 6))
    reference = assemble_kernel(grid, KernelSpec("pure_singular"), params).entries
    results, errors = [], []
    start = threading.Barrier(4)
    walkers = _blas.walkers

    def slow_walkers(items):
        # widens the gap between reading the walker count and setting BLAS to one thread
        count = walkers(items)
        time.sleep(0.002)
        return count

    monkeypatch.setattr(_blas, "walkers", slow_walkers)

    def call():
        try:
            start.wait(timeout=60)
            for _ in range(5):
                K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
                results.append(np.array_equal(K.entries, reference))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _blas.blas_threads(2):
            callers = [threading.Thread(target=call) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in callers)
            assert blas_count() == 2
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == [True] * 20


def _threaded_dot_operator():
    """The matrix-free operator on 10 648 nodes, past the 10 000 elements from which
    OpenBLAS splits a float64 dot over its threads, and a non-constant function."""
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (22, 22, 22))
    f = 1.0 + 0.5 * grid.xi[:, 0].real
    return KernelMatrix(None, KernelSpec("pure_singular"), grid, params), f, params


def test_reductions_beside_a_walk_do_not_depend_on_blas_threads(blas_count):
    # their dots run on one BLAS thread; the walks were already thread-count free.
    # Threaded dots gave 7.922713794665721 and 16055.250605733745 on two threads
    # against 7.922713794665729 and 16055.250605733747 on one; a threaded lp_norm
    # gave 45.016482874929046 against 45.016482874929025, and the eps-invariance
    # norms on 18 432 cylinder nodes 5.565391915650527 against 5.565391915650532
    K, f, params = _threaded_dot_operator()
    runs = []
    for count in (1, 2):
        with _blas.blas_threads(count):
            runs.append(
                (
                    rayleigh_quotient(K, f, params.q_alpha),
                    bilinear_form(K, f, f),
                    lp_norm(f, K.grid, params.q_alpha),
                    eps_invariance_experiment([0.05, 0.1], 50.0, (24, 16, 24), params)["norms"],
                )
            )
            assert blas_count() == count
    assert runs[0] == runs[1]


def test_quotient_walk_keeps_its_walkers(monkeypatch, blas_count):
    # the one-thread pin covers the dots alone: a walk inside it would get one walker
    K, f, params = _threaded_dot_operator()
    seen, walkers = [], _blas.walkers

    def recorded_walkers(items):
        seen.append((walkers(items), blas_count()))
        return seen[-1][0]

    monkeypatch.setattr(_blas, "walkers", recorded_walkers)
    with _blas.blas_threads(2):
        rayleigh_quotient(K, f, params.q_alpha)
    assert seen == [(min(2, len(os.sched_getaffinity(0))), 2)]


def test_serial_dot_pins_one_thread_and_restores_the_count(blas_count):
    inside = []

    class Probe:
        # np.dot reads its operand through __array__, under the pin
        def __array__(self, dtype=None, copy=None):
            inside.append((blas_count(), _blas._WALK_LOCK.locked()))
            return np.ones(3)

    with _blas.blas_threads(2):
        assert _blas.serial_dot(Probe(), np.arange(3.0)) == 3.0
        assert blas_count() == 2
        with pytest.raises(ValueError):
            _blas.serial_dot(Probe(), np.ones(4))
        assert blas_count() == 2
    assert inside and set(inside) == {(1, True)}
    assert not _blas._WALK_LOCK.locked()


def test_walkers_capped_by_usable_cores(monkeypatch):
    threads = threading.active_count()
    fake = types.SimpleNamespace(scipy_openblas_get_num_threads64_=lambda: 64)
    monkeypatch.setattr(_blas, "_openblas", lambda: fake)
    cores = len(os.sched_getaffinity(0))
    assert 1 <= _blas.walkers(10**6) <= cores
    assert _blas.walkers(1) == 1
    assert _blas.walkers(2 * _blas._ITEMS_PER_WALKER - 1) == 1
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    assert _blas.walkers(10**6) == 1
    assert threading.active_count() == threads


# two float64 products within the standard GEMV bound of each other, as in test_properties
GEMV_C = 2


def _symmetric_kernel(N):
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (4, 4, N // 16))
    rng = np.random.default_rng(7)
    A = rng.uniform(size=(len(grid), len(grid)))
    return KernelMatrix(A + A.T, KernelSpec("pure_singular"), grid, params), rng


def _close(y, S, x):
    """y within the GEMV bound of S @ x."""
    bound = GEMV_C * len(x) * np.finfo(np.float64).eps * (np.abs(S) @ np.abs(x))
    return np.all(np.abs(y - S @ x) <= bound)


def test_matvec_without_bundled_openblas_walks_the_tiles(monkeypatch, small_walks):
    # the fallback product is row_power_sums' walk over the upper triangle at r = 1
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (5, 5, 5))  # 8 x 8 tiles of 16, ragged 13-node edges
    x = np.random.default_rng(7).standard_normal(len(grid))
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    assert _blas.symv(K.entries, x) is None
    assert _close(K.matvec(x), symmetric(K.entries), x)
    # the product with the weights is row_power_sums(1) bit for bit
    assert np.array_equal(K.matvec(grid.weights), K.row_power_sums(1.0))


def test_matvec_of_any_layout_is_that_of_its_c_copy():
    K, rng = _symmetric_kernel(64)
    E = K.entries
    assert KernelMatrix(E, K.spec, K.grid, K.params).entries is E  # C-contiguous: no copy
    wide = np.zeros((2 * len(E), 2 * len(E)))
    wide[::2, ::2] = E
    x = rng.standard_normal(len(E))
    for view in (np.asfortranarray(E), wide[::2, ::2], E.T):
        M = KernelMatrix(view, K.spec, K.grid, K.params)
        assert M.entries.flags.c_contiguous
        assert np.array_equal(M.entries, E)
        assert np.array_equal(M.matvec(x), K.matvec(x))


def test_dsymv_refuses_layouts_it_cannot_read(blas_count):
    K, rng = _symmetric_kernel(64)
    E, x = K.entries, rng.standard_normal(len(K))
    for bad in (np.asfortranarray(E), E[:, :-1], E.astype(np.float32), E.astype(np.float16)):
        with pytest.raises(ValueError, match="C-contiguous square float64"):
            _blas.symv(bad, x)
    for bad in (x[:-1], np.ones((len(x), 2))):
        with pytest.raises(ValueError, match="length-64 vector"):
            _blas.symv(E, bad)
    # entries swapped in after construction go through the same check
    K.entries = np.asfortranarray(E)
    with pytest.raises(ValueError, match="C-contiguous"):
        K.matvec(x)


def test_dsymv_reads_the_upper_triangle_on_one_and_two_threads(blas_count):
    # OpenBLAS splits the product over threads at this size
    K, rng = _symmetric_kernel(1024)
    E, x = K.entries, rng.standard_normal(len(K))
    scrambled = E.copy()
    scrambled[np.tril_indices(len(E), -1)] = np.nan
    for count in (1, 2):
        with _blas.blas_threads(count):
            y = K.matvec(x)
            assert _close(y, E, x)
            assert all(np.array_equal(K.matvec(x), y) for _ in range(3))  # same bits on rerun
            assert np.array_equal(_blas.symv(scrambled, x), y)


@pytest.mark.parametrize("bundled", [True, False], ids=["symv", "tile_walk"])
def test_readers_ignore_the_lower_triangle(monkeypatch, small_walks, bundled):
    # every reader of an assembled kernel returns the same bits with NaN below the diagonal
    if not bundled:
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (5, 5, 5))  # 8 x 8 tiles of 16, ragged 13-node edges
    x = np.random.default_rng(3).standard_normal(len(grid))
    f = np.linspace(0.5, 1.5, len(grid))

    def readings(K):
        res = solve_subcritical(K, grid, 1.5, max_iter=40)
        return (K.matvec(x), K.row_power_sums(1.2), young_bound(K, grid, 1.2),
                rayleigh_quotient(K, f, params.q_alpha), res.f, res.D_estimate, res.iterations)

    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    before = readings(K)
    K.entries[np.tril_indices(len(grid), -1)] = np.nan
    after = readings(K)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
