"""numpy's bundled OpenBLAS through ctypes: its thread count, its symmetric product
dsymv, the threaded tile walk, and the one-thread dot taken beside a walk.

symv reads the upper triangle of a row-major matrix, diagonal included, and never
its lower triangle, which is why a kernel need store only that triangle.

OpenBLAS splits a float64 dot longer than 10 000 elements over its thread pool. The
woken pool worker then spins, about 2^28 cycles (0.13 s on a 2-vCPU host), before it
sleeps, and a tile walk started in that window shares a core with it: a 24^3
matrix-free matvec took 0.25 s wall and 0.47 s CPU right after a 13 824-element dot,
0.200 s and 0.38 s after an idle pause. So the reductions beside a walk, every
lp_norm among them, go through serial_dot, which keeps BLAS on one thread for the dot
alone; their values are then the same bits on any thread count. It takes no callable,
so it cannot wrap a walk, which under its pin would drop to one walker.
"""

import contextlib
import ctypes
import functools
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

_WALK_LOCK = threading.Lock()  # two callers' walks must not restore each other's BLAS count
# a walker thread costs about a millisecond to start (2-vCPU host): both tile walks were
# slower on two threads at 28 tiles (1 728 nodes), as fast or faster from 66 tiles on
_ITEMS_PER_WALKER = 32
# a threaded walk hands each walker about this many contiguous chunks of items, one task
# each: a few tasks, not one per tile, keep the caller's submissions and wake-ups few,
# and several per walker still even out tiles of unequal cost
_CHUNKS_PER_WALKER = 8
_ROW_MAJOR, _UPPER = 101, 121  # CBLAS_ORDER and CBLAS_UPLO


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS with its thread calls and dsymv declared, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libdir.glob("libscipy_openblas64_*.so*"))
    if not paths:
        return None
    lib = ctypes.CDLL(str(paths[0]))
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    # cblas_dsymv(order, uplo, N, alpha, A, lda, x, incx, beta, y, incy), 64-bit integers
    idx, ptr, real = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    fn = lib.scipy_cblas_dsymv64_
    fn.argtypes = [ctypes.c_int, ctypes.c_int, idx, real, ptr, idx, ptr, idx, real, ptr, idx]
    fn.restype = None
    return lib


def symv(a: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """a @ x for a symmetric float64 a, read from its upper triangle (dsymv), or None
    for another BLAS.

    a must be C-contiguous, N x N and float64, and x of length N (it is cast to float64):
    the product reads raw memory, so a layout that does not fit is refused with ValueError.
    """
    lib = _openblas()
    if lib is None:
        return None
    N = len(a)
    if a.dtype != np.float64 or a.shape != (N, N) or not a.flags.c_contiguous:
        raise ValueError(
            f"symv needs a C-contiguous square float64 matrix, got {a.shape} {a.dtype}"
        )
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (N,):
        raise ValueError(f"symv of an {N} x {N} matrix needs a length-{N} vector, got {x.shape}")
    y = np.zeros(N)  # not np.empty: scaling garbage by beta = 0 could leave NaN (0 * NaN)
    lib.scipy_cblas_dsymv64_(
        _ROW_MAJOR, _UPPER, N, 1.0, a.ctypes.data, N, x.ctypes.data, 1, 0.0, y.ctypes.data, 1
    )
    return y


@contextlib.contextmanager
def blas_threads(count: int | None):
    """Run the body with BLAS on count threads, then restore the previous count.

    None leaves BLAS alone. A count that cannot be set in-process (no bundled
    OpenBLAS) or that OpenBLAS caps draws one warning; the body still runs.
    """
    lib = None if count is None else _openblas()
    if lib is None:
        if count is not None:
            print(
                f"warning: no bundled OpenBLAS found, BLAS thread count {count} not applied; "
                "set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS before starting",
                file=sys.stderr,
            )
        yield
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    applied = lib.scipy_openblas_get_num_threads64_()
    if applied != count:
        print(f"warning: BLAS thread count {count} asked, OpenBLAS runs on {applied}",
              file=sys.stderr)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)


def serial_dot(a: np.ndarray, b: np.ndarray) -> float:
    """float(np.dot(a, b)) with BLAS on one thread, for a reduction beside a tile walk
    (see the module docstring). The count is pinned and restored under _WALK_LOCK, as
    a walk's own pin is, so that a dot and a walk in two threads never restore each
    other's count."""
    if _openblas() is None:
        return float(np.dot(a, b))
    with _WALK_LOCK, blas_threads(1):
        return float(np.dot(a, b))


def walkers(items: int) -> int:
    """Threads for a walk: min(BLAS threads, usable cores, items / _ITEMS_PER_WALKER), at least 1."""
    lib = _openblas()
    if lib is None:
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(lib.scipy_openblas_get_num_threads64_(), cores, items // _ITEMS_PER_WALKER))


def walk(fn, items: list, consume) -> None:
    """consume(fn(item)) for every item, consume in the caller's thread and in item order.

    fn runs on walkers(len(items)) threads, numpy releasing the GIL, with BLAS on one
    thread meanwhile, or in the caller's thread for one walker, BLAS left alone. On
    several walkers the items are split into contiguous chunks, _CHUNKS_PER_WALKER per
    walker, each one task that runs fn over its chunk in order; the caller consumes a
    chunk's results once the whole chunk is done. The first exception of fn in item
    order is raised; consume is not called for the items before it in its chunk.
    """
    with _WALK_LOCK:
        count = walkers(len(items))
        if count == 1:
            for item in items:
                consume(fn(item))
            return
        size = -(-len(items) // (count * _CHUNKS_PER_WALKER))
        chunks = [items[k : k + size] for k in range(0, len(items), size)]
        with blas_threads(1), ThreadPoolExecutor(count) as pool:
            for results in pool.map(lambda chunk: [fn(item) for item in chunk], chunks):
                for result in results:
                    consume(result)
