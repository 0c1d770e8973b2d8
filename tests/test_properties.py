"""Property tests: the exact identities, on generated bounded inputs.

Each tolerance is a fixed multiple of the float64 unit roundoff times the
size of the quantities the identity combines, set from the arithmetic and
not fitted to the examples. Runs are derandomized, so the suite draws the
same examples every time; the hand-picked cases in the other test files
stay beside these.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crhls import discretization
from crhls.core import make_params
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
    sphere_grid,
)
from crhls.functional import rayleigh_quotient
from crhls.heisenberg import HPoint, dilate, group_inv, group_mul, hdist, hnorm
from crhls.sphere import SpherePoint, cayley, cayley_inv, sphere_dist
from conftest import pair_kernel, random_sphere_grid, symmetric

EPS = np.finfo(np.float64).eps
# 64 roundings of slack per identity; each identity below takes a few
ROUNDINGS = 64

_settings = settings(max_examples=50, deadline=None, derandomize=True)

# coordinates in [-10, 10], either 0 or at least 1e-6 in size, so that
# squares and fourth powers stay clear of the subnormal range
coordinate = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)
factor = st.floats(0.1, 10.0)


@st.composite
def hpoints(draw, n):
    re, im = (np.array(draw(st.lists(coordinate, min_size=n, max_size=n))) for _ in range(2))
    return HPoint(re + 1j * im, draw(coordinate))


def _size(*points):
    """Sum of |z|^2 + |t| + 1: the scale of every term a gauge formula adds."""
    return 1.0 + sum(float(np.vdot(u.z, u.z).real) + abs(u.t) for u in points)


def _close(u, v, atol):
    return np.all(np.abs(u.z - v.z) <= atol) and abs(u.t - v.t) <= atol


@_settings
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(hpoints(n), hpoints(n), hpoints(n))))
def test_group_law_with_inverse(points):
    u, v, w = points
    e = HPoint(np.zeros(u.n), 0.0)
    # u u^{-1} and u^{-1} u: the z parts cancel and the twist vanishes exactly
    assert _close(group_mul(u, group_inv(u)), e, 0.0)
    assert _close(group_mul(group_inv(u), u), e, 0.0)
    assert _close(group_mul(u, e), u, 0.0)
    atol = ROUNDINGS * EPS * _size(u, v, w)
    assert _close(group_mul(group_mul(u, v), w), group_mul(u, group_mul(v, w)), atol)
    # (uv)^{-1} = v^{-1} u^{-1}
    assert _close(group_inv(group_mul(u, v)), group_mul(group_inv(v), group_inv(u)), atol)


@_settings
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(hpoints(n), hpoints(n), hpoints(n))))
def test_hdist_left_invariant(points):
    u, v, w = points
    # compared squared: the square root would amplify rounding near d = 0
    moved = hdist(group_mul(w, u), group_mul(w, v)) ** 2
    assert abs(moved - hdist(u, v) ** 2) <= ROUNDINGS * EPS * _size(u, v, w)
    assert abs(hdist(u, v) ** 2 - hdist(v, u) ** 2) <= ROUNDINGS * EPS * _size(u, v)


@_settings
@given(st.integers(1, 3).flatmap(hpoints), factor)
def test_hnorm_dilation_homogeneous(u, r):
    assert abs(hnorm(dilate(r, u)) - r * hnorm(u)) <= ROUNDINGS * EPS * r * hnorm(u)


@_settings
@given(st.integers(1, 3).flatmap(hpoints))
def test_cayley_round_trip_from_group(u):
    # 1 + xi_{n+1} = 2 / w with w = 1 + |z|^2 + it carries a relative error
    # of about eps |w|, and the recovered z and t are at most |w| in size
    w_sq = (1.0 + float(np.vdot(u.z, u.z).real)) ** 2 + u.t**2
    v = cayley_inv(cayley(u))
    assert np.all(np.abs(v.z - u.z) <= ROUNDINGS * EPS * w_sq)
    assert abs(v.t - u.t) <= ROUNDINGS * EPS * w_sq


@st.composite
def sphere_points(draw, n):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n + 2, max_size=2 * n + 2)))
    assume(np.linalg.norm(v) >= 0.1)
    return SpherePoint(v[: n + 1] + 1j * v[n + 1 :])


@_settings
@given(st.integers(1, 2).flatmap(sphere_points))
def test_cayley_round_trip_from_sphere(p):
    # away from the south pole: |1 + xi_{n+1}| >= 0.1; that denominator has
    # a relative error of about eps / gap, and the forward map is well
    # conditioned
    gap = abs(1.0 + p.xi[-1])
    assume(gap >= 0.1)
    q = cayley(cayley_inv(p))
    assert np.all(np.abs(q.xi - p.xi) <= ROUNDINGS * EPS / gap)


@_settings
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(sphere_points(n), sphere_points(n))))
def test_sphere_dist_symmetric(points):
    a, b = points
    # squared distances are 2 |1 - <a, b>| <= 4, summed over n + 1 products
    assert abs(sphere_dist(a, b) ** 2 - sphere_dist(b, a) ** 2) <= ROUNDINGS * EPS
    assert sphere_dist(a, a) ** 2 <= ROUNDINGS * EPS


_PARAMS = make_params(1, 2.0)
_KERNEL = assemble_kernel(sphere_grid(1, (4, 4, 4)), KernelSpec("pure_singular"), _PARAMS)
_N = len(_KERNEL)


@_settings
@given(
    st.lists(coordinate, min_size=_N, max_size=_N),
    factor.flatmap(lambda c: st.sampled_from((c, -c))),
    st.floats(1.0, 2.0),
)
def test_rayleigh_quotient_scale_invariant(values, c, p):
    f = np.array(values)
    assume(np.any(f != 0.0))
    # every term of B(f, f) is bounded by the matching term of B(|f|, |f|),
    # so that sum times N roundings bounds the error of either quotient
    atol = ROUNDINGS * _N * EPS * rayleigh_quotient(_KERNEL, np.abs(f), p)
    assert abs(rayleigh_quotient(_KERNEL, c * f, p) - rayleigh_quotient(_KERNEL, f, p)) <= atol


@st.composite
def node_sets(draw):
    """3 to 59 random nodes: the CLI's sphere sampler, or Gaussian cylinder nodes with n = 1, 2."""
    N = draw(st.integers(3, 59))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_sphere_grid(N, 0.1, rng)
    n = draw(st.integers(1, 2))
    z = rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n))
    return QuadratureGrid(kind="cylinder", n=n, weights=rng.uniform(0.5, 1.5, N),
                          resolution=(N,), z=z, t=rng.standard_normal(N))


# 256 is the shipped tile; 8 and 16 split the node set into ragged tiles
tiles = st.sampled_from((8, 16, 256))


@_settings
@given(node_sets(), st.sampled_from((1.3, 2.0)), st.floats(0.0, 2.0), st.floats(0.0, 1.0), tiles)
def test_assembled_kernels_store_the_upper_triangle(grid, alpha, mass, c_w, tile):
    # the lower triangle and the diagonal are zero, and each pair above the
    # diagonal holds the kernel of the pair, taken here from the whole grid's
    # distances: a few roundings in the base, scaled by the power
    params = make_params(grid.n, alpha)
    N = len(grid)
    upper = np.triu_indices(N, 1)
    specs = (KernelSpec("pure_singular"),
             KernelSpec("green_model", mass=np.full(N, mass), c_w=c_w),
             KernelSpec("green_model", mass=np.linspace(0.0, mass, N), c_w=c_w))
    with mock.patch.object(discretization, "_TILE", tile):
        for spec in specs:
            E = assemble_kernel(grid, spec, params).entries
            assert not np.tril(E).any()
            pair = pair_kernel(grid, spec, params)[upper]
            assert np.all(np.abs(E[upper] - pair) <= ROUNDINGS * EPS * pair)


@_settings
@given(node_sets(), st.floats(0.1, 2.0), tiles)
def test_per_node_mass_kernel_adds_mean_mass(grid, top, tile):
    # alpha = 2 makes (Q - alpha) / (Q - 2) = 1, so off the diagonal the
    # green_model entries are the pure ones plus (mass[i] + mass[j]) / 2
    params = make_params(grid.n, 2.0)
    N = len(grid)
    mass = np.linspace(0.0, top, N)
    with mock.patch.object(discretization, "_TILE", tile):
        K = assemble_kernel(grid, KernelSpec("green_model", mass=mass), params)
        P = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    assert np.all(np.diag(K.entries) == 0.0)
    KS, PS = symmetric(K.entries), symmetric(P.entries)
    off = ~np.eye(N, dtype=bool)
    mean_mass = 0.5 * (mass[:, None] + mass[None, :])
    err = np.abs(KS - PS - mean_mass)
    assert np.all(err[off] <= ROUNDINGS * EPS * KS[off])


# each of two products of an N x N matrix in one dtype lies within gamma_N |S| @ |x|
# of the exact one, gamma_N = N u / (1 - N u) with u = eps / 2 of that dtype (the
# standard GEMV bound), so they differ by at most 2 gamma_N <= GEMV_C N eps for N u < 1/2
GEMV_C = 2
# numpy's float32 power is within one ulp of the exact one: measured at most
# 0.88 float32 eps relative over 2e7 random bases in [1e-4, 1e5] and exponents
# in [1, 4], against the float64 power of the same float32 base and exponent
POWF_C = 1


@_settings
@given(node_sets(), st.sampled_from((np.float64, np.float32)), st.integers(0, 2**32 - 1))
def test_matvec_is_the_product_in_the_entries_dtype(grid, dtype, seed):
    # ssymv or dsymv reads one triangle and is held to the GEMV bound against
    # S @ x in the same dtype, S the symmetric matrix of that triangle
    K = assemble_kernel(grid, KernelSpec("pure_singular"), make_params(grid.n, 2.0), dtype=dtype)
    x = np.random.default_rng(seed).standard_normal(len(grid)).astype(dtype)
    y = K.matvec(x)
    assert y.dtype == np.float64
    S = symmetric(K.entries)
    bound = GEMV_C * len(grid) * np.finfo(dtype).eps * (np.abs(S.astype(np.float64)) @ np.abs(x))
    assert np.all(np.abs(y - S @ x) <= bound)


@_settings
@given(node_sets(), st.sampled_from((np.float64, np.float32)), st.floats(1.0, 4.0), tiles)
def test_row_power_sums_match_dense_sums(grid, dtype, r, tile):
    # the tile walk adds the same float64 terms as the dense sum, in another
    # order: N terms of one sign, so a few N roundings of the sum. The powers
    # are taken in the entries' dtype.
    K = assemble_kernel(grid, KernelSpec("pure_singular"), make_params(grid.n, 2.0), dtype=dtype)
    with mock.patch.object(discretization, "_TILE", tile):
        rows = K.row_power_sums(r)
    S = symmetric(K.entries)
    powers = (S ** S.dtype.type(r)).astype(np.float64)
    assert np.allclose(rows, powers @ grid.weights, rtol=1e-12, atol=0.0)
    if dtype == np.float32:
        exact = S.astype(np.float64) ** np.float64(np.float32(r))
        assert np.all(np.abs(powers - exact) <= POWF_C * np.finfo(np.float32).eps * exact)


@_settings
@given(node_sets(), st.sampled_from((1.3, 2.0)), st.floats(0.0, 2.0), st.floats(0.0, 1.0), tiles,
       st.integers(0, 2**32 - 1))
def test_matrix_free_operator_matches_the_stored_kernel(grid, alpha, mass, c_w, tile, seed):
    # the operator builds the tiles assembly stores, in float64, and adds them in
    # another order than dsymv: a few N roundings apart, far inside 1e-12 of
    # |S| @ |x|. Its row sums take the stored kernel's tile walk; at r = 1.2 it
    # raises the base once where the stored sums raise the stored entry, a few
    # roundings of the power apart.
    params = make_params(grid.n, alpha)
    N = len(grid)
    x = np.random.default_rng(seed).standard_normal(N)
    specs = (KernelSpec("pure_singular"),
             KernelSpec("green_model", mass=np.full(N, mass), c_w=c_w),
             KernelSpec("green_model", mass=np.linspace(0.0, mass, N), c_w=c_w))
    with mock.patch.object(discretization, "_TILE", tile):
        for spec in specs:
            stored = assemble_kernel(grid, spec, params)
            free = KernelMatrix(None, spec, grid, params)
            S = symmetric(stored.entries)
            assert np.all(np.abs(free.matvec(x) - stored.matvec(x)) <= 1e-12 * (S @ np.abs(x)))
            for r in (1.0, 1.2):
                assert np.allclose(free.row_power_sums(r), stored.row_power_sums(r),
                                   rtol=1e-12, atol=0.0)


def test_matrix_free_quotient_at_the_dense_budget():
    # the 16^3 float64 kernel takes exactly the budget, so it is the largest stored one
    grid = sphere_grid(1, (16, 16, 16))
    stored = assemble_kernel(grid, KernelSpec("pure_singular"), _PARAMS)
    assert stored.entries.nbytes == discretization._DENSE_BYTES
    free = KernelMatrix(None, stored.spec, grid, _PARAMS)
    ones = np.ones(len(grid))
    q_stored, q_free = (rayleigh_quotient(K, ones, _PARAMS.q_alpha) for K in (stored, free))
    assert abs(q_free - q_stored) <= 1e-12 * q_stored
