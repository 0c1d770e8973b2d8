"""Quadrature grids and singular kernel matrices.

Measure conventions carried by the grid weights:

* sphere grids integrate against dV_S = 2^{2n+1} n! (Euclidean surface
  element on S^{2n+1});
* cylinder grids integrate against dV_0 = 2^{2n} n! (Lebesgue measure on
  C^n x R), restricted to the cylinder |z| < R, |t| < R^2.

The cylinder rule is a product rule in per-coordinate polar form: radial
Gauss-Legendre against r^{2n-1} dr, Hopf-type angles on the direction
sphere, and the parabolic substitution t = +/- s^2 with s Gauss-Legendre
on (0, R) in the vertical direction. With that substitution grids at
different R are exact images of each other under the group dilations, so
discrete scaling identities hold to machine precision rather than only in
the refinement limit.

The sphere rule is deliberately not a tensor-product rule. The natural
ball of the CR distance d(zeta, eta)^2 = 2 |1 - zeta . conj(eta)| is
anisotropic (volume ~ r^Q rather than r^3), and a product lattice in Hopf
coordinates places whole families of node pairs along the near
directions of that anisotropy. Summing the singular kernel d^{alpha - Q}
over such a lattice overshoots the continuum integral by several percent
even at 32^3 nodes, and from above. An equidistributed rule with equal
weights avoids those coherent near pairs: nodes are well separated in the
CR metric, the surviving quadrature bias is the dropped diagonal cell,
and singular-kernel quotients then converge to their continuum values
from below, which is the behaviour the downstream experiments rely on.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import _blas
from .core import Params
from .heisenberg import gauge_dist_sq
from .sphere import sphere_dist_sq

__all__ = [
    "QuadratureGrid",
    "sphere_grid",
    "cylinder_grid",
    "cylinder_shell_grid",
    "KernelSpec",
    "KernelMatrix",
    "assemble_kernel",
]

_GRID_KINDS = ("sphere", "cylinder")
_KERNEL_KINDS = ("pure_singular", "green_model")

# side of the square tiles that assembly and row_power_sums walk: a float64
# tile is 512 KiB, so a tile and its scratch stay in L2. Keep it a multiple
# of 8: OpenBLAS's complex GEMM rounds narrower products differently, so
# the kernel bits would then depend on the tile layout.
_TILE = 256

# assemble_kernel stores N^2 float64 entries up to this many bytes and returns
# the matrix-free operator above it. A constant, not a share of MemAvailable,
# so that a rerun stores the same way and gives the same bits; the 16^3
# kernel is exactly 128 MiB and stays stored.
_DENSE_BYTES = 128 * 2**20

# the matrix-free operator refuses, before its first tile, a walk over more node
# pairs N (N + 1) / 2 than this: about 10 s at _WALK_PAIRS_PER_S, the rate of the 24^3
# walk on one thread (about 3e8 on two; 2-vCPU host). The 24^3 sharpness rung walks
# 9.6e7 pairs per reader and the 32^3 quotient of the sphere-sharpness criterion 5.4e8
_WALK_PAIRS = 2 * 10**9
_WALK_PAIRS_PER_S = 2e8

# stored entries above this many bytes get a mapping of their own (_zero_entries).
# 32 MiB is glibc's largest mmap threshold: below it np.zeros reuses freed heap
# that is already resident, where a fresh mapping would fault in every page.
_MAPPED_BYTES = 32 * 2**20


# a sphere node xi is refused when | |xi|^2 - 1 | exceeds this: 2 |1 - xi . conj(eta)|
# is the CR distance only between unit vectors (two zero nodes would lie 2 apart)
_UNIT_TOL = 1e-12


@dataclass(eq=False)
class QuadratureGrid:
    """Nodes and positive weights of a quadrature rule: the cylinder's product
    rule, the sphere's Kronecker rule (module docstring) or any other nodes
    and weights, such as a random sphere sample.

    kind is "sphere" (nodes stored as unit vectors xi in C^{n+1}; a node with
    | |xi|^2 - 1 | above 1e-12 is refused, and the error names the first) or
    "cylinder" (nodes stored as pairs (z, t) with z in C^n). The weights
    already include the CR measure normalization described in the module
    docstring, so plain weighted sums approximate dV_S / dV_0 integrals.
    """

    kind: str
    n: int
    weights: np.ndarray
    resolution: tuple[int, ...]
    xi: np.ndarray | None = None
    z: np.ndarray | None = None
    t: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in _GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}, expected one of {_GRID_KINDS}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        self.resolution = tuple(int(m) for m in self.resolution)
        N = self.weights.size
        if self.kind == "sphere":
            if self.xi is None:
                raise ValueError("sphere grids need node array xi")
            self.xi = np.asarray(self.xi, dtype=np.complex128)
            if self.xi.shape != (N, self.n + 1):
                raise ValueError(f"xi must have shape ({N}, {self.n + 1}), got {self.xi.shape}")
        else:
            if self.z is None or self.t is None:
                raise ValueError("cylinder grids need node arrays z and t")
            self.z = np.asarray(self.z, dtype=np.complex128)
            self.t = np.asarray(self.t, dtype=np.float64)
            if self.z.shape != (N, self.n):
                raise ValueError(f"z must have shape ({N}, {self.n}), got {self.z.shape}")
            if self.t.shape != (N,):
                raise ValueError(f"t must have shape ({N},), got {self.t.shape}")
        for name in ("xi",) if self.kind == "sphere" else ("z", "t"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.kind == "sphere":
            norm_sq = np.sum(self.xi.real**2 + self.xi.imag**2, axis=1)
            off = np.abs(norm_sq - 1.0) > _UNIT_TOL
            if np.any(off):
                i = int(np.argmax(off))
                raise ValueError(
                    f"sphere node {i} lies off the unit sphere: |xi|^2 = {float(norm_sq[i])!r}"
                )

    def __len__(self) -> int:
        return int(self.weights.size)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def dist_sq(self, rows, cols=slice(None)) -> np.ndarray:
        """Squared distances from nodes[rows] to nodes[cols] in the grid's metric."""
        if self.kind == "sphere":
            return sphere_dist_sq(self.xi[rows], self.xi[cols])
        return gauge_dist_sq(self.z[rows], self.t[rows], self.z[cols], self.t[cols])


def _validate_resolution(resolution) -> tuple[int, int, int]:
    values = np.atleast_1d(np.asarray(resolution, dtype=np.float64))
    if not np.all(np.isfinite(values) & (values == np.round(values))):
        raise ValueError(f"resolution components must be integers, got {values.tolist()}")
    res = tuple(int(m) for m in values)
    if len(res) != 3:
        raise ValueError(f"resolution must have 3 components, got {res}")
    if any(m < 4 for m in res):
        raise ValueError(f"all resolution components must be >= 4, got {res}")
    return res


# the largest cylinder resolution component: a Gauss-Legendre rule of m nodes takes time
# cubic in m and an m x m companion matrix (leggauss took 0.05 s at m = 1 000 and would
# take about a minute and 800 MB at 10 000); the radial and vertical components each
# feed one, the angular one too for n >= 2
_MAX_COMPONENT = 1000


def _gauss_legendre(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# Kronecker generators for the sphere rule: inverse powers of the plastic
# number, the cubic-irrational pair with the best known joint badly
# approximable behaviour in dimension two.
_PLASTIC = 1.32471795724474602596
_SPHERE_GEN1 = 1.0 / _PLASTIC
_SPHERE_GEN2 = 1.0 / _PLASTIC**2


def sphere_grid(n: int, resolution) -> QuadratureGrid:
    """Equidistributed grid on the CR sphere S^3 in Hopf coordinates.

    Nodes are xi_j = (cos(theta_j) e^{i phi1_j}, sin(theta_j) e^{i phi2_j})
    with sin^2(theta_j) stratified over (0, 1) (midpoint rule in the exact
    measure coordinate, so the cos sin factor is integrated exactly) and
    the two angles following a Kronecker low-discrepancy sequence with
    plastic-number generators. All weights equal 16 pi^2 / N, so the total
    weight is exact, and node pairs stay uniformly separated in the CR
    distance; see the module docstring for why a tensor-product rule is
    unusable for the singular kernels built on top of this grid.

    The three resolution components fix the node budget N = m1 m2 m3, so
    refinement sweeps written against per-axis resolutions keep working.
    Only n = 1 is supported; higher n is covered by cylinder grids. A grid
    whose node arrays exceed physical memory is refused before any node is
    computed.
    """
    if n != 1:
        raise ValueError(f"sphere grids are implemented for n = 1 only, got n = {n}")
    res = _validate_resolution(resolution)
    N = res[0] * res[1] * res[2]
    _refuse_oversized_grid(N, 1)
    j = np.arange(N)
    theta = np.arcsin(np.sqrt((j + 0.5) / N))
    phi1 = 2.0 * math.pi * np.mod(0.5 + _SPHERE_GEN1 * (j + 1), 1.0)
    phi2 = 2.0 * math.pi * np.mod(0.5 + _SPHERE_GEN2 * (j + 1), 1.0)
    xi = np.stack(
        [np.cos(theta) * np.exp(1j * phi1), np.sin(theta) * np.exp(1j * phi2)], axis=-1
    )
    # total measure 2^{2n+1} n! vol(S^3) = 16 pi^2, split evenly
    weights = np.full(N, 16.0 * math.pi**2 / N)
    return QuadratureGrid(kind="sphere", n=1, weights=weights, resolution=res, xi=xi)


def _unit_sphere_directions(m: int, m_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """Hopf-type product rule on the unit sphere S^{2m-1} in C^m.

    Returns (omega, w) with omega of shape (M, m) and sum(w) equal to the
    Euclidean surface area 2 pi^m / (m-1)! up to the theta quadrature
    error (exact for m = 1).
    """
    psi = 2.0 * math.pi * np.arange(m_ang) / m_ang
    w_psi = np.full(m_ang, 2.0 * math.pi / m_ang)
    if m == 1:
        return np.exp(1j * psi)[:, None], w_psi.copy()
    theta, w_theta = _gauss_legendre(0.0, 0.5 * math.pi, m_ang)
    axes = [theta] * (m - 1) + [psi] * m
    w_axes = [w_theta] * (m - 1) + [w_psi] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    weight = np.ones(mesh[0].shape)
    for wm in np.meshgrid(*w_axes, indexing="ij"):
        weight = weight * wm
    sin_running = np.ones(mesh[0].shape)
    rho = []
    for j in range(m - 1):
        th = mesh[j]
        rho.append(sin_running * np.cos(th))
        weight = weight * np.cos(th) * np.sin(th) ** (2 * (m - j) - 3)
        sin_running = sin_running * np.sin(th)
    rho.append(sin_running)
    psis = mesh[m - 1 :]
    omega = np.stack([rho[k] * np.exp(1j * psis[k]) for k in range(m)], axis=-1)
    return omega.reshape(-1, m), weight.reshape(-1)


def _vertical_rule(s_lo: float, s_hi: float, m_t: int) -> tuple[np.ndarray, np.ndarray]:
    # parabolic substitution t = +/- s^2, dt = 2 s ds; exact total weight
    s, ws = _gauss_legendre(s_lo, s_hi, m_t)
    t = np.concatenate([s * s, -(s * s)])
    wt = np.concatenate([2.0 * s * ws, 2.0 * s * ws])
    return t, wt


def _refuse_radius_beyond_float_range(R: float, n: int) -> None:
    """Refuse a cylinder radius R > 0 whose heights R^2 or whose total weight
    2^{2n+1} pi^n R^{2n+2} is not a finite, normal float, before any node is
    computed: its rules would overflow or lose their weights to underflow."""
    try:
        total = 2.0 ** (2 * n + 1) * math.pi**n * R ** (2 * n + 2)
    except OverflowError:
        total = math.inf
    if not all(sys.float_info.min <= v < math.inf for v in (R * R, total)):
        raise ValueError(
            f"cylinder radius R = {R} is beyond the float range: its heights R^2 and "
            f"total weight 2^(2n+1) pi^n R^(2n+2) at n = {n} must be finite normal floats"
        )


def _cylinder_block(
    r_lo: float, r_hi: float, s_lo: float, s_hi: float, resolution, params: Params
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m_r, m_ang, m_t = resolution
    n = params.n
    r, wr = _gauss_legendre(r_lo, r_hi, m_r)
    wr = wr * r ** (2 * n - 1)
    omega, wdir = _unit_sphere_directions(n, m_ang)
    t, wt = _vertical_rule(s_lo, s_hi, m_t)
    measure = float(4**n * math.factorial(n))  # 2^{2n} n!

    n_r, n_d, n_t = r.size, wdir.size, t.size
    z = (r[:, None, None] * omega[None, :, :]).reshape(n_r * n_d, 1, n)
    z = np.broadcast_to(z, (n_r * n_d, n_t, n)).reshape(-1, n)
    t_full = np.broadcast_to(t[None, :], (n_r * n_d, n_t)).reshape(-1)
    weights = measure * np.einsum("i,j,k->ijk", wr, wdir, wt).reshape(-1)
    return np.ascontiguousarray(z), np.ascontiguousarray(t_full), weights


def _grid_of_blocks(blocks, radii, resolution, params: Params) -> QuadratureGrid:
    """The cylinder grid of the product blocks (r_lo, r_hi, s_lo, s_hi) of
    _cylinder_block, concatenated in order. Each of radii, then the resolution,
    is refused as cylinder_grid documents; each block has m_r radii,
    m_ang^(2n-1) directions and 2 m_t heights."""
    n = params.n
    for R in radii:
        _refuse_radius_beyond_float_range(R, n)
    res = _validate_resolution(resolution)
    m_r, m_ang, m_t = res
    _refuse_oversized_grid(len(blocks) * m_r * m_ang ** (2 * n - 1) * 2 * m_t, n)
    if max(res) > _MAX_COMPONENT:
        raise ValueError(
            f"cylinder resolution components must be at most {_MAX_COMPONENT}, got {res}"
        )
    parts = zip(*(_cylinder_block(*block, res, params) for block in blocks))
    # one block is taken as built, not copied
    z, t, w = (np.concatenate(a) if len(a) > 1 else a[0] for a in parts)
    return QuadratureGrid(kind="cylinder", n=n, weights=w, resolution=res, z=z, t=t)


def cylinder_grid(R: float, resolution, params: Params) -> QuadratureGrid:
    """Product grid on the cylinder |z| < R, |t| < R^2 in H^n.

    Radial Gauss-Legendre against r^{2n-1} dr, Hopf-type angles on the
    direction sphere of C^n (plain polar angle for n = 1), parabolic
    Gauss-Legendre rule in t. Weights include the measure factor 2^{2n} n!,
    so the total weight equals 2^{2n+1} pi^n R^{2n+2} exactly.

    Refused, before any node is computed, in this order: R not positive; R
    whose heights R^2 or total weight is not a finite normal float; a
    resolution that is not three integers >= 4, whose node arrays exceed
    physical memory or with a component above _MAX_COMPONENT.
    """
    R = float(R)
    if not R > 0.0:
        raise ValueError(f"cylinder radius must be positive, got R = {R}")
    return _grid_of_blocks([(0.0, R, 0.0, R)], (R,), resolution, params)


def cylinder_shell_grid(R1: float, R2: float, resolution, params: Params) -> QuadratureGrid:
    """Quadrature over the shell between the cylinders of radii R1 < R2.

    Decomposed into two product blocks: the z-annulus R1 < |z| < R2 with
    the full vertical range |t| < R2^2, and the inner z-ball |z| < R1 with
    the vertical shell R1^2 < |t| < R2^2. Used for the concentration tail
    integrals, where the integrand is smooth on the shell. Refused as
    cylinder_grid is, with 0 < R1 < R2 in place of R > 0 and each radius
    checked against the float range.
    """
    R1, R2 = float(R1), float(R2)
    if not 0.0 < R1 < R2:
        raise ValueError(f"shell radii must satisfy 0 < R1 < R2, got R1 = {R1}, R2 = {R2}")
    blocks = [(R1, R2, 0.0, R2), (0.0, R1, R1, R2)]
    return _grid_of_blocks(blocks, (R1, R2), resolution, params)


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel model selector.

    pure_singular: K(x, y) = rho(x, y)^{alpha - Q}.
    green_model:   K(x, y) = (rho^{-2n} + m(x, y) + c_w rho)^{(Q-alpha)/(Q-2)},
    with m(x, y) = (mass(x) + mass(y)) / 2 the pair mean of a finite mass
    given per node (the pole-dependent mass A(xi) of the Green expansion;
    a green_model spec without it is refused) and a finite remainder
    coefficient c_w >= 0. The pair mean keeps
    K(x, y) = K(y, x), as the Green function's own symmetry
    G_xi(eta) = G_eta(xi) does, and equals the node's mass when the mass
    is constant. Since 2n = Q - 2, zero mass and c_w = 0 reduce the model
    exactly to the pure singular kernel.
    """

    kind: str
    mass: np.ndarray | None = None
    c_w: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {_KERNEL_KINDS}")
        object.__setattr__(self, "c_w", float(self.c_w))
        if not (math.isfinite(self.c_w) and self.c_w >= 0.0):
            raise ValueError(f"c_w must be finite and nonnegative, got {self.c_w}")
        if self.kind == "pure_singular":
            if self.mass is not None:
                raise ValueError("mass is only meaningful for the green_model kernel")
            if self.c_w != 0.0:
                raise ValueError("c_w is only meaningful for the green_model kernel")
            return
        if self.mass is None:
            raise ValueError("the green_model kernel needs per-node mass values")
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.ndim != 1:
            raise ValueError(f"mass must be a 1-d per-node array, got shape {mass.shape}")
        if not np.all(np.isfinite(mass)):
            raise ValueError("mass values must be finite")
        object.__setattr__(self, "mass", mass)


@dataclass(eq=False)
class KernelMatrix:
    """Kernel matrix over a grid, stored or matrix-free; diagonal entries are zero.

    The entries contain no quadrature weights. Params used at assembly
    time ride along so downstream consumers (solver window validation)
    need no extra context.

    The kernel is symmetric, as the paper's kernel is (the Green function
    has G_xi(eta) = G_eta(xi)), and only the upper triangle of entries,
    diagonal included, holds it: every reader takes entry (i, j) with
    i > j from (j, i) and never reads the lower triangle. A matrix built
    whole, both triangles equal, works unchanged. The constructor checks
    neither triangle. It refuses entries that are not float64 (a nested
    list of floats is taken as an array) and makes them C-contiguous,
    which copies nothing for densified kernels.

    entries = None makes the matrix-free operator of spec over grid. It
    stores nothing: matvec and row_power_sums compute each float64 tile of
    _tiles, which covers the upper triangle, as they walk it (_kernel_tile),
    in O(N^2) time per call and a few tiles of memory per walking thread;
    a walk over more than _WALK_PAIRS (2e9) node pairs raises ValueError
    before its first tile, naming the pair count and an estimated time.
    For this operator the constructor checks the length of the green_model
    mass against the grid.

    densified() is the one filler of stored entries. It writes the
    operator's tiles, disjoint, on the walk's threads into the zeros of
    _zero_entries and never writes the lower triangle, so entries above
    _MAPPED_BYTES (32 MiB) keep only the pages of the upper triangle
    resident: about half, 72 of 128 MiB at 16^3. Before allocating it raises
    ValueError when the N^2 * 8 bytes of entries exceed physical memory, or
    when they and the walk's scratch (_assembly_bytes) exceed MemAvailable
    of /proc/meminfo; both count every entry, resident or not.
    assemble_kernel densifies kernels up to _DENSE_BYTES (128 MiB) and
    returns the operator above; the solver densifies what it multiplies
    many times, and lower_bound_experiment, reading its kernel once, walks
    the operator at every size.

    matvec and row_power_sums are the only views of the entries outside
    this module; matvec reads one triangle through dsymv.
    """

    entries: np.ndarray | None
    spec: KernelSpec
    grid: QuadratureGrid
    params: Params

    def __post_init__(self) -> None:
        if self.grid.n != self.params.n:
            raise ValueError(f"grid has n = {self.grid.n} but params have n = {self.params.n}")
        N = len(self.grid)
        if self.entries is None:
            if self.spec.kind == "green_model" and self.spec.mass.shape != (N,):
                raise ValueError(f"mass must have shape ({N},), got {self.spec.mass.shape}")
            return
        entries = np.asarray(self.entries)
        if entries.shape != (N, N):
            raise ValueError(f"entries must have shape ({N}, {N}), got {entries.shape}")
        if entries.dtype != np.float64:  # the dtype symv multiplies
            raise ValueError(f"entries must be float64, got {entries.dtype}")
        self.entries = np.ascontiguousarray(entries)

    def __len__(self) -> int:
        return len(self.grid)

    def densified(self) -> KernelMatrix:
        """This kernel with stored entries: itself, or the operator's tiles written into
        new entries, under the memory refusals of the class docstring."""
        if self.entries is not None:
            return self
        N = len(self)
        _refuse_beyond_memory(
            f"a dense {N} x {N} kernel of 8-byte entries",
            N * N * 8,
            _assembly_bytes(N, self.grid.n),
        )
        entries = _zero_entries(N)

        def fill(bounds):
            i0, i1, j0, j1 = bounds
            entries[i0:i1, j0:j1] = _kernel_tile(self.grid, self.spec, self.params, bounds)

        _blas.walk(fill, list(_tiles(N)), lambda done: None)
        return KernelMatrix(entries, self.spec, self.grid, self.params)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """E @ x in float64 for the symmetric E of the upper triangle.

        numpy's bundled OpenBLAS multiplies stored entries with dsymv, which reads the
        upper triangle only. The matrix-free operator, and stored entries without that
        BLAS, take the tile walk of row_power_sums at r = 1.
        """
        E = self.entries
        y = None if E is None else _blas.symv(E, x)
        if y is None:
            y = self._upper_sums(np.asarray(x, dtype=np.float64), 1.0)
        return y

    def row_power_sums(self, r: float) -> np.ndarray:
        """Weighted row sums sum_j E_ij^r w_j in float64, from one walk over the tiles.

        Stored entries are raised to the power r; the matrix-free operator raises
        each tile's base to the combined exponent (_kernel_tile), one power per entry.
        Either way an entry whose power is not finite raises ValueError naming its
        node pair.
        """
        return self._upper_sums(self.grid.weights, r)

    def _upper_sums(self, x: np.ndarray, r: float) -> np.ndarray:
        """sum_j S_ij^r x_j in float64 for the symmetric S of the upper triangle.

        Column sums are row sums, so each tile on or above the diagonal is raised
        to the power r once, or, matrix-free, computed at that power, and adds its
        row sums and, off the diagonal, its column sums; a diagonal tile is read as
        symv reads it, from its upper triangle.
        Tiles are walked as in densified(), and their sums added in tile order
        in the caller's thread, so the result does not depend on the walker count.
        """
        N = len(self)
        pairs = N * (N + 1) // 2
        if self.entries is None and pairs > _WALK_PAIRS:
            raise ValueError(
                f"a matrix-free walk over {N} nodes visits {pairs} node pairs, about "
                f"{pairs / _WALK_PAIRS_PER_S:.0f} s at {_WALK_PAIRS_PER_S:.0e} pairs a second: "
                f"more than the {_WALK_PAIRS} pairs a walk may take"
            )
        out = np.zeros(N)
        power_message = (
            f"{self.spec.kind} entry to the power {r} is not finite at node pair "
            "({}, {}): {}"
        )

        def sums(tile):
            i0, i1, j0, j1 = tile
            if self.entries is None:
                P = _kernel_tile(self.grid, self.spec, self.params, tile, r)
            else:
                P = self.entries[i0:i1, j0:j1]
                if i0 == j0:
                    P = np.triu(P)
                if r != 1.0:
                    with np.errstate(over="ignore"):
                        P = P**r
            row = (P + np.triu(P, 1).T) @ x[j0:j1] if i0 == j0 else P @ x[j0:j1]
            # at r != 1, x is the positive weights: a row sum is not finite when an
            # entry of its row is not, so only then is the tile scanned for it
            if r != 1.0 and not np.isfinite(row).all():
                _refuse_nonfinite(P, i0, j0, power_message)
            return tile, row, None if i0 == j0 else x[i0:i1] @ P

        def add(result):
            (i0, i1, j0, j1), row, col = result
            out[i0:i1] += row
            if col is not None:
                out[j0:j1] += col

        _blas.walk(sums, list(_tiles(N)), add)
        return out


def _check_grid(K: KernelMatrix, grid: QuadratureGrid) -> None:
    if grid is K.grid:
        return
    if len(grid) != len(K.grid) or not np.array_equal(grid.weights, K.grid.weights):
        raise ValueError("grid does not match the kernel's assembly grid")


def _tiles(N: int):
    """(i0, i1, j0, j1) tiles of _TILE rows and columns with j0 >= i0.

    One tile per unordered pair of row and column ranges: they cover the
    upper triangle of an N x N matrix, and off the diagonal every tile
    lies wholly above it.
    """
    for i0 in range(0, N, _TILE):
        for j0 in range(i0, N, _TILE):
            yield i0, min(i0 + _TILE, N), j0, min(j0 + _TILE, N)


def _assembly_bytes(N: int, n: int) -> int:
    """Bytes an assembly over N nodes of dimension n needs.

    The N x N float64 entries; per walker, one tile's scratch of (64 + 32 n) bytes per
    node pair: complex inner products (16), the n complex coordinate differences of
    the cylinder metric and their conjugates (32 n), up to six float64 temporaries
    (48); and the grid's N-vectors: weights, mass, t and n + 1 complex coordinates.
    """
    tiles = -(-N // _TILE)
    walkers = _blas.walkers(tiles * (tiles + 1) // 2)
    scratch = walkers * min(N, _TILE) ** 2 * (64 + 32 * n)
    return N * N * 8 + scratch + N * (24 + 16 * (n + 1))


def _mem_available() -> int | None:
    """MemAvailable of /proc/meminfo in bytes, or None where the file or the field is missing."""
    with contextlib.suppress(OSError, StopIteration), open("/proc/meminfo") as fh:
        return 1024 * int(next(ln for ln in fh if ln.startswith("MemAvailable:")).split()[1])
    return None


def _refuse_beyond_memory(what: str, need: int, available_need: int | None = None) -> None:
    """Raise ValueError when need bytes exceed physical memory or, if given, available_need
    bytes exceed MemAvailable of /proc/meminfo; callers check before allocating."""
    checks = [(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), need, "physical")]
    if available_need is not None:
        checks.append((_mem_available(), available_need, "available"))
    for limit, nbytes, name in checks:
        if limit is not None and nbytes > limit:
            raise ValueError(
                f"{what} needs {nbytes / 2**30:.1f} GiB, "
                f"more than the {limit / 2**30:.1f} GiB of {name} memory"
            )


def _refuse_oversized_grid(N: int, n: int) -> None:
    """Refuse, before any node is computed, a grid of N nodes whose node arrays exceed
    physical memory: weights, t and n + 1 complex coordinates, a bound for both kinds."""
    _refuse_beyond_memory(f"a grid of {N} nodes", N * (16 + 16 * (n + 1)))


def _pow_neg(base: np.ndarray, expo: float, out: np.ndarray | None = None) -> np.ndarray:
    if expo == -1.0:  # the bits of base**-1.0 in half the time
        return np.reciprocal(base, out=out)
    return np.power(base, expo, out=out)


def _exp_pow(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo of a positive base as exp(expo log base), written over base.

    Within 9e-16 relative of np.power on a 24^3 sphere tile, in 0.74-0.82 of
    its time on 256 x 256 tiles (numpy 2.4.6, AVX-512); the matrix-free row
    sums at r != 1 take one such power per entry.
    """
    np.log(base, out=base)
    base *= expo
    return np.exp(base, out=base)


def _refuse_nonpositive(a: np.ndarray, i0: int, j0: int, message: str) -> None:
    """Raise ValueError(message.format(i, j, value)) when the first minimum of tile a,
    in tile order, is not positive; (i, j) is its node pair and a starts at (i0, j0)."""
    flat = int(np.argmin(a))
    if a.flat[flat] <= 0.0:
        row, col = divmod(flat, a.shape[1])
        raise ValueError(message.format(i0 + row, j0 + col, a.flat[flat]))


def _refuse_nonfinite(a: np.ndarray, i0: int, j0: int, message: str) -> None:
    """Raise ValueError(message.format(i, j, value)) at the first entry of tile a, in
    tile order, that is a nan or an infinity; (i, j) is its node pair."""
    if not np.isfinite(a.max()):  # the max is nan or inf when any entry is
        flat = int(np.argmin(np.isfinite(a)))
        row, col = divmod(flat, a.shape[1])
        raise ValueError(message.format(i0 + row, j0 + col, a.flat[flat]))


def _kernel_tile(
    grid: QuadratureGrid, spec: KernelSpec, params: Params, bounds, r: float = 1.0
) -> np.ndarray:
    """The kernel to the power r of the node pairs of one tile of _tiles, in float64,
    as densified() stores it: a diagonal tile holds its strict upper triangle only.

    The base is raised once, to the combined exponent r (alpha - Q) / 2 or
    r (Q - alpha) / (Q - 2), which at r = 1 are the kernel's own and are taken
    as assembly always took them; other r go through _exp_pow. Raises ValueError
    on coincident distinct nodes and on a green_model base rho^{-2n} + mass + c_w rho
    that is not strictly positive, at the first minimum of the tile, then on a
    green_model entry (to the power r) that is not finite, after the power, at the
    first such pair of the tile; an infinite base gives an infinite entry. A
    pure_singular entry whose power r != 1 overflows is left to row_power_sums.
    """
    i0, i1, j0, j1 = bounds
    Q, alpha, n = params.Q, params.alpha, params.n
    base = grid.dist_sq(slice(i0, i1), slice(j0, j1))  # rho^2 for both grid kinds
    if i0 == j0:
        np.fill_diagonal(base, 1.0)  # placeholder, overwritten with 0 below
    _refuse_nonpositive(base, i0, j0, "coincident nodes at indices ({}, {}): zero distance")
    if spec.kind == "pure_singular":
        expo = 0.5 * (alpha - Q)
        if r == 1.0:
            tile = _pow_neg(base, expo, out=base)
        else:
            with np.errstate(over="ignore"):  # an entry that overflows is refused by its walk
                tile = _exp_pow(base, r * expo)
    else:
        # a base or an entry that overflows is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            g = _pow_neg(base, -float(n))
            # pair-mean mass, halved before the sum so that it cannot overflow
            g += 0.5 * spec.mass[i0:i1, None] + 0.5 * spec.mass[j0:j1]
            if spec.c_w != 0.0:
                g += spec.c_w * base**0.5
            if i0 == j0:
                np.fill_diagonal(g, 1.0)  # a node is no pair: its dropped cell is not checked
            _refuse_nonpositive(
                g, i0, j0, "green_model base is nonpositive at node pair ({}, {}): {:.6e}"
            )
            expo = (Q - alpha) / (Q - 2)
            tile = g**expo if r == 1.0 else _exp_pow(g, r * expo)
        _refuse_nonfinite(
            tile, i0, j0, "green_model entry is not finite at node pair ({}, {}): {}"
        )
    # zero diagonal: the strict upper triangle of a diagonal tile
    return tile if i0 != j0 else np.triu(tile, 1)


def _zero_entries(N: int) -> np.ndarray:
    """N x N float64 zeros: np.zeros up to _MAPPED_BYTES, a private anonymous mapping above.

    numpy advises huge pages on every array of 4 MiB or more, and a 2 MiB page spans
    whole rows, lower triangle included, so writing the upper triangle alone would
    make all of np.zeros' entries resident. In the mapping, with huge pages advised
    off, a page is resident once written. MAP_PRIVATE, not mmap's default MAP_SHARED,
    so that a forked child's writes stay its own.
    """
    nbytes = N * N * 8
    if nbytes <= _MAPPED_BYTES:
        return np.zeros((N, N))
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf).reshape(N, N)


def assemble_kernel(
    grid: QuadratureGrid,
    spec: KernelSpec,
    params: Params,
    dtype=np.float64,
) -> KernelMatrix:
    """The kernel matrix of a KernelSpec over a grid: densified when its N^2 float64
    entries take at most _DENSE_BYTES (128 MiB), the matrix-free operator above; see
    KernelMatrix for both.

    dtype=np.float32 gives the matrix-free operator at every size: kernels are
    stored only as float64, and the operator sums in float64 too.

    The diagonal is set to zero: the singular self-interaction cell is dropped,
    which biases weighted row sums low by O(h^alpha), so Rayleigh quotients built
    on these matrices converge to their continuum values from below.

    Raises ValueError for a dtype other than float32 or float64 and for green_model
    kernels whose mass is not of length N; when storing, the memory refusals of
    densified() before allocating, then the refusals of _kernel_tile (coincident
    distinct nodes, a green_model base rho^{-2n} + mass + c_w rho that is not
    strictly positive, a green_model entry that is not finite) at the first such
    tile in tile order. The operator raises the latter when a walk reaches the
    tile, and the memory refusals when it is densified.
    """
    K = KernelMatrix(None, spec, grid, params)
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"entries must be float32 or float64, got {dtype}")
    if dtype == np.float32 or len(grid) ** 2 * 8 > _DENSE_BYTES:
        return K
    return K.densified()
