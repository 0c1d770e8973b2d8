"""Weighted norms, the singular bilinear form, and derived bounds.

All operations consume grid weights explicitly; kernel matrices carry no
weights of their own. The kernel is read only through KernelMatrix.matvec
(the bilinear form: the double sum over all node pairs, in float64, from
stored entries or from tiles computed as they are walked for the
matrix-free operator) and KernelMatrix.row_power_sums (young_bound).
"""

from __future__ import annotations

import math

import numpy as np

from . import _blas
from .core import Params, sharp_constant_DH
from .discretization import KernelMatrix, QuadratureGrid, _check_grid, cylinder_shell_grid
from .heisenberg import _extremal

__all__ = [
    "lp_norm",
    "bilinear_form",
    "rayleigh_quotient",
    "young_bound",
    "tail_integral_I1",
]

# fixed enlargement of the truncation radius when chasing concentration
# tails; the piece beyond the enlarged shell is a ratio-independent
# relative bias ~ TAIL_ENLARGEMENT^{-Q}, invisible to slope fits
TAIL_ENLARGEMENT = 8.0


def _as_values(f, N: int, name: str) -> np.ndarray:
    """f as float64 node values, refused unless finite and sampled on all N nodes."""
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (N,):
        raise ValueError(f"{name} must be sampled on all {N} nodes, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def lp_norm(f, grid: QuadratureGrid, p: float) -> float:
    """Weighted L^p norm (sum |f_i|^p w_i)^{1/p}, finite p >= 1, summed on one BLAS
    thread (_blas.serial_dot), so the same bits on any thread count."""
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"lp_norm needs a finite p >= 1, got p = {p}")
    fv = _as_values(f, len(grid), "f")
    return _positive_lp_norm(np.abs(fv), grid.weights, p, _blas.serial_dot)


def _positive_lp_norm(f: np.ndarray, w: np.ndarray, p: float, dot=np.dot) -> float:
    """(sum f_i^p w_i)^{1/p} for nonnegative float64 values f, unchecked (lp_norm checks)."""
    return float(dot(f**p, w)) ** (1.0 / p)


def bilinear_form(K: KernelMatrix, f, g) -> float:
    """Double sum B(f, g) = sum_ij f_i K_ij g_j w_i w_j."""
    N = len(K)
    w = K.grid.weights
    fv = _as_values(f, N, "f")
    gv = _as_values(g, N, "g")
    return _blas.serial_dot(fv * w, K.matvec(gv * w))


def rayleigh_quotient(K: KernelMatrix, f, p: float) -> float:
    """|B(f, f)| divided by the squared weighted L^p norm of f.

    Scale invariant in f. With the zero-diagonal kernel convention the
    value approaches its continuum counterpart from below under grid
    refinement.
    """
    nrm = lp_norm(f, K.grid, p)
    if nrm == 0.0:
        raise ValueError("rayleigh_quotient is undefined for the zero function")
    return abs(bilinear_form(K, f, f)) / nrm**2


def young_bound(K: KernelMatrix, grid: QuadratureGrid, r: float) -> float:
    """Row/column uniform r-mass bound for the weighted kernel operator.

    C = max over all rows of (sum_j K_ij^r w_j)^{1/r}, which on the
    symmetric KernelMatrix is also the maximum over all columns.
    Schur-type interpolation then guarantees, for the operator
    (A f)_i = sum_j K_ij f_j w_j and exponents with
    1/q = 1/p + 1/r - 1 (1 <= p <= r', q >= 1),

        lp_norm(A f, q) <= C * lp_norm(f, p).

    The continuum analogue of the r-mass is finite for r < Q/(Q - alpha);
    the discrete maximum exists for every finite r >= 1.
    """
    r = float(r)
    if not (math.isfinite(r) and r >= 1.0):
        raise ValueError(f"young_bound needs a finite r >= 1, got r = {r}")
    _check_grid(K, grid)
    return float(np.max(K.row_power_sums(r))) ** (1.0 / r)


def tail_integral_I1(eps: float, R: float, params: Params, resolution) -> float:
    """Interaction mass of the concentrating extremal beyond the cylinder of radius R.

    Evaluates 2 * B(f_eps, f_eps) restricted to pairs with one point
    outside the truncation, reduced through the extremal's own integral
    identity (Frank and Lieb, Ann. of Math. 176, 2012) to a single weighted
    integral

        I_1 = C * integral over the complement of f_eps^{2Q/(Q+alpha)},

    where C = 2 * integral of H(v) |v|^{alpha-Q} dV_0 = 2 * D_H * pi^{alpha/2}
    is the reciprocal extremal eigenvalue, taken in closed form. The
    complement is truncated at TAIL_ENLARGEMENT times R; the integral is
    evaluated in dilation-scaled coordinates, so the result depends on eps
    and R only through R/eps, exactly.

    Decays like (R/eps)^{-Q}; meant for the regime eps << R and used for
    slope fits.
    """
    eps, R = float(eps), float(R)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not R > eps:
        raise ValueError(f"tail integral needs eps < R, got eps = {eps}, R = {R}")
    ratio = R / eps
    # the extremal's Euler-Lagrange identity at the group identity, where H = 1:
    # integral of H |v|^{alpha-Q} dV_0 = D_H * (integral of H^{q_alpha} dV_0)^{alpha/Q}.
    # H^{q_alpha} = ((1 + |z|^2)^2 + t^2)^{-(n+1)} is the Cayley map's Jacobian
    # over 2^{2n+1}, which integrates to |S^{2n+1}| = 2 pi^{n+1} / n!; dV_0's
    # factor 2^{2n} n! makes the integral pi^{n+1}, and (n+1) alpha / Q = alpha / 2
    ref = sharp_constant_DH(params) * math.pi ** (0.5 * params.alpha)
    shell = cylinder_shell_grid(ratio, TAIL_ENLARGEMENT * ratio, resolution, params)
    h = _extremal(shell.z, shell.t, 1.0, params)
    tail_mass = float(np.dot(h**params.q_alpha, shell.weights))
    return 2.0 * ref * tail_mass
