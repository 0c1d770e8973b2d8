"""Dimensional bookkeeping and closed-form constants.

Everything downstream works on the Heisenberg group H^n or the CR sphere
S^{2n+1} with homogeneous dimension Q = 2n + 2 and a kernel order
alpha in (0, Q). The dual exponent pair (q_alpha, p_alpha) balances the
convolution inequality: 1/q_alpha - 1/p_alpha = alpha/Q.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["Params", "make_params", "sharp_constant_DH", "sphere_kernel_eigenvalue"]


@dataclass(frozen=True)
class Params:
    """Dimension and exponent bundle shared by every module.

    Attributes
    ----------
    n : int
        Complex dimension of the horizontal layer (so H^n = C^n x R).
    alpha : float
        Kernel order, 0 < alpha < Q.
    Q : int
        Homogeneous dimension 2n + 2.
    p_alpha : float
        Upper sharp exponent 2Q / (Q - alpha).
    q_alpha : float
        Lower sharp exponent 2Q / (Q + alpha); also the edge of the
        subcritical window (q_alpha, 2) used by the extremal solver.
    b_n : float
        Critical Sobolev-type exponent 2Q / (Q - 2).
    """

    n: int
    alpha: float
    Q: int
    p_alpha: float
    q_alpha: float
    b_n: float


def make_params(n: int, alpha: float) -> Params:
    """Validate (n, alpha) and derive the exponent bookkeeping."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    Q = 2 * n + 2
    alpha = float(alpha)
    if not 0.0 < alpha < Q:
        raise ValueError(f"alpha must lie in (0, Q) = (0, {Q}), got {alpha}")
    return Params(
        n=n,
        alpha=alpha,
        Q=Q,
        p_alpha=2.0 * Q / (Q - alpha),
        q_alpha=2.0 * Q / (Q + alpha),
        b_n=2.0 * Q / (Q - 2),
    )


def sharp_constant_DH(params: Params) -> float:
    """Sharp constant of the Hardy-Littlewood-Sobolev inequality on H^n.

    D_H = (2 pi)^{(Q-alpha)/2} * n! * Gamma(alpha/2) / Gamma((Q+alpha)/4)^2.

    The CR sphere carries the same constant. Evaluated in log space so
    alpha near the endpoints stays finite; for n = 1, alpha = 2 the value
    is exactly 8. Raises ValueError when the constant exceeds the float
    range (from n = 282 at alpha = 2).
    """
    n, alpha, Q = params.n, params.alpha, params.Q
    log_value = (
        0.5 * (Q - alpha) * math.log(2.0 * math.pi)
        + math.lgamma(n + 1.0)
        + math.lgamma(0.5 * alpha)
        - 2.0 * math.lgamma(0.25 * (Q + alpha))
    )
    if log_value > math.log(sys.float_info.max):
        raise ValueError(
            f"sharp constant for n = {n}, alpha = {alpha} exceeds the float range "
            f"(log value {log_value:.6g})"
        )
    return math.exp(log_value)


def sphere_kernel_eigenvalue(j: int, k: int, params: Params) -> float:
    """Eigenvalue E_{j,k} / E_{0,0} of the pure kernel on S^{2n+1}, on the space
    H_{j,k} of bigraded spherical harmonics, relative to the constants.

    By Funk-Hecke (Frank and Lieb, Ann. of Math. 176, 2012) it is
    (a)_j (a)_k / ((b)_j (b)_k) with a = (Q - alpha)/4, b = (Q + alpha)/4 and
    (x)_j the rising factorial. H_{1,0} + H_{0,1} holds the coordinate
    functions, the conformal directions, with eigenvalue q_alpha - 1.
    """
    for name, m in (("j", j), ("k", k)):
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {m!r}")
    a = 0.25 * (params.Q - params.alpha)
    b = 0.25 * (params.Q + params.alpha)
    # (a)_m / (b)_m for m = j and for m = k, multiplied last so that (j, k) and
    # (k, j) give the same bits
    ratio_j, ratio_k = (math.prod((a + i) / (b + i) for i in range(m)) for m in (j, k))
    return ratio_j * ratio_k
