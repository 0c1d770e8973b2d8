"""Heisenberg group H^n: group law, gauge norm, dilations, model extremal.

Points are pairs (z, t) with z in C^n and t real. The group product twists
the t component by the symplectic form 2 Im(z . conj(z')), the anisotropic
dilations scale z linearly and t quadratically, and the gauge norm
|(z, t)| = (|z|^4 + t^2)^{1/4} is homogeneous of degree one under them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Params

__all__ = [
    "HPoint",
    "group_mul",
    "group_inv",
    "hnorm",
    "hdist",
    "gauge_dist_sq",
    "dilate",
    "extremal_H",
    "extremal_family",
]


def _as_complex_vector(z) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"z must be a nonempty 1-d complex vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class HPoint:
    """Point (z, t) of H^n; z is a length-n complex vector, t is real."""

    z: np.ndarray
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _as_complex_vector(self.z))
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return int(self.z.size)


def _check_same_n(u: HPoint, v: HPoint) -> None:
    if u.n != v.n:
        raise ValueError(f"dimension mismatch: points live on H^{u.n} and H^{v.n}")


def group_mul(u: HPoint, v: HPoint) -> HPoint:
    """Group product (z, t)(z', t') = (z + z', t + t' + 2 Im(z . conj(z')))."""
    _check_same_n(u, v)
    # vdot conjugates its first argument, so this is sum_k u.z[k] * conj(v.z[k])
    twist = 2.0 * float(np.imag(np.vdot(v.z, u.z)))
    return HPoint(u.z + v.z, u.t + v.t + twist)


def group_inv(u: HPoint) -> HPoint:
    """Group inverse (-z, -t); group_mul(u, group_inv(u)) is the identity."""
    return HPoint(-u.z, -u.t)


def _sq_norm(z: np.ndarray) -> np.ndarray:
    """|z|^2 of each row of z, or of one 1-d vector."""
    return np.einsum("...j,...j->...", z, z.conj()).real


def gauge_dist_sq(z: np.ndarray, t: np.ndarray, z0: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """Squared gauge distance |(z0, t0)^{-1} (z, t)|^2 = hypot(|z - z0|^2, tau).

    tau = t - t0 + 2 Im(z . conj(z0)). z, z0 hold points of H^n as rows, or
    one point as a 1-d vector; the result has shape z.shape[:-1] +
    z0.shape[:-1]. |z - z0|^2 is summed from differences, not expanded, so
    it is exactly 0 on the diagonal and accurate for close points.
    """
    z, z0 = np.asarray(z), np.asarray(z0)
    tau = np.subtract.outer(t, t0)
    tau += 2.0 * np.asarray(z @ np.conj(z0).T).imag
    rows = z.reshape(z.shape[:-1] + (1,) * (z0.ndim - 1) + z.shape[-1:])
    return np.hypot(_sq_norm(rows - z0), tau)


def hnorm(u: HPoint) -> float:
    """Gauge norm (|z|^4 + t^2)^{1/4}, the distance to the group identity."""
    return math.sqrt(gauge_dist_sq(u.z, u.t, np.zeros_like(u.z), 0.0))


def hdist(u: HPoint, v: HPoint) -> float:
    """Left-invariant gauge distance |v^{-1} u|.

    hdist(wu, wv) = hdist(u, v), and hdist is symmetric because the gauge
    norm is invariant under the group inverse: |u^{-1} v| = |(v^{-1} u)^{-1}|.
    """
    _check_same_n(u, v)
    return math.sqrt(gauge_dist_sq(u.z, u.t, v.z, v.t))


def dilate(r: float, u: HPoint) -> HPoint:
    """Anisotropic dilation (z, t) -> (r z, r^2 t) for r > 0."""
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"dilation factor must be positive, got {r}")
    return HPoint(r * u.z, (r * r) * u.t)


def _extremal(z: np.ndarray, t: np.ndarray, eps: float, params: Params) -> np.ndarray:
    """extremal_family at scale eps on rows z, t of points, or on one point.

    Raises ValueError for an eps that is not positive, so small that the peak
    eps^{-(Q+alpha)/2} overflows a float (eps = 1e-103 at alpha = 2 on H^1), or
    so large that eps^2 does (above about 1.3e154).
    """
    if z.shape[-1] != params.n:
        raise ValueError(f"points live on H^{z.shape[-1]} but params have n = {params.n}")
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    expo = -0.5 * (params.Q + params.alpha)
    try:
        peak, eps_sq = eps**expo, eps**2
    except OverflowError:
        what = f"the peak eps^{{-(Q+alpha)/2}} = {eps!r}^{expo!r}" if eps < 1.0 else "eps^2"
        raise ValueError(f"eps = {eps!r} is out of range: {what} overflows a float") from None
    return peak * np.hypot(1.0 + _sq_norm(z) / eps_sq, t / eps_sq) ** expo


def extremal_H(u: HPoint, params: Params) -> float:
    """Model extremal ((1 + |z|^2)^2 + t^2)^{-(Q+alpha)/4}.

    Peak value 1 at the group identity, strictly decreasing along the |z|
    and |t| axes, decaying like hnorm(u)^{-(Q+alpha)} at infinity.
    """
    return extremal_family(1.0, u, params)


def extremal_family(eps: float, u: HPoint, params: Params) -> float:
    """Concentrating family eps^{-(Q+alpha)/2} * extremal_H(dilate(1/eps, u)).

    Normalized so that every member has the same L^{q_alpha} mass as the
    eps = 1 profile; mass concentrates at scale eps as eps -> 0.
    """
    return float(_extremal(u.z, u.t, eps, params))
