"""CR sphere S^{2n+1} in C^{n+1}: chordal distance, Cayley transform, extremals.

The Cayley transform is the CR analogue of stereographic projection: it
maps H^n onto the sphere minus the south pole (0, ..., 0, -1), carries the
Heisenberg gauge distance to the sphere distance up to explicit conformal
factors, and has Jacobian 2^{2n+1} / ((1 + |z|^2)^2 + t^2)^{n+1} relative
to Lebesgue and Euclidean surface measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Params
from .heisenberg import HPoint, _sq_norm

__all__ = [
    "SpherePoint",
    "sphere_dist_sq",
    "sphere_dist",
    "cayley",
    "cayley_inv",
    "cayley_jacobian",
    "sphere_extremal",
]

# below this the inverse Cayley chart's denominator 1 + xi_{n+1} is treated
# as singular (the south pole is not in the chart)
_POLE_TOL = 1e-12


@dataclass(frozen=True)
class SpherePoint:
    """Unit vector in C^{n+1}; renormalized on construction."""

    xi: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.xi, dtype=np.complex128))
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(
                f"xi must be a complex vector with at least 2 components, got shape {arr.shape}"
            )
        norm = float(np.linalg.norm(arr))
        if not norm > 0.0:
            raise ValueError("cannot normalize the zero vector to the sphere")
        object.__setattr__(self, "xi", arr / norm)

    @property
    def n(self) -> int:
        return int(self.xi.size - 1)


def sphere_dist_sq(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Squared chordal CR distance 2 |1 - xi . conj(eta)| between unit vectors.

    xi and eta hold points of S^{2n+1} in C^{n+1} as rows, or one point
    as a 1-d vector; the result has shape xi.shape[:-1] + eta.shape[:-1].
    It is taken as |2 - (2 xi) . conj(eta)|, bit for bit the modulus scaled
    by 2, since scaling by 2 is exact. The scaled inner products are
    overwritten in place, so a block of distances needs one complex work
    array beside the real result.
    """
    ip = np.asarray((2.0 * xi) @ np.conj(eta).T)
    np.subtract(2.0, ip, out=ip)
    return np.abs(ip)


def sphere_dist(a: SpherePoint, b: SpherePoint) -> float:
    """Chordal CR distance, d(a, b)^2 = 2 |1 - a.xi . conj(b.xi)|.

    Symmetric, maximal value 2 at antipodes. The self-distance is the rounding
    of the inner-product form, up to about 3e-8; assembly keeps that form, as the
    difference form was about 2x slower at 24^3. blowup_diagnostic zeroes it at its centre.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: points live on S^{2*a.n+1} and S^{2*b.n+1}")
    return math.sqrt(sphere_dist_sq(a.xi, b.xi))


def _cayley(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """cayley on rows z, t of points of H^n, or on one point, returned as the array xi."""
    zz, it = _sq_norm(z), 1j * np.asarray(t)
    xi = np.concatenate([2.0 * z, (1.0 - zz - it)[..., None]], axis=-1)
    return xi / (1.0 + zz + it)[..., None]


def cayley(u: HPoint) -> SpherePoint:
    """Cayley transform H^n -> S^{2n+1} minus the south pole.

    C(z, t) = (2z / w, (1 - |z|^2 - it) / w) with w = 1 + |z|^2 + it.
    The image is unit length identically, and the origin maps to the
    north pole (0, ..., 0, 1).
    """
    return SpherePoint(_cayley(u.z, u.t))


def _cayley_inv(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cayley_inv on rows of xi (or one point), returned as arrays (z, t)."""
    last = xi[..., -1]
    w = 1.0 + last
    gap = float(np.min(np.abs(w)))
    if gap < _POLE_TOL:
        raise ValueError(
            "inverse Cayley transform is singular at the south pole "
            f"(|1 + xi_{{n+1}}| = {gap:.3e} < {_POLE_TOL:.0e})"
        )
    return xi[..., :-1] / w[..., None], ((1.0 - last) / w).imag


def cayley_inv(p: SpherePoint) -> HPoint:
    """Inverse Cayley transform.

    z_k = xi_k / (1 + xi_{n+1}) and t = Im((1 - xi_{n+1}) / (1 + xi_{n+1})).
    Raises ValueError within 1e-12 of the south pole, where the chart is
    singular.
    """
    return HPoint(*_cayley_inv(p.xi))


def _cayley_jacobian(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """cayley_jacobian on rows z, t of points of H^n, or on one point."""
    n = z.shape[-1]
    return 2.0 ** (2 * n + 1) * np.hypot(1.0 + _sq_norm(z), t) ** (-2 * (n + 1))


def cayley_jacobian(u: HPoint) -> float:
    """Jacobian of the Cayley transform, 2^{2n+1} / ((1+|z|^2)^2 + t^2)^{n+1}.

    Relative to Lebesgue measure on C^n x R upstream and Euclidean surface
    measure on S^{2n+1} downstream; decays like hnorm(u)^{-2Q}.
    """
    return float(_cayley_jacobian(u.z, u.t))


def _sphere_extremal(xi: np.ndarray, pole, params: Params) -> np.ndarray:
    """Sphere extremal |1 - conj(pole) . xi|^{-(Q+alpha)/2} on rows of xi."""
    n = params.n
    if xi.shape[-1] != n + 1:
        raise ValueError(f"points live on S^{2 * xi.shape[-1] - 1} but params have n = {n}")
    pole_arr = np.atleast_1d(np.asarray(pole, dtype=np.complex128))
    if pole_arr.shape != (n + 1,):
        raise ValueError(
            f"pole must be a complex vector of length n + 1 = {n + 1}, got shape {pole_arr.shape}"
        )
    pole_norm = float(np.linalg.norm(pole_arr))
    if not pole_norm < 1.0:
        raise ValueError(f"pole must lie strictly inside the unit ball, got |pole| = {pole_norm}")
    ip = xi @ pole_arr.conj()
    return np.abs(1.0 - ip) ** (-0.5 * (params.Q + params.alpha))


def sphere_extremal(p: SpherePoint, pole, params: Params) -> float:
    """Extremal family on the sphere, |1 - conj(pole) . xi|^{-(Q+alpha)/2}.

    The pole ranges over the open unit ball of C^{n+1}; pole = 0 gives the
    constant function 1. Poles approaching the boundary concentrate the
    mass near the boundary point.
    """
    return float(_sphere_extremal(p.xi, pole, params))
