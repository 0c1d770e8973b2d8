"""Experiment drivers: truncated lower bounds, mass perturbation, identities.

Each driver returns a small dataclass record with plain-type fields; the
CLI alone turns records into artifacts: JSON summaries (dataclasses.asdict)
and CSV rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params, make_params, sharp_constant_DH
from .discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    _check_grid,
    assemble_kernel,
    cylinder_grid,
    extremal_values,
    sphere_grid,
)
from .functional import _as_values, lp_norm, rayleigh_quotient
from .heisenberg import _extremal, gauge_dist_sq
from .solver import continuation, default_p_schedule
from .sphere import _cayley_inv, _cayley_jacobian

__all__ = [
    "LowerBoundResult",
    "EpsInvarianceResult",
    "MassPerturbationResult",
    "lower_bound_experiment",
    "eps_invariance_experiment",
    "mass_perturbation_experiment",
    "conformal_covariance_check",
    "curvature_equation_residual",
]


@dataclass(frozen=True)
class LowerBoundResult:
    """Truncated-extremal Rayleigh quotient against the sharp constant."""

    n: int
    alpha: float
    eps: float
    R: float
    ratio: float
    resolution: tuple[int, ...]
    n_nodes: int
    quotient: float
    sharp_constant: float


def _transported_extremal_values(grid: QuadratureGrid, params: Params, eps: float, R: float) -> np.ndarray:
    """Eps-scale group extremal moved to the sphere, truncated at gauge radius R.

    The pullback f(C^{-1} xi) * J(C^{-1} xi)^{-1/q_alpha} of f = _extremal
    through the Cayley map C with Jacobian J = _cayley_jacobian, which
    keeps the L^{q_alpha} norm and the quotient; nodes whose preimage has
    gauge norm above R are zeroed. At eps = 1 the untruncated result is
    constant to rounding.
    """
    if grid.kind != "sphere":
        raise ValueError(f"transported extremal needs a sphere grid, got a {grid.kind} grid")
    z, t = _cayley_inv(grid.xi)
    g = _extremal(z, t, eps, params) * _cayley_jacobian(z, t) ** (-1.0 / params.q_alpha)
    g[gauge_dist_sq(z, t, np.zeros(z.shape[-1]), 0.0) > R**2] = 0.0
    return g


def lower_bound_experiment(eps: float, R: float, resolution, params: Params) -> LowerBoundResult:
    """Quotient of the truncated concentrating extremal at the lower exponent.

    The trial function is the eps-scale extremal restricted to the gauge ball
    of radius R, which bounds the sharp constant from below for every eps and
    R. The quotient is evaluated on the sphere through the Cayley transport
    that leaves it invariant, because the equidistributed sphere rule resolves
    the singular kernel without the coherent near-diagonal pairs a product
    rule on the group would produce: the sphere trial function is built from
    the extremal, the inverse Cayley map and the Cayley Jacobian
    (_transported_extremal_values). Approaches the sharp constant from below
    as R/eps grows and the mesh refines. Sphere grids, and so this bound,
    exist for n = 1 only.

    The kernel is read once, so it is never stored: the quotient walks the
    matrix-free operator, computing each float64 tile of the upper triangle
    (the tiles assemble_kernel stores) once, in a few tiles of memory at
    every size.
    """
    eps, R = float(eps), float(R)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not R > eps:
        raise ValueError(f"need eps < R, got eps = {eps}, R = {R}")
    grid = sphere_grid(params.n, resolution)
    g = _transported_extremal_values(grid, params, eps, R)
    K = KernelMatrix(None, KernelSpec("pure_singular"), grid, params)
    quotient = rayleigh_quotient(K, g, params.q_alpha)
    return LowerBoundResult(
        n=params.n,
        alpha=params.alpha,
        eps=eps,
        R=R,
        ratio=R / eps,
        resolution=tuple(grid.resolution),
        n_nodes=len(grid),
        quotient=quotient,
        sharp_constant=sharp_constant_DH(params),
    )


@dataclass(frozen=True)
class EpsInvarianceResult:
    """Norm of the concentrating family across eps at a fixed R/eps ratio."""

    n: int
    alpha: float
    ratio: float
    resolution: tuple[int, ...]
    eps_list: tuple[float, ...]
    norms: tuple[float, ...]
    spread_rel: float


def eps_invariance_experiment(
    eps_list, ratio: float, resolution, params: Params
) -> EpsInvarianceResult:
    """L^{q_alpha} mass of f_eps on the cylinder of radius ratio * eps.

    The continuum masses agree exactly across eps; the dilation-covariant
    cylinder rule reproduces that agreement at the discrete level, so the
    relative spread measures only floating-point noise.
    """
    ratio = float(ratio)
    if not ratio > 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    eps_tuple = tuple(float(e) for e in eps_list)
    if len(eps_tuple) == 0 or any(e <= 0.0 for e in eps_tuple):
        raise ValueError(f"eps_list must hold positive values, got {eps_list}")
    norms = []
    for eps in eps_tuple:
        grid = cylinder_grid(ratio * eps, resolution, params)
        norms.append(lp_norm(extremal_values(grid, params, eps), grid, params.q_alpha))
    lo, hi = min(norms), max(norms)
    return EpsInvarianceResult(
        n=params.n,
        alpha=params.alpha,
        ratio=ratio,
        resolution=grid.resolution,
        eps_list=eps_tuple,
        norms=tuple(norms),
        spread_rel=(hi - lo) / hi,
    )


@dataclass(frozen=True)
class MassPerturbationResult:
    """Critical-limit quotients with and without a positive-mass kernel term."""

    alpha: float
    A0: float
    c_w: float
    resolution: tuple[int, ...]
    n_nodes: int
    p_endpoint: float
    quotient_mass: float
    quotient_pure: float
    delta: float
    all_converged: bool


def mass_perturbation_experiment(
    A0_list,
    c_w: float,
    alpha: float,
    resolution,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> list[MassPerturbationResult]:
    """Compare critical-limit quotients of mass-shifted kernels with the pure one.

    Runs warm-started continuation down to p = q_alpha + 1e-3 on the CR
    sphere (n = 1) for the pure singular kernel once and, for each A0 of the
    sweep (a number is a one-entry sweep), for the green_model kernel with
    constant mass A0; returns one record per A0. A positive mass dominates
    the pure kernel entrywise, so delta > 0 for A0 > 0. With A0 = 0 and
    c_w = 0 the green_model kernel is the pure one, whose solve is reused,
    so delta = 0 exactly. Every A0 is checked before any assembly.
    """
    masses = [float(A0) for A0 in np.atleast_1d(A0_list)]
    if not masses:
        raise ValueError("A0_list must not be empty")
    for A0 in masses:
        if A0 < 0.0:
            raise ValueError(f"A0 must be nonnegative, got {A0}")
    params = make_params(1, alpha)
    grid = sphere_grid(1, resolution)
    schedule = default_p_schedule(params)
    specs = [
        KernelSpec("green_model", mass=np.full(len(grid), A0), c_w=c_w) if A0 or c_w else None
        for A0 in masses
    ]

    def solve(spec):
        K = assemble_kernel(grid, spec, params)
        return continuation(K, grid, schedule, tol=tol, max_iter=max_iter)

    runs_pure = solve(KernelSpec("pure_singular"))
    runs_mass = [runs_pure if spec is None else solve(spec) for spec in specs]
    qp = runs_pure[-1].D_estimate
    return [
        MassPerturbationResult(
            alpha=params.alpha,
            A0=A0,
            c_w=float(c_w),
            resolution=tuple(grid.resolution),
            n_nodes=len(grid),
            p_endpoint=schedule[-1],
            quotient_mass=runs[-1].D_estimate,
            quotient_pure=qp,
            delta=runs[-1].D_estimate - qp,
            all_converged=all(r.converged for r in runs + runs_pure),
        )
        for A0, runs in zip(masses, runs_mass)
    ]


def _identity_inputs(K: KernelMatrix, grid: QuadratureGrid, params: Params, **values):
    """Shared refusals of the identity checks; the named node values, finite, as float64."""
    _check_grid(K, grid)
    if params != K.params:
        raise ValueError("params do not match the kernel's assembly params")
    arrays = {name: _as_values(v, len(K), name) for name, v in values.items()}
    if "phi" in arrays and np.any(arrays["phi"] <= 0.0):
        raise ValueError("phi must be strictly positive")
    return list(arrays.values())


def conformal_covariance_check(
    K: KernelMatrix, grid: QuadratureGrid, phi, u, params: Params
) -> float:
    """Sup-norm defect of the discrete conformal covariance identity.

    The contact-form rescaling by a positive factor phi multiplies the
    exponentiated kernel entries by (phi_i phi_j)^{-(Q-alpha)/(Q-2)} and
    the weights by phi^{2Q/(Q-2)}. Applying the transformed operator to u
    must then agree with

        phi^{-(Q-alpha)/(Q-2)} * (base operator applied to phi^{(Q+alpha)/(Q-2)} u)

    node by node. The identity is algebraic, so the residual is pure
    floating-point noise at any resolution.
    """
    phi_v, u_v = _identity_inputs(K, grid, params, phi=phi, u=u)
    Q, alpha = params.Q, params.alpha
    w = grid.weights
    beta = (Q - alpha) / (Q - 2.0)
    scale = phi_v**-beta
    w_tilde = phi_v**params.b_n * w
    lhs = scale * K.matvec(scale * u_v * w_tilde)
    rhs = scale * K.matvec(phi_v ** ((Q + alpha) / (Q - 2.0)) * u_v * w)
    return float(np.max(np.abs(lhs - rhs)))


def curvature_equation_residual(
    K: KernelMatrix, grid: QuadratureGrid, phi, params: Params
) -> float:
    """Sup-norm defect of phi^{(Q+alpha)/(Q-alpha)} = (K phi-weighted sum).

    The equation determines phi only up to the constant multiplier that a
    rescaling phi -> lam * phi moves between the two sides; lam is fixed
    by matching the weighted means of both sides before taking the sup.
    For kernels with constant row sums s the constant phi = s^{(Q-alpha)/(2 alpha)}
    solves the equation exactly.
    """
    (phi_v,) = _identity_inputs(K, grid, params, phi=phi)
    Q, alpha = params.Q, params.alpha
    w = grid.weights
    s = (Q + alpha) / (Q - alpha)
    applied = K.matvec(phi_v * w)
    a = float(np.dot(w, phi_v**s))
    b = float(np.dot(w, applied))
    if not (a > 0.0 and b > 0.0):
        raise ValueError("curvature residual needs positive weighted masses on both sides")
    lam = (b / a) ** ((Q - alpha) / (2.0 * alpha))
    phi_hat = lam * phi_v
    return float(np.max(np.abs(phi_hat**s - K.matvec(phi_hat * w))))
