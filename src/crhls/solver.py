"""Subcritical extremal solver.

For a nonnegative kernel K over a weighted grid and an exponent p in the
subcritical window (q_alpha, 2), the maximizer of B(f, f) / lp_norm(f, p)^2
over nonnegative f solves the stationarity equation

    2 D f_i^{p-1} = sum_j (K_ij + K_ji) f_j w_j.

The fixed-point map inverts that relation and renormalizes:

    f  <-  normalize_p( (S f)^{1/(p-1)} ),   S = weighted (K + K^T)/2 action.

A KernelMatrix is symmetric, K = K^T, so S is one product with K per
evaluation. The solver accelerates the map by Anderson mixing
(Walker and Ni, SIAM J. Numer. Anal. 49, 2011) on u = log f over a short
window. It keeps a mixed step only when the quotient does not fall by more
than a roundoff slack of 1e-14 relative; otherwise it damps the plain map
step until the quotient meets the same test, and ends the solve unconverged
when no damped step does. So the quotient may fall by at most the slack per
step; this is tracked in the result's quotient history.
Approaching p -> q_alpha from above is done by warm-started continuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params
from .discretization import KernelMatrix, QuadratureGrid, _check_grid
from .functional import _positive_lp_norm, lp_norm
from .heisenberg import _extremal

# number of past residual differences an Anderson step mixes
_ANDERSON_WINDOW = 3
# a step counts as ascent unless it lowers the quotient by more than this,
# relative. Without it, every refused candidate and backtrack of the 8^3,
# 12^3 and 16^3 sphere continuations, on one or two BLAS threads, came from
# falls of 1.1e-16 to 1.1e-15, the rounding of the product; at 12^3 on two
# threads they cost 81 of 178 products
_ROUNDOFF_SLACK = 1e-14
# default_p_schedule ends this far above q_alpha; another endpoint needs its own schedule
_ENDPOINT_OFFSET = 1e-3
# blowup_diagnostic's profile keeps the nodes within this many mu_p of the peak
_RADIUS_FACTOR = 8.0

__all__ = [
    "SubcriticalResult",
    "BlowupReport",
    "solve_subcritical",
    "continuation",
    "default_p_schedule",
    "blowup_diagnostic",
]


@dataclass
class SubcriticalResult:
    """Outcome of one subcritical solve.

    residual is the sup-norm defect of the stationarity equation at the
    returned iterate; quotient_history records the quotient after every
    iteration (each step falls by at most 1e-14 relative). converged =
    False signals max_iter was hit, or that no damped map step kept the
    quotient within that fall and the solve ended at the iterate it had;
    it is not an error. matvecs counts the products with the N x N kernel
    matrix the solve made; rejected counts the Anderson candidates refused
    and backtracks the damped map steps evaluated, each one product.
    """

    p: float
    D_estimate: float
    f: np.ndarray
    iterations: int
    residual: float
    converged: bool
    quotient_history: np.ndarray
    matvecs: int = 0
    rejected: int = 0
    backtracks: int = 0


@dataclass
class BlowupReport:
    """Concentration diagnostics of a subcritical maximizer.

    mu_p = f_max^{-(2-p)/alpha} is the predicted concentration scale. The
    profile holds the maximizer rescaled by its peak, sampled at nodes
    within 8 mu_p of the peak node, against the rescaled gauge radius;
    profile value 1 at radius 0 is exact by construction.
    profile_deviation is the sup distance to the model bubble profile
    (1 + s^2)^{-(Q+alpha)/2}, the |z|-axis section of the extremal; flat
    near-constant maximizers therefore score a large deviation.
    """

    mu_p: float
    center_index: int
    radii: np.ndarray
    profile: np.ndarray
    profile_deviation: float


def solve_subcritical(
    K: KernelMatrix,
    grid: QuadratureGrid,
    p: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
    f0=None,
) -> SubcriticalResult:
    """Run the Anderson-accelerated fixed-point iteration at a subcritical exponent.

    Starts from the normalized constant unless a warm start f0 is given, and
    returns a local maximizer on the branch of its start. It climbs the
    quotient from that start, so a higher maximum elsewhere (one concentrated
    on a tight node cluster, say) goes unseen, and the result need not be
    the discrete supremum.
    Converged means both the relative quotient change and the stationarity
    defect dropped below tol (the defect scaled by 1 + D). Hitting
    max_iter, or a damped search that finds no step keeping the quotient,
    returns converged = False rather than raising. The
    matrix-free operator is densified first (KernelMatrix.densified), so a
    kernel too large for memory is refused before any product.
    """
    p = float(p)
    q_alpha = K.params.q_alpha
    if not q_alpha < p < 2.0:
        raise ValueError(
            f"p must lie in the subcritical window (q_alpha, 2) = ({q_alpha:.6f}, 2), got p = {p}"
        )
    _check_grid(K, grid)
    if not float(tol) > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if int(max_iter) < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    K = K.densified()  # many products: the matrix-free operator would rebuild every tile each time
    w = grid.weights
    N = len(grid)

    if f0 is None:
        f = np.ones(N)
    else:
        f = np.asarray(f0, dtype=np.float64).copy()
        if f.shape != (N,):
            raise ValueError(f"f0 must have shape ({N},), got {f.shape}")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0) or not np.any(f > 0.0):
            raise ValueError("warm start must be finite, nonnegative and not identically zero")

    matvecs = rejected = backtracks = 0

    def evaluate(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        nonlocal matvecs
        matvecs += 1
        cw = c * w
        y_c = K.matvec(cw)
        return c, y_c, float(np.dot(cw, y_c))

    def blend(a: float, b: float) -> np.ndarray:
        c = f**a * g**b
        c /= _positive_lp_norm(c, w, p)
        return c

    inv_exp = 1.0 / (p - 1.0)
    sqrt_w = np.sqrt(w)
    history: list[float] = []
    # the Anderson history: u = log f and r = log g - u of the latest
    # iterate, and the differences to it from up to _ANDERSON_WINDOW earlier
    # ones, each appended once as sqrt(w) * delta r (the fit's columns) and
    # delta u + delta r (the step's rows)
    u_last = r_last = None
    fit_cols: list[np.ndarray] = []
    step_rows: list[np.ndarray] = []
    iterations = 0
    D_prev = None
    f, y, D = evaluate(f / lp_norm(f, grid, p))
    # the first product stands in for a scan of the entries it reads, the
    # upper triangle (dsymv or the tile walk): each upper entry is added to
    # both its row and its column, and BLAS gives 0 * NaN = 0 * inf = NaN, so
    # a NaN or an infinite entry reaches y even where the start is zero; a
    # negative entry shows unless positive entries outweigh it
    lo, hi = float(np.min(y)), float(np.max(y))
    if not 0.0 <= lo <= hi < np.inf:
        raise ValueError(
            "kernel holds a NaN, an infinite or a negative entry: its first product "
            f"is not finite and nonnegative (from {lo} to {hi})"
        )
    if not hi > 0.0:
        raise ValueError("kernel has no positive entry: no positive quotient")
    while True:
        history.append(D)
        flat = D_prev is not None and abs(D - D_prev) <= tol * max(1.0, abs(D))
        # the defect is read only here, when the quotient is flat or the last step is
        # taken, and where a damped search fails
        if flat or iterations >= max_iter:
            defect = _stationarity_defect(f, y, D, p)
            converged = flat and defect <= tol * (1.0 + D)
            if converged or iterations >= max_iter:
                break
        D_prev = D
        peak = float(np.max(y))
        if peak <= 0.0:
            raise ValueError("iteration collapsed: the kernel maps the iterate to zero")
        g = y / peak
        g **= inv_exp
        g /= _positive_lp_norm(g, w, p)
        # Anderson type-II mixing on u = log f for the map u -> log g: the
        # candidate combines the last map values with the coefficients that
        # minimize the sqrt(w)-weighted norm of the combined residual. The
        # map step is not always ascent for p < 2, so a candidate is kept
        # only if the quotient does not fall below floor. Otherwise the
        # history is cut to its latest entry and the map step is damped
        # geometrically toward the current iterate until it reaches floor.
        # The not (... >= floor) form refuses a NaN quotient. Zeros in f or
        # g have no logarithm and clear the history.
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.log(f)
            r = np.log(g)
            r -= u
        if np.all(np.isfinite(r)):
            if u_last is not None:
                du = u - u_last
                dr = r - r_last
                du += dr
                dr *= sqrt_w
                step_rows.append(du)
                fit_cols.append(dr)
                del step_rows[:-_ANDERSON_WINDOW], fit_cols[:-_ANDERSON_WINDOW]
            u_last, r_last = u, r
        else:
            u_last = r_last = None
            step_rows.clear()
            fit_cols.clear()
        floor = D - _ROUNDOFF_SLACK * abs(D)
        accepted = False
        if fit_cols:
            gamma = np.linalg.lstsq(np.array(fit_cols).T, r * sqrt_w, rcond=None)[0]
            c = u + r
            c -= gamma @ np.array(step_rows)
            c -= np.max(c)
            np.exp(c, out=c)
            c /= _positive_lp_norm(c, w, p)
            cand, y_c, D_c = evaluate(c)
            accepted = D_c >= floor
            if not accepted:
                rejected += 1
                step_rows.clear()
                fit_cols.clear()
        if not accepted:
            theta = 1.0
            cand, y_c, D_c = evaluate(g)
            while not D_c >= floor and theta >= 1e-6:
                theta *= 0.5
                backtracks += 1
                cand, y_c, D_c = evaluate(blend(1.0 - theta, theta))
            if not D_c >= floor:  # no step keeps the quotient: end at the current iterate
                defect = _stationarity_defect(f, y, D, p)
                converged = False
                break
        f, y, D = cand, y_c, D_c
        iterations += 1

    return SubcriticalResult(
        p=p,
        D_estimate=D,
        f=f,
        iterations=iterations,
        residual=defect,
        converged=converged,
        quotient_history=np.asarray(history),
        matvecs=matvecs,
        rejected=rejected,
        backtracks=backtracks,
    )


def _stationarity_defect(f: np.ndarray, y: np.ndarray, D: float, p: float) -> float:
    """max |2 D f^{p-1} - 2 y|, taken as 2 max |D f^{p-1} - y| in one work vector;
    scaling by 2 is exact, so the two forms agree bit for bit."""
    t = f ** (p - 1.0)
    t *= D
    t -= y
    np.abs(t, out=t)
    return 2.0 * float(np.max(t))


def default_p_schedule(params: Params) -> list[float]:
    """Decreasing exponents from mid-window down to q_alpha + 1e-3, for windows wider than 1e-3."""
    q = params.q_alpha
    if not _ENDPOINT_OFFSET < 2.0 - q:
        raise ValueError(f"window ({q:.6f}, 2) narrower than {_ENDPOINT_OFFSET}: pass a schedule")
    endpoint = q + _ENDPOINT_OFFSET
    schedule = [q + (2.0 - q) * fr for fr in (0.7, 0.4, 0.175, 0.04)]
    schedule = [p for p in schedule if p > endpoint * (1.0 + 1e-12)]
    schedule.append(endpoint)
    return schedule


def continuation(
    K: KernelMatrix,
    grid: QuadratureGrid,
    p_schedule,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> list[SubcriticalResult]:
    """Warm-started solves along a strictly decreasing exponent schedule.

    Each stage starts from the previous stage's result, so the last is a
    local maximizer on the branch of the first stage's start (the constant);
    stages that fail to converge still seed the next one, and carry
    converged = False. The matrix-free operator is densified once, before
    the first stage.
    """
    schedule = [float(p) for p in p_schedule]
    if len(schedule) == 0:
        raise ValueError("p_schedule must not be empty")
    q_alpha = K.params.q_alpha
    for p in schedule:
        if not q_alpha < p < 2.0:
            raise ValueError(
                f"schedule entry {p} outside the subcritical window ({q_alpha:.6f}, 2)"
            )
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"p_schedule must be strictly decreasing, got {schedule}")
    K = K.densified()
    results: list[SubcriticalResult] = []
    f_warm = None
    for p in schedule:
        res = solve_subcritical(K, grid, p, tol=tol, max_iter=max_iter, f0=f_warm)
        results.append(res)
        f_warm = res.f
    return results


def blowup_diagnostic(
    result: SubcriticalResult, grid: QuadratureGrid, params: Params
) -> BlowupReport:
    """Rescale a maximizer around its peak and compare to the model bubble.

    The peak node (lowest index on ties) is the center; mu_p is the
    concentration scale f_max^{-(2-p)/alpha}. Nodes within 8 mu_p of the
    center enter the profile at rescaled radius dist/mu_p with value
    f/f_max, sorted by radius.
    """
    f = np.asarray(result.f, dtype=np.float64)
    if f.shape != (len(grid),):
        raise ValueError(f"result holds {f.shape} values but the grid has {len(grid)} nodes")
    center = int(np.argmax(f))
    f_max = float(f[center])
    if not f_max > 0.0:
        raise ValueError("maximizer peak must be positive")
    mu = f_max ** (-(2.0 - result.p) / params.alpha)
    radii = np.sqrt(grid.dist_sq(slice(None), center)) / mu
    radii[center] = 0.0  # the sphere's inner-product form leaves ~3e-8 there
    mask = radii <= _RADIUS_FACTOR
    order = np.argsort(radii[mask], kind="stable")
    rad = radii[mask][order]
    prof = (f[mask] / f_max)[order]
    axis = np.zeros((rad.size, params.n), dtype=np.complex128)
    axis[:, 0] = rad  # the model bubble is the unit-scale extremal on the |z| axis
    model = _extremal(axis, np.zeros(rad.size), 1.0, params)
    return BlowupReport(
        mu_p=float(mu),
        center_index=center,
        radii=rad,
        profile=prof,
        profile_deviation=float(np.max(np.abs(prof - model))),
    )

