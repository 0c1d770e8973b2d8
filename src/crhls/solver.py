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
Approaching p -> q_alpha from above is done by warm-started continuation,
one chain of stages of which a single solve is the one-stage case.

On a sphere grid the map's slowest directions are the real coordinate
functions v_k = Re xi_k, Im xi_k: CR automorphisms move the extremal along
them, and linearized at the constant the map scales them by
sphere_kernel_eigenvalue(1, 0) / (p - 1) = (q_alpha - 1) / (p - 1), which
tends to 1 as p -> q_alpha. A window of three differences has no room for
that subspace. So the first time the weighted residual norm falls by less
than half in one iteration (a stall), a sphere solve adds one secant pair
per coordinate function to every later Anderson fit until its history is
cut: the pair of the map linearized at the constant function, built from
the kernel's images E(w) and E(v_k w) of the weights and of the weighted
coordinate functions. Those five products depend on the kernel alone, so a
continuation takes them in its first stage that stalls and its later
stages reuse them.
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
# a sphere solve seeds its fit at the first iterate whose sqrt(w)-weighted
# residual norm is above this share of the one before: a stall
_STALL_FACTOR = 0.5
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
    it is not an error; stop_reason says which: "converged", "max_iter" or
    "no_ascent". matvecs counts the products with the N x N kernel matrix
    the solve made; rejected counts the Anderson candidates refused,
    backtracks the damped map steps evaluated and seeded the products that
    took the kernel's images of the sphere's conformal directions: 5 in the
    solve that took them, 0 in a continuation stage that reuses them and in
    a solve that never stalls. A solve that ends other than "no_ascent" has
    matvecs = 1 + iterations + rejected + backtracks + seeded.
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
    seeded: int = 0
    stop_reason: str = "converged"


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
    returns converged = False rather than raising. On a sphere grid the first
    stall takes the kernel's five images of the conformal directions (module
    docstring). This is the one-stage case of continuation's chain: every
    argument, f0 included, is refused before the matrix-free operator is
    densified (KernelMatrix.densified), and a kernel too large for memory is
    refused before any product.
    """
    return _stages(K, grid, [p], tol, max_iter, f0)[0]


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
    converged = False. Every argument is checked, and the matrix-free
    operator densified once, before the first stage. The first stage that
    stalls takes the kernel's five images of the conformal directions and
    later stages reuse them, so each stage equals
    solve_subcritical(K, grid, p, f0=previous.f) bit for bit in D, f,
    residual and iterations, and differs only in matvecs and seeded.
    """
    return _stages(K, grid, p_schedule, tol, max_iter, None)


def _stages(K: KernelMatrix, grid: QuadratureGrid, schedule, tol, max_iter, f0) -> list:
    """The solves along schedule, the first from f0 or the constant, each later
    one from the result before it. Every argument is refused here, before the
    one densify; a later stage's start, a result, needs no check."""
    schedule = [float(p) for p in schedule]
    if not schedule:
        raise ValueError("p_schedule must not be empty")
    q_alpha = K.params.q_alpha
    for p in schedule:
        if not q_alpha < p < 2.0:
            raise ValueError(f"p = {p} lies outside the subcritical window ({q_alpha:.6f}, 2)")
    if not 0.0 < float(tol) < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter}")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"p_schedule must be strictly decreasing, got {schedule}")
    _check_grid(K, grid)
    f = np.ones(len(K)) if f0 is None else np.asarray(f0, dtype=np.float64).copy()
    if f.shape != (len(K),):
        raise ValueError(f"f0 must have shape ({len(K)},), got {f.shape}")
    if not np.all(np.isfinite(f)) or np.any(f < 0.0) or not np.any(f > 0.0):
        raise ValueError("warm start must be finite, nonnegative and not identically zero")
    # many products: the matrix-free operator would rebuild every tile each time
    K = K.densified()
    results, images = [], []
    for p in schedule:
        results.append(_solve(K, p, tol, max_iter, f, images))
        f = results[-1].f
    return results


def _solve(K: KernelMatrix, p: float, tol, max_iter, f, images: list) -> SubcriticalResult:
    """One solve on stored entries from the start f, its arguments checked. The solves of
    a chain share images, which the first stall of a sphere solve fills if empty (_seed_pairs,
    counted in seeded); the pairs built from it do not depend on which solve filled it."""
    w = K.grid.weights
    counts = dict.fromkeys(("matvecs", "rejected", "backtracks", "seeded"), 0)

    def evaluate(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        counts["matvecs"] += 1
        cw = c * w
        y_c = K.matvec(cw)
        return c, y_c, float(np.dot(cw, y_c))

    def normalized(c: np.ndarray) -> np.ndarray:
        c /= _positive_lp_norm(c, w, p)
        return c

    def map_value(y_c: np.ndarray) -> np.ndarray:
        peak = float(np.max(y_c))
        if peak <= 0.0:
            raise ValueError("iteration collapsed: the kernel maps the iterate to zero")
        return normalized((y_c / peak) ** inv_exp)

    def pair(u1, r1, u0, r0) -> tuple[np.ndarray, np.ndarray]:
        # the secant pair from (u0, r0) to (u1, r1): the step's row
        # delta u + delta r and the fit's column sqrt(w) * delta r
        du, dr = u1 - u0, r1 - r0
        du += dr
        dr *= sqrt_w
        return du, dr

    inv_exp = 1.0 / (p - 1.0)
    sqrt_w = np.sqrt(w)
    history: list[float] = []
    # the Anderson history: last holds u = log f, r = log g - u and the
    # sqrt(w)-weighted norm of r at the latest iterate; window holds the pairs
    # to it from up to _ANDERSON_WINDOW earlier ones, and from the first stall
    # of a sphere solve seeds holds the pairs along the coordinate functions.
    # Every fit takes the window's columns, then the seeds'. The two are cut
    # together: a seed kept after a refused candidate misleads the fit once
    # the iterate has moved on: so kept, two stages of the 12^3 alpha = 1
    # continuation of green_model A0 = -0.2, which concentrates, ran to
    # max_iter; with seeds cut it takes 568 products, 601 without seeds
    last, window, seeds, stalled = None, [], [], False
    iterations = 0
    f, y, D = evaluate(f / lp_norm(f, K.grid, p))
    # the first product stands in for a scan of the entries it reads, the
    # upper triangle (dsymv or the tile walk): each upper entry is added to
    # both its row and its column, and BLAS gives 0 * NaN = 0 * inf = NaN, so
    # a NaN or an infinite entry reaches y even where the start is zero; a
    # negative entry shows unless positive entries outweigh it
    lo, hi = float(np.min(y)), float(np.max(y))
    if not 0.0 <= lo <= hi < np.inf:
        raise ValueError(
            "kernel holds a NaN, an infinite or a negative entry, or entries whose sums "
            f"overflow: its first product is not finite and nonnegative (from {lo} to {hi})"
        )
    if not hi > 0.0:
        raise ValueError("kernel has no positive entry: no positive quotient")
    while True:
        history.append(D)
        flat = len(history) > 1 and abs(D - history[-2]) <= tol * max(1.0, abs(D))
        # the defect is read only here, when the quotient is flat or the last step is
        # taken, and where a damped search fails
        if flat or iterations >= max_iter:
            defect = _stationarity_defect(f, y, D, p)
            converged = flat and defect <= tol * (1.0 + D)
            if converged or iterations >= max_iter:
                stop_reason = "converged" if converged else "max_iter"
                break
        g = map_value(y)
        # Anderson type-II mixing on u = log f for the map u -> log g: the
        # candidate combines the last map values with the coefficients that
        # minimize the sqrt(w)-weighted norm of the combined residual. The
        # map step is not always ascent for p < 2, so a candidate is kept
        # only if the quotient does not fall below floor. Otherwise the
        # history is cut to its latest entry, without seeds, and the map step
        # is damped geometrically toward the current iterate until it reaches
        # floor. The not (... >= floor) form refuses a NaN quotient. Zeros in
        # f or g have no logarithm and clear the history.
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.log(f)
            r = np.log(g)
            r -= u
        if np.all(np.isfinite(r)):
            if last is not None:
                window.append(pair(u, r, *last[:2]))
                del window[:-_ANDERSON_WINDOW]
            rw = r * sqrt_w
            norm = float(np.sqrt(np.dot(rw, rw)))
            if not stalled and last is not None and norm > _STALL_FACTOR * last[2]:
                stalled, taken = True, len(images)
                seeds += _seed_pairs(K, images, p)
                counts["seeded"] = len(images) - taken
                counts["matvecs"] += counts["seeded"]
            last = u, r, norm
        else:
            last = None
            del window[:], seeds[:]
        floor = D - _ROUNDOFF_SLACK * abs(D)
        accepted = False
        if window:
            rows, cols = zip(*window, *seeds)
            gamma = np.linalg.lstsq(np.array(cols).T, rw, rcond=None)[0]
            c = u + r
            c -= gamma @ np.array(rows)
            c -= np.max(c)
            np.exp(c, out=c)
            cand, y_c, D_c = evaluate(normalized(c))
            accepted = D_c >= floor
            if not accepted:
                counts["rejected"] += 1
                del window[:], seeds[:]
        if not accepted:
            theta = 1.0
            cand, y_c, D_c = evaluate(g)
            while not D_c >= floor and theta >= 1e-6:
                theta *= 0.5
                counts["backtracks"] += 1
                cand, y_c, D_c = evaluate(normalized(f ** (1.0 - theta) * g**theta))
            if not D_c >= floor:  # no step keeps the quotient: end at the current iterate
                defect, stop_reason = _stationarity_defect(f, y, D, p), "no_ascent"
                break
        f, y, D = cand, y_c, D_c
        iterations += 1

    return SubcriticalResult(
        p=p, D_estimate=D, f=f, iterations=iterations, residual=defect,
        converged=stop_reason == "converged", quotient_history=np.asarray(history),
        stop_reason=stop_reason, **counts,
    )


def _seed_directions(grid: QuadratureGrid) -> list[np.ndarray]:
    """The real coordinate functions Re xi_k, Im xi_k of a sphere grid's nodes,
    as views of its node array; none for a cylinder grid."""
    if grid.kind != "sphere":
        return []
    return [*grid.xi.real.T, *grid.xi.imag.T]


def _seed_pairs(K: KernelMatrix, images: list[np.ndarray], p: float) -> list:
    """The secant pairs of the map linearized at the constant function, one per
    seed direction v of K's grid: the step's row delta log g and the fit's column
    sqrt(w) * (delta log g - delta u), where delta u = v - <v> and
    delta log g = (a - <a>) / (p - 1), a = E(v w) / E(w), <.> the weighted mean.
    An empty images first takes E(w), then E(v w) for each v: one product each,
    and none where the grid has no seed directions."""
    grid = K.grid
    directions = _seed_directions(grid)
    if not directions:
        return []
    w = grid.weights
    if not images:
        images += [K.matvec(w), *(K.matvec(v * w) for v in directions)]
    total = grid.total_weight
    sqrt_w = np.sqrt(w)
    E_w, *E_vw = images
    pairs = []
    for v, E_v in zip(directions, E_vw):
        a = E_v / E_w
        dlog_g = (a - np.dot(w, a) / total) / (p - 1.0)
        du = v - np.dot(w, v) / total
        pairs.append((dlog_g, sqrt_w * (dlog_g - du)))
    return pairs


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
        raise ValueError(
            f"window ({q:.6f}, 2) narrower than {_ENDPOINT_OFFSET} has no default schedule "
            "and no endpoint"
        )
    endpoint = q + _ENDPOINT_OFFSET
    schedule = [q + (2.0 - q) * fr for fr in (0.7, 0.4, 0.175, 0.04)]
    schedule = [p for p in schedule if p > endpoint * (1.0 + 1e-12)]
    schedule.append(endpoint)
    return schedule


def blowup_diagnostic(
    result: SubcriticalResult, grid: QuadratureGrid, params: Params
) -> BlowupReport:
    """Rescale a maximizer around its peak and compare to the model bubble.

    The peak node (lowest index on ties) is the center; mu_p is the
    concentration scale f_max^{-(2-p)/alpha}. Nodes within 8 mu_p of the
    center enter the profile at rescaled radius dist/mu_p with value
    f/f_max, sorted by radius.
    """
    if params.n != grid.n:
        raise ValueError(f"params are for n = {params.n} but the grid is for n = {grid.n}")
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

