"""Command-line front end.

Eight subcommands: constants, verify-hls, extremal-sub, continuation,
lower-bound, mass-experiment, covariance-check, curvature-residual. Each
is one entry of the COMMANDS table: its defaults, the allowed values of
its string keys, and a run function holding only its own computation and
printing. One driver resolves the configuration, runs the entry and
writes <command>.json (and <command>.csv where natural) into the
--output directory; the summary embeds the fully resolved configuration
so a run can be reproduced from its own artifact. The parser is derived
from the same table: every config key is also a flag.

Configuration sources, lowest to highest precedence: built-in defaults,
a JSON config file passed with --config, explicit flags. Exit codes:
0 success, 2 validation error, 3 failed convergence or failed check when
--strict is set.

Thread control: --threads sets the thread count of numpy's bundled
OpenBLAS for the duration of the run and restores the previous count
afterwards, so it takes effect in a process that has already imported
numpy; capped at the usable cores, it also caps how many threads walk
the kernel tiles. Where numpy links another BLAS the count is not
applied, tiles are walked on one thread, and one warning on stderr says so.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._blas import blas_threads
from .core import make_params, sharp_constant_DH
from .discretization import KernelMatrix, KernelSpec, QuadratureGrid, assemble_kernel, sphere_grid
from .experiments import (
    MassPerturbationResult,
    conformal_covariance_check,
    curvature_equation_residual,
    eps_invariance_experiment,
    lower_bound_experiment,
    mass_perturbation_experiment,
)
from .solver import continuation, default_p_schedule, result_to_dict, solve_subcritical
from .sphere import sphere_dist_sq

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3

_RESIDUAL_THRESHOLD = 1e-10

# config keys every subcommand carries on top of its own; flags from _add_common
_COMMON = {"output": ".", "seed": 0}

_HELP = {
    "eps_list": "comma-separated eps values",
    "ratio": "truncation ratio R/eps",
    "R": "truncation radius; ratio * eps when not given",
    "resolution": "grid resolution, three comma-separated integers",
    "slack": "allowed excess over the sharp constant",
    "spread_tol": "allowed norm spread",
    "p": "subcritical exponent in (q_alpha, 2)",
    "p_schedule": "comma-separated decreasing p values; ends at q_alpha + 1e-3 when not given",
    "A0": "constant mass for green_model",
    "c_w": "remainder coefficient for green_model",
    "A0_list": "comma-separated mass values",
}


def _floats(value) -> list[float]:
    if isinstance(value, str):
        parts = [s.strip() for s in value.replace(";", ",").split(",")]
        return [float(s) for s in parts if s]
    return [float(v) for v in value]


def _ints(value) -> list[int]:
    values = _floats(value)
    bad = [v for v in values if not v.is_integer()]
    if bad:
        raise ValueError(f"expected integers, got {bad}")
    return [int(v) for v in values]


def _write(output_dir: str, name: str, text: str) -> str:
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


@dataclass(frozen=True)
class Command:
    """One subcommand as data: one flag per defaults key, and choices lists
    the allowed values of string keys. run(cfg) returns (results, csv, ok):
    the JSON results, a (header, rows) pair or None, and whether every
    solve converged and every check passed.
    """

    help: str
    run: Callable[[dict], tuple]
    defaults: dict
    choices: dict = field(default_factory=dict)


def _key_type(key: str, default) -> type:
    # R defaults to None (filled in from ratio * eps) but is a number; the
    # other None default, p_schedule, is a list like the list defaults
    if key == "R":
        return float
    return list if default is None or isinstance(default, list) else type(default)


_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list of numbers or a comma-separated string",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _file_value(key: str, value, default):
    """Check a config-file value against the type its key's flag has.

    int keys take integral numbers, float keys any number (stored as a
    float), str keys strings, list keys a list of numbers or a
    comma-separated string; keys whose default is None also take null.
    """
    kind = _key_type(key, default)
    if value is None and default is None:
        return None
    if kind is int:
        ok = _is_number(value) and (isinstance(value, int) or value.is_integer())
    elif kind is float:
        ok = _is_number(value)
    elif kind is list:
        ok = isinstance(value, str) or (
            isinstance(value, list) and all(_is_number(v) for v in value)
        )
    else:
        ok = isinstance(value, kind)
    if not ok:
        null = " or null" if default is None else ""
        raise ValueError(f"config key {key!r} must be {_TYPE_NAMES[kind]}{null}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def _resolve_config(args: argparse.Namespace, command: Command) -> dict:
    """Merge defaults, JSON config file, and explicit flags (in that order),
    then check choices, parse list keys and refuse inf and nan in float and
    list keys, so config-file entries get the same checks as flags. Every
    value leaves here with its key's type.
    """
    defaults = {**command.defaults, **_COMMON}
    resolved = dict(defaults)
    if args.config is not None:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a single JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; valid keys: {sorted(defaults)}")
        resolved.update({k: _file_value(k, v, defaults[k]) for k, v in file_cfg.items()})
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    for key, allowed in command.choices.items():
        if resolved[key] not in allowed:
            raise ValueError(
                f"unknown {key} {resolved[key]!r}, expected one of {', '.join(allowed)}"
            )
    for key, default in defaults.items():
        kind, value = _key_type(key, default), resolved[key]
        if value is None or kind not in (float, list):
            continue
        values = _floats(value) if kind is list else [value]
        if not values:
            raise ValueError(f"{key} must not be empty")
        # json.dumps would write inf and nan as Infinity and NaN, which
        # strict JSON parsers reject
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{key} must be finite, got {value!r}")
        if kind is list:
            resolved[key] = _ints(values) if default and isinstance(default[0], int) else values
    return resolved


# ---------------------------------------------------------------------------
# subcommand computations; each returns (results, csv or None, ok)


def _run_constants(cfg: dict):
    params = make_params(cfg["n"], cfg["alpha"])
    results = {
        "sharp_constant": sharp_constant_DH(params),
        "Q": params.Q,
        "p_alpha": params.p_alpha,
        "q_alpha": params.q_alpha,
        "b_n": params.b_n,
    }
    for key in ("sharp_constant", "p_alpha", "q_alpha", "Q", "b_n"):
        print(f"{key} = {results[key]!r}")
    return results, None, True


def _run_verify_hls(cfg: dict):
    params = make_params(cfg["n"], cfg["alpha"])
    sharp = sharp_constant_DH(params)
    inv = eps_invariance_experiment(cfg["eps_list"], cfg["ratio"], cfg["resolution"], params)
    # the transported quotient resolves best at unit scale; its continuum
    # value is eps-invariant, so eps = 1 loses no generality
    bound = lower_bound_experiment(1.0, cfg["ratio"], cfg["resolution"], params)
    spread_ok = inv.spread_rel <= cfg["spread_tol"]
    upper_ok = bound.quotient <= sharp * (1.0 + cfg["slack"])
    results = {
        "eps_invariance": inv.to_dict(),
        "upper_bound_run": bound.to_dict(),
        "sharp_constant": sharp,
        "spread_ok": spread_ok,
        "upper_bound_ok": upper_ok,
        "all_ok": spread_ok and upper_ok,
    }
    print(f"norm spread across eps = {inv.spread_rel:.3e} (tol {cfg['spread_tol']})")
    print(f"quotient at ratio {cfg['ratio']} = {bound.quotient:.6f} <= {sharp:.6f} * (1 + slack)")
    return results, (inv.csv_header, inv.csv_rows()), results["all_ok"]


def _two_node_fixture(params):
    """The bundled two-node solver fixture: unit weights, hopping kernel."""
    xi = np.eye(2, dtype=np.complex128)
    grid = QuadratureGrid(kind="sphere", n=1, weights=np.ones(2), resolution=(2,), xi=xi)
    hopping = np.array([[0.0, 1.0], [1.0, 0.0]])
    return KernelMatrix(hopping, KernelSpec("pure_singular"), grid, params)


def _run_extremal_sub(cfg: dict):
    params = make_params(1, cfg["alpha"])
    if cfg["manifold"] == "fixture":
        K = _two_node_fixture(params)
    else:
        K = assemble_kernel(sphere_grid(1, cfg["resolution"]), KernelSpec("pure_singular"), params)
    result = solve_subcritical(K, K.grid, cfg["p"], tol=cfg["tol"], max_iter=cfg["max_iter"])
    print(
        f"p = {result.p}  D = {result.D_estimate!r}  iterations = {result.iterations}"
        f"  converged = {result.converged}"
    )
    return result_to_dict(result), None, result.converged


def _run_continuation(cfg: dict):
    params = make_params(1, cfg["alpha"])
    if cfg["p_schedule"] is None:
        cfg["p_schedule"] = default_p_schedule(params)
    grid = sphere_grid(1, cfg["resolution"])
    if cfg["kernel"] == "pure_singular":
        spec = KernelSpec("pure_singular")
    else:
        spec = KernelSpec("green_model", mass=np.full(len(grid), cfg["A0"]), c_w=cfg["c_w"])
    K = assemble_kernel(grid, spec, params)
    runs = continuation(K, grid, cfg["p_schedule"], tol=cfg["tol"], max_iter=cfg["max_iter"])
    stages = [result_to_dict(run) for run in runs]
    for stage in stages[:-1]:  # only the final maximizer is kept
        del stage["f"]
    sharp = sharp_constant_DH(params)
    results = {
        "stages": stages,
        "final_quotient": runs[-1].D_estimate,
        "sharp_constant": sharp,
        "final_over_sharp": runs[-1].D_estimate / sharp,
        "all_converged": all(r.converged for r in runs),
    }
    for run in runs:
        print(
            f"p = {run.p:.6f}  D = {run.D_estimate:.9f}  iterations = {run.iterations}"
            f"  converged = {run.converged}"
        )
    print(f"final/sharp = {results['final_over_sharp']:.6f}")
    rows = [f"{r.p!r},{r.D_estimate!r},{r.iterations},{r.residual!r},{r.converged}" for r in runs]
    return results, ("p,D,iterations,residual,converged", rows), results["all_converged"]


def _run_lower_bound(cfg: dict):
    if not cfg["eps"] > 0.0:
        raise ValueError(f"eps must be positive, got {cfg['eps']}")
    if cfg["R"] is None:
        cfg["R"] = cfg["ratio"] * cfg["eps"]
    cfg["ratio"] = cfg["R"] / cfg["eps"]
    params = make_params(cfg["n"], cfg["alpha"])
    res = lower_bound_experiment(cfg["eps"], cfg["R"], cfg["resolution"], params)
    print(
        f"quotient = {res.quotient!r} on {res.n_nodes} nodes "
        f"(sharp constant {res.sharp_constant!r})"
    )
    return res.to_dict(), (res.csv_header, [res.csv_row()]), True


def _run_mass_experiment(cfg: dict):
    records = mass_perturbation_experiment(
        cfg["A0_list"], cfg["c_w"], cfg["alpha"], cfg["resolution"],
        tol=cfg["tol"], max_iter=cfg["max_iter"],
    )
    deltas = [r.delta for r in records]
    results = {
        "runs": [r.to_dict() for r in records],
        "deltas_nondecreasing": all(b >= a for a, b in zip(deltas, deltas[1:])),
        "deltas_positive_for_positive_mass": all(r.delta > 0.0 for r in records if r.A0 > 0.0),
        "all_converged": all(r.all_converged for r in records),
    }
    for r in records:
        print(f"A0 = {r.A0}  quotient_mass = {r.quotient_mass!r}  delta = {r.delta!r}")
    table = (MassPerturbationResult.csv_header, [r.csv_row() for r in records])
    return results, table, results["all_converged"]


def _random_sphere_grid(n_nodes: int, min_sep: float, rng):
    """Random well-separated S^3 nodes with weights drawn from [0.5, 1.5).

    Candidates are drawn one at a time and kept when they lie at least
    min_sep from every node kept so far.
    """
    nodes = np.empty((n_nodes, 2), dtype=np.complex128)
    count = attempts = 0
    while count < n_nodes:
        attempts += 1
        if attempts > 1000 * n_nodes:
            raise ValueError(
                f"cannot place {n_nodes} nodes with separation {min_sep}; lower min_sep"
            )
        v = rng.standard_normal(4)
        xi = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]]) / np.linalg.norm(v)
        if not np.any(np.sqrt(sphere_dist_sq(xi, nodes[:count])) < min_sep):
            nodes[count] = xi
            count += 1
    weights = rng.uniform(0.5, 1.5, n_nodes)
    return QuadratureGrid(kind="sphere", n=1, weights=weights, resolution=(n_nodes,), xi=nodes)


def _run_covariance_check(cfg: dict):
    if cfg["pairs"] < 1:
        raise ValueError(f"pairs must be at least 1, got {cfg['pairs']}")
    rng = np.random.default_rng(cfg["seed"])
    params = make_params(1, cfg["alpha"])
    grid = _random_sphere_grid(cfg["nodes"], cfg["min_sep"], rng)
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    N = len(K)
    residuals = []
    for _ in range(cfg["pairs"]):
        if cfg["phi"] == "constant":
            phi = np.full(N, rng.uniform(0.5, 2.0))
        else:
            phi = np.exp(rng.uniform(-0.7, 0.7, N))
        u = rng.standard_normal(N)
        residuals.append(conformal_covariance_check(K, grid, phi, u, params))
    worst = max(residuals)
    results = {
        "max_residual": worst,
        "threshold": _RESIDUAL_THRESHOLD,
        "pairs": cfg["pairs"],
        "nodes": cfg["nodes"],
        "ok": worst <= _RESIDUAL_THRESHOLD,
    }
    print(f"max covariance residual over {cfg['pairs']} pairs = {worst:.3e}")
    return results, None, results["ok"]


def _run_curvature_residual(cfg: dict):
    params = make_params(1, cfg["alpha"])
    grid = sphere_grid(1, cfg["resolution"])
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    converged = True
    if cfg["mode"] == "constant":
        phi = np.ones(len(grid))
    elif cfg["mode"] == "maximizer":
        schedule = default_p_schedule(params)
        runs = continuation(K, grid, schedule, tol=cfg["tol"], max_iter=cfg["max_iter"])
        converged = all(r.converged for r in runs)
        phi = runs[-1].f ** (runs[-1].p - 1.0)
    else:
        rng = np.random.default_rng(cfg["seed"])
        phi = np.exp(0.3 * rng.standard_normal(len(grid)))
    residual = curvature_equation_residual(K, grid, phi, params)
    results = {"residual": residual, "mode": cfg["mode"], "n_nodes": len(grid)}
    if cfg["mode"] == "maximizer":
        results["all_converged"] = converged
    print(f"curvature residual ({cfg['mode']} phi) = {residual:.6e}")
    return results, None, converged


_SOLVE = {"tol": 1e-9, "max_iter": 10000}

COMMANDS = {
    "constants": Command(
        "print sharp constant and exponents", _run_constants, {"n": 1, "alpha": 2.0}
    ),
    "verify-hls": Command(
        "eps-invariance and upper-bound checks",
        _run_verify_hls,
        {"n": 1, "alpha": 2.0, "eps_list": [0.05, 0.1, 0.2], "ratio": 50.0,
         "resolution": [12, 8, 12], "slack": 0.02, "spread_tol": 0.01},
    ),
    "extremal-sub": Command(
        "one subcritical solve",
        _run_extremal_sub,
        {"manifold": "fixture", "alpha": 2.0, "resolution": [8, 8, 8], "p": 1.5, **_SOLVE},
        {"manifold": ("fixture", "sphere")},
    ),
    "continuation": Command(
        "warm-started sweep of p toward q_alpha",
        _run_continuation,
        {"alpha": 2.0, "resolution": [12, 12, 12], "p_schedule": None,
         "kernel": "pure_singular", "A0": 0.0, "c_w": 0.0, **_SOLVE},
        {"kernel": ("pure_singular", "green_model")},
    ),
    "lower-bound": Command(
        "truncated concentrating-extremal quotient",
        _run_lower_bound,
        {"n": 1, "alpha": 2.0, "eps": 0.1, "ratio": 50.0, "R": None, "resolution": [16, 8, 16]},
    ),
    "mass-experiment": Command(
        "positive-mass kernel perturbation sweep",
        _run_mass_experiment,
        {"alpha": 2.0, "A0_list": [0.0, 0.5, 1.0, 2.0], "c_w": 0.0, "resolution": [8, 6, 8],
         **_SOLVE},
    ),
    "covariance-check": Command(
        "contact-form rescaling identity residual",
        _run_covariance_check,
        {"alpha": 2.0, "nodes": 50, "pairs": 100, "min_sep": 0.2, "phi": "random"},
        {"phi": ("random", "constant")},
    ),
    "curvature-residual": Command(
        "integral curvature equation defect",
        _run_curvature_residual,
        {"alpha": 2.0, "resolution": [10, 8, 10], "mode": "constant", **_SOLVE},
        {"mode": ("constant", "maximizer", "random")},
    ),
}


# ---------------------------------------------------------------------------
# parser and driver


def _flag_type(key: str, default):
    # list keys take comma-separated strings, parsed by _resolve_config
    kind = _key_type(key, default)
    return str if kind is list else kind


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags override its entries")
    sub.add_argument("--output", help="output directory for JSON/CSV artifacts (default .)")
    sub.add_argument("--seed", type=int, help="random seed for randomized inputs (default 0)")
    sub.add_argument("--threads", type=int, help="BLAS thread count (default: all cores)")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when a solve fails to converge or a check fails",
    )


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry, one flag per key of its defaults."""
    parser = argparse.ArgumentParser(
        prog="crhls",
        description="Sharp Hardy-Littlewood-Sobolev machinery on model CR manifolds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for key, default in command.defaults.items():
            sub.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=_flag_type(key, default),
                choices=command.choices.get(key),
                help=_HELP.get(key),
            )
        _add_common(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if args.threads is not None and args.threads < 1:
            raise ValueError(f"thread count must be at least 1, got {args.threads}")
        cfg = _resolve_config(args, command)
        with blas_threads(args.threads):
            results, table, ok = command.run(cfg)
        summary = {"command": args.command, "config": cfg, "results": results}
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        path = _write(cfg["output"], f"{args.command}.json", text)
        if table is not None:
            header, rows = table
            _write(cfg["output"], f"{args.command}.csv", "".join(f"{r}\n" for r in [header, *rows]))
        print(f"wrote {path}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_NOT_CONVERGED if args.strict and not ok else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
