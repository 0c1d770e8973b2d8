"""Command-line front end.

Eight subcommands: constants, verify-hls, extremal-sub, continuation,
lower-bound, mass-experiment, covariance-check, curvature-residual. Each
is one entry of the COMMANDS table: its defaults, the allowed values of
the keys that have choices, and a run function holding only its own
computation.
One driver resolves the configuration, runs the entry, writes
<command>.json (and <command>.csv where natural) into the --output
directory and prints one `key = value` line per top-level scalar of the
results, in the order the run function built them and with the digits
the JSON holds, then one `wrote <path>` line per artifact; it is the
only code in the package that formats, writes or prints a result. The
summary embeds the fully resolved configuration so a run can be
reproduced from its own artifact: every grid a command builds is a
function of that configuration. A command reads every key except in two
modes: extremal-sub --manifold fixture reads no resolution, and
curvature-residual reads tol and max_iter only in --mode maximizer and
seed only in --mode random. --output, like --threads and --strict, is a
run setting and is not embedded, so reruns are byte-identical in any
directory. The parser is derived from the same table: every config key
is also a flag.

Configuration sources, lowest to highest precedence: built-in defaults,
a JSON config file passed with --config, explicit flags; one checker
takes each value from each. Exit codes: 0 success, 2 validation error,
3 when --strict is set and a top-level boolean of the results (a
converged solve or a passed check) is false.

Thread control: --threads sets the thread count of numpy's bundled
OpenBLAS for the duration of the run and restores the previous count
afterwards, so it takes effect in a process that has already imported
numpy; capped at the usable cores, it also caps how many threads walk
the kernel tiles. Where numpy links another BLAS the count is not
applied, tiles are walked on one thread, and one warning on stderr says so;
a count OpenBLAS caps is read back, and one warning names both counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._blas import blas_threads
from .core import Params, make_params, sharp_constant_DH
from .discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    _refuse_oversized_grid,
    assemble_kernel,
    sphere_grid,
)
from .experiments import (
    _mass_spec,
    conformal_covariance_check,
    curvature_equation_residual,
    eps_invariance_experiment,
    lower_bound_experiment,
    mass_perturbation_experiment,
)
from .solver import SubcriticalResult, continuation, default_p_schedule, solve_subcritical
from .sphere import sphere_dist_sq

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3

_RESIDUAL_THRESHOLD = 1e-10
_SLACK = 0.02  # verify-hls: allowed excess of the quotient over the sharp constant
_SPREAD_TOL = 0.01  # verify-hls: allowed relative norm spread across eps

_HELP = {
    "eps_list": "comma-separated eps values",
    "ratio": "truncation ratio R/eps",
    "R": "truncation radius",
    "resolution": "grid resolution, three comma-separated integers",
    "p": "subcritical exponent in (q_alpha, 2)",
    "p_schedule": "comma-separated decreasing p values; ends at q_alpha + 1e-3 when not given",
    "A0": "constant mass; a nonzero A0 or c_w selects the green_model kernel",
    "c_w": "remainder coefficient of the green_model kernel",
    "A0_list": "comma-separated mass values",
    "seed": "random seed for randomized inputs",
}


def _write(output_dir: str, name: str, text: str) -> str:
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


@dataclass(frozen=True)
class Command:
    """One subcommand as data: one flag per defaults key, and choices lists
    the allowed values of a key (the string keys, and n where only n = 1 is
    implemented). run(cfg, params) takes the resolved config and its Params
    (n = 1 for the sphere commands, which have no n key) and returns
    (results, table): the JSON results and a (column names, rows of plain
    values) pair or None. Every top-level boolean of
    results is a check, a converged solve or a passed test; --strict reads
    them all.
    """

    help: str
    run: Callable[[dict, Params], tuple]
    defaults: dict
    choices: dict = field(default_factory=dict)


def _key_type(default) -> type:
    # the one None default, p_schedule, is a list like the list defaults
    return list if default is None or isinstance(default, list) else type(default)


_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list of numbers or a comma-separated string",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked(key: str, value, default, allowed):
    """One value of a key, from the defaults, a config file or a flag, in its
    key's type.

    int keys take integral numbers, float keys any finite number (stored as
    a float), str keys strings, list keys a nonempty list of finite numbers
    or a comma-separated string of them; keys whose default is None also
    take null. A key with choices takes only one of allowed. A flag arrives
    in its parser type, so only the checks past the type can refuse it.
    """
    kind = _key_type(default)
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
    if allowed is not None and value not in allowed:
        expected = ", ".join(map(str, allowed))
        raise ValueError(f"unknown {key} {value!r}, expected one of {expected}")
    if kind in (int, str):
        return kind(value)
    if kind is float:
        values = [float(value)]
    elif isinstance(value, str):
        try:
            values = [float(s) for s in map(str.strip, value.split(",")) if s]
        except ValueError:
            raise ValueError(f"{key}: expected comma-separated numbers, got {value!r}") from None
    else:
        values = [float(v) for v in value]
    if not values:
        raise ValueError(f"{key} must not be empty")
    # json.dumps would write inf and nan as Infinity and NaN, which
    # strict JSON parsers reject
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if kind is float:
        return values[0]
    if not (default and isinstance(default[0], int)):
        return values
    bad = [v for v in values if not v.is_integer()]
    if bad:
        raise ValueError(f"{key}: expected integers, got {bad}")
    return [int(v) for v in values]


def _resolve_config(args: argparse.Namespace, command: Command) -> dict:
    """Merge defaults, JSON config file, and explicit flags (in that order),
    each value checked by _checked as it is taken, so a config-file entry is
    refused as its flag would be even where a flag overrides it. Every value
    leaves here with its key's type.
    """
    defaults = command.defaults
    sources = [defaults]
    if args.config is not None:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a single JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; valid keys: {sorted(defaults)}")
        sources.append(file_cfg)
    sources.append({key: getattr(args, key) for key in defaults if getattr(args, key) is not None})
    resolved = {}
    for source in sources:
        for key, value in source.items():
            resolved[key] = _checked(key, value, defaults[key], command.choices.get(key))
    return resolved


# ---------------------------------------------------------------------------
# subcommand computations; each returns (results, table or None)


def _result_to_dict(result: SubcriticalResult) -> dict:
    """Plain-types view of a solve for the JSON results; its counters stay out."""
    return {
        "p": float(result.p),
        "D": float(result.D_estimate),
        "residual": float(result.residual),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "f": [float(v) for v in result.f],
    }


def _run_constants(cfg: dict, params: Params):
    results = {
        "sharp_constant": sharp_constant_DH(params),
        "Q": params.Q,
        "p_alpha": params.p_alpha,
        "q_alpha": params.q_alpha,
        "b_n": params.b_n,
    }
    return results, None


def _run_verify_hls(cfg: dict, params: Params):
    sharp = sharp_constant_DH(params)
    inv = eps_invariance_experiment(cfg["eps_list"], cfg["ratio"], cfg["resolution"], params)
    # the transported quotient resolves best at unit scale; its continuum
    # value is eps-invariant, so eps = 1 loses no generality
    bound = lower_bound_experiment(1.0, cfg["ratio"], cfg["resolution"], params)
    spread_ok = inv["spread_rel"] <= _SPREAD_TOL
    upper_ok = bound["quotient"] <= sharp * (1.0 + _SLACK)
    results = {
        "eps_invariance": inv,
        "upper_bound_run": bound,
        "sharp_constant": sharp,
        "spread_ok": spread_ok,
        "upper_bound_ok": upper_ok,
        "all_ok": spread_ok and upper_ok,
    }
    rows = [("eps_invariance", inv["n"], inv["alpha"], inv["ratio"], eps, norm)
            for eps, norm in zip(inv["eps_list"], inv["norms"])]
    return results, (("experiment", "n", "alpha", "ratio", "eps", "norm"), rows)


def _two_node_fixture(params):
    """The bundled two-node solver fixture: unit weights, hopping kernel."""
    xi = np.eye(2, dtype=np.complex128)
    grid = QuadratureGrid(kind="sphere", n=1, weights=np.ones(2), resolution=(2,), xi=xi)
    hopping = np.array([[0.0, 1.0], [1.0, 0.0]])
    return KernelMatrix(hopping, KernelSpec("pure_singular"), grid, params)


def _run_extremal_sub(cfg: dict, params: Params):
    if cfg["manifold"] == "fixture":
        K = _two_node_fixture(params)
    else:
        K = assemble_kernel(sphere_grid(1, cfg["resolution"]), KernelSpec("pure_singular"), params)
    result = solve_subcritical(K, K.grid, cfg["p"], tol=cfg["tol"], max_iter=cfg["max_iter"])
    return _result_to_dict(result), None


def _run_continuation(cfg: dict, params: Params):
    if cfg["p_schedule"] is None:
        cfg["p_schedule"] = default_p_schedule(params)
    grid = sphere_grid(1, cfg["resolution"])
    K = assemble_kernel(grid, _mass_spec(cfg["A0"], cfg["c_w"], len(grid)), params)
    runs = continuation(K, grid, cfg["p_schedule"], tol=cfg["tol"], max_iter=cfg["max_iter"])
    stages = [_result_to_dict(run) for run in runs]
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
    rows = [(r.p, r.D_estimate, r.iterations, r.residual, r.converged) for r in runs]
    columns = ("p", "D", "iterations", "residual", "converged")
    return results, (columns, rows)


def _run_lower_bound(cfg: dict, params: Params):
    results = lower_bound_experiment(cfg["eps"], cfg["R"], cfg["resolution"], params)
    columns = ("experiment", "n", "alpha", "eps", "R", "ratio", "n_nodes", "quotient",
               "sharp_constant")
    return results, (columns, [("lower_bound", *(results[c] for c in columns[1:]))])


def _run_mass_experiment(cfg: dict, params: Params):
    # the experiment builds its kernels' Params itself, from alpha
    runs = mass_perturbation_experiment(
        cfg["A0_list"], cfg["c_w"], cfg["alpha"], cfg["resolution"],
        tol=cfg["tol"], max_iter=cfg["max_iter"],
    )
    # a positive mass raises the quotient, and raises it more for a larger A0
    deltas = [r["delta"] for r in sorted(runs, key=lambda r: r["A0"])]
    results = {
        "runs": runs,
        "deltas_nondecreasing": all(b >= a for a, b in zip(deltas, deltas[1:])),
        "deltas_positive_for_positive_mass": all(r["delta"] > 0.0 for r in runs if r["A0"] > 0.0),
        "all_converged": all(r["all_converged"] for r in runs),
    }
    keys = ("alpha", "A0", "c_w", "n_nodes", "p_endpoint", "quotient_mass", "quotient_pure",
            "delta", "all_converged")
    # the CSV names the all_converged column converged
    columns = ("experiment", *keys[:-1], "converged")
    return results, (columns, [("mass_perturbation", *(r[k] for k in keys)) for r in runs])


def _random_sphere_grid(n_nodes: int, min_sep: float, rng):
    """Random well-separated S^3 nodes with weights drawn from [0.5, 1.5).

    Candidates are drawn one at a time and kept when they lie at least
    min_sep from every node kept so far.
    """
    _refuse_oversized_grid(n_nodes, 1)
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


def _rng(seed: int):
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _run_covariance_check(cfg: dict, params: Params):
    if cfg["pairs"] < 1:
        raise ValueError(f"pairs must be at least 1, got {cfg['pairs']}")
    if cfg["nodes"] < 2:  # one node has no pair: the residual would be 0 and pass vacuously
        raise ValueError(f"nodes must be at least 2, got {cfg['nodes']}")
    if cfg["min_sep"] < 0.0:
        raise ValueError(f"min_sep must be nonnegative, got {cfg['min_sep']}")
    rng = _rng(cfg["seed"])
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
    return results, None


def _run_curvature_residual(cfg: dict, params: Params):
    grid = sphere_grid(1, cfg["resolution"])
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    results = {"mode": cfg["mode"], "n_nodes": len(grid)}
    if cfg["mode"] == "constant":
        phi = np.ones(len(grid))
    elif cfg["mode"] == "maximizer":
        # the equation is read at the endpoint alone: one solve there, from the constant
        endpoint = default_p_schedule(params)[-1]
        res = solve_subcritical(K, grid, endpoint, tol=cfg["tol"], max_iter=cfg["max_iter"])
        results["all_converged"] = res.converged
        phi = res.f ** (res.p - 1.0)
    else:
        rng = _rng(cfg["seed"])
        phi = np.exp(0.3 * rng.standard_normal(len(grid)))
    results["residual"] = curvature_equation_residual(K, grid, phi, params)
    return results, None


_SOLVE = {"tol": 1e-9, "max_iter": 10000}

COMMANDS = {
    "constants": Command(
        "print sharp constant and exponents", _run_constants, {"n": 1, "alpha": 2.0}
    ),
    "verify-hls": Command(
        "eps-invariance and upper-bound checks",
        _run_verify_hls,
        {"n": 1, "alpha": 2.0, "eps_list": [0.05, 0.1, 0.2], "ratio": 50.0,
         "resolution": [12, 8, 12]},
        {"n": (1,)},  # its sphere grids exist for n = 1 only
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
        {"alpha": 2.0, "resolution": [12, 12, 12], "p_schedule": None, "A0": 0.0, "c_w": 0.0,
         **_SOLVE},
    ),
    "lower-bound": Command(
        "truncated concentrating-extremal quotient",
        _run_lower_bound,
        {"n": 1, "alpha": 2.0, "eps": 0.1, "R": 5.0, "resolution": [16, 8, 16]},
        {"n": (1,)},  # its sphere grid exists for n = 1 only
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
        {"alpha": 2.0, "nodes": 50, "pairs": 100, "min_sep": 0.2, "phi": "random", "seed": 0},
        {"phi": ("random", "constant")},
    ),
    "curvature-residual": Command(
        "integral curvature equation defect",
        _run_curvature_residual,
        {"alpha": 2.0, "resolution": [10, 8, 10], "mode": "constant", **_SOLVE, "seed": 0},
        {"mode": ("constant", "maximizer", "random")},
    ),
}


# ---------------------------------------------------------------------------
# parser and driver


def _flag_type(default):
    # list keys take comma-separated strings, parsed by _resolve_config
    kind = _key_type(default)
    return str if kind is list else kind


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags override its entries")
    sub.add_argument("--output", default=".", help="directory for JSON/CSV artifacts (default .)")
    sub.add_argument("--threads", type=int, help="BLAS thread count (default: all cores)")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when a solve fails to converge or a check fails",
    )


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry, one flag per key of its defaults; a new
    parser on every call (main builds one per process, _parser)."""
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
                type=_flag_type(default),
                choices=command.choices.get(key),
                help=_HELP.get(key),
            )
        _add_common(sub)
    return parser


# built once per process: parse_args leaves a parser unchanged, and COMMANDS is
# read at call time, so a replaced run function still takes effect
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if args.threads is not None and args.threads < 1:
            raise ValueError(f"thread count must be at least 1, got {args.threads}")
        cfg = _resolve_config(args, command)
        params = make_params(cfg.get("n", 1), cfg["alpha"])
        with blas_threads(args.threads):
            results, table = command.run(cfg, params)
        summary = {"command": args.command, "config": cfg, "results": results}
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        paths = [_write(args.output, f"{args.command}.json", text)]
        if table is not None:
            # str of a Python float is its shortest round-trip repr
            columns, rows = table
            lines = "".join(",".join(map(str, row)) + "\n" for row in [columns, *rows])
            paths.append(_write(args.output, f"{args.command}.csv", lines))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # the repr of a Python scalar holds the digits json.dumps writes
    for key, value in results.items():
        if isinstance(value, (bool, int, float, str)):
            print(f"{key} = {value!r}")
    for path in paths:
        print(f"wrote {path}")
    passed = all(value for value in results.values() if isinstance(value, bool))
    return EXIT_NOT_CONVERGED if args.strict and not passed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
