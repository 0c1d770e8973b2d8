"""The three benchmark workloads and the checks run on their outputs.

Every call into crhls goes through the public functions of one module
(discretization, functional, solver, experiments, cli) and sits inside a
tracer span named `<module>.<function>`. Untraced runs pass a NullTracer,
so both kinds of run execute the same code.

Why these workloads:

* sharpness: the paper's sharpness claim, a refinement ladder whose
  float32 quotient approaches the sharp constant 8 from below. It is
  bound by kernel assembly and memory; the largest rung's 729 MiB kernel
  is seven times the L3 cache. The solver does no work here.
* continuation: the warm-started subcritical continuation toward q_alpha
  on a 16^3 float64 kernel (128 MiB, beyond L3). The solver's matvecs
  are nearly all of the time; assembly sits in set-up.
* cli-suite: all eight subcommands at their defaults plus two README
  variants, in one process. It is the only path through cli and
  experiments, and its kernels are small enough to stay in cache.

The seed sets the order of the ladder's rungs and the random input of the
suite's covariance-check. Every other numerical input is fixed, so each
run can be checked against the recorded outputs of commit 04d1be2, and
continuation, whose stages form one warm-start chain, takes nothing from
the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from crhls import cli
from crhls.core import make_params, sharp_constant_DH
from crhls.discretization import (
    KernelMatrix,
    KernelSpec,
    QuadratureGrid,
    assemble_kernel,
    sphere_grid,
)
from crhls.experiments import (
    conformal_covariance_check,
    curvature_equation_residual,
    eps_invariance_experiment,
    lower_bound_experiment,
    mass_perturbation_experiment,
)
from crhls.functional import bilinear_form, rayleigh_quotient, young_bound
from crhls.solver import continuation, default_p_schedule, solve_subcritical

WORKLOADS = ("sharpness", "continuation", "cli-suite")

# Rung labels are the full-size node counts; the tiny self-test profile
# keeps the labels so that both profiles report the same metric names.
LADDER_LABELS = ("n4096", "n8000", "n13824")
STAGES = 5
TOL = 1e-9
YOUNG_R = 1.2
MATVEC_REPEATS = 31
MiB = 2.0**20

CLI_SUITE = (
    ("constants", ["constants"]),
    ("verify-hls", ["verify-hls"]),
    ("extremal-sub", ["extremal-sub"]),
    (
        "extremal-sub-sphere",
        ["extremal-sub", "--manifold", "sphere", "--resolution", "12,12,12", "--p", "1.6"],
    ),
    ("continuation", ["continuation"]),
    ("lower-bound", ["lower-bound"]),
    ("mass-experiment", ["mass-experiment"]),
    ("covariance-check", ["covariance-check"]),
    ("curvature-residual", ["curvature-residual"]),
    ("curvature-residual-maximizer", ["curvature-residual", "--mode", "maximizer"]),
)
CLI_OUTPUT = Path(".perfbench_out") / "cli"
# the one invocation with a random input: its node set, phi and u come from --seed
SEEDED_SLOT = "covariance-check"

PROFILES = {
    "full": {"ladder": (16, 20, 24), "continuation_m": 16, "cli_extra": {}},
    "tiny": {
        "ladder": (4, 5, 6),
        "continuation_m": 5,
        "cli_extra": {
            "verify-hls": ["--resolution", "6,4,6"],
            "extremal-sub-sphere": ["--resolution", "5,5,5"],
            "continuation": ["--resolution", "5,5,5"],
            "lower-bound": ["--resolution", "6,4,6"],
            "mass-experiment": ["--resolution", "5,4,5"],
            "covariance-check": ["--nodes", "10", "--pairs", "5"],
            "curvature-residual": ["--resolution", "5,4,5"],
            "curvature-residual-maximizer": ["--resolution", "5,4,5"],
        },
    },
}

PARAMS = make_params(1, 2.0)


class NullTracer:
    def span(self, name: str, label: str | None = None):
        return contextlib.nullcontext()


def kernel_size(workload: str, profile: dict) -> tuple[int, int]:
    """(N, itemsize) of the largest kernel a workload holds at once."""
    if workload == "sharpness":
        return max(profile["ladder"]) ** 3, 4
    if workload == "continuation":
        return profile["continuation_m"] ** 3, 8
    return 12**3, 8


# ---------------------------------------------------------------------------
# sharpness


def sharpness_pass(profile: dict, order, tracer) -> dict:
    """One refinement ladder in the given rung order; returns the observed values."""
    quotient, young = {}, {}
    for i in order:
        m, label = profile["ladder"][i], LADDER_LABELS[i]
        with tracer.span("discretization.sphere_grid", label):
            grid = sphere_grid(1, (m, m, m))
        with tracer.span("discretization.assemble_kernel", label):
            K = assemble_kernel(grid, KernelSpec("pure_singular"), PARAMS, dtype=np.float32)
        with tracer.span("functional.rayleigh_quotient", label):
            quotient[label] = rayleigh_quotient(K, np.ones(len(grid)), PARAMS.q_alpha)
        with tracer.span("functional.young_bound", label):
            young[label] = young_bound(K, grid, YOUNG_R)
        # drop the kernel before the next rung, so peak memory does not
        # depend on the rung order
        del K
    return {"quotient": quotient, "young_bound": young}


def sharpness_checks(observed: dict) -> list[tuple[str, bool]]:
    """Approach from below: the ladder's quotients rise and stay under the sharp constant."""
    sharp = sharp_constant_DH(PARAMS)
    q = [observed["quotient"][label] for label in LADDER_LABELS]
    checks = [(f"quotient {label} < {sharp!r}", v < sharp) for label, v in zip(LADDER_LABELS, q)]
    checks += [
        (f"quotient {a} < quotient {b}", qa < qb)
        for a, b, qa, qb in zip(LADDER_LABELS, LADDER_LABELS[1:], q, q[1:])
    ]
    return checks


# ---------------------------------------------------------------------------
# continuation


def continuation_setup(profile: dict, tracer):
    m = profile["continuation_m"]
    return _assembled((m, m, m), tracer)


def continuation_pass(K, grid) -> list:
    return continuation(K, grid, default_p_schedule(PARAMS), tol=TOL)


def continuation_stagewise(K, grid, tracer) -> list:
    """The same continuation, one traced solve_subcritical call per stage."""
    runs, f_warm = [], None
    for k, p in enumerate(default_p_schedule(PARAMS), start=1):
        with tracer.span("solver.solve_subcritical", f"stage{k}"):
            run = solve_subcritical(K, grid, p, tol=TOL, f0=f_warm)
        runs.append(run)
        f_warm = run.f
    return runs


def continuation_observed(runs) -> dict:
    return {
        "stages": [
            {
                "p": r.p,
                "D": r.D_estimate,
                "iterations": r.iterations,
                "residual": r.residual,
                "converged": bool(r.converged),
            }
            for r in runs
        ]
    }


def continuation_checks(runs) -> list[tuple[str, bool]]:
    checks = [(f"stage {k} converged", bool(r.converged)) for k, r in enumerate(runs, 1)]
    checks.append((f"{STAGES} stages", len(runs) == STAGES))
    return checks


def bitwise_checks(untraced, traced) -> list[tuple[str, bool]]:
    """The stage-by-stage solves must reproduce continuation() bit for bit."""
    checks = [("stage count equal", len(untraced) == len(traced))]
    for k, (a, b) in enumerate(zip(untraced, traced), start=1):
        checks += [
            (f"stage {k} D bitwise", a.D_estimate == b.D_estimate),
            (f"stage {k} iterations equal", a.iterations == b.iterations),
            (f"stage {k} residual bitwise", a.residual == b.residual),
            (f"stage {k} f bitwise", np.array_equal(a.f, b.f)),
        ]
    return checks


# ---------------------------------------------------------------------------
# cli-suite


def cli_pass(profile: dict, seed: int, tracer) -> dict:
    """Run the suite's invocations in order; returns exit codes by slot."""
    codes = {}
    for slot, argv in CLI_SUITE:
        argv = [*argv, *profile["cli_extra"].get(slot, ()), "--strict"]
        if slot == SEEDED_SLOT:
            argv += ["--seed", str(seed)]
        argv += ["--output", str(CLI_OUTPUT / slot)]
        with tracer.span(f"cli.{slot}"), contextlib.redirect_stdout(io.StringIO()):
            codes[slot] = cli.main(argv)
    return codes


def clear_cli_output() -> None:
    shutil.rmtree(CLI_OUTPUT, ignore_errors=True)


def _drop_vectors(obj):
    # maximizer vectors hold thousands of entries; the checks use scalars
    if isinstance(obj, dict):
        return {k: _drop_vectors(v) for k, v in obj.items() if k != "f"}
    if isinstance(obj, list):
        return [_drop_vectors(v) for v in obj]
    return obj


def cli_artifact(slot: str) -> dict:
    argv = dict(CLI_SUITE)[slot]
    with open(CLI_OUTPUT / slot / f"{argv[0]}.json") as fh:
        return json.load(fh)


def cli_observed(codes: dict) -> dict:
    observed = {}
    for slot, code in codes.items():
        entry = {"exit_code": code}
        if code == 0:
            entry["results"] = _drop_vectors(cli_artifact(slot)["results"])
        observed[slot] = entry
    return observed


def cli_checks(codes: dict) -> list[tuple[str, bool]]:
    return [(f"{slot} exit code 0", code == 0) for slot, code in codes.items()]


def artifact_digests() -> dict:
    """sha256 of every artifact the suite wrote, keyed by path under the output root."""
    return {
        path.relative_to(CLI_OUTPUT).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(CLI_OUTPUT.rglob("*"))
        if path.is_file()
    }


def _random_sphere_grid(nodes: int, rng) -> QuadratureGrid:
    v = rng.standard_normal((nodes, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    xi = np.stack([v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]], axis=1)
    return QuadratureGrid(
        kind="sphere",
        n=1,
        weights=rng.uniform(0.5, 1.5, nodes),
        resolution=(nodes,),
        xi=xi,
    )


def _two_node_fixture():
    # the CLI's default extremal-sub input: two nodes, unit weights, hopping kernel
    grid = QuadratureGrid(
        kind="sphere",
        n=1,
        weights=np.ones(2),
        resolution=(2,),
        xi=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128),
    )
    K = KernelMatrix(
        entries=np.array([[0.0, 1.0], [1.0, 0.0]]),
        spec=KernelSpec("pure_singular"),
        grid=grid,
        params=PARAMS,
    )
    return K, grid


def _assembled(resolution, tracer):
    """Sphere grid and its float64 pure singular kernel."""
    with tracer.span("discretization.sphere_grid"):
        grid = sphere_grid(1, resolution)
    with tracer.span("discretization.assemble_kernel"):
        K = assemble_kernel(grid, KernelSpec("pure_singular"), PARAMS)
    return K, grid


def _continuation(K, grid, cfg, tracer):
    schedule = cfg.get("p_schedule") or default_p_schedule(PARAMS)
    with tracer.span("solver.continuation"):
        return continuation(
            K, grid, schedule, tol=float(cfg["tol"]), max_iter=int(cfg["max_iter"])
        )


def cli_direct(slot: str, cfg: dict, tracer) -> None:
    """The library calls behind one CLI invocation, with its resolved configuration.

    The configuration is read back from the invocation's own artifact, so
    the direct calls do the same numerical work as the CLI. What the CLI
    adds on top (parsing, its random node sampler, printing, artifact
    writing) is the cli layer's self time.
    """
    if slot == "constants":
        sharp_constant_DH(make_params(int(cfg["n"]), float(cfg["alpha"])))
    elif slot == "verify-hls":
        params = make_params(int(cfg["n"]), float(cfg["alpha"]))
        with tracer.span("experiments.eps_invariance_experiment"):
            eps_invariance_experiment(cfg["eps_list"], cfg["ratio"], cfg["resolution"], params)
        with tracer.span("experiments.lower_bound_experiment"):
            lower_bound_experiment(1.0, float(cfg["ratio"]), cfg["resolution"], params)
    elif slot in ("extremal-sub", "extremal-sub-sphere"):
        if cfg["manifold"] == "sphere":
            K, grid = _assembled(cfg["resolution"], tracer)
        else:
            K, grid = _two_node_fixture()
        with tracer.span("solver.solve_subcritical"):
            solve_subcritical(
                K, grid, float(cfg["p"]), tol=float(cfg["tol"]), max_iter=int(cfg["max_iter"])
            )
    elif slot == "continuation":
        K, grid = _assembled(cfg["resolution"], tracer)
        _continuation(K, grid, cfg, tracer)
    elif slot == "lower-bound":
        params = make_params(int(cfg["n"]), float(cfg["alpha"]))
        with tracer.span("experiments.lower_bound_experiment"):
            lower_bound_experiment(float(cfg["eps"]), float(cfg["R"]), cfg["resolution"], params)
    elif slot == "mass-experiment":
        for A0 in cfg["A0_list"]:
            with tracer.span("experiments.mass_perturbation_experiment"):
                mass_perturbation_experiment(
                    A0,
                    float(cfg["c_w"]),
                    float(cfg["alpha"]),
                    cfg["resolution"],
                    tol=float(cfg["tol"]),
                    max_iter=int(cfg["max_iter"]),
                )
    elif slot == "covariance-check":
        rng = np.random.default_rng(int(cfg["seed"]))
        grid = _random_sphere_grid(int(cfg["nodes"]), rng)
        with tracer.span("discretization.assemble_kernel"):
            K = assemble_kernel(grid, KernelSpec("pure_singular"), PARAMS)
        for _ in range(int(cfg["pairs"])):
            phi = np.exp(rng.uniform(-0.7, 0.7, len(grid)))
            u = rng.standard_normal(len(grid))
            with tracer.span("experiments.conformal_covariance_check"):
                conformal_covariance_check(K, grid, phi, u, PARAMS)
    elif slot in ("curvature-residual", "curvature-residual-maximizer"):
        K, grid = _assembled(cfg["resolution"], tracer)
        if cfg["mode"] == "maximizer":
            runs = _continuation(K, grid, cfg, tracer)
            phi = runs[-1].f ** (runs[-1].p - 1.0)
        else:
            phi = np.ones(len(grid))
        with tracer.span("experiments.curvature_equation_residual"):
            curvature_equation_residual(K, grid, phi, PARAMS)
    else:
        raise ValueError(f"no direct calls defined for CLI slot {slot!r}")


def examine(workload: str, raw):
    """A pass's raw result as (observed values for the reference checks, structural checks)."""
    if workload == "sharpness":
        return raw, sharpness_checks(raw)
    if workload == "continuation":
        return continuation_observed(raw), continuation_checks(raw)
    return cli_observed(raw), cli_checks(raw)


# ---------------------------------------------------------------------------
# checks against recorded reference values


def lookup(doc, path: str):
    for key in path.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def reference_checks(observed: dict, checks: list) -> list[tuple[str, bool]]:
    """Compare observed values with recorded ones.

    A check is {"path", "value"} for an exact match, adds "rtol" and/or
    "atol" for a number within |x - value| <= atol + rtol |value|, or is
    {"path", "max"} for an upper limit (iteration counts: a solver may
    converge in fewer iterations than the recorded one, never in more).
    """
    results = []
    for chk in checks:
        path = chk["path"]
        try:
            x = lookup(observed, path)
        except (KeyError, IndexError, TypeError):
            results.append((f"{path} missing", False))
            continue
        if "max" in chk:
            results.append((f"{path} = {x!r} <= {chk['max']!r}", x <= chk["max"]))
        elif "rtol" in chk or "atol" in chk:
            v = chk["value"]
            limit = chk.get("atol", 0.0) + chk.get("rtol", 0.0) * abs(v)
            ok = isinstance(x, (int, float)) and math.isfinite(x) and abs(x - v) <= limit
            results.append((f"{path} = {x!r} within {limit:.3g} of {v!r}", ok))
        else:
            results.append((f"{path} = {x!r} == {chk['value']!r}", x == chk["value"]))
    return results



def _leaves(doc, prefix: str):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{prefix}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{prefix}.{i}")
    else:
        yield prefix, doc


# Tolerance classes. Float32 sharpness values: 1e-6, well above the 3e-8
# between float32 and float64 storage. Solver quotients: the solver's own
# tol 1e-9; at the stopping point D is already at its limit to ~1e-16, so
# a different correct solver lands well inside. Curvature residuals are
# differences of O(100) terms and get 1e-6. Stationarity defects and
# relative spreads at rounding level are covered by the converged/ok flags
# instead. Everything else is compared exactly or to 1e-9.
_EXACT_KEYS = {"p", "p_endpoint", "eps", "R", "ratio", "A0", "c_w", "alpha", "threshold"}
_ROUNDING_KEYS = {"spread_rel"}


def _cli_check(slot: str, path: str, value) -> dict | None:
    key = path.rsplit(".", 1)[-1]
    if key in _ROUNDING_KEYS or (key == "residual" and not slot.startswith("curvature")):
        return None
    if key == "iterations":
        return {"path": path, "max": value}
    if key == "max_residual":
        return {"path": path, "max": 1e-10}
    if key == "residual":
        return {"path": path, "value": value, "rtol": 1e-6}
    if key == "delta":
        return {"path": path, "value": value, "rtol": 1e-9, "atol": 1e-7}
    if isinstance(value, float) and key not in _EXACT_KEYS:
        return {"path": path, "value": value, "rtol": 1e-9}
    return {"path": path, "value": value}


def build_reference(observed: dict, digests: dict) -> dict:
    """Reference checks from the observed outputs of a traced run of trusted code.

    The seeded invocation's artifacts vary with the seed and get no digest;
    its checks are limits and flags, which hold for every seed.
    """
    sharp = [
        {"path": f"{kind}.{label}", "value": value, "rtol": 1e-6}
        for kind, values in observed["sharpness"].items()
        for label, value in values.items()
    ]
    cont = []
    for k, stage in enumerate(observed["continuation"]["stages"]):
        cont += [
            {"path": f"stages.{k}.p", "value": stage["p"]},
            {"path": f"stages.{k}.D", "value": stage["D"], "rtol": TOL},
            {"path": f"stages.{k}.iterations", "max": stage["iterations"]},
            {"path": f"stages.{k}.converged", "value": True},
        ]
    cli_refs = []
    digests = {p: d for p, d in digests.items() if not p.startswith(f"{SEEDED_SLOT}/")}
    for slot, entry in observed["cli-suite"].items():
        for path, value in _leaves(entry.get("results", {}), f"{slot}.results"):
            chk = _cli_check(slot, path, value)
            if chk is not None:
                cli_refs.append(chk)
    return {
        "sharpness": {"checks": sharp},
        "continuation": {"checks": cont},
        "cli-suite": {"checks": cli_refs, "artifacts": digests},
    }
