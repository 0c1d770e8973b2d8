"""One benchmark process: set-up, then timed passes or the traced suite.

run.py starts this file in a fresh interpreter with the BLAS thread
variables already in its environment, so they are in force before numpy
is imported. The job arrives as one JSON argument; the result leaves as
the last line of standard output. Exit codes: 0 done, 3 the effective
BLAS thread count is not the pinned one, 4 the workload does not fit in
the available memory.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# kernel assembly holds blocks of 2^23 entries: complex128 inner products
# plus float64 temporaries, about 40 bytes an entry
BLOCK_SCRATCH_BYTES = 2**23 * 40


def _openblas():
    """numpy's bundled OpenBLAS, or None when numpy links another BLAS."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(glob.glob(str(libdir / "libscipy_openblas*.so*")))
    return ctypes.CDLL(paths[0]) if paths else None


def _blas_call(lib, name: str, restype):
    fn = getattr(lib, name, None) if lib is not None else None
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = restype
    return fn()


def _meminfo_mib() -> dict:
    info = {}
    with open("/proc/meminfo") as fh:
        for line in fh:
            key, value = line.split(":", 1)
            info[key] = int(value.split()[0]) / 1024.0
    return info


def _l3_mib():
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(f"{index}/level") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(f"{index}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1], 1 / 2**20)
        return float(size.rstrip("KMG")) * scale
    return None


def environment() -> dict:
    """Stamp for every result: library versions, BLAS threads, cores, cache, memory."""
    import numpy

    lib = _openblas()
    config = _blas_call(lib, "scipy_openblas_get_config64_", ctypes.c_char_p)
    mem = _meminfo_mib()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": config.decode() if config else "unknown (no bundled OpenBLAS found)",
        "blas_threads": _blas_call(lib, "scipy_openblas_get_num_threads64_", ctypes.c_int),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_mib": _l3_mib(),
        "mem_total_mib": round(mem["MemTotal"], 1),
        "mem_available_mib": round(mem["MemAvailable"], 1),
    }


def preflight(kernels, mem_available_mib: float) -> str | None:
    """A message when the kernels plus block scratch exceed MemAvailable, else None."""
    need = max(N * N * itemsize for N, itemsize in kernels) + BLOCK_SCRATCH_BYTES
    if need / 2**20 <= mem_available_mib:
        return None
    N, itemsize = max(kernels, key=lambda k: k[0] * k[0] * k[1])
    return (
        f"a dense {N} x {N} kernel of {itemsize}-byte entries plus assembly scratch needs "
        f"{need / 2**20:.0f} MiB, but MemAvailable is {mem_available_mib:.0f} MiB"
    )


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests while this VM's vCPUs wanted it."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _tally(checks, failures: list) -> int:
    failures.extend(name for name, ok in checks if not ok)
    return len(checks)


def untraced_passes(wl, job, state, rng, reference) -> dict:
    """Closed loop: passes back to back until the next one would overrun job['seconds']."""
    profile = wl.PROFILES[job["profile"]]
    walls, cpus, failures = [], [], []
    attempted = 0
    start, steal0 = time.perf_counter(), steal_seconds()
    while True:
        if job["workload"] == "cli-suite":
            wl.clear_cli_output()
        if job["workload"] == "sharpness":
            order = rng.permutation(len(profile["ladder"]))
        w0, c0 = time.perf_counter(), time.process_time()
        if job["workload"] == "sharpness":
            raw = wl.sharpness_pass(profile, order, wl.NullTracer())
        elif job["workload"] == "continuation":
            raw = wl.continuation_pass(*state)
        else:
            raw = wl.cli_pass(profile, job["seed"], wl.NullTracer())
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        observed, checks = wl.examine(job["workload"], raw)
        checks += wl.reference_checks(observed, reference[job["workload"]]["checks"])
        attempted += _tally(checks, failures)
        if not walls:
            # Peak of set-up plus one pass. Later passes can raise it through
            # allocator history alone: glibc lifts its mmap threshold after
            # a large free, and the same cli-suite run then peaked at 163 or
            # 183 MiB depending on heap layout.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start + wall > job["seconds"]:
            break
    elapsed = time.perf_counter() - start
    return {
        "walls": walls,
        "cpus": cpus,
        "steal_frac": (steal_seconds() - steal0) / (elapsed * os.cpu_count()),
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failures": failures,
        "observed": observed,
    }


def _timed(fn, *args):
    w0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - w0


def traced_suite(wl, job, rng, reference) -> dict:
    """Every workload once untraced and once traced; per-layer metrics from the spans.

    The named workload runs first, in a fresh process like its untraced
    runs; the others follow so that every traced run reports every layer.
    """
    from tracing import Tracer

    profile = wl.PROFILES[job["profile"]]
    tracer, null = Tracer(), wl.NullTracer()
    metrics, failures, observed = {}, [], {}
    attempted = 0
    overhead = 0.0
    for workload in sorted(wl.WORKLOADS, key=lambda w: w != job["workload"]):
        tracer.run_id = workload
        checks = []
        if workload == "sharpness":
            order = rng.permutation(len(profile["ladder"]))
            base, t_untraced = _timed(wl.sharpness_pass, profile, order, null)
            raw, t_traced = _timed(wl.sharpness_pass, profile, order, tracer)
            checks += wl.sharpness_checks(base)
            checks += wl.reference_checks(base, reference[workload]["checks"])
            metrics.update(sharpness_layers(wl, tracer, profile))
        elif workload == "continuation":
            K, grid = wl.continuation_setup(profile, tracer)
            base, t_untraced = _timed(wl.continuation_pass, K, grid)
            raw, t_traced = _timed(wl.continuation_stagewise, K, grid, tracer)
            checks += wl.bitwise_checks(base, raw)
            f = raw[-1].f
            for _ in range(wl.MATVEC_REPEATS):
                with tracer.span("functional.bilinear_form"):
                    wl.bilinear_form(K, f, f)
            metrics.update(continuation_layers(wl, tracer, raw, len(grid)))
            del K
        else:
            wl.clear_cli_output()
            _, t_untraced = _timed(wl.cli_pass, profile, job["seed"], null)
            wl.clear_cli_output()
            raw, t_traced = _timed(wl.cli_pass, profile, job["seed"], tracer)
            for slot, _ in wl.CLI_SUITE:
                if raw[slot] == 0:
                    with tracer.span(f"direct.{slot}"):
                        wl.cli_direct(slot, wl.cli_artifact(slot)["config"], tracer)
            metrics.update(cli_layers(wl, tracer, reference[workload].get("artifacts", {})))
        obs, more = wl.examine(workload, raw)
        checks += more + wl.reference_checks(obs, reference[workload]["checks"])
        overhead += t_traced - t_untraced
        observed[workload] = obs
        attempted += _tally(checks, failures)
    metrics["trace.overhead_s"] = overhead
    return {
        "layers": metrics,
        "attempted": attempted,
        "failures": failures,
        "observed": observed,
        "tracer": tracer,
    }


def sharpness_layers(wl, tracer, profile) -> dict:
    run = "sharpness"
    out = {"discretization.sphere_grid_s": tracer.seconds("discretization.sphere_grid", run)}
    for label in wl.LADDER_LABELS:
        out[f"discretization.assemble_s.{label}"] = tracer.seconds(
            "discretization.assemble_kernel", run, label
        )
        out[f"functional.rayleigh_quotient_s.{label}"] = tracer.seconds(
            "functional.rayleigh_quotient", run, label
        )
        out[f"functional.young_bound_s.{label}"] = tracer.seconds(
            "functional.young_bound", run, label
        )
    top = wl.LADDER_LABELS[-1]
    N = profile["ladder"][-1] ** 3
    (span,) = tracer.select("discretization.assemble_kernel", run, top)
    out[f"discretization.entries_per_s.{top}"] = N * N / out[f"discretization.assemble_s.{top}"]
    out[f"discretization.kernel_mb.{top}"] = N * N * 4 / wl.MiB
    out[f"discretization.assemble_rss_mb.{top}"] = span["rss_end_mib"] - span["rss_start_mib"]
    return out


def continuation_layers(wl, tracer, runs, N: int) -> dict:
    run = "continuation"
    out = {}
    for k, r in enumerate(runs, start=1):
        out[f"solver.stage{k}.iterations"] = r.iterations
        out[f"solver.stage{k}.s"] = tracer.seconds("solver.solve_subcritical", run, f"stage{k}")
    solver_s = tracer.seconds("solver.solve_subcritical", run)
    iterations = sum(r.iterations for r in runs)
    matvec_s = statistics.median(tracer.durations("functional.bilinear_form", run))
    out["solver.iterations_total"] = iterations
    out["solver.s_per_iteration"] = solver_s / iterations
    out["solver.matvec_share_est"] = 2 * iterations * matvec_s / solver_s
    out["solver.final_residual"] = runs[-1].residual
    out["functional.matvec_s"] = matvec_s
    out["functional.matvec_gbps_computed"] = N * N * 8 / matvec_s / 1e9
    return out


def cli_layers(wl, tracer, reference_digests: dict) -> dict:
    run = "cli-suite"
    out = {}
    cli_s = direct_s = 0.0
    for slot, _ in wl.CLI_SUITE:
        out[f"cli.{slot}_s"] = tracer.seconds(f"cli.{slot}", run)
        cli_s += out[f"cli.{slot}_s"]
        direct_s += tracer.seconds(f"direct.{slot}", run)
    for metric, fn in (
        ("eps_invariance_s", "eps_invariance_experiment"),
        ("lower_bound_s", "lower_bound_experiment"),
        ("mass_perturbation_s", "mass_perturbation_experiment"),
        ("conformal_covariance_s", "conformal_covariance_check"),
        ("curvature_residual_s", "curvature_equation_residual"),
    ):
        out[f"experiments.{metric}"] = tracer.seconds(f"experiments.{fn}", run)
    digests = wl.artifact_digests()
    out["cli.self_s"] = cli_s - direct_s
    out["cli.artifact_bytes"] = sum((wl.CLI_OUTPUT / p).stat().st_size for p in digests)
    out["cli.artifacts_identical"] = sum(
        reference_digests.get(p) == d for p, d in digests.items()
    )
    return out


def main(argv) -> int:
    job = json.loads(argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads as wl

    import_s = time.perf_counter() - t0

    env = environment()
    if env["blas_threads"] != job["threads"]:
        print(
            f"refusing to run: the effective BLAS thread count is {env['blas_threads']}, "
            f"pinned is {job['threads']} (BLAS: {env['blas']})",
            file=sys.stderr,
        )
        return 3
    workloads = wl.WORKLOADS if job["trace"] else (job["workload"],)
    profile = wl.PROFILES[job["profile"]]
    kernels = [wl.kernel_size(w, profile) for w in workloads]
    message = preflight(kernels, env["mem_available_mib"])
    if message:
        print(f"refusing to run {job['workload']}: {message}", file=sys.stderr)
        return 4

    state = None
    if job["workload"] == "continuation" and not job["trace"]:
        state = wl.continuation_setup(profile, wl.NullTracer())
    setup_s = time.monotonic() - job["spawned_at"]
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(job["reference"]) as fh:
        reference = json.load(fh)
    rng = np.random.default_rng(job["seed"])
    if job["trace"]:
        out = traced_suite(wl, job, rng, reference)
        out["layers"]["setup.import_s"] = import_s
        tracer = out.pop("tracer")
        tracer.write_jsonl(job["trace_path"], {"job": job, "env": env})
    else:
        out = untraced_passes(wl, job, state, rng, reference)
    out.update(setup_s=setup_s, import_s=import_s, env=env)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
