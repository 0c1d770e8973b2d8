"""crhls benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sharpness --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src. Each
run starts fresh interpreters (perfbench/worker.py) with BLAS pinned to
BLAS_THREADS threads, so set-up and peak memory are those of one run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median wall
and CPU time of the passes that fit in --seconds, the run's peak RSS, and
the median set-up time over SETUP_PROBES + 1 fresh processes. --trace 1
reports the per-layer metrics from one traced process that runs every
workload once untraced and once traced; it writes its spans as JSON lines
to .perfbench_out/. Every pass is checked against perfbench/reference.json;
the last line of output says how many checks ran and how many failed.

Exit codes: 0 a result was printed, 2 no result (no crhls source tree, a
worker refused to run or failed, or the run overran its time budget).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
BLAS_THREADS = 2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 6
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = {**os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS}}
    env.pop("CRHLS_THREADS", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time budget of {BUDGET_S:.0f} s used up")
    job = {**job, "spawned_at": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker overran the {BUDGET_S:.0f} s budget and was killed") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(workload, seed, seconds, trace, profile="full", reference=REFERENCE):
    """Measure one run; returns (worker output, metrics as {name: value})."""
    if not (ROOT / "src" / "crhls" / "__init__.py").is_file():
        raise BenchError(f"no crhls source tree under {ROOT / 'src'}; run from a repository checkout")
    deadline = time.monotonic() + BUDGET_S
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    job = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "profile": profile,
        "reference": str(reference),
        "threads": BLAS_THREADS,
        "setup_only": False,
        "trace_path": str(ROOT / ".perfbench_out" / f"trace-{workload}-seed{seed}.jsonl"),
    }
    if trace:
        out = spawn(job, deadline)
        out["trace_path"] = job["trace_path"]
        return out, out["layers"]
    setups = [spawn({**job, "setup_only": True}, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    out = spawn(job, deadline)
    setups.append(out["setup_s"])
    out["setups"] = setups
    metrics = {
        "wall_s": statistics.median(out["walls"]),
        "cpu_s": statistics.median(out["cpus"]),
        "peak_rss_mb": out["peak_rss_mib"],
        "setup_s": statistics.median(setups),
    }
    return out, metrics


def with_units(metrics: dict, declared: list) -> dict:
    """Attach the units BENCHMARK.json declares; every declared metric must be present."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    if missing or extra:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def report(workload, seed, trace, out, metrics) -> dict:
    env = out["env"]
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
        f"BLAS threads {env['blas_threads']} (pinned {BLAS_THREADS}), nproc {env['nproc']}, "
        f"L3 {env['l3_mib']} MiB, memory {env['mem_total_mib']} MiB"
    )
    if trace:
        print(f"{workload} seed {seed}: traced suite, spans in {out['trace_path']}")
    else:
        print(
            f"{workload} seed {seed}: {len(out['walls'])} timed passes, "
            f"{len(out['setups'])} set-up samples, host steal {100 * out['steal_frac']:.1f} % "
            "of vCPU time during the passes"
        )
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']!r:>24} {m['unit']}")
    attempted, failed = out["attempted"], len(out["failures"])
    print(f"  {'failed_frac':44s} {failed / attempted!r:>24} ({failed} of {attempted} checks)")
    for name in out["failures"]:
        print(f"  FAILED: {name}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        out, metrics = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
        metrics = with_units(metrics, contract["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, args.seed, args.trace, out, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
