"""Self-test of the benchmark harness at tiny problem sizes.

    python3 perfbench/selftest.py

Runs every workload through run.py's own code path with the "tiny"
profile (same metric names, small grids) and exits 1 unless:

* every end-to-end and per-layer metric of BENCHMARK.json appears, with
  its unit and a finite value, for every workload;
* with a reference recorded from the same code no check fails, and the
  CLI artifacts of a rerun are byte-identical to the recorded ones;
* a perturbed reference value makes failed_frac > 0 on every workload,
  so the checks can fail;
* a worker refuses to run when the effective BLAS thread count is not
  the pinned one, and the memory pre-flight refuses a kernel larger than
  MemAvailable.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402


class Expectations:
    def __init__(self) -> None:
        self.total = 0
        self.failed: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.total += 1
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failed.append(what)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _perturb(reference: dict, workload: str) -> dict:
    """Copy of the reference with the first numeric expected value of a workload moved by 1 %."""
    out = copy.deepcopy(reference)
    for chk in out[workload]["checks"]:
        if "rtol" in chk and chk["value"] != 0:
            chk["value"] *= 1.01
            return out
    raise ValueError(f"no numeric reference value to perturb for {workload}")


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads as wl

    contract = run.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    expect = Expectations()
    expect(sorted(names) == sorted(wl.WORKLOADS), "BENCHMARK.json lists the harness's workloads")

    (run.ROOT / ".perfbench_out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench_out"))
    try:
        empty = _write(tmp / "empty.json", {w: {"checks": []} for w in names})
        print("recording a tiny reference")
        out, _ = run.run_benchmark(names[0], 0, 1, 1, profile="tiny", reference=empty)
        reference = wl.build_reference(out["observed"], wl.artifact_digests())
        ref_path = _write(tmp / "reference.json", reference)

        for workload in names:
            for trace in (0, 1):
                kind = "per_layer" if trace else "end_to_end"
                print(f"{workload}, trace {trace}")
                out, metrics = run.run_benchmark(
                    workload, 1, 1, trace, profile="tiny", reference=ref_path
                )
                try:
                    metrics = run.with_units(metrics, contract[kind])
                    expect(True, f"all {len(metrics)} {kind} metrics reported")
                except run.BenchError as exc:
                    expect(False, str(exc))
                    continue
                bad = [
                    name
                    for name, m in metrics.items()
                    if isinstance(m["value"], bool)
                    or not isinstance(m["value"], (int, float))
                    or not math.isfinite(m["value"])
                ]
                expect(not bad, f"finite values with units ({bad or 'all'})")
                expect(
                    not out["failures"],
                    f"0 of {out['attempted']} checks failed {out['failures'][:3]}",
                )
                if trace:
                    n_artifacts = len(reference["cli-suite"]["artifacts"])
                    identical = metrics["cli.artifacts_identical"]["value"]
                    expect(
                        identical == n_artifacts,
                        f"{identical} of {n_artifacts} CLI artifacts byte-identical",
                    )
            bad_ref = _write(tmp / f"perturbed-{workload}.json", _perturb(reference, workload))
            out, _ = run.run_benchmark(workload, 1, 1, 0, profile="tiny", reference=bad_ref)
            failed = len(out["failures"])
            expect(failed > 0, f"perturbed reference: failed_frac {failed}/{out['attempted']} > 0")

        print("refusals")
        job = {
            "workload": names[0],
            "seed": 0,
            "seconds": 1,
            "trace": False,
            "profile": "tiny",
            "reference": str(ref_path),
            "threads": run.BLAS_THREADS + 1,
            "setup_only": True,
        }
        try:
            run.spawn(job, deadline=time.monotonic() + 60.0)
            expect(False, "worker ran with a BLAS thread count other than the pinned one")
        except run.BenchError as exc:
            expect("refusing to run" in str(exc), "worker refuses a BLAS thread-count mismatch")
        expect(worker.preflight([(100, 8)], 1024.0) is None, "pre-flight passes a small kernel")
        message = worker.preflight([(32768, 4)], 1024.0)
        expect(message is not None and "MemAvailable" in message, "pre-flight refuses a large kernel")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"selftest: {expect.total - len(expect.failed)} of {expect.total} expectations met")
    return 1 if expect.failed else 0


if __name__ == "__main__":
    sys.exit(main())
