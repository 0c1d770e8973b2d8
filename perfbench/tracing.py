"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a crhls layer, recorded from the benchmark's
own code around the call: name, optional label, start, end, parent span,
run id, and the process's resident memory at both ends. Spans stay in
memory while the workload runs and are written as JSON lines once, at the
end, so writing them costs nothing inside the timed sections.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2.0**20


def rss_mib() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MIB


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str, label: str | None = None):
        """Time the body as span `name`, nested under the innermost open span."""
        record = {
            "id": len(self.spans),
            "name": name,
            "label": label,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "rss_start_mib": rss_mib(),
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_end_mib"] = rss_mib()
            self._stack.pop()

    def select(self, name: str, run_id: str, label: str | None = None) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name and s["run_id"] == run_id and label in (None, s["label"])
        ]

    def durations(self, name: str, run_id: str, label: str | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.select(name, run_id, label)]

    def seconds(self, name: str, run_id: str, label: str | None = None) -> float:
        """Total time of the spans called `name` in one run (and with one label)."""
        return sum(self.durations(name, run_id, label))

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "header", **header}, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"kind": "span", **s}, sort_keys=True) + "\n")
