"""In-memory spans and counters for the traced benchmark run.

A span is (operation id, name, parent span, start, end).  Spans and
counters stay in memory and are written out once, when the run ends.
Spans are named ``<layer>.<stage>``; a probe is a span whose parent is the
span of the public call that hides the stage, so its time is deducted
from that span's self time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: list[dict] = []

    @contextmanager
    def span(self, op: int, name: str, parent: int | None = None) -> Iterator[int]:
        sid = len(self.spans)
        record = {"id": sid, "op": op, "name": name, "parent": parent}
        self.spans.append(record)
        record["start_ns"] = perf_counter_ns()
        try:
            yield sid
        finally:
            record["end_ns"] = perf_counter_ns()

    def count(self, op: int, name: str, value: int) -> None:
        self.counters.append({"op": op, "name": name, "value": int(value)})

    def per_op(self) -> tuple[dict[int, dict[str, float]], dict[int, dict[str, float]], dict[int, float]]:
        """Per operation: summed duration by span name, summed self time by
        span name, and the root span's duration; all in ms."""
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        total: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        own: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        root: dict[int, float] = {}
        for s in self.spans:
            dur = s["end_ns"] - s["start_ns"]
            total[s["op"]][s["name"]] += dur / 1e6
            own[s["op"]][s["name"]] += (dur - child_ns[s["id"]]) / 1e6
            if s["parent"] is None:
                root[s["op"]] = dur / 1e6
        return total, own, root

    def counter_totals(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for c in self.counters:
            out[c["name"]] += c["value"]
        return dict(out)

    def counter_median(self, name: str) -> float:
        values = [c["value"] for c in self.counters if c["name"] == name]
        return float(statistics.median(values)) if values else 0.0

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": self.spans, "counters": self.counters, **extra}
        path.write_text(json.dumps(doc) + "\n")
