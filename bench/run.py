"""Benchmark of the squareperm package: one workload, one seed, one JSON line.

    python3 bench/run.py --workload paths-1e6 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The line before it records the
provenance (code, machine, versions, seed, parameters, sample counts) and
the run digest; the same record, and with ``--trace 1`` the spans, are
written under ``bench/_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters started per untraced run to measure set-up time.
SETUP_REPEATS = 5

SETUP_SNIPPET = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads
w = workloads.make(sys.argv[3], **json.loads(sys.argv[4]))
w.discard(w.op(int(sys.argv[5]), workloads.WARMUP))
"""

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> span whose per-operation total time it reports.
SPAN_METRICS = {
    "sampler.draw_ms": "sampler.draw",
    "encoding.anchored_pair_ms": "encoding.anchored_pair",
    "encoding.label_stats_ms": "encoding.label_stats",
    "encoding.petrov_check_ms": "encoding.petrov_check",
    "encoding.reconstruct_ms": "encoding.reconstruct",
    "encoding.project_ms": "encoding.project",
    "local_limits.windows_h1_ms": "local_limits.windows_h1",
    "local_limits.windows_h2_ms": "local_limits.windows_h2",
    "permuton.box_distance_g64_ms": "permuton.box_distance_g64",
    "permuton.box_distance_g256_ms": "permuton.box_distance_g256",
    "core.occ_12_ms": "core.occ_12",
    "core.coc_123_ms": "core.coc_123",
    "fluctuations.extract_ms": "fluctuations.extract",
    "fluctuations.rotate_ms": "fluctuations.rotate",
    "fluctuations.components_ms": "fluctuations.components",
    "fluctuations.path_ms": "fluctuations.path",
    "cli.main_ms": "cli.main",
}

#: Per-layer metric -> span whose per-operation self time it reports.
SELF_METRICS = {
    "sampler.self_ms": "sampler.draw",
    "fluctuations.self_ms": "fluctuations.path",
    "cli.self_ms": "cli.main",
}

#: Sampler counters reported per accepted output.
PER_ACCEPT_COUNTS = (
    "sampler.attempts",
    "sampler.rejects_margin",
    "sampler.rejects_anchor_label",
    "sampler.rejects_petrov",
)

PER_LAYER_UNITS = {
    **{name: "ms" for name in SPAN_METRICS},
    **{name: "ms" for name in SELF_METRICS},
    **{name: "count" for name in PER_ACCEPT_COUNTS},
    "sampler.accept_rate": "ratio",
    "cli.report_bytes": "count",
    "trace.overhead_ms": "ms",
}


def import_workloads():
    """Import the benchmark's workloads with squareperm taken from ``src/``."""
    if "workloads" in sys.modules:
        return sys.modules["workloads"]
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    try:
        import squareperm
    except ImportError as exc:
        raise SystemExit(f"error: cannot import squareperm from {SRC}: {exc}") from exc
    if not Path(squareperm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: squareperm was imported from outside {SRC}")
    import workloads

    return workloads


@dataclass
class Tally:
    """Outcome of a sequence of operations."""

    digest_ops: int
    latencies: list[float] = field(default_factory=list)  # s, ops that returned
    busy_s: float = 0.0  # timed wall clock: the sum of operation times
    attempted: int = 0
    failed: int = 0
    passed: int = 0
    errors: list[str] = field(default_factory=list)
    chunks: list[bytes] = field(default_factory=list)

    def fail(self, what: str) -> bytes:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)
        return what.encode()


def run_op(w, tally: Tally, k: int, call: Callable[[], Any]) -> None:
    """Time one operation, then check and hash its output untimed."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        tally.busy_s += time.perf_counter() - t0
        chunk = tally.fail(f"op {k} raised {type(exc).__name__}: {exc}")
    else:
        dt = time.perf_counter() - t0
        tally.busy_s += dt
        tally.latencies.append(dt)
        try:
            w.check(out)
            chunk = w.digest(out)
            tally.passed += 1
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            chunk = tally.fail(f"op {k} failed its check: {type(exc).__name__}: {exc}")
        finally:
            w.discard(out)
    if len(tally.chunks) < tally.digest_ops:
        tally.chunks.append(chunk)


def run_loop(w, seed: int, seconds: float) -> Tally:
    """Closed loop: operations back to back until ``seconds`` of them."""
    tally = Tally(w.digest_ops)
    k = 0
    while tally.busy_s < seconds or k < w.digest_ops:
        run_op(w, tally, k, lambda k=k: w.op(seed, k))
        k += 1
    return tally


def measure_setup(name: str, kwargs: dict, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import and run one warm-up op."""
    argv = [
        sys.executable, "-c", SETUP_SNIPPET, str(BENCH_DIR), str(SRC),
        name, json.dumps(kwargs), str(seed),
    ]  # fmt: skip
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up run failed:\n{proc.stderr}")
    return times


def end_to_end(w, name: str, kwargs: dict, seed: int, seconds: float):
    setup = measure_setup(name, kwargs, seed)
    w.discard(w.op(seed, import_workloads().WARMUP))
    tally = run_loop(w, seed, seconds)
    lat = tally.latencies or [0.0]  # no operation returned: the run is not correct
    metrics = {
        "ops_per_s": tally.passed / tally.busy_s if tally.busy_s else 0.0,
        "op_ms_p50": statistics.median(lat) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "ops": len(tally.latencies),
        "setup_runs_s": setup,
    }
    return tally, metrics, details


def per_layer(w, name: str, seed: int, seconds: float):
    """Each operation untraced, then the same operation traced, for ``seconds``.

    Alternating the two runs both sides through the same inputs and the
    same stretch of machine time, so their difference is the cost of the
    span around the public call.  Probes run after that span has closed and
    are not part of it.
    """
    from tracer import Tracer

    wl = import_workloads()
    w.discard(w.op(seed, wl.WARMUP))
    tr = Tracer()
    base, tally = Tally(w.digest_ops), Tally(w.digest_ops)
    start, k = time.perf_counter(), 0
    while time.perf_counter() - start < seconds or k < w.digest_ops:
        run_op(w, base, k, lambda k=k: w.op(seed, k))
        run_op(w, tally, k, lambda k=k: w.traced(tr, seed, k))
        k += 1
    if tally.chunks != base.chunks:
        tally.fail("traced outputs differ from untraced outputs of the same seed")
    tally.attempted += base.attempted
    tally.failed += base.failed
    tally.passed += base.passed
    tally.errors = base.errors + tally.errors

    total, own, root = tr.per_op()
    ops = sorted(root)

    def med(table: dict, span: str) -> float:
        return statistics.median(table[k].get(span, 0.0) for k in ops) if ops else 0.0

    counts = tr.counter_totals()
    accepts = counts.get("sampler.accepts", 0)
    metrics = {m: med(total, span) for m, span in SPAN_METRICS.items()}
    metrics.update({m: med(own, span) for m, span in SELF_METRICS.items()})
    metrics.update({m: counts.get(m, 0) / accepts if accepts else 0.0 for m in PER_ACCEPT_COUNTS})
    metrics["sampler.accept_rate"] = accepts / counts["sampler.attempts"] if accepts else 0.0
    metrics["cli.report_bytes"] = tr.counter_median("cli.report_bytes")
    traced_p50 = statistics.median(root.values()) if ops else 0.0
    untraced_p50 = statistics.median(base.latencies) * 1e3 if base.latencies else 0.0
    metrics["trace.overhead_ms"] = traced_p50 - untraced_p50

    # Per operation the self times add up to the root span by construction,
    # so that sum checks nothing.  What can fail is a probe: a layer whose
    # median self time is below 0 has probes that, re-run on their own, cost
    # more than the stages they stand for did inside the call.
    self_ms = {span: med(own, span) for span in sorted({s["name"] for s in tr.spans})}
    details = {
        "ops": len(ops),
        "traced_op_ms_p50": traced_p50,
        "untraced_op_ms_p50": untraced_p50,
        "self_ms": self_ms,
        "self_below_zero": [span for span, ms in self_ms.items() if ms < 0],
        "sampler_counts": counts,
        "sampler_accept_rate_base": f"{accepts} accepts / {counts.get('sampler.attempts', 0)} attempts",
    }
    trace_path = wl.OUT_DIR / f"trace-{name}-seed{seed}.json"
    tr.write(trace_path, {"workload": name, "seed": seed, "params": w.params})
    details["trace_file"] = str(trace_path.relative_to(ROOT))
    return base, tally, metrics, details


def digest_of(chunks: list[bytes]) -> str:
    """One SHA-256 over the per-operation output hashes, in operation order."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "squareperm").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(name: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "load": "closed loop, one caller, one process, no threads",
    }


def measure(name: str, seed: int, seconds: float, trace: bool, kwargs: dict | None = None) -> dict:
    """Run one workload; return the result line and the full record."""
    wl = import_workloads()
    kwargs = kwargs or {}
    w = wl.make(name, **kwargs)
    if trace:
        base, tally, metrics, details = per_layer(w, name, seed, seconds)
        units = PER_LAYER_UNITS
    else:
        tally, metrics, details = end_to_end(w, name, kwargs, seed, seconds)
        base, units = tally, END_TO_END_UNITS
    details.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed / tally.attempted,
        busy_s=tally.busy_s,
        digest=digest_of(base.chunks),
        digest_ops=len(base.chunks),
        errors=tally.errors,
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    record = {"provenance": provenance(name, seed, seconds, trace, w.params), "details": details}
    return {"result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    wl = import_workloads()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = wl.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
