"""The benchmark's workloads: one operation each, its output check, and its traced form.

Every workload is a closed loop with one caller: operation ``k`` gets its
inputs from the workload seed and ``k`` alone, the harness times ``op``,
then runs ``check`` and ``digest`` outside the timed region.  The package
is reached only through its public functions.

``traced`` runs the same operation under a root span and then re-runs the
sub-stages that the public entry point hides ("probes") on the operation's
own output, each under a child span of the span it belongs to.  A layer's
self time is its span minus the probes and child spans under it.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from squareperm import (
    AnchoredPair,
    box_distance_grid,
    coc_proportion,
    component_families,
    empirical_window_distribution,
    extract_families,
    occ_proportion,
    path_F,
    petrov_check,
    project,
    reconstruct,
    rotate_families,
    sample_conditioned,
    sample_regular,
    sample_square_approx,
)
from squareperm.fluctuations import replicate_path_values

from tracer import Tracer

#: Operation index of the untimed warm-up; no timed operation reaches it.
WARMUP = 2**32 - 1

REPORT_SCHEMA = "squareperm-report/1"

#: Scratch space of the benchmark inside the checkout (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "_out"


class CheckFailed(AssertionError):
    """An operation's output failed the benchmark's own check."""


def op_rng(seed: int, k: int) -> np.random.Generator:
    """Generator of operation ``k`` under the workload seed."""
    return np.random.default_rng((seed, k))


def op_seed(seed: int, k: int) -> int:
    """Integer seed of operation ``k``, for entry points that take one."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1, np.uint64)[0] >> 1)


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_square(p: Any, n: int) -> np.ndarray:
    """Oracle: ``p`` is a permutation of 1..n and every point is a record."""
    a = np.asarray(p)
    require(a.shape == (n,), f"expected shape ({n},), got {a.shape}")
    require(a.dtype.kind in "iu", f"expected integers, got {a.dtype}")
    require(np.array_equal(np.sort(a), np.arange(1, n + 1)), f"not a permutation of 1..{n}")
    rev = a[::-1]
    record = (
        (a == np.maximum.accumulate(a))
        | (a == np.minimum.accumulate(a))
        | (rev == np.maximum.accumulate(rev))[::-1]
        | (rev == np.minimum.accumulate(rev))[::-1]
    )
    require(bool(record.all()), f"position {int(np.argmin(record)) + 1} is not a record")
    return a


def perm_bytes(p: np.ndarray) -> bytes:
    return np.ascontiguousarray(p, dtype="<i8").tobytes()


def trace_square_draw(tr: Tracer, k: int, parent: int, n: int, p: np.ndarray) -> None:
    """Probe the accepted path of ``sample_square_approx`` on its output ``p``.

    The draw built an anchored pair, its two label tables and two Petrov
    checks, then reconstructed and projected back; each stage is re-run
    once on ``project(p)``.  Rejected attempts stay in the sampler's self
    time.
    """
    with tr.span(k, "encoding.project", parent):
        pair = project(p)
    fresh = _trace_pair_stages(tr, k, parent, n, pair)
    with tr.span(k, "encoding.reconstruct", parent):
        q = reconstruct(fresh)
    require(np.array_equal(q, p), "reconstruct(project(p)) differs from p")


def _trace_pair_stages(
    tr: Tracer, k: int, parent: int, n: int, pair: AnchoredPair
) -> AnchoredPair:
    with tr.span(k, "encoding.anchored_pair", parent):
        fresh = AnchoredPair(pair.x, pair.y, pair.z0)
    with tr.span(k, "encoding.label_stats", parent):
        sx = fresh.x_stats
    with tr.span(k, "encoding.label_stats", parent):
        sy = fresh.y_stats
    with tr.span(k, "encoding.petrov_check", parent):
        petrov_check(sx, n)
    with tr.span(k, "encoding.petrov_check", parent):
        petrov_check(sy, n)
    return fresh


def record_sampler_stats(tr: Tracer, k: int, stats: Any, reproduces: bool) -> None:
    tr.count(k, "sampler.attempts", stats.attempts)
    tr.count(k, "sampler.accepts", stats.accepts)
    tr.count(k, "sampler.rejects_margin", stats.rejects_margin)
    tr.count(k, "sampler.rejects_anchor_label", stats.rejects_anchor_label)
    tr.count(k, "sampler.rejects_petrov", stats.rejects_petrov)
    tr.count(k, "sampler.probe_reproduces", int(reproduces))


def count_regular_attempts(
    tr: Tracer, k: int, n: int, rng: np.random.Generator, p: np.ndarray, same_draw: bool = True
) -> None:
    """Rejection counters of ``sample_regular`` with the operation's
    generator, which today reproduces the draw of ``sample_square_approx``."""
    pair, stats = sample_regular(n, rng)
    record_sampler_stats(tr, k, stats, same_draw and pair == project(p))


class Workload:
    """Base: ``op`` is timed; ``check`` and ``digest`` run outside the timer."""

    name = ""
    #: operations every run makes and hashes, so equal seeds give equal digests
    digest_ops = 1

    def __init__(self, **params: Any) -> None:
        self.params = params

    def op(self, seed: int, k: int) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> None:
        raise NotImplementedError

    def digest(self, out: Any) -> bytes:
        raise NotImplementedError

    def traced(self, tr: Tracer, seed: int, k: int) -> Any:
        raise NotImplementedError

    def discard(self, out: Any) -> None:
        """Release what an output holds outside the process (files)."""


class CliSample(Workload):
    name = "cli-sample-1e6"
    digest_ops = 2

    def __init__(self, n: int = 1_000_000) -> None:
        super().__init__(n=n)
        from squareperm import cli

        self.main = cli.main
        self.n = n
        self.report = OUT_DIR / f"cli-report-{os.getpid()}.json"
        self.report.parent.mkdir(parents=True, exist_ok=True)

    def argv(self, seed: int, k: int) -> list[str]:
        return [
            "sample", "--size", str(self.n), "--seed", str(op_seed(seed, k)),
            "--threads", "1", "--output", str(self.report),
        ]  # fmt: skip

    def op(self, seed: int, k: int) -> tuple[int, Path]:
        return self.main(self.argv(seed, k)), self.report

    def check(self, out: tuple[int, Path]) -> None:
        status, path = out
        require(status == 0, f"exit status {status}")
        try:
            doc = json.loads(path.read_bytes())
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"report does not parse: {exc}") from exc
        require(doc.get("schema") == REPORT_SCHEMA, f"schema {doc.get('schema')!r}")
        require(doc.get("config", {}).get("size") == self.n, "config.size differs from --size")
        perms = doc.get("permutations")
        require(isinstance(perms, list) and len(perms) == 1, "expected one permutation")
        check_square(np.array(perms[0], dtype=np.int64), self.n)

    def digest(self, out: tuple[int, Path]) -> bytes:
        status, path = out
        return status.to_bytes(4, "little", signed=True) + path.read_bytes()

    def discard(self, out: tuple[int, Path]) -> None:
        out[1].unlink(missing_ok=True)

    def traced(self, tr: Tracer, seed: int, k: int) -> tuple[int, Path]:
        with tr.span(k, "cli.main") as main:
            out = self.op(seed, k)
        tr.count(k, "cli.report_bytes", self.report.stat().st_size)
        s = op_seed(seed, k)
        # the subcommand draws with replicate_rng(seed, 0), i.e. this stream
        with tr.span(k, "sampler.draw", main) as draw:
            p = sample_square_approx(self.n, np.random.default_rng((s, 0)))
        trace_square_draw(tr, k, draw, self.n, p)
        reported = json.loads(self.report.read_bytes())["permutations"][0]
        same = np.array_equal(np.asarray(reported), p)
        count_regular_attempts(tr, k, self.n, np.random.default_rng((s, 0)), p, same)
        return out


class Paths(Workload):
    name = "paths-1e6"
    digest_ops = 4

    def __init__(
        self,
        n: int = 1_000_000,
        anchor: int = 700_000,
        times: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    ) -> None:
        super().__init__(n=n, anchor=anchor, times=list(times))
        self.n, self.anchor, self.times = n, anchor, tuple(times)

    def op(self, seed: int, k: int) -> np.ndarray:
        return replicate_path_values(self.n, self.anchor, self.times, seed, k)

    def check(self, out: np.ndarray) -> None:
        v = np.asarray(out)
        require(v.shape == (3, len(self.times)), f"values have shape {v.shape}")
        require(bool(np.isfinite(v).all()), "values are not all finite")

    def digest(self, out: np.ndarray) -> bytes:
        return np.ascontiguousarray(out, dtype="<f8").tobytes()

    def traced(self, tr: Tracer, seed: int, k: int) -> np.ndarray:
        with tr.span(k, "fluctuations.path") as path:
            values = self.op(seed, k)
        # replicate_path_values draws with replicate_rng(seed, k), i.e. op_rng
        with tr.span(k, "sampler.draw", path) as draw:
            pair, stats = sample_conditioned(self.n, self.anchor, op_rng(seed, k))
        fresh = _trace_pair_stages(tr, k, draw, self.n, pair)
        with tr.span(k, "encoding.reconstruct", path):
            perm = reconstruct(fresh)
        with tr.span(k, "fluctuations.extract", path):
            families = extract_families(perm)
        with tr.span(k, "fluctuations.rotate", path):
            rotated = rotate_families(fresh, families)
        with tr.span(k, "fluctuations.components", path):
            component_families(fresh)
        t = np.asarray(self.times)
        again = np.stack([path_F(fam)(t) for fam in rotated])
        record_sampler_stats(tr, k, stats, np.array_equal(again, values))
        return values


class Estimators(Workload):
    name = "estimators-1e5"
    digest_ops = 3

    def __init__(self, n: int = 100_000) -> None:
        super().__init__(n=n, radii=[1, 2], grids=[64, 256], occ=[1, 2], coc=[1, 2, 3])
        self.n = n

    def op(self, seed: int, k: int) -> dict[str, Any]:
        p = sample_square_approx(self.n, op_rng(seed, k))
        z = (int(np.flatnonzero(p == 1)[0]) + 1) / self.n
        return {
            "perm": p,
            "windows_h1": empirical_window_distribution(p, 1),
            "windows_h2": empirical_window_distribution(p, 2),
            "box_g64": box_distance_grid(p, z, 64),
            "box_g256": box_distance_grid(p, z, 256),
            "occ_12": occ_proportion((1, 2), p),
            "coc_123": coc_proportion((1, 2, 3), p),
        }

    def check(self, out: dict[str, Any]) -> None:
        check_square(out["perm"], self.n)
        for h in (1, 2):
            freqs = out[f"windows_h{h}"]
            require(
                all(len(rp.pattern) == 2 * h + 1 for rp in freqs),
                f"h={h}: a pattern is not of size {2 * h + 1}",
            )
            total = sum(freqs.values())
            require(abs(total - 1.0) <= 1e-9, f"h={h}: frequencies sum to {total!r}")
        for g in (64, 256):
            d = out[f"box_g{g}"]
            require(0.0 <= d <= 1.0, f"G={g}: box distance {d!r} outside [0, 1]")
        for key in ("occ_12", "coc_123"):
            v = out[key]
            require(isinstance(v, Fraction), f"{key} is a {type(v).__name__}, not a Fraction")
            require(0 <= v <= 1, f"{key} = {v} outside [0, 1]")

    def digest(self, out: dict[str, Any]) -> bytes:
        parts = [perm_bytes(out["perm"])]
        for h in (1, 2):
            freqs = out[f"windows_h{h}"]
            parts += [f"{rp.pattern}:{rp.root}:{f!r}".encode() for rp, f in sorted(freqs.items())]
        parts += [repr(out[key]).encode() for key in ("box_g64", "box_g256", "occ_12", "coc_123")]
        return b"\n".join(parts)

    def traced(self, tr: Tracer, seed: int, k: int) -> dict[str, Any]:
        # the root span is the benchmark's own glue between the public calls
        with tr.span(k, "bench.op") as root:
            with tr.span(k, "sampler.draw", root) as draw:
                p = sample_square_approx(self.n, op_rng(seed, k))
            z = (int(np.flatnonzero(p == 1)[0]) + 1) / self.n
            out: dict[str, Any] = {"perm": p}
            with tr.span(k, "local_limits.windows_h1", root):
                out["windows_h1"] = empirical_window_distribution(p, 1)
            with tr.span(k, "local_limits.windows_h2", root):
                out["windows_h2"] = empirical_window_distribution(p, 2)
            with tr.span(k, "permuton.box_distance_g64", root):
                out["box_g64"] = box_distance_grid(p, z, 64)
            with tr.span(k, "permuton.box_distance_g256", root):
                out["box_g256"] = box_distance_grid(p, z, 256)
            with tr.span(k, "core.occ_12", root):
                out["occ_12"] = occ_proportion((1, 2), p)
            with tr.span(k, "core.coc_123", root):
                out["coc_123"] = coc_proportion((1, 2, 3), p)
        trace_square_draw(tr, k, draw, self.n, p)
        count_regular_attempts(tr, k, self.n, op_rng(seed, k), p)
        return out


WORKLOADS = {w.name: w for w in (CliSample, Paths, Estimators)}


def make(name: str, **params: Any) -> Workload:
    return WORKLOADS[name](**params)
