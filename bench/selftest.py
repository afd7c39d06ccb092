"""Quick self-test of the benchmark at tiny sizes (about 25 s).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
by the run of every workload, that equal seeds give equal digests, that an
output failing its check or an operation that raises is counted as
failed, and that the benchmark refuses to run without the package sources.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import run

wl = run.import_workloads()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Small instances of every workload; paths needs an anchor inside its
#: conditioning interval (37360, 40031] at n = 60000.
TINY = {
    "cli-sample-1e6": {"n": 2048},
    "paths-1e6": {"n": 60_000, "anchor": 38_700},
    "estimators-1e5": {"n": 2048},
}


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_names_and_units(result: dict, spec: list[dict], what: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {set(result)}")
    got = {m: v["unit"] for m, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, f"{what}: metrics {got} differ from BENCHMARK.json {want}")
    for m, v in result["metrics"].items():
        expect(isinstance(v["value"], (int, float)), f"{what}: {m} is not a number")


def test_every_metric_is_emitted() -> None:
    expect({w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS), "workload names differ")
    for name, kwargs in TINY.items():
        plain = run.measure(name, 3, 0.05, False, kwargs)
        check_names_and_units(plain["result"], SPEC["end_to_end"], name)
        expect(plain["result"]["correct"] and plain["result"]["failed"] == 0, f"{name}: {plain['record']}")
        for m, v in plain["result"]["metrics"].items():
            expect(v["value"] > 0, f"{name}: end-to-end metric {m} is {v['value']}")
        traced = run.measure(name, 3, 0.05, True, kwargs)
        check_names_and_units(traced["result"], SPEC["per_layer"], name + " traced")
        expect(traced["result"]["correct"], f"{name} traced: {traced['record']['details']['errors']}")
        d1, d2 = plain["record"]["details"], traced["record"]["details"]
        expect(d1["digest"] == d2["digest"], f"{name}: equal seeds gave different digests")
        expect(d2["sampler_counts"]["sampler.probe_reproduces"] == d2["ops"], f"{name}: probe differs")
        print(f"ok  {name}: {d1['ops']} ops untraced, {d2['ops']} traced, digest {d1['digest'][:12]}")


class CorruptOutput(wl.Estimators):
    def op(self, seed: int, k: int):
        out = super().op(seed, k)
        out["perm"][0] = out["perm"][1]  # no longer a permutation
        return out


class NotSquare(wl.Estimators):
    def op(self, seed: int, k: int):
        out = super().op(seed, k)
        # 1, n, 3, 4, ..., n-1, 2: the point of value 3 is no record
        out["perm"] = np.concatenate(([1, self.n], np.arange(3, self.n), [2]))
        return out


class Raises(wl.Estimators):
    def op(self, seed: int, k: int):
        raise ValueError("injected")


def test_failures_are_counted() -> None:
    for cls in (CorruptOutput, NotSquare, Raises):
        tally = run.run_loop(cls(n=2048), 5, 0.02)
        expect(tally.attempted >= cls.digest_ops, f"{cls.__name__}: ran {tally.attempted} ops")
        expect(tally.failed == tally.attempted and tally.passed == 0, f"{cls.__name__}: {tally}")
        print(f"ok  {cls.__name__}: {tally.failed} of {tally.attempted} counted as failed ({tally.errors[0]})")
    healthy = run.run_loop(wl.Estimators(n=2048), 5, 0.02)
    expect(healthy.failed == 0 and healthy.passed == healthy.attempted, "healthy run failed")


def test_refuses_without_sources() -> None:
    bare = wl.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        for argv in (["--workload", "paths-1e6"], ["--workload", "no-such-workload"]):
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], *argv, "--seed", "1", "--seconds", "1"],
                cwd=bare if argv[1] != "no-such-workload" else run.ROOT,
                capture_output=True,
                text=True,
                timeout=170,
            )
            expect(proc.returncode != 0, f"{argv}: exit status 0")
            expect('"metrics"' not in proc.stdout, f"{argv}: printed a result")
            print(f"ok  {argv[1]}: exit {proc.returncode}, {proc.stderr.strip().splitlines()[-1]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_metric_is_emitted()
    test_failures_are_counted()
    test_refuses_without_sources()
    print("selftest passed")
