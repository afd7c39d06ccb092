"""Command-line behavior: determinism, formats, error paths, threading."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import squareperm
from squareperm import cli
from squareperm import occ_proportion
from squareperm.cli import main

SIZE = 2048  # smallest size the rejection sampler accepts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_plain_payload(capsys):
    code, out, err = run(capsys, "enumerate", "--size", "5", "--format", "plain")
    assert code == 0 and err == ""
    assert out == "104\n"


def test_enumerate_json_cross_checks_both_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "6")
    body = json.loads(out)
    assert code == 0
    assert body["schema"] == "squareperm-report/1"
    assert body["formula"] == 464 and body["exhaustive"] == 464 and body["match"]
    assert body["config"]["command"] == "enumerate"


def test_reports_are_byte_identical_for_equal_configs(capsys):
    args = ("sample", "--size", str(SIZE), "--count", "2", "--seed", "7")
    first = run(capsys, *args)
    again = run(capsys, *args)
    assert first == again and first[0] == 0
    other = run(capsys, "sample", "--size", str(SIZE), "--count", "2", "--seed", "8")
    assert other[1] != first[1]


def old_jsonable(obj):
    """The report normalizer before 1-d integer arrays passed through."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.ndarray):
        return [old_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): old_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_jsonable(v) for v in obj]
    return obj


REPORT_BODIES = [
    {},
    {"nested": {"b": {"z": [], "a": {}}, "a": [1, [2, {"c": None}], []], "B": {"k": [[]]}}},
    {"permutations": [np.arange(1, 6), np.array([], dtype=np.int64)], "one": np.array([7])},
    {"ints": [np.array([-3, 0, 2**40], dtype=np.int64), np.array([255, 0], dtype=np.uint8)]},
    {"grid": np.arange(6).reshape(2, 3), "empty_grid": np.zeros((2, 0), dtype=np.int64)},
    {"flags": np.array([True, False]), "floats": np.array([0.1, 1 / 3, np.nan, -np.inf])},
    {"exact": Fraction(3, 7), "whole": Fraction(4), "i64": np.int64(-5), "f64": np.float64(2 / 3)},
    {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "tiny": 1e-300},
    {"text": "ünïcode ✓ \"quoted\"\n", "none": None, "yes": True, "no": False, "t": (1, 2.5)},
    {"é\tkey": 1, "10": 2, "9": 3, "": {"": []}},
]


@pytest.mark.parametrize("body", REPORT_BODIES)
def test_report_writer_matches_the_standard_encoder(body):
    config = {"command": "sample", "size": 5, "seed": np.int64(3), "times": (0.25, 1.0)}
    doc = {"schema": cli.SCHEMA, "version": squareperm.__version__, "config": config}
    doc.update(body)
    want = json.dumps(old_jsonable(doc), sort_keys=True, indent=2) + "\n"
    assert cli._report(config, body) == want


def test_sample_plain_lines_are_permutations(capsys):
    code, out, _ = run(
        capsys, "sample", "--size", "6", "--mode", "exact", "--count", "3",
        "--seed", "3", "--format", "plain",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        assert sorted(int(v) for v in line.split()) == [1, 2, 3, 4, 5, 6]


def test_encode_decode_round_trip(capsys):
    code, out, _ = run(capsys, "encode", "--perm", "2413")
    assert code == 0
    pair = json.loads(out)["pair"]
    assert (pair["x"], pair["y"], pair["z0"]) == ("DUDD", "LLRL", 3)
    code, out, _ = run(
        capsys, "decode", "--x", pair["x"], "--y", pair["y"],
        "--z0", str(pair["z0"]), "--format", "plain",
    )
    assert code == 0 and out == "2 4 1 3\n"


def test_decode_failure_is_a_single_error_line(capsys):
    code, out, err = run(capsys, "decode", "--x", "DDDD", "--y", "LLLL", "--z0", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_encode_rejects_non_squares(capsys):
    code, _, err = run(capsys, "encode", "--perm", "25314")
    assert code == 1 and err.startswith("error: ")


def test_invalid_anchor_fraction_is_rejected(capsys):
    code, _, err = run(
        capsys, "fluctuations", "--size", "50000", "--anchor-fraction", "0.4",
        "--replicates", "2",
    )
    assert code == 1 and err.startswith("error: ")


def test_permuton_distance_emits_the_documented_csv(capsys):
    code, out, _ = run(
        capsys, "permuton-distance", "--size", str(SIZE), "--samples", "2",
        "--grid", "8", "--seed", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,sample_id,z0_over_n,d_grid"
    assert len(lines) == 3
    for line in lines[1:]:
        n, sample_id, z_frac, d = line.split(",")
        assert int(n) == SIZE
        assert 0.0 < float(z_frac) < 1.0
        assert 0.0 <= float(d) <= 1.0


def test_pattern_limit_reports_estimate_and_stderr(capsys):
    code, out, _ = run(
        capsys, "pattern-limit", "--pattern", "12", "--z", "0.0",
        "--trials", "300", "--seed", "4",
    )
    body = json.loads(out)
    assert code == 0
    assert body["estimate"] == 1.0 and body["stderr"] == 0.0


def test_local_stats_compares_against_theory(capsys):
    code, out, _ = run(
        capsys, "local-stats", "--size", str(SIZE), "--radius", "1", "--seed", "6",
    )
    body = json.loads(out)
    assert code == 0
    freqs = body["frequencies"]
    assert abs(sum(freqs.values()) - 1.0) < 1e-9
    # rationals are serialized as p/q strings
    assert body["theory"]["123"] == "1/4"
    assert set(body["z_scores"]) == set(freqs)


def test_pattern_stats_keeps_the_exact_complement(capsys):
    code, out, _ = run(
        capsys, "pattern-stats", "--size", str(SIZE), "--count", "3", "--seed", "9",
    )
    body = json.loads(out)
    assert code == 0
    assert body["complement_exact"] is True
    assert 0.3 < body["mean"] < 0.7
    # the exact per-sample proportions survive as p/q strings
    assert all("/" in v for v in body["per_sample"])


def test_pattern_stats_refuses_an_infeasible_exact_count_before_drawing(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        pytest.fail("pattern-stats drew a permutation before checking the work bound")

    monkeypatch.setattr(cli, "sample_square_approx", no_draw)
    code, out, err = run(capsys, "pattern-stats", "--pattern", "123", "--size", "20000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for remedy in ("--samples N", "--consecutive", "pattern of size at most 2"):
        assert remedy in err
    assert "samples=" not in err


def test_pattern_stats_estimates_a_classical_132_with_samples(capsys):
    code, out, err = run(
        capsys, "pattern-stats", "--pattern", "132", "--size", str(SIZE),
        "--count", "2", "--samples", "2000", "--seed", "4",
    )
    assert code == 0 and err == ""
    body = json.loads(out)
    assert body["config"]["samples"] == 2000
    assert "complement_exact" not in body
    # each estimate continues the generator of its own draw
    want = []
    for k in range(2):
        gen = cli.replicate_rng(4, k)
        perm = cli.sample_square_approx(SIZE, gen)
        want.append(list(occ_proportion((1, 3, 2), perm, samples=2000, rng=gen)))
    assert body["per_sample"] == [[float(f"{v:.12g}") for v in pair] for pair in want]
    est = [pair[0] for pair in want]
    assert body["mean"] == float(f"{np.mean(est):.12g}")
    for est, se in body["per_sample"]:
        assert 0.0 < est < 1.0 and 0.0 < se < 0.02


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--samples", "0"), "--samples needs at least one sample"),
        (("--samples", "-3"), "--samples needs at least one sample"),
        (("--samples", "10", "--consecutive"), "drop it or --consecutive"),
    ],
)
def test_pattern_stats_rejects_bad_sample_options_before_drawing(capsys, monkeypatch, extra, message):
    def no_draw(*args, **kwargs):
        pytest.fail("pattern-stats drew a permutation before checking its options")

    monkeypatch.setattr(cli, "sample_square_approx", no_draw)
    code, out, err = run(capsys, "pattern-stats", "--pattern", "132", "--size", str(SIZE), *extra)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_consecutive_pattern_stats(capsys):
    code, out, _ = run(
        capsys, "pattern-stats", "--size", str(SIZE), "--count", "2",
        "--pattern", "21", "--consecutive", "--seed", "9",
    )
    assert code == 0
    assert json.loads(out)["config"]["consecutive"] is True


def test_env_seed_is_honored_and_flag_wins(capsys, monkeypatch):
    flagged = run(capsys, "sample", "--size", "6", "--mode", "exact",
                  "--seed", "12", "--format", "plain")
    monkeypatch.setenv("SQUAREPERM_SEED", "12")
    from_env = run(capsys, "sample", "--size", "6", "--mode", "exact",
                   "--format", "plain")
    overridden = run(capsys, "sample", "--size", "6", "--mode", "exact",
                     "--seed", "13", "--format", "plain")
    assert from_env == flagged
    assert overridden != flagged


def test_output_flag_redirects_the_payload(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "enumerate", "--size", "4", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["formula"] == 24


def test_threading_does_not_change_the_report(capsys):
    args = (
        "fluctuations", "--size", "50000", "--anchor-fraction", "0.65",
        "--replicates", "4", "--times", "0.5,1.0", "--seed", "14",
    )
    serial = run(capsys, *args, "--threads", "1")
    threaded = run(capsys, *args, "--threads", "2")
    assert serial[0] == 0
    assert serial == threaded
    body = json.loads(serial[1])
    assert "P_DR" in body["variances"]
    assert "P_DR:P_DL" in body["covariances"]


def test_verify_battery_passes(capsys):
    code, out, _ = run(capsys, "verify", "--format", "plain")
    assert code == 0
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_verify_fails_under_optimized_python():
    # python -O strips assert statements; a wrong count must still fail
    script = textwrap.dedent(
        """
        import sys
        from squareperm import cli

        assert False, "asserts are live, so this run does not test -O"
        real = cli._verify_checks
        cli._verify_checks = lambda seed: real(seed)[:1]  # the counts check
        cli.count_square_formula = lambda n: -1
        sys.exit(cli.main(["verify"]))
        """
    )
    src = str(Path(squareperm.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "[FAIL] counts 3..7 match the closed formula" in proc.stdout
    assert "1 check(s) failed" in proc.stdout


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8.00 EiB")])
def test_memory_error_is_a_single_error_line(capsys, monkeypatch, exc):
    def out_of_memory(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_sample", out_of_memory)
    code, out, err = run(capsys, "sample", "--size", "10")
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(exc) in err


@pytest.mark.parametrize(
    "requested, cpus, resolved",
    [(64, 4, 4), (2, 8, 2), (3, None, 1), (1, 1, 1), (None, 2, 2)],
)
def test_threads_are_clamped_to_the_cpu_count(monkeypatch, requested, cpus, resolved):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("SQUAREPERM_THREADS", "16")
    assert cli._resolve_threads(argparse.Namespace(threads=requested)) == resolved


def test_nonpositive_thread_counts_are_still_rejected(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    with pytest.raises(ValueError, match="thread count"):
        cli._resolve_threads(argparse.Namespace(threads=0))
