"""Command-line behavior: determinism, formats, error paths, threading."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import squareperm
from squareperm import cli
from squareperm import occ_proportion
from squareperm.cli import main
from squareperm.sampler import replicate_rng

SIZE = 2048


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
    {
        "edges": [
            np.array([np.iinfo(t).min, -1, 0, 9, 10, np.iinfo(t).max], dtype=t)
            for t in (np.int8, np.int16, np.int32, np.int64)
        ],
        "unsigned": [
            np.array([0, 9, 10, 255], dtype=np.uint8),
            np.array([2**64 - 1, 0], dtype=np.uint64),
        ],
        "single": {"neg": np.array([-7]), "zero": np.array([0], dtype=np.uint8)},
    },
    {"permutations": [np.random.default_rng(5).permutation(100_000) + 1]},
]


REPORT_CONFIG = {"command": "sample", "size": 5, "seed": np.int64(3), "times": (0.25, 1.0)}


def standard_report(config, body):
    """The report as the standard encoder writes it."""
    doc = {"schema": cli.SCHEMA, "version": squareperm.__version__, "config": config}
    doc.update(body)
    return json.dumps(old_jsonable(doc), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("body", REPORT_BODIES)
def test_report_writer_matches_the_standard_encoder(body):
    want = standard_report(REPORT_CONFIG, body)
    assert "".join(cli._report(REPORT_CONFIG, body)) == want


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_report_writer_is_unchanged_by_its_chunk_length(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for k, body in enumerate(REPORT_BODIES):
        got, want = "".join(cli._report(REPORT_CONFIG, body)), standard_report(REPORT_CONFIG, body)
        # a line diff of the megabyte report would take minutes: name the first difference
        if got != want:
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(want))
            pytest.fail(f"body {k} differs at {at}: {got[at:at + 40]!r} != {want[at:at + 40]!r}")


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_sample_reports_are_unchanged_by_the_chunk_length(capsys, monkeypatch, chunk):
    argv = ("sample", "--size", "40", "--count", "3", "--seed", "5")
    plain = argv + ("--format", "plain")
    want = run(capsys, *argv), run(capsys, *plain)
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    assert (run(capsys, *argv), run(capsys, *plain)) == want
    code, out, _ = want[0]
    report = json.loads(out)
    assert code == 0 and out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = want[1][1].splitlines()
    assert [[int(v) for v in line.split()] for line in lines] == report["permutations"]


def test_writing_a_large_report_allocates_a_small_fixed_buffer(tmp_path):
    # the whole 10^6-value report would take over 14 MB as one string
    perm = np.random.default_rng(3).permutation(10**6) + 1
    body = {"permutations": [perm], "attempts": 1}
    tracemalloc.start()
    try:
        with cli._opened(str(tmp_path / "report.json")) as write:
            cli._emit(cli._report({"command": "sample"}, body), argparse.Namespace(output=write))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert json.loads((tmp_path / "report.json").read_text())["permutations"] == [perm.tolist()]


def test_sample_plain_lines_are_permutations(capsys):
    code, out, _ = run(
        capsys, "sample", "--size", "6", "--count", "3",
        "--seed", "3", "--format", "plain",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        assert sorted(int(v) for v in line.split()) == [1, 2, 3, 4, 5, 6]


def test_sample_plain_line_is_the_drawn_permutation(capsys):
    code, out, err = run(capsys, "sample", "--size", "5000", "--seed", "9", "--format", "plain")
    assert (code, err) == (0, "")
    perm = squareperm.sample_square_approx(5000, replicate_rng(9, 0))
    assert out == " ".join(map(str, perm.tolist())) + "\n"


@pytest.mark.parametrize("size", [1, 2, 3, 6, 100, 1023])
def test_sample_draws_a_square_at_every_size(capsys, size):
    code, out, err = run(capsys, "sample", "--size", str(size), "--seed", "3")
    assert (code, err) == (0, "")
    body = json.loads(out)
    (perm,) = body["permutations"]
    assert squareperm.is_square(perm) and len(perm) == size
    assert body["attempts"] >= 1


def test_pattern_stats_counts_a_size_three_pattern_exactly(capsys):
    # n = 200 is below the largest size (272) whose exact count of a
    # size-3 pattern fits the work bound
    code, out, err = run(
        capsys, "pattern-stats", "--pattern", "123", "--size", "200", "--count", "2",
        "--seed", "5",
    )
    assert (code, err) == (0, "")
    body = json.loads(out)
    values = [Fraction(v) for v in body["per_sample"]]
    assert len(values) == 2 and all(0 <= v <= 1 for v in values)
    for k, v in enumerate(values):
        perm = cli.sample_square_approx(200, cli.replicate_rng(5, k))
        assert occ_proportion((1, 2, 3), perm) == v


def test_readme_command_line_flags_exist():
    # every --flag the README's command-line section names is an option
    # of the parser or of one of its subcommands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    parser = cli.build_parser()
    registered = set(parser._option_string_actions)
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            registered |= set(sub._option_string_actions)
    assert named and named <= registered, sorted(named - registered)


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
    # 12 and 21 proportions sum to 1 by construction, so no flag reports it
    assert "complement_exact" not in body
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


@pytest.mark.parametrize(
    "radius, message",
    [
        ("-1", "--radius must be at least 1"),
        ("0", "--radius must be at least 1"),
        ("5", "--radius 5 needs a limit table over 11! = 39916800 patterns"),
    ],
)
def test_local_stats_refuses_a_bad_radius_before_drawing(capsys, monkeypatch, radius, message):
    def no_draw(*args, **kwargs):
        pytest.fail("local-stats drew a permutation before checking the radius")

    monkeypatch.setattr(cli, "sample_square_approx", no_draw)
    code, out, err = run(capsys, "local-stats", "--size", str(SIZE), "--radius", radius)
    assert code == 1 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize("roots", ["2.5", "0", "-3", "ten", ""])
def test_local_stats_refuses_a_bad_root_count_before_drawing(capsys, monkeypatch, roots):
    def no_draw(*args, **kwargs):
        pytest.fail("local-stats drew a permutation before checking --roots")

    monkeypatch.setattr(cli, "sample_square_approx", no_draw)
    code, out, err = run(capsys, "local-stats", "--size", str(SIZE), "--roots", roots)
    assert code == 1 and out == ""
    assert err.startswith("error: --roots takes 'all' or a positive integer")
    assert err.count("\n") == 1


@pytest.mark.parametrize("size, radius", [("4", "2"), ("6", "3"), ("2", "1"), ("0", "1")])
def test_local_stats_refuses_a_size_below_the_window_before_drawing(
    capsys, monkeypatch, size, radius
):
    def no_draw(*args, **kwargs):
        pytest.fail("local-stats drew a permutation before checking --size")

    monkeypatch.setattr(cli, "sample_square_approx", no_draw)
    code, out, err = run(capsys, "local-stats", "--size", size, "--radius", radius)
    assert code == 1 and out == ""
    window = 2 * int(radius) + 1
    assert err == f"error: --size must be at least 2 * --radius + 1 = {window}\n"


def test_local_stats_runs_at_the_window_size(capsys):
    code, out, err = run(capsys, "local-stats", "--size", "5", "--radius", "2", "--seed", "3")
    assert code == 0 and err == ""
    assert json.loads(out)["windows"] == 1


@pytest.mark.parametrize("grid", ["1", "0", "-4"])
def test_permuton_distance_refuses_a_bad_grid_before_drawing(capsys, monkeypatch, grid):
    def no_draw(*args, **kwargs):
        pytest.fail("permuton-distance drew a permutation before checking the grid")

    monkeypatch.setattr(cli, "sample_square_approx", no_draw)
    code, out, err = run(
        capsys, "permuton-distance", "--size", "3000000", "--grid", grid, "--samples", "2"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: --grid must be at least 2") and err.count("\n") == 1


def test_local_stats_accepts_radius_4(monkeypatch):
    class Drawn(Exception):
        pass

    def draw(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(cli, "sample_square_approx", draw)
    with pytest.raises(Drawn):
        main(["local-stats", "--size", str(SIZE), "--radius", "4"])


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
    flagged = run(capsys, "sample", "--size", "6",
                  "--seed", "12", "--format", "plain")
    monkeypatch.setenv("SQUAREPERM_SEED", "12")
    from_env = run(capsys, "sample", "--size", "6",
                   "--format", "plain")
    overridden = run(capsys, "sample", "--size", "6",
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


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_output_is_a_single_error_line(capsys, tmp_path, where):
    target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "sample", "--size", "10", "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stale", [False, True])
def test_an_output_failing_partway_leaves_no_file(capsys, monkeypatch, tmp_path, stale):
    target = tmp_path / "report.json"
    if stale:
        target.write_text("an earlier report")
    real = cli._join_ints

    def fails_after_one_chunk(arr, sep):
        chunks = real(arr, sep)
        yield next(chunks)
        raise MemoryError("Unable to allocate 8.00 EiB")

    monkeypatch.setattr(cli, "_CHUNK", 4)
    monkeypatch.setattr(cli, "_join_ints", fails_after_one_chunk)
    code, out, err = run(capsys, "sample", "--size", "40", "--output", str(target))
    assert code == 1 and out == ""
    assert err == "error: out of memory: Unable to allocate 8.00 EiB\n"
    assert not target.exists()


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_output_is_refused_before_any_draw(capsys, monkeypatch, tmp_path, where):
    target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path

    def no_draws(*args, **kwargs):
        raise AssertionError("the subcommand drew before its output was opened")

    monkeypatch.setattr(cli, "_sample_square", no_draws)
    code, out, err = run(capsys, "sample", "--size", "2000000", "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert "drew" not in err
    assert sorted(tmp_path.iterdir()) == []


def test_a_failing_subcommand_leaves_no_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "sample", "--size", "10", "--count", "0", "--output", str(target))
    assert code == 1 and out == ""
    assert err == "error: count must be positive\n"
    assert sorted(tmp_path.iterdir()) == []


def test_a_failing_subcommand_keeps_an_earlier_report(capsys, tmp_path):
    # the file is opened before the work but emptied only when the report starts
    target = tmp_path / "report.json"
    target.write_text("an earlier report")
    code, out, err = run(capsys, "sample", "--size", "10", "--count", "0", "--output", str(target))
    assert code == 1 and out == ""
    assert err == "error: count must be positive\n"
    assert target.read_text() == "an earlier report"


def test_output_replaces_a_longer_earlier_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    target.write_text("x" * 10_000)
    code, out, _ = run(capsys, "enumerate", "--size", "4", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["formula"] == 24


@pytest.mark.parametrize(
    "argv, head",
    [
        # a 2.7 MB report: the writer blocks on the full pipe until the reader closes it
        (["sample", "--size", "200000", "--seed", "1"], b'{\n  "attem'),
        # four bytes, still in stdout's buffer when the flush meets the closed pipe
        (["enumerate", "--size", "5", "--format", "plain"], b""),
    ],
)
def test_a_closed_stdout_is_a_single_error_line(argv, head):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(squareperm.__file__).resolve().parent.parent)
    script = "import sys; from squareperm import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, err) == (1, b"error: [Errno 32] Broken pipe\n")


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


@pytest.mark.parametrize("fraction", ["0.6", "0.7"])
def test_threading_does_not_change_an_anchor_refusal(capsys, monkeypatch, fraction):
    # both anchors lie outside (31597.5, 33053.8], the interval at n = 50000
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = (
        "fluctuations", "--size", "50000", "--anchor-fraction", fraction,
        "--replicates", "4", "--times", "0.5,1.0", "--seed", "14",
    )
    serial = run(capsys, *args, "--threads", "1")
    threaded = run(capsys, *args, "--threads", "2")
    assert serial[0] == 1 and serial[1] == ""
    assert serial[2].startswith("error: t_n=")
    assert threaded == serial


# the config block of every JSON-reporting subcommand, as the reports wrote
# it when each subcommand built its dict by hand
REPORT_CONFIGS = [
    (
        ["sample", "--size", "2048", "--seed", "3"],
        {"command": "sample", "count": 1, "format": "json", "seed": 3, "size": 2048},
    ),
    (
        ["sample", "--size", "2048", "--count", "2", "--seed", "4", "--threads", "1"],
        {"command": "sample", "count": 2, "format": "json", "seed": 4, "size": 2048},
    ),
    (
        ["sample", "--size", "6"],
        {"command": "sample", "count": 1, "format": "json", "seed": 0, "size": 6},
    ),
    (["enumerate", "--size", "6"], {"command": "enumerate", "format": "json", "size": 6}),
    (["encode", "--perm", "2,4,1,3"], {"command": "encode", "format": "json", "perm": "2 4 1 3"}),
    (
        ["decode", "--x", "DUDD", "--y", "LLRL", "--z0", "3"],
        {"command": "decode", "format": "json", "x": "DUDD", "y": "LLRL", "z0": 3},
    ),
    (
        ["permuton-distance", "--size", "2048", "--grid", "8", "--samples", "2", "--seed", "5",
         "--format", "json"],
        {"command": "permuton-distance", "format": "json", "grid": 8, "samples": 2, "seed": 5,
         "size": 2048},
    ),
    (
        ["pattern-limit", "--pattern", "1 3 2", "--z", "0.4", "--trials", "200", "--seed", "6"],
        {"command": "pattern-limit", "format": "json", "pattern": "132", "seed": 6, "trials": 200,
         "z": 0.4},
    ),
    (
        ["fluctuations", "--size", "50000", "--anchor-fraction", "0.65", "--replicates", "2",
         "--times", "0.5,1", "--seed", "7"],
        {"anchor": 32500, "anchor_fraction": 0.65, "command": "fluctuations", "format": "json",
         "replicates": 2, "seed": 7, "size": 50000, "times": [0.5, 1.0]},
    ),
    (
        ["local-stats", "--size", "2048", "--roots", "50", "--count", "2", "--seed", "8"],
        {"command": "local-stats", "count": 2, "format": "json", "radius": 1, "roots": "50",
         "seed": 8, "size": 2048},
    ),
    (
        ["pattern-stats", "--size", "2048", "--count", "2", "--pattern", "21", "--seed", "9"],
        {"command": "pattern-stats", "consecutive": False, "count": 2, "format": "json",
         "pattern": "21", "seed": 9, "size": 2048},
    ),
    (
        ["pattern-stats", "--size", "2048", "--count", "2", "--pattern", "132", "--samples", "30",
         "--seed", "10"],
        {"command": "pattern-stats", "consecutive": False, "count": 2, "format": "json",
         "pattern": "132", "samples": 30, "seed": 10, "size": 2048},
    ),
    (
        ["pattern-stats", "--size", "2048", "--count", "2", "--pattern", "123", "--consecutive"],
        {"command": "pattern-stats", "consecutive": True, "count": 2, "format": "json",
         "pattern": "123", "seed": 0, "size": 2048},
    ),
    (["verify", "--format", "json", "--seed", "11"], {"command": "verify", "format": "json", "seed": 11}),
]  # fmt: skip


@pytest.mark.parametrize(
    "argv, config", REPORT_CONFIGS, ids=[f"{k}-{a[0]}" for k, (a, _) in enumerate(REPORT_CONFIGS)]
)
def test_report_config_blocks_are_pinned(capsys, monkeypatch, argv, config):
    monkeypatch.delenv("SQUAREPERM_SEED", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["config"] == config


@pytest.mark.parametrize("command", [["enumerate", "--size", "5"], ["encode", "--perm", "2413"]])
def test_seed_is_refused_where_nothing_is_drawn(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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
