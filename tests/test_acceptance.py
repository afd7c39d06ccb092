"""Acceptance battery: eleven gate checks, one verdict line each.

Every check prints a ``[PASS]``/``[FAIL]`` line directly on the terminal
(bypassing capture) so a full run reads as a checklist; failed bands also
fail their test.  Checks 2, 5, and 6 call for a size-1000 leg, but the
anchor margin [n^0.9, n - n^0.9] is empty below n = 1024, so the smallest
admissible power of two (2048) stands in.  Monte Carlo seeds are frozen.
Most intervals are sized at roughly four standard errors, so reseeding
should stay green with overwhelming probability.  Checks 08b and 11 are
not: they draw with the exact sampler, whose anchor fraction U is
uniform, so their per-sample values (freq(123) in 08b, occ(12) in 11)
spread like (1 - U)/2 and 1 - U, and the sd of the mean is about 0.020
in both (50 samples in 08b, 200 in 11).  08b's +-0.01 band on freq(123)
would fail on about 62% of reseeds and 11's +-0.03 band on about 14%;
both pass at their frozen seeds.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from squareperm import (
    anchors,
    build_lambdas,
    box_distance_grid,
    count_square_formula,
    e_counts,
    empirical_window_distribution,
    endpoint_stats,
    enumerate_square,
    occ_proportion,
    offsets,
    project,
    reconstruct,
    sample_conditioned,
    sample_regular,
    sample_square_approx,
)
from squareperm.local_limits import (
    RootedPattern,
    classify_phi,
    build_psi,
    e_counts_brute,
    limit_p,
    restrict,
    separating_failure_rate,
    separating_line_exists,
)
from squareperm.sampler import replicate_rng

SMALL = 2048  # stand-in for the empty-margin size 1000

SEED_ROUNDTRIP = 4242
SEED_RATE = 1234
SEED_BANDS = 555
SEED_GRID = 66
SEED_PATHS = 77
SEED_QUENCHED = 8801
SEED_ANNEALED = 101
SEED_SEPARATION = 1010
SEED_PATTERNS = 2024


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    if not ok:
        pytest.fail(line, pytrace=False)


def _freq(dist: dict[RootedPattern, float], pattern: tuple[int, ...]) -> float:
    return sum(v for k, v in dist.items() if k.pattern == pattern)


def test_01_enumeration_matches_the_closed_formula():
    t0 = time.perf_counter()
    counts = {n: len(enumerate_square(n)) for n in range(3, 10)}
    elapsed = time.perf_counter() - t0
    expected = {n: count_square_formula(n) for n in range(3, 10)}
    ok = counts == expected and elapsed < 60
    _verdict(
        "01 enumeration",
        ok,
        f"|Sq(3..9)| = {list(counts.values())} both ways in {elapsed:.1f}s",
    )


def test_02_reconstruction_inverts_projection_on_regular_pairs():
    t0 = time.perf_counter()
    failures = 0
    for j, n in enumerate((SMALL, 10_000, 100_000)):
        for k in range(10_000):
            pair, _ = sample_regular(n, replicate_rng(SEED_ROUNDTRIP + j, k))
            if project(reconstruct(pair)) != pair:
                failures += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "02 round trips",
        failures == 0,
        f"{failures} failures over 3x10^4 regular pairs "
        f"(n = 2048, 10^4, 10^5) in {elapsed:.0f}s",
    )


def test_03_projection_is_injective_on_small_squares():
    t0 = time.perf_counter()
    collisions = 0
    total = 0
    for n in range(3, 9):
        members = enumerate_square(n)
        images = {project(p) for p in members}
        collisions += len(members) - len(images)
        total += len(members)
    elapsed = time.perf_counter() - t0
    _verdict(
        "03 injectivity",
        collisions == 0,
        f"{collisions} collisions over {total} squares (n <= 8) in {elapsed:.1f}s",
    )


def test_04_rejection_rates_match_the_margin_count():
    n = 100_000
    t0 = time.perf_counter()
    attempts = margin = petrov = 0
    k = 0
    while attempts < 10_000:
        _, stats = sample_regular(n, replicate_rng(SEED_RATE, k))
        k += 1
        attempts += stats.attempts
        margin += stats.rejects_margin
        petrov += stats.rejects_petrov
    elapsed = time.perf_counter() - t0
    exact = (2 * math.ceil(n**0.9) - 2) / n
    margin_freq = margin / attempts
    petrov_freq = petrov / attempts
    ok = abs(margin_freq - exact) <= 0.02 and petrov_freq < 1e-3
    _verdict(
        "04 rejection rates",
        ok,
        f"margin {margin_freq:.5f} vs exact {exact:.5f} "
        f"(|diff| = {abs(margin_freq - exact):.5f}), petrov {petrov_freq:.1e}, "
        f"{attempts} attempts in {elapsed:.0f}s",
    )


def test_05_diagonal_bands_hold_pointwise():
    t0 = time.perf_counter()
    violations = 0
    points = 0
    for j, n in enumerate((SMALL, 100_000)):
        band = 10 * float(n) ** 0.6
        offset_band = 10 * float(n) ** 0.4
        for k in range(5):
            pair, _ = sample_regular(n, replicate_rng(SEED_BANDS + j, k))
            z0 = pair.z0
            lam = build_lambdas(pair)
            sums = (
                np.abs(lam.lambda1[:, 0] + lam.lambda1[:, 1] - z0),
                np.abs(lam.lambda2[:, 1] - lam.lambda2[:, 0] - z0),
                np.abs(lam.lambda3[:, 0] - lam.lambda3[:, 1] - z0),
                np.abs(2 * n - lam.lambda4[:, 0] - lam.lambda4[:, 1] - z0),
            )
            violations += sum(int((dev >= band).sum()) for dev in sums)
            points += sum(dev.size for dev in sums)
            z1, z2, z3 = anchors(pair)
            anchor_dev = max(abs(z1 - z0), abs(z2 - z3), abs(n - z0 - z2))
            violations += anchor_dev >= band
            for stats in (pair.x_stats, pair.y_stats):
                _, s = offsets(stats)
                violations += int((np.abs(s) >= offset_band).sum())
    elapsed = time.perf_counter() - t0
    _verdict(
        "05 diagonal bands",
        violations == 0,
        f"{violations} violations over {points} points "
        f"(5 samples each at n = 2048, 10^5) in {elapsed:.0f}s",
    )


def test_06_grid_distance_shrinks_toward_the_limit():
    G = 64
    t0 = time.perf_counter()

    def median_distance(n: int, count: int, master: int) -> float:
        ds = []
        for k in range(count):
            rng = replicate_rng(master, k)
            pair, _ = sample_regular(n, rng)
            perm = reconstruct(pair)
            ds.append(box_distance_grid(perm, pair.z0 / n, G))
        return float(np.median(ds))

    med_small = median_distance(SMALL, 20, SEED_GRID)
    med_large = median_distance(100_000, 20, SEED_GRID + 1)
    # the closed-form bound 400 n^-0.4 only bites at n = 10^7
    n7 = 10_000_000
    bound = 400 * n7**-0.4
    worst = 0.0
    for k in range(3):
        pair, _ = sample_regular(n7, replicate_rng(SEED_GRID + 2, k))
        perm = reconstruct(pair)
        worst = max(worst, box_distance_grid(perm, pair.z0 / n7, G))
    elapsed = time.perf_counter() - t0
    ok = med_large < 0.1 and med_large < med_small and worst < bound
    _verdict(
        "06 permuton distance",
        ok,
        f"median {med_large:.4f} at 10^5 < 0.1 and < {med_small:.4f} at 2048; "
        f"worst of 3 at 10^7 is {worst:.5f} < bound {bound:.3f}; {elapsed:.0f}s",
    )


def test_07_path_moments_match_the_limit_covariances():
    n, t_n = 1_000_000, 700_000
    times = (0.25, 0.5, 0.75, 1.0)
    t0 = time.perf_counter()
    stats = endpoint_stats(n, t_n, times=times, replicates=400, rng=SEED_PATHS)
    elapsed = time.perf_counter() - t0
    var_dr = stats.variances["P_DR"]
    cov_dr_dl = stats.covariances[("P_DR", "P_DL")][3]
    cov_dl_ur = stats.covariances[("P_DL", "P_UR")][3]
    checks = (
        ("Var DR(1)", var_dr[3], 1.7, 2.3),
        ("Cov DR,DL(1)", cov_dr_dl, 0.75, 1.25),
        ("Cov DL,UR(1)", cov_dl_ur, -0.2, 0.2),
        ("Var DR(0.5)", var_dr[1], 0.8, 1.2),
    )
    bad = [name for name, v, lo, hi in checks if not lo <= v <= hi]
    detail = ", ".join(f"{name} = {v:.3f} in [{lo}, {hi}]" for name, v, lo, hi in checks)
    _verdict(
        "07 fluctuations",
        not bad and elapsed < 1800,
        f"{detail}; 400 replicates in {elapsed:.0f}s serial",
    )


def test_08a_quenched_window_frequency():
    n = 100_000
    z0 = 30_000
    t0 = time.perf_counter()
    pair, _ = sample_conditioned(n, z0, replicate_rng(SEED_QUENCHED, 0))
    perm = reconstruct(pair)
    freq = _freq(empirical_window_distribution(perm, 1), (1, 2, 3))
    elapsed = time.perf_counter() - t0
    # Rectangle limit at u = z0/n = 0.3: map_J sends a share 1 - 2u = 0.4 of
    # the roots to case 1 and u = 0.3 to each of cases 2 and 3, and labels
    # are fair coins within a case, so 123 has probability 4/8, 2/8 and 2/8
    # there: 0.4/2 + 0.3/4 + 0.3/4 = (1 - u)/2 = 0.35.  Half-width 0.015.
    ok = 0.335 <= freq <= 0.365
    _verdict(
        "08a quenched windows",
        ok,
        f"freq(123) = {freq:.4f} in [0.335, 0.365] at z0/n = 0.3 "
        f"({elapsed:.0f}s); the limit (1 - u)/2 = 0.35 is 0.4 * 1/2 + "
        "0.3 * 1/4 + 0.3 * 1/4 from the case shares 0.4/0.3/0.3 and the "
        "per-case probabilities 1/2, 1/4, 1/4",
    )


def test_08b_annealed_window_frequencies():
    n = 100_000
    t0 = time.perf_counter()
    f123 = np.empty(50)
    f132 = np.empty(50)
    for k in range(50):
        perm = sample_square_approx(n, replicate_rng(SEED_ANNEALED, k))
        dist = empirical_window_distribution(perm, 1)
        f123[k] = _freq(dist, (1, 2, 3))
        f132[k] = _freq(dist, (1, 3, 2))
    elapsed = time.perf_counter() - t0
    m123, m132 = f123.mean(), f132.mean()
    ok = 0.24 <= m123 <= 0.26 and 0.115 <= m132 <= 0.135
    _verdict(
        "08b annealed windows",
        ok,
        f"freq(123) = {m123:.4f} in [0.24, 0.26], "
        f"freq(132) = {m132:.4f} in [0.115, 0.135]; 50 samples in {elapsed:.0f}s",
    )


def test_09_window_probabilities_are_a_distribution():
    t0 = time.perf_counter()
    s3 = list(itertools.permutations((1, 2, 3)))
    s5 = list(itertools.permutations((1, 2, 3, 4, 5)))
    sum3 = sum(limit_p(pi) for pi in s3)
    sum5 = sum(limit_p(pi) for pi in s5)
    duals = sum(e_counts(pi) == e_counts_brute(pi) for pi in s3 + s5)
    elapsed = time.perf_counter() - t0
    ok = sum3 == Fraction(1) and sum5 == Fraction(1) and duals == len(s3) + len(s5)
    _verdict(
        "09 limit distribution",
        ok,
        f"sum over S3 = {sum3}, over S5 = {sum5}; closed-form counts match "
        f"brute force on {duals}/{len(s3) + len(s5)} patterns in {elapsed:.1f}s",
    )


def test_10_window_builder_composes_with_restriction():
    t0 = time.perf_counter()
    violations = 0
    in_scope = 0
    for p in enumerate_square(7):
        for h in (1, 2):
            for i in range(1, 8):
                labels = classify_phi(p, i, h)
                if labels.tag is None:
                    continue
                if labels.tag in (1, 4) and not separating_line_exists(p, i, h):
                    continue
                in_scope += 1
                if build_psi(labels.tag, labels.d_set, h) != restrict(p, i, h):
                    violations += 1
    perm = sample_square_approx(100_000, replicate_rng(SEED_SEPARATION, 0))
    rate = separating_failure_rate(perm, 1)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and rate < 1e-2
    _verdict(
        "10 window composition",
        ok,
        f"{violations} mismatches over {in_scope} in-scope windows of Sq(7), "
        f"separating-line failure rate {rate:.1e} at 10^5; {elapsed:.0f}s",
    )


def test_11_pattern_proportions_center_on_a_half():
    n = 10_000
    t0 = time.perf_counter()
    means = []
    exact = True
    for k in range(200):
        perm = tuple(int(v) for v in sample_square_approx(n, replicate_rng(SEED_PATTERNS, k)))
        v12 = occ_proportion((1, 2), perm)
        exact &= v12 + occ_proportion((2, 1), perm) == 1
        means.append(v12)
    mean = float(sum(means, Fraction(0)) / len(means))
    elapsed = time.perf_counter() - t0
    ok = 0.47 <= mean <= 0.53 and exact
    _verdict(
        "11 pattern proportions",
        ok,
        f"mean occ(12) = {mean:.4f} in [0.47, 0.53] over 200 samples at 10^4, "
        f"complement identity exact on all; {elapsed:.0f}s",
    )
