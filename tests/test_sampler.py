"""Rejection sampling: distributional checks and seeded reproducibility."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from squareperm import (
    count_good_pairs,
    count_square_formula,
    enumerate_square,
    is_regular,
    is_square,
    margin_ok,
    project,
    reconstruct,
    sample_conditioned,
    sample_good,
    sample_regular,
    sample_square_approx,
)
from squareperm import sampler
from squareperm.core import _record_masks
from squareperm.encoding import (
    ALL_PETROV_CONDITIONS,
    AnchoredPair,
    MatchingFailure,
    anchors,
    petrov_check,
)
from squareperm.fluctuations import replicate_path_values
from squareperm.sampler import (
    SamplerStats,
    SamplingBudgetExceeded,
    _sample_square,
    _square_of,
    replicate_rng,
)
from test_kernels import assert_same_round_trip

N = 2048  # smallest power of two with a nonempty anchor margin


def assert_records(p, masks):
    """``masks`` are the record masks of the permutation ``p``."""
    assert all(np.array_equal(a, b) for a, b in zip(masks, _record_masks(p), strict=True))


def test_same_seed_reproduces_the_draw():
    pair_a, stats_a = sample_regular(N, rng=7)
    pair_b, stats_b = sample_regular(N, rng=7)
    assert pair_a == pair_b
    assert stats_a == stats_b
    pair_c, _ = sample_regular(N, rng=8)
    assert pair_c != pair_a


def test_replicate_streams_are_stable_and_distinct():
    first = replicate_rng(5, 3).integers(1 << 30, size=4)
    again = replicate_rng(5, 3).integers(1 << 30, size=4)
    other = replicate_rng(5, 4).integers(1 << 30, size=4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_regular_samples_pass_their_own_screen():
    for k in range(5):
        pair, stats = sample_regular(N, rng=replicate_rng(11, k))
        assert pair.good
        assert margin_ok(N, pair.z0)
        assert is_regular(pair)
        # attempts ledger is complete: every attempt either rejected or won
        rejected = (
            stats.rejects_margin + stats.rejects_anchor_label + stats.rejects_petrov
        )
        assert stats.attempts == rejected + 1


def test_regular_pairs_round_trip():
    for k in range(5):
        pair, _ = sample_regular(N, rng=replicate_rng(13, k))
        assert project(reconstruct(pair)) == pair


def test_conditioned_sampling_honors_the_anchor():
    # z0 = 800 sits below the n^0.9 margin, which conditioning ignores
    assert not margin_ok(N, 800)
    pair, stats = sample_conditioned(N, 800, rng=3)
    assert pair.z0 == 800 and pair.good
    assert stats.rejects_margin == 0


def test_approx_sampler_returns_a_square_permutation():
    p = sample_square_approx(N, rng=21)
    assert sorted(p.tolist()) == list(range(1, N + 1))
    assert is_square(p.tolist())


def test_good_pairs_need_no_screen():
    pair = sample_good(64, rng=2)
    assert pair.good and pair.n == 64


def good_pairs(n):
    """Every good anchored pair of size n: D at columns 1, n and z0, L at rows 1, n."""
    for z0 in range(1, n + 1):
        free = [i for i in range(1, n - 1) if i != z0 - 1]
        for bits in itertools.product("DU", repeat=len(free)):
            x = ["D"] * n
            for i, b in zip(free, bits):
                x[i] = b
            for y in itertools.product("LR", repeat=n - 2):
                yield AnchoredPair("".join(x), "L" + "".join(y) + "L", z0)


@pytest.mark.parametrize("n", range(3, 10))
def test_round_trip_predicate_accepts_each_square_once(n):
    # the sampler draws good pairs uniformly, so its law is uniform on
    # Sq(n) exactly when its predicate accepts one pair per square
    accepted = []
    total = 0
    for pair in good_pairs(n):
        total += 1
        square = _square_of(pair)
        # and agrees with the padded matching and the re-projection it replaced
        assert_same_round_trip(pair, square)
        if square is not None:
            same, p, masks = square
            assert same is pair
            assert_records(p, masks)
            accepted.append(tuple(p.tolist()))
    assert total == count_good_pairs(n)
    assert sorted(accepted) == enumerate_square(n)
    # the squares built by the branch of the matching that reads past a table
    assert sum(p[-1] == n for p in accepted) == math.comb(2 * n - 4, n - 2)


def test_round_trip_predicate_agrees_with_project_on_seeded_pairs():
    # at n = 1000 about 7% of good pairs are no square's projection, a
    # case the exhaustive sizes above reach only among tiny squares
    rng = np.random.default_rng(1000)
    rejected = 0
    for _ in range(200):
        pair = sample_good(1000, rng)
        try:
            p = reconstruct(pair)
        except MatchingFailure:
            p = None
        want = p is not None and project(p) == pair
        got = _square_of(pair)
        assert (got is not None) == want
        if want:
            assert np.array_equal(got[1], p)
        rejected += not want
    assert rejected == 17  # 8 matchings fail, 9 reconstructions project elsewhere


def test_exact_sampler_draws_members():
    for k in range(20):
        p = sample_square_approx(5, rng=replicate_rng(17, k))
        assert is_square(p.tolist())


def test_exact_sampler_is_close_to_uniform():
    # 24 squares of size 4; 4800 draws give expected count 200 per member,
    # sd ~ 14, so a +/-70 band is a five-sigma envelope
    DRAWS = 4800
    rng = np.random.default_rng(31)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(DRAWS):
        p = tuple(sample_square_approx(4, rng=rng).tolist())
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == count_square_formula(4)
    assert all(130 <= c <= 270 for c in counts.values())


def test_tiny_sizes_draw_any_permutation():
    # every permutation of size 1 or 2 is square; size 0 has none to draw
    assert sample_square_approx(1, rng=4).tolist() == [1]
    draws = {tuple(sample_square_approx(2, rng=replicate_rng(4, k)).tolist()) for k in range(20)}
    assert draws == {(1, 2), (2, 1)}
    with pytest.raises(ValueError):
        sample_square_approx(0)


def test_square_draws_count_round_trip_rejects():
    for k in range(10):
        (pair, p, masks), stats = _sample_square(6, rng=replicate_rng(19, k))
        assert is_square(p.tolist()) and project(p) == pair
        assert_records(p, masks)
        assert stats.rejects_margin == stats.rejects_petrov == 0
        assert stats.accepts == 1
    # acceptance |Sq(3)| / |good pairs| = 6/10: some seed must reject a pair
    rejects = [_sample_square(3, rng=replicate_rng(19, k))[1].rejects_roundtrip for k in range(20)]
    assert any(rejects)


@pytest.mark.parametrize("z0", range(1, 6))
def test_anchored_square_draw_reaches_every_square_with_its_anchor(z0):
    # the same round trip with the anchor fixed: uniform on the squares
    # whose value 1 sits at column z0, so 300 draws reach each of them
    want = {p for p in enumerate_square(5) if p[z0 - 1] == 1}
    seen, rejects = set(), 0
    for k in range(300):
        (pair, p, masks), stats = _sample_square(5, replicate_rng(23, k), z0)
        assert pair.z0 == z0 and p[z0 - 1] == 1
        assert project(p) == pair
        assert_records(p, masks)
        assert stats.accepts == 1 and stats.rejects_margin == stats.rejects_petrov == 0
        seen.add(tuple(p.tolist()))
        rejects += stats.rejects_roundtrip
    assert seen == want
    # 120 of the 224 good pairs of size 5 are no square's projection
    assert rejects > 0


def test_anchored_draw_counts_a_reconstruction_that_is_no_square(monkeypatch):
    real = sampler._match
    calls = []

    def first_not_square(pair):
        calls.append(pair)
        # the 3 at column 3 is no record of 2 5 3 1 4
        return (np.array([2, 5, 3, 1, 4]), (), (2, 2, 4)) if len(calls) == 1 else real(pair)

    monkeypatch.setattr(sampler, "_match", first_not_square)
    (pair, p, _), stats = _sample_square(5, replicate_rng(23, 0), 4)
    assert stats.rejects_roundtrip >= 1 and len(calls) == stats.rejects_roundtrip + 1
    assert is_square(p.tolist()) and project(p) == pair and pair.z0 == 4


@pytest.mark.parametrize("n, z0", [(2, 1), (5, 0), (5, 6)])
def test_anchored_draw_refuses_an_impossible_anchor(n, z0):
    with pytest.raises(ValueError, match="anchored squares need"):
        _sample_square(n, 1, z0)


def test_empty_margin_is_refused_before_drawing():
    # the margin [n^0.9, n - n^0.9] holds no column at n = 1000
    assert not any(margin_ok(1000, z) for z in range(1, 1001))

    class NoDraws:
        def __getattr__(self, name):
            pytest.fail("sample_regular drew before refusing an empty margin")

    with pytest.raises(ValueError, match="margin"):
        sample_regular(1000, rng=NoDraws(), max_attempts=50)


def test_anchor_spreads_over_the_margin_window():
    # accepted anchors should be roughly uniform over [n^.9, n - n^.9];
    # quartile counts of 60 draws are Binomial(60, 1/4), sd ~ 3.4
    zs = [sample_regular(N, rng=replicate_rng(37, k))[0].z0 for k in range(60)]
    lo, hi = 956, N - 956  # ceil(2048^0.9) = 956
    assert all(lo <= z <= hi for z in zs)
    mid = (lo + hi) / 2
    below = sum(z < mid for z in zs)
    assert 15 <= below <= 45


def label_digest(pair):
    return hashlib.sha256((pair.x + pair.y).encode()).hexdigest()


# (seed, z0, sha256 of x + y), pinned from the draws of the three separate
# rejection loops the samplers had before they shared one
GOOD_DRAWS = [
    (0, 103, "54168676a4896b4ecb5758e26d9b5b90972c6606c30cb0f4df5fec7d9a4d8176"),
    (1, 7, "280e4d3f513da6dabb5068c19fe989fb5d3a0d5dae796d3bca9942f3a6621ffe"),
]
# ... plus every SamplerStats field: attempts, rejects_anchor_label,
# rejects_margin, rejects_petrov
REGULAR_DRAWS = [
    (0, 1047, "deb2f0a68cf4da0966b999d6a2653ef83704172b8d9a85f73bb2c3908a1e5f4d", (3, 0, 2, 0)),
    (2, 977, "c1ac0fd579d522f380f9dfd9a22e5585e55ebe1f9a55a3be9610fa9efc2d1f4e", (57, 2, 54, 0)),
]
CONDITIONED_DRAWS = [
    (0, 1300, "04d400a3b207d7ecc14d348bdadce691ecf7740d2c131627a791210b9575b03d", (4, 3, 0, 0)),
    (2, 1300, "3474fd209c251a55bbbfef6ff2c13d7bf50773e6f81f0f188109dbdecf876842", (2, 1, 0, 0)),
]


@pytest.mark.parametrize("seed, z0, digest", GOOD_DRAWS)
def test_sample_good_stream_is_pinned(seed, z0, digest):
    pair = sample_good(200, rng=seed)
    assert (pair.z0, label_digest(pair)) == (z0, digest)


@pytest.mark.parametrize("seed, z0, digest, stats", REGULAR_DRAWS)
def test_sample_regular_stream_is_pinned(seed, z0, digest, stats):
    pair, got = sample_regular(N, rng=seed)
    assert (pair.z0, label_digest(pair)) == (z0, digest)
    assert got == SamplerStats(*stats)


@pytest.mark.parametrize("seed, z0, digest, stats", CONDITIONED_DRAWS)
def test_sample_conditioned_stream_is_pinned(seed, z0, digest, stats):
    pair, got = sample_conditioned(N, 1300, rng=seed)
    assert (pair.z0, label_digest(pair)) == (z0, digest)
    assert got == SamplerStats(*stats)


# (n, seed, sha256 of the little-endian int64 draw of sample_square_approx)
SQUARE_DRAWS = [
    (3, 0, "594daa4b57da3924e41e3ee694bd1b0257acd8bb7db98ff854f8c5eb75b7cae1"),
    (10, 1, "d635ce94d3a834885be1433c20a88cc726ee54a8479cec38ec2f7f2b7caffa5b"),
    (1000, 2, "e3d7a942b690009ea1c504f845a5b2c2b1f173fc2d6d7c74035cdd1f3b53d70a"),
    (10_000, 3, "ac8c3d66c39d8fe946748ff78c894e175d29f020d9233ef64723e051584632d2"),
]
# (seed, k, sha256 of the little-endian float64 values of
# replicate_path_values(50_000, 32_500, (0.25, 0.5, 0.75, 1.0), seed, k))
PATH_VALUES = [
    (1, 0, "18d3757d096957224d3e8d0d73acc26d7dfe362d8098e1086bc176694bd8948d"),
    (1, 1, "2502f55c61c4468981073446f6fb44b6ccd05388e2464553937f500368086eaf"),
    (7, 2, "65582e8595624ec7eaa996d98e68ab5926a55e357917b1ae31fa0ba2074bb81a"),
]


def bytes_digest(arr, dtype):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


@pytest.mark.parametrize("n, seed, digest", SQUARE_DRAWS)
def test_sample_square_stream_is_pinned(n, seed, digest):
    assert bytes_digest(sample_square_approx(n, seed), "<i8") == digest


@pytest.mark.parametrize("seed, k, digest", PATH_VALUES)
def test_replicate_path_values_are_pinned(seed, k, digest):
    values = replicate_path_values(50_000, 32_500, (0.25, 0.5, 0.75, 1.0), seed, k)
    assert values.shape == (3, 4)
    assert bytes_digest(values, "<f8") == digest


def mask_built_pairs(n, seed):
    """The pairs the samplers and ``project`` build from masks at size n."""
    rng = replicate_rng(seed, n)
    pairs = [sample_good(n, rng), sample_conditioned(n, n // 2 + 1, rng)[0]]
    pairs.append(project(sample_square_approx(n, rng)))
    if n >= 2048:
        pairs.append(sample_regular(n, rng)[0])
    return pairs


@pytest.mark.parametrize("n", [*range(3, 10), N])
def test_mask_built_pairs_match_string_built_pairs(n):
    for pair in mask_built_pairs(n, 41):
        again = AnchoredPair(pair.x, pair.y, pair.z0)
        assert again == pair and hash(again) == hash(pair)
        assert len({again, pair}) == 1
        assert again.to_text() == pair.to_text()
        assert again.to_json_obj() == pair.to_json_obj()
        assert repr(again) == repr(pair)
        assert again.good and pair.good
        assert anchors(again) == anchors(pair)
        for conditions in ((1, 5, 6), ALL_PETROV_CONDITIONS):
            for got, want in ((pair.x_stats, again.x_stats), (pair.y_stats, again.y_stats)):
                assert petrov_check(got, n, conditions) == petrov_check(want, n, conditions)


def test_exhausted_budget_counts_every_kind_of_reject():
    # all six Petrov conditions reject almost every pair at n = 2048
    with pytest.raises(SamplingBudgetExceeded) as info:
        sample_regular(N, rng=3, conditions=ALL_PETROV_CONDITIONS, max_attempts=40)
    assert str(info.value) == "no regular pair of size 2048 within 40 attempts"
    assert info.value.stats == SamplerStats(40, 1, 36, 3)
