"""The vectorized estimator kernels against brute-force oracles.

Window counting is checked against ``restrict`` at every root, the k = 2
inversion count against a pair count, consecutive occurrences against
``pattern_at`` over every window, the limit CDF table and the grid
box distance against the scalar ``mu_z_rect`` and explicit maxima over
grid rectangles, and the block-screened Petrov window check against the
min/max filter pair alone.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from squareperm import (
    LabelStats,
    RootedPattern,
    box_distance_grid,
    coc_proportion,
    empirical_window_distribution,
    grid_cdf,
    mu_sigma_rect,
    mu_z_rect,
    occ_proportion,
    pattern_at,
    petrov_check,
    restrict,
)
from squareperm import encoding
from squareperm.core import _inversion_count
from squareperm.permuton import _mu_z_grid_cdf


def random_perm(n: int, seed: int) -> tuple[int, ...]:
    return tuple(int(v) + 1 for v in np.random.default_rng(seed).permutation(n))


def expected_windows(p, h, roots):
    """Window law at the given 1-based roots, in lexicographic key order."""
    counts = Counter(restrict(p, i, h) for i in roots)
    total = len(roots)
    return {rp: np.float64(counts[rp] / total) for rp in sorted(counts)}


def assert_same_law(got, want):
    assert list(got) == list(want)  # keys and insertion order
    assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]


# ------------------------------------------------------------- windows


@pytest.mark.parametrize("h", [1, 2, 3])
def test_windows_match_restrict_on_every_small_square(squares_by_n, h):
    w = 2 * h + 1
    for n in range(w, 8):
        for p in squares_by_n[n]:
            want = expected_windows(p, h, range(h + 1, n - h + 1))
            assert_same_law(empirical_window_distribution(p, h), want)


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 20, 300])
def test_windows_match_restrict_on_random_permutations(n, h):
    for seed in range(3):
        p = random_perm(n, seed)
        want = expected_windows(p, h, range(h + 1, n - h + 1))
        assert_same_law(empirical_window_distribution(p, h), want)
        assert_same_law(empirical_window_distribution(np.asarray(p), h), want)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_windows_with_sampled_roots_count_the_drawn_roots(h):
    n, count = 60, 500
    p = random_perm(n, 17)
    starts = np.random.default_rng(23).integers(0, n - 2 * h, size=count)
    want = expected_windows(p, h, [int(s) + h + 1 for s in starts])
    got = empirical_window_distribution(p, h, roots=count, rng=23)
    assert_same_law(got, want)


def test_radius_zero_has_one_window_pattern():
    p = random_perm(9, 4)
    assert_same_law(
        empirical_window_distribution(p, 0), {RootedPattern((1,), 1): np.float64(1.0)}
    )


# ---------------------------------------------------------- inversions


def pair_count(p) -> int:
    a = np.asarray(p)
    return int(np.triu(a[:, None] > a[None, :], 1).sum())


def test_inversions_on_every_small_permutation():
    for n in range(2, 7):
        total = math.comb(n, 2)
        for p in itertools.permutations(range(1, n + 1)):
            inv = pair_count(p)
            assert _inversion_count(np.asarray(p)) == inv
            down = occ_proportion((2, 1), p)
            up = occ_proportion((1, 2), p)
            assert down == Fraction(inv, total)
            assert up + down == 1


def test_inversions_on_random_permutations():
    rng = np.random.default_rng(31)
    # sizes at and around powers of two, where the radix passes change
    sizes = [1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 255, 256, 257, 300]
    sizes += [int(v) for v in rng.integers(2, 301, size=20)]
    for seed, n in enumerate(sizes):
        p = random_perm(n, seed)
        assert _inversion_count(np.asarray(p)) == pair_count(p)
        if n >= 2:
            assert occ_proportion((1, 2), p) + occ_proportion((2, 1), p) == 1
    for n in (1, 2, 17, 256, 300):
        ident = np.arange(1, n + 1)
        assert _inversion_count(ident) == 0
        assert _inversion_count(ident[::-1].copy()) == math.comb(n, 2)


# ----------------------------------------------- consecutive occurrences


@pytest.mark.parametrize("n", [6, 13, 40])
def test_consecutive_occurrences_match_pattern_at(n):
    p = random_perm(n, n)
    for k in range(1, 7):
        seen = Counter(pattern_at(p, range(i, i + k)) for i in range(1, n - k + 2))
        for pi in itertools.permutations(range(1, k + 1)):
            assert coc_proportion(pi, p) == Fraction(seen[pi], n)
            assert coc_proportion(pi, np.asarray(p)) == Fraction(seen[pi], n)


# ------------------------------------------------- limit table and box


@pytest.mark.parametrize("G", [2, 7, 64])
@pytest.mark.parametrize("z", [0.0, 0.3, 0.5, 0.77, 1.0])
def test_limit_table_equals_the_scalar_measure(z, G):
    table = _mu_z_grid_cdf(z, G)
    assert table.shape == (G + 1, G + 1)
    for a in range(G + 1):
        for b in range(G + 1):
            assert table[a, b] == mu_z_rect(z, (0.0, a / G, 0.0, b / G))


def grid_rectangles(G):
    edges = range(G + 1)
    return [
        (a1, a2, b1, b2)
        for a1, a2 in itertools.combinations(edges, 2)
        for b1, b2 in itertools.combinations(edges, 2)
    ]


@pytest.mark.parametrize("G", [2, 3, 5, 8])
def test_box_distance_is_the_max_over_grid_rectangles(G):
    for seed, n in enumerate((5, 11, 37)):
        p = random_perm(n, 100 + seed)
        z = (p.index(1) + 1) / n
        emp = grid_cdf(p, G).table
        diff = [
            [emp[a, b] - mu_z_rect(z, (0.0, a / G, 0.0, b / G)) for b in range(G + 1)]
            for a in range(G + 1)
        ]
        # the same inclusion-exclusion on the corner table, in both orientations
        corners = max(
            abs((diff[a2][b2] - diff[a1][b2]) - (diff[a2][b1] - diff[a1][b1]))
            for a1, a2, b1, b2 in grid_rectangles(G)
        )
        # and each rectangle's masses measured directly
        direct = max(
            abs(mu_sigma_rect(p, r) - mu_z_rect(z, r))
            for r in (
                (a1 / G, a2 / G, b1 / G, b2 / G)
                for a1, a2, b1, b2 in grid_rectangles(G)
            )
        )
        got = box_distance_grid(p, z, G)
        assert got == corners
        assert got == pytest.approx(direct, abs=1e-12)


# ------------------------------------------------------- Petrov screen


def unscreened_window_extremes(dev, reach, bound):
    """The exact min/max filter pair alone; ``bound`` is ignored."""
    if reach < 1 or dev.size < 2:
        return None
    width = min(reach + 1, dev.size)
    spread = maximum_filter1d(dev, width, mode="nearest") - minimum_filter1d(
        dev, width, mode="nearest"
    )
    c = int(np.argmax(spread))
    lo = max(0, c - (width - 1) // 2)
    window = dev[lo : min(dev.size, c + width // 2 + 1)]
    i = lo + int(np.argmax(window))
    j = lo + int(np.argmin(window))
    return i, j, int(spread[c])


def unscreened_petrov_check(monkeypatch, stats, conditions):
    with monkeypatch.context() as m:
        m.setattr(encoding, "_window_extremes", unscreened_window_extremes)
        return petrov_check(stats, conditions=conditions)


def label_strings(n, seed):
    """Fair-coin, drifting and blocky X and Y label strings of length n."""
    rng = np.random.default_rng(seed)
    out = []
    for p_low in (0.5, 0.5, 0.5, 0.47, 0.55, 0.7):
        for alphabet in ("DU", "LR"):
            bits = (rng.random(n) >= p_low).astype(np.intp)
            out.append("".join(alphabet[b] for b in bits))
    run = max(1, n // 20)
    out.append(("D" * run + "U" * run) * (n // (2 * run)) + "D" * (n % (2 * run)))
    return out


PETROV_CONDITION_SETS = [(1, 5, 6), (1, 2, 3, 4, 5, 6), (3,)]


@pytest.mark.parametrize("conditions", PETROV_CONDITION_SETS)
@pytest.mark.parametrize("n", [5, 17, 64, 2000, 20000])
def test_petrov_screen_keeps_every_report(monkeypatch, n, conditions):
    verdicts = set()
    for s in label_strings(n, n):
        stats = LabelStats(s)
        want = unscreened_petrov_check(monkeypatch, stats, conditions)
        assert petrov_check(stats, conditions=conditions) == want
        verdicts.add(want.passed)
    if n >= 2000 and conditions == (1, 5, 6):
        assert verdicts == {True, False}  # both outcomes are exercised


def test_petrov_screen_skips_the_filter_on_typical_draws():
    n = 20000
    reach = math.ceil(n**0.6) - 1
    bound = 2 * n**0.4
    screened = 0
    for s in label_strings(n, 3)[:6]:  # the fair-coin strings
        stats = LabelStats(s)
        dev = 2 * stats.ct_table(stats.alphabet[0]) - np.arange(n + 1)
        exact = unscreened_window_extremes(dev, reach, bound)
        got = encoding._window_extremes(dev, reach, bound)
        if got is None:
            screened += 1
            assert exact[2] < bound
        else:
            assert got == exact
    assert screened > 0


@pytest.mark.parametrize("gap, passed", [(5, False), (4, True)])
def test_petrov_screen_at_a_spread_equal_to_the_bound(monkeypatch, gap, passed):
    # n = 32: float(32) ** 0.4 is exactly 4.0, the bound of condition (3),
    # and a run of `gap` U's moves pos_D - 2i by gap - 1 within one step
    n = 32
    assert float(n) ** 0.4 == 4.0
    head = "D" + "U" * gap + "D"
    s = head + "UD" * ((n - len(head)) // 2) + "D" * ((n - len(head)) % 2)
    stats = LabelStats(s)
    dev = stats.pos_table("D")[: stats.count("D") + 1] - 2 * np.arange(stats.count("D") + 1)
    assert unscreened_window_extremes(dev, math.ceil(n**0.6) - 1, 4.0)[2] == gap - 1
    for conditions in ((3,), (1, 3, 5, 6)):
        want = unscreened_petrov_check(monkeypatch, stats, conditions)
        got = petrov_check(stats, conditions=conditions)
        assert got == want
        assert any(v.condition == 3 for v in got.violations) is not passed


# --------------------------------------------------------------- errors


def test_box_distance_rejects_bad_corner_and_grid():
    p = random_perm(10, 1)
    for z in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="z must lie in"):
            box_distance_grid(p, z, 8)
    for G in (1, 0, -3):
        with pytest.raises(ValueError, match="2x2 grid"):
            box_distance_grid(p, 0.5, G)


def test_windows_reject_short_permutations_bad_radii_and_root_counts():
    with pytest.raises(ValueError, match="shorter than the window"):
        empirical_window_distribution((2, 1, 3, 4), 2)
    with pytest.raises(ValueError, match="radius"):
        empirical_window_distribution((2, 1, 3, 4), -1)
    for roots in (0, -2):
        with pytest.raises(ValueError, match="at least one root"):
            empirical_window_distribution(random_perm(9, 0), 1, roots=roots, rng=1)
    with pytest.raises(ValueError, match="not a permutation"):
        empirical_window_distribution((1, 2, 2, 4), 1)


@pytest.mark.parametrize("measure", [occ_proportion, coc_proportion])
def test_pattern_proportions_reject_bad_hosts(measure):
    with pytest.raises(ValueError, match="pattern larger"):
        measure((1, 2, 3), (2, 1))
    for bad in ((1, 1, 2), (0, 1, 2), (1, 2, 4), ()):
        with pytest.raises(ValueError):
            measure((1, 2), bad)
    with pytest.raises(ValueError, match="not a permutation"):
        measure((1, 3), (1, 2, 3))
