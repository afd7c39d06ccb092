"""The vectorized estimator kernels against brute-force oracles.

Window counting is checked against ``restrict`` at every root (and its
integer window codes against the lexsort kernel, kept here), the k = 2
inversion count (the record-chain peel and the radix kernel it hands the
interior to) against a pair count, consecutive occurrences against
``pattern_at`` over every window, the empirical grid CDF against its
two-division version (kept here), the limit CDF table and the grid
box distance against the scalar ``mu_z_rect`` and explicit maxima over
grid rectangles (and its row-block branch and bound against the
exhaustive per-row loop, kept here), and the block-screened Petrov
window check against the min/max filter pair alone.  The round-trip
kernels (label tables, the Petrov check, label matching, record masks,
the separating-line test and the fluctuation families) are checked
against their earlier straightforward versions, kept here; the
unpadded matching and the square draw's column-wise check against the
padded matching and the re-projection they replaced, also kept here;
the label words against the per-byte draw they reproduce; and the
report writer's integer kernel against ``str.join`` over ``str`` of
every value.
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
    AnchoredPair,
    LabelStats,
    MatchingFailure,
    PetrovReport,
    build_lambdas,
    is_square,
    records,
    extract_families,
    project,
    reconstruct,
    sample_conditioned,
    sample_good,
    sample_regular,
    sample_square_approx,
    RootedPattern,
    box_distance_grid,
    coc_proportion,
    count_good_pairs,
    empirical_window_distribution,
    enumerate_square,
    grid_cdf,
    mu_sigma_rect,
    mu_z_rect,
    occ_proportion,
    pattern_at,
    petrov_check,
    restrict,
)
from squareperm import cli, encoding, sampler
from squareperm.cli import _join_ints
from squareperm.core import (
    _as_value_array,
    _inversion_count,
    _radix_inversions,
    _record_masks,
    _square_records,
)
from squareperm.encoding import ALL_PETROV_CONDITIONS, PetrovViolation
from squareperm.fluctuations import (
    HALF_SQRT2,
    AnchorAssumptionError,
    PointFamily,
    _assumption_floor,
    component_families,
    rotate_families,
)
from squareperm.local_limits import separating_failure_rate, separating_line_exists
from squareperm.permuton import _max_row_pair_spread, _mu_z_grid_cdf


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


def old_window_distribution(p, h, roots="all", rng=None):
    """The lexsort kernel: rank rows sorted by a lexsort, then a run-length
    count of equal rows."""
    arr = np.asarray(p, dtype=np.int64)
    w = 2 * h + 1
    windows = np.lib.stride_tricks.sliding_window_view(arr, w)
    if roots == "all":
        chosen = windows
    else:
        gen = np.random.default_rng(rng)
        chosen = windows[gen.integers(0, windows.shape[0], size=int(roots))]
    total = chosen.shape[0]
    ranks = np.ones((w, total), dtype=np.min_scalar_type(w))
    for i, j in itertools.combinations(range(w), 2):
        below = chosen[:, i] < chosen[:, j]
        ranks[j] += below
        ranks[i] += ~below
    ranks = ranks[:, np.lexsort(ranks[::-1])]
    new = np.empty(total, dtype=bool)
    new[0] = True
    np.any(ranks[:, 1:] != ranks[:, :-1], axis=0, out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=total)
    return {
        RootedPattern(tuple(row), h + 1): c / total
        for row, c in zip(ranks[:, starts].T.tolist(), counts)
    }


# w = 17, 25 and 41: the codes are re-ranked once, twice and three times
# before the last digit; at n = 60, h = 20 there are 20 windows
@pytest.mark.parametrize("n, h", [(300, 8), (400, 12), (60, 20)])
@pytest.mark.parametrize("roots", ["all", 37])
def test_windows_past_the_int64_code_match_restrict(n, h, roots):
    for seed in range(3):
        p = random_perm(n, 40 + seed)
        if roots == "all":
            centres = range(h + 1, n - h + 1)
        else:
            starts = np.random.default_rng(seed).integers(0, n - 2 * h, size=roots)
            centres = [int(s) + h + 1 for s in starts]
        want = expected_windows(p, h, centres)
        assert_same_law(empirical_window_distribution(p, h, roots, rng=seed), want)


@pytest.mark.parametrize("h", [8, 12])
def test_windows_past_the_int64_code_on_monotone_runs(h):
    # one pattern (or two) fills the whole code space bincount would take
    n = 3 * (2 * h + 1)
    for p in (tuple(range(1, n + 1)), tuple(range(n, 0, -1))):
        want = expected_windows(p, h, range(h + 1, n - h + 1))
        assert_same_law(empirical_window_distribution(p, h), want)
    p = tuple(range(1, n + 1))[: n // 2] + tuple(range(n, n // 2, -1))
    want = expected_windows(p, h, range(h + 1, n - h + 1))
    assert_same_law(empirical_window_distribution(p, h), want)


@pytest.mark.parametrize("roots", ["all", 1, 37])
def test_radius_zero_is_one_pattern_for_every_root_choice(roots):
    for p in (random_perm(9, 5), (1,), np.arange(1, 50)):
        got = empirical_window_distribution(p, 0, roots, rng=2)
        assert_same_law(got, {RootedPattern((1,), 1): np.float64(1.0)})


@pytest.fixture(scope="module")
def window_host():
    return sample_square_approx(10**5, np.random.default_rng(2024))


@pytest.mark.parametrize("h", [1, 2])
def test_windows_match_the_lexsort_kernel_on_a_square(window_host, h):
    p = window_host
    assert_same_law(empirical_window_distribution(p, h), old_window_distribution(p, h))
    assert_same_law(
        empirical_window_distribution(p, h, 5000, rng=9),
        old_window_distribution(p, h, 5000, rng=9),
    )


@pytest.mark.parametrize("h", [3, 4, 7])
def test_windows_match_the_lexsort_kernel_where_codes_outnumber_windows(h):
    # w^w exceeds the window count, so the codes are counted by np.unique
    for p in (sample_square_approx(3000, 3), random_perm(3000, 3)):
        assert_same_law(empirical_window_distribution(p, h), old_window_distribution(p, h))


# ---------------------------------------------------------- inversions


def pair_count(p) -> int:
    a = np.asarray(p)
    return int(np.triu(a[:, None] > a[None, :], 1).sum())


def test_inversions_on_every_small_permutation():
    # every permutation up to size 7 (at sizes 1 and 2 each point is in
    # several record chains) and every square of size 8, where the chains
    # hold every point
    perms = [p for n in range(1, 8) for p in itertools.permutations(range(1, n + 1))]
    for p in perms + enumerate_square(8):
        n = len(p)
        inv = pair_count(p)
        assert _inversion_count(np.asarray(p)) == inv
        if 2 <= n <= 6:
            down = occ_proportion((2, 1), p)
            up = occ_proportion((1, 2), p)
            assert down == Fraction(inv, math.comb(n, 2))
            assert up + down == 1


def test_inversions_on_random_permutations():
    # _inversion_count hands the radix kernel only the points in no record
    # chain, so the kernel is checked here on whole arrays: sizes at and
    # around powers of two, where its passes change
    rng = np.random.default_rng(31)
    sizes = [1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 255, 256, 257, 300]
    sizes += [int(v) for v in rng.integers(2, 301, size=20)]
    for seed, n in enumerate(sizes):
        p = random_perm(n, seed)
        assert _radix_inversions(np.asarray(p)) == pair_count(p)
        assert _inversion_count(np.asarray(p)) == pair_count(p)
        if n >= 2:
            assert occ_proportion((1, 2), p) + occ_proportion((2, 1), p) == 1
    # the identity and the reversal: each point sits in two or more chains
    for n in (1, 2, 17, 256, 300):
        ident = np.arange(1, n + 1)
        for count in (_radix_inversions, _inversion_count):
            assert count(ident) == 0
            assert count(ident[::-1].copy()) == math.comb(n, 2)


def with_internal_points(p, rng, count):
    """``p`` with ``count`` points inserted at random spots in the middle
    half of the grid, where most of them are records of no kind."""
    vals = list(p)
    for _ in range(count):
        n = len(vals)
        x = int(rng.integers(n // 4, 3 * n // 4 + 1))
        y = int(rng.integers(n // 4 + 1, 3 * n // 4 + 2))
        vals = [v + (v >= y) for v in vals]
        vals.insert(x, y)
    return tuple(vals)


@pytest.mark.parametrize("count", [1, 3, 40])
def test_chain_inversions_with_internal_points_inserted(count):
    rng = np.random.default_rng(count)
    for n in (100, 300, 900):
        p = with_internal_points(sample_square_approx(n, rng), rng, count)
        arr = np.asarray(p, dtype=np.int64)
        assert (~np.logical_or.reduce(_record_masks(arr))).any()  # chains and interior mix
        assert _inversion_count(arr) == pair_count(p)


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_chain_inversions_on_sampled_squares(n):
    arr = np.asarray(sample_square_approx(n, n), dtype=np.int64)
    assert _inversion_count(arr) == _radix_inversions(arr)


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


def test_limit_table_has_the_bits_of_the_scalar_measure():
    # == would let -0.0 stand for 0.0; the bits would not
    for G in (3, 64, 256):
        for z in ((0.0, 0.3, 1.0) if G == 256 else (0.0, 1e-300, 0.3, 0.5, 0.77, 1.0)):
            table = _mu_z_grid_cdf(z, G)
            scalar = np.array(
                [[mu_z_rect(z, (0.0, a / G, 0.0, b / G)) for b in range(G + 1)]
                 for a in range(G + 1)]
            )
            assert np.array_equal(table.view(np.uint64), scalar.view(np.uint64))


def old_grid_cdf(p, G):
    """The two-division grid CDF with its full inverse-permutation scatter."""
    vals = np.asarray(p, dtype=np.int64)
    n = vals.size
    pos = np.arange(1, n + 1, dtype=np.int64)
    a_min = (pos * G + n - 1) // n
    b_min = (vals * G + n - 1) // n
    hist = np.bincount(a_min * (G + 1) + b_min, minlength=(G + 1) ** 2)
    dom = hist.reshape(G + 1, G + 1).cumsum(axis=0).cumsum(axis=1)
    grid = np.arange(G + 1, dtype=np.int64)
    k = grid * n // G
    u_star = grid * n - k * G
    col_val = vals[np.minimum(k, n - 1)]
    col_thresh = (col_val * G + n - 1) // n
    inv = np.empty(n, dtype=np.int64)
    inv[vals - 1] = pos
    row_pos = inv[np.minimum(k, n - 1)]
    row_thresh = (row_pos * G + n - 1) // n
    numer = G * G * dom
    numer += (G * u_star)[:, None] * (grid[None, :] >= col_thresh[:, None])
    numer += (G * u_star)[None, :] * (grid[:, None] >= row_thresh[None, :])
    numer += u_star[:, None] * u_star[None, :] * (k[None, :] == (col_val - 1)[:, None])
    return numer, n * G * G


@pytest.fixture(scope="module")
def grid_hosts():
    hosts = [
        sample_square_approx(n, np.random.default_rng((n, 7)))
        for n in (1, 2, 3, 5, 64, 65, 1000, 10**5)
    ]
    hosts += [np.asarray(random_perm(n, 900 + n)) for n in (1, 2, 7, 63, 256, 257, 5000)]
    hosts += [np.arange(1, 101), np.arange(101, 0, -1)]
    return hosts


# n < G for the small hosts: several corners share a cell, and some
# corners cut none
@pytest.mark.parametrize("G", [1, 2, 3, 64, 65, 256])
def test_grid_cdf_matches_the_division_kernel(grid_hosts, G):
    for p in grid_hosts:
        got = grid_cdf(p, G)
        numer, denom = old_grid_cdf(p, G)
        assert got.numer.dtype == np.int64 and got.denom == denom
        assert np.array_equal(got.numer, numer)


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


def old_max_row_pair_spread(diff):
    """The exhaustive loop over the first grid row ``a1``."""
    best = 0.0
    for a1 in range(diff.shape[0] - 1):
        rows = diff[a1 + 1 :] - diff[a1]
        spread = rows.max(axis=1) - rows.min(axis=1)
        best = max(best, float(spread.max()))
    return best


@pytest.fixture(scope="module")
def box_hosts():
    hosts = [
        sample_square_approx(n, np.random.default_rng((n, seed)))
        for n in (10**3, 10**4, 10**5)
        for seed in range(3)
    ]
    hosts += [np.asarray(random_perm(n, 500 + n)) for n in (300, 5000)]
    hosts += [np.arange(1, 2001), np.arange(2001, 0, -1)]
    return hosts


# G + 1 grid rows in blocks of 16: the last block is short for every G
# here but 63
@pytest.mark.parametrize("G", [16, 17, 63, 64, 65, 256])
def test_box_distance_matches_the_exhaustive_loop(box_hosts, G):
    for p in box_hosts:
        own_z = (int(np.flatnonzero(p == 1)[0]) + 1) / p.size
        for z in (0.0, 0.3, 0.5, 1.0, own_z):
            diff = grid_cdf(p, G).table - _mu_z_grid_cdf(z, G)
            assert box_distance_grid(p, z, G) == old_max_row_pair_spread(diff)


def adversarial_tables():
    rng = np.random.default_rng(2024)
    tables = {"zeros": np.zeros((65, 65))}
    for rows in (17, 18, 64, 65, 257):
        tables[f"noise-{rows}"] = rng.random((rows, rows))
        tables[f"cumsum-{rows}"] = rng.standard_normal((rows, rows)).cumsum(0).cumsum(1)
    # every large spread pairs row 64, alone in the short last block, with
    # another row
    spike = rng.random((65, 65)) * 1e-3
    spike[64, 7], spike[64, 40] = 5.0, -5.0
    tables["last-block"] = spike
    return tables


@pytest.mark.parametrize("name", sorted(adversarial_tables()))
def test_row_pair_spread_matches_the_exhaustive_loop_on_adversarial_tables(name):
    diff = adversarial_tables()[name]
    got = _max_row_pair_spread(diff)
    assert type(got) is float
    assert got == old_max_row_pair_spread(diff)
    if name == "zeros":
        assert got == 0.0
    if name == "last-block":
        assert got > 9.0 and old_max_row_pair_spread(diff[:-1]) < 0.01


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
        stats = OldLabelStats(s)
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


# ------------------------------------------------- round-trip oracles


class OldLabelStats:
    """The label tables as first written: one prefix sum and one position
    scan per letter.  Scalar lookups keep numpy's indexing, negative
    indices included."""

    def __init__(self, seq):
        self.sequence, self.n = seq, len(seq)
        self.alphabet = ("D", "U") if set(seq) <= set("DU") else ("L", "R")
        n = self.n
        buf = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
        self._ct, self._pos = {}, {}
        for label in self.alphabet:
            mask = buf == ord(label)
            table = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(mask, out=table[1:])
            where = np.flatnonzero(mask).astype(np.int64) + 1
            padded = np.full(n + 2, n, dtype=np.int64)
            padded[0] = 0
            padded[1 : 1 + where.size] = where
            self._ct[label], self._pos[label] = table, padded

    def count(self, label):
        return int(self._ct[label][-1])

    def ct(self, label, i):
        return int(self._ct[label][i])

    def pos(self, label, i):
        return self.n if i > self.n + 1 else int(self._pos[label][i])

    def ct_table(self, label):
        return self._ct[label]

    def pos_table(self, label):
        return self._pos[label]


def old_petrov_check(stats, n, conditions):
    """The Petrov check run label by label, every condition on its own tables."""
    wanted = sorted(set(conditions))
    nf = float(n)
    t_04, t_06, t_03 = nf**0.4, nf**0.6, nf**0.3
    reach = math.ceil(t_06) - 1
    d_min = math.floor(t_03) + 1
    violations = []
    for label in stats.alphabet:
        m = stats.count(label)
        dev_ct = 2 * stats.ct_table(label) - np.arange(n + 1, dtype=np.int64)
        dev_pos = stats.pos_table(label)[: m + 1] - 2 * np.arange(m + 1, dtype=np.int64)
        for cond in wanted:
            hit = None
            half = 1.0
            if cond == 1:
                half, bound = 2.0, 2 * t_04
                hit = unscreened_window_extremes(dev_ct, reach, bound)
            elif cond == 2:
                hit = encoding._long_range_violation(dev_ct, d_min, 1.0)
                half, bound = 2.0, 0.0
            elif cond == 3:
                bound = t_04
                hit = unscreened_window_extremes(dev_pos, reach, bound)
            elif cond == 4:
                hit = encoding._long_range_violation(dev_pos, d_min, 2.0)
                bound = 0.0
            elif cond == 5:
                k = int(np.argmax(np.abs(dev_ct)))
                hit, half, bound = (k, 0, abs(int(dev_ct[k]))), 2.0, 2 * t_06
            else:
                k = int(np.argmax(np.abs(dev_pos)))
                hit, bound = (k, 0, abs(int(dev_pos[k]))), 2 * t_06
            if hit is None:
                continue
            i, j, dev = hit
            if cond in (2, 4) or dev >= bound:
                violations.append(PetrovViolation(cond, label, i, j, dev / half))
    return PetrovReport(not violations, tuple(violations), tuple(wanted))


def old_build_lambdas(pair):
    """Label matching through index vectors, stacked points and a bincount
    per axis; returns (families, z1, z2, z3)."""
    n = pair.n
    sx, sy = OldLabelStats(pair.x), OldLabelStats(pair.y)
    cd = sx.ct("D", pair.z0)
    z1 = sy.pos("L", cd)
    z2 = sx.pos("U", sy.count("L") - cd)
    z3 = sy.pos("R", sx.count("D") - cd)
    cu = sx.ct("U", z2)
    pos_d, pos_u = sx.pos_table("D"), sx.pos_table("U")
    pos_l, pos_r = sy.pos_table("L"), sy.pos_table("R")
    i1 = np.arange(1, cd + 1, dtype=np.int64)
    i2 = np.arange(1, cu + 1, dtype=np.int64)
    i3 = np.arange(cd + 1, sx.count("D") + 1, dtype=np.int64)
    i4 = np.arange(cu + 1, sx.count("U") + 1, dtype=np.int64)
    fams = (
        np.column_stack((pos_d[i1], pos_l[cd + 1 - i1])),
        np.column_stack((pos_u[i2], pos_l[cd + i2])),
        np.column_stack((pos_d[i3], pos_r[i3 - cd])),
        np.column_stack((pos_u[i4], pos_r[n - cd + 1 - i4])),
    )
    pts = np.concatenate(fams)
    if pts.shape[0] != n:
        raise MatchingFailure("families do not cover every column")
    for axis in (0, 1):
        counts = np.bincount(pts[:, axis], minlength=n + 1)
        if counts[0] != 0 or not (counts[1:] == 1).all():
            raise MatchingFailure("label matching is not a bijection")
    return fams, int(z1), int(z2), int(z3)


def old_reconstruct(pair):
    fams, *_ = old_build_lambdas(pair)
    return old_permutation(fams, pair.n)


def old_permutation(fams, n):
    pts = np.concatenate(fams)
    out = np.empty(n, dtype=np.int64)
    out[pts[:, 0] - 1] = pts[:, 1]
    return out


def old_record_masks(arr):
    lrmax = arr == np.maximum.accumulate(arr)
    lrmin = arr == np.minimum.accumulate(arr)
    rev = arr[::-1]
    rlmax = (rev == np.maximum.accumulate(rev))[::-1]
    rlmin = (rev == np.minimum.accumulate(rev))[::-1]
    return lrmax, lrmin, rlmax, rlmin


def old_extract_families(p):
    arr = _as_value_array(p)
    n = arr.size
    lrmax, lrmin, rlmax, rlmin = old_record_masks(arr)
    if not (lrmax | lrmin | rlmax | rlmin).all():
        raise ValueError("permutation is not square")
    z0 = int(np.flatnonzero(arr == 1)[0]) + 1
    if not z0 > _assumption_floor(n):
        raise AnchorAssumptionError(
            f"anchor z0={z0} must exceed n/2 + 10 n^0.6 = {_assumption_floor(n):.2f}"
        )
    cols = np.arange(1, n + 1, dtype=np.int64)
    dr = np.column_stack((cols[rlmin], arr[rlmin]))
    dl_keep = lrmin & (arr <= n - z0 + 1)
    dl = np.column_stack((cols[dl_keep][::-1], arr[dl_keep][::-1]))
    ur_keep = rlmax & (cols >= z0)
    ur = np.column_stack((cols[ur_keep], arr[ur_keep]))
    return (
        PointFamily("DR", dr),
        PointFamily("DL", dl),
        PointFamily("UR", ur, first_index=1),
    )


def assert_same_int_table(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def outcome(f, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, MatchingFailure) as exc:
        return type(exc), str(exc)


def assert_same_matching(pair):
    """reconstruct and build_lambdas agree with the oracle, failures
    included; returns the oracle's permutation, or None where it fails."""
    want = outcome(old_build_lambdas, pair)
    got = outcome(build_lambdas, pair)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        assert outcome(reconstruct, pair) == want
        return None
    fams, z1, z2, z3 = want
    got_fams = (got.lambda1, got.lambda2, got.lambda3, got.lambda4)
    for g, w in zip(got_fams, fams):
        assert_same_int_table(g, w)
    assert (got.z1, got.z2, got.z3) == (z1, z2, z3)
    assert all(type(z) is int for z in (got.z1, got.z2, got.z3))
    perm = old_permutation(fams, pair.n)
    assert_same_int_table(reconstruct(pair), perm)
    return perm


def good_pairs(n):
    """Every good pair of size n."""
    for xm in itertools.product("DU", repeat=n - 2):
        x = "D" + "".join(xm) + "D"
        for ym in itertools.product("LR", repeat=n - 2):
            y = "L" + "".join(ym) + "L"
            for z0 in range(1, n + 1):
                if x[z0 - 1] == "D":
                    yield AnchoredPair(x, y, z0)


def test_matching_agrees_on_every_good_pair_up_to_8():
    seen = failed = 0
    for n in range(3, 9):
        for pair in good_pairs(n):
            seen += 1
            failed += assert_same_matching(pair) is None
    assert seen == sum(count_good_pairs(n) for n in range(3, 9)) == 26394
    assert failed == 7158  # irregular pairs, failing in both versions


@pytest.mark.parametrize("n", [17, 1000, 20000])
def test_matching_agrees_on_seeded_pairs(n):
    rng = np.random.default_rng(n)
    pairs = [sample_good(n, rng) for _ in range(6)]  # mostly irregular
    pairs += [sample_conditioned(n, z0, rng)[0] for z0 in (1, n // 3, n // 2, n)]
    if n >= 1024:
        pairs += [sample_regular(n, rng)[0] for _ in range(3)]
    # a regular pair with its anchor moved to every other D column nearby
    base = pairs[-1]
    for z0 in range(max(1, base.z0 - 6), min(n, base.z0 + 6) + 1):
        if base.x[z0 - 1] == "D":
            pairs.append(AnchoredPair(base.x, base.y, z0))
    results = [assert_same_matching(pair) is not None for pair in pairs]
    assert any(results)
    if n < 20000:
        assert not all(results)


# the unpadded matching and the square draw's column-wise check


def old_square_of(pair, p):
    """``(p, masks)`` for the preimage of a good pair, or None, from the
    oracle matching's permutation ``p`` of it (None where that fails):
    the permutation projected again and compared as masks with the pair."""
    if p is None:
        return None
    masks = old_record_masks(p)
    if not np.logical_or.reduce(masks).all():
        return None
    is_min, is_left, z0 = encoding._label_masks(p, masks)
    same = (
        z0 == pair.z0
        and np.array_equal(is_min, pair.x_is_d)
        and np.array_equal(is_left, pair.y_is_l)
    )
    return (p, masks) if same else None


def reaches_the_top_branch(pair):
    """The label counts of the one matching that reads past a table: the
    U columns up to z2 would take one L row more than there are U columns."""
    cd = int(pair.x_is_d[: pair.z0].sum())
    return int(pair.y_is_l.sum()) - cd == int((~pair.x_is_d).sum()) + 1


def assert_same_round_trip(pair, got):
    """The draw's round trip, ``got = sampler._square_of(pair)``, agrees
    with the oracle matching and re-projection: accept or reject, the
    permutation and its four record masks.  ``reconstruct`` and
    ``build_lambdas`` agree with the oracle too (see
    :func:`assert_same_matching`), and an accepted pair takes the branch
    that reads past a table exactly when p(n) = n, which gives z2 = n."""
    want = old_square_of(pair, assert_same_matching(pair))
    assert (got is None) == (want is None)
    if got is None:
        return
    p, masks = want
    assert got[0] is pair
    assert_same_int_table(got[1], p)
    for g, w in zip(got[2], masks, strict=True):
        assert g.dtype == w.dtype == bool and np.array_equal(g, w)
    top = p[-1] == pair.n
    assert top == reaches_the_top_branch(pair) == (build_lambdas(pair).z2 == pair.n)


@pytest.mark.parametrize("n", [1000, 10_000])
def test_round_trip_matches_the_padded_kernel_on_seeded_pairs(n):
    rng = np.random.default_rng(n + 18)
    pairs = [sample_good(n, rng) for _ in range(1000)]
    # at the end anchors and next to them few pairs are squares' projections:
    # raw draws there, mostly rejected, and accepted anchored draws
    for z0 in (1, 2, n - 1, n):
        pairs += [sampler._draw_pair(rng, n, z0) for _ in range(20)]
        pairs += [sampler._sample_square(n, rng, z0)[0][0] for _ in range(2)]
    results = []
    for pair in pairs:
        got = sampler._square_of(pair)
        assert_same_round_trip(pair, got)
        results.append(got is not None)
    assert 0 < results.count(False) < len(pairs) // 4
    # the two accepted draws close each anchor's group of 22
    anchored = [r for i, r in enumerate(results[1000:]) if i % 22 >= 20]
    assert len(anchored) == 8 and all(anchored)


def test_an_accepted_draw_builds_its_label_tables_on_demand():
    (pair, _, _), _ = sampler._sample_square(5000, sampler.replicate_rng(3, 0), 3000)
    assert {"x_stats", "y_stats"}.isdisjoint(pair.__dict__)  # the draw built no tables
    for got, want in ((pair.x_stats, LabelStats(pair.x)), (pair.y_stats, LabelStats(pair.y))):
        for label in want.alphabet:
            assert_same_int_table(got.pos_table(label), want.pos_table(label))
            assert got.count(label) == want.count(label)
    # a pair whose tables are built matches as one that has none
    again = AnchoredPair(pair.x, pair.y, pair.z0)
    assert again.x_stats.n == again.y_stats.n == pair.n
    assert_same_int_table(reconstruct(again), reconstruct(pair))


@pytest.mark.parametrize("n", [*range(1, 10), 1000, 1001, 1002, 1003, 10**6])
def test_label_words_draw_the_byte_stream_of_the_uint8_draw(n):
    # one 32-bit word per four labels, least significant byte first; the
    # scalar draws between masks read the bit generator's buffered half word
    got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
    for forced in ((), (1, n), (1, n, (n + 1) // 2), (1, n), ()):
        got = sampler._random_label_mask(got_rng, n, forced)
        want = want_rng.integers(0, 2, size=n, dtype=np.uint8) == 0
        want[[i - 1 for i in forced]] = True
        assert got.dtype == bool and got.shape == (n,)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.integers(0, 2) == want_rng.integers(0, 2)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# label tables


def label_edge_strings():
    out = ["D", "U", "L", "R", "DU", "UD", "LR", "RL", "D" * 9, "U" * 9, "L" * 9]
    rng = np.random.default_rng(5)
    for n in (3, 10, 101, 5000):
        for alphabet in ("DU", "LR"):
            for p_low in (0.5, 0.1, 0.9):
                bits = (rng.random(n) >= p_low).astype(np.intp)
                out.append("".join(alphabet[b] for b in bits))
    return out


def test_label_tables_match_the_oracle():
    for seq in label_edge_strings():
        assert_same_label_tables(seq)


def assert_same_label_tables(seq):
    got, want = LabelStats(seq), OldLabelStats(seq)
    assert got.alphabet == want.alphabet and got.n == want.n
    n = len(seq)
    for label in got.alphabet:
        table = got.pos_table(label)
        assert_same_int_table(table, want.pos_table(label))
        assert not table.flags.writeable
        assert got.count(label) == want.count(label)
        assert_same_int_table(got.positions(label), want.pos_table(label)[1 : 1 + want.count(label)])
        for i in range(-n - 2, n + 4):
            assert outcome(got.pos, label, i) == outcome(want.pos, label, i)
        for i in range(-n - 1, n + 1):
            assert got.ct(label, i) == want.ct(label, i)


def test_counts_match_the_oracle_from_the_positions():
    for seq in label_edge_strings():
        got, want = LabelStats(seq), OldLabelStats(seq)
        n = len(seq)
        for label in got.alphabet:
            assert got.count(label) == want.count(label)
            for i in range(-n - 1, n + 1):
                assert got.ct(label, i) == want.ct(label, i)
            for i in (n + 1, -n - 2):
                with pytest.raises(IndexError):
                    want.ct(label, i)
                with pytest.raises(IndexError):
                    got.ct(label, i)


# Petrov check


def petrov_strings(n, seed):
    """X and Y strings failing conditions (1), (2) and (5) for both letters,
    as well as fair and slightly drifting ones."""
    rng = np.random.default_rng(seed)
    out = []
    for alphabet in ("DU", "LR"):
        lo, hi = alphabet
        half = n // 2
        out.append(lo * half + hi * (n - half))  # every count condition fails
        out.append(hi * half + lo * (n - half))
        run = max(2, int(n**0.5))
        blocks = (lo * run + hi * run) * (n // (2 * run) + 1)
        out.append(blocks[:n])  # window conditions fail, global ones hold
        for p_low in (0.5, 0.5, 0.45, 0.6):
            bits = (rng.random(n) >= p_low).astype(np.intp)
            out.append("".join(alphabet[b] for b in bits))
    return out


@pytest.mark.parametrize("n", [5, 17, 64, 1000, 20000])
def test_petrov_report_matches_the_per_label_oracle(n):
    hit = set()
    for s in petrov_strings(n, n):
        for conditions in (
            ALL_PETROV_CONDITIONS, (1, 5, 6), (1,), (2,), (5,), (3, 4, 6), (5, 6), (6,)
        ):
            got = petrov_check(LabelStats(s), n, conditions)
            want = old_petrov_check(OldLabelStats(s), n, conditions)
            assert got == want
            assert [type(f) for v in got.violations for f in v] == [
                type(f) for v in want.violations for f in v
            ]
            hit.update((v.condition, v.label) for v in got.violations)
    if n >= 64:
        # every count condition fails for both letters of both alphabets
        for label in "DULR":
            assert {(1, label), (2, label), (5, label)} <= hit


@pytest.mark.parametrize("n", [5, 64, 2000, 20000])
def test_position_deviations_never_exceed_the_count_deviations(n):
    # |pos(i) - 2i| = |2 ct(k) - k| at k = pos(i), so (5) passing implies (6)
    for s in petrov_strings(n, n) + label_strings(n, n):
        stats = OldLabelStats(s)
        for label in stats.alphabet:
            m = stats.count(label)
            dev_pos = stats.pos_table(label)[: m + 1] - 2 * np.arange(m + 1)
            dev_ct = 2 * stats.ct_table(label) - np.arange(n + 1)
            assert np.array_equal(dev_pos, -dev_ct[stats.pos_table(label)[: m + 1]])
            assert np.abs(dev_pos).max() <= np.abs(dev_ct).max()


def test_petrov_walk_is_int32_below_two_to_the_thirty():
    # the walk 2 ct(i) - i lies in [-n, n]; its spreads reach 2n
    for n, dtype in ((2**30 - 1, np.int32), (2**30, np.int64), (2**31, np.int64)):
        assert encoding._walk_dtype(n) is dtype
    assert 2 * (2**30 - 1) <= np.iinfo(np.int32).max < 2 * 2**30


def test_petrov_check_refuses_a_size_other_than_the_length():
    with pytest.raises(ValueError, match="differs from the sequence length"):
        petrov_check(LabelStats("DUDU" * 4), 15)


# record masks and fluctuation families


def test_record_masks_match_the_oracle():
    perms = [np.array(p, dtype=np.int64) for n in range(1, 8)
             for p in itertools.permutations(range(1, n + 1))]
    perms += [np.asarray(random_perm(n, n)) for n in (100, 1001)]
    for arr in perms:
        want = old_record_masks(arr)
        for got, w in zip(_record_masks(arr), want):
            assert got.dtype == w.dtype == bool
            assert np.array_equal(got, w)
        r = records(arr.tolist())
        assert (r.lrmax, r.lrmin, r.rlmax, r.rlmin) == tuple(
            frozenset((np.flatnonzero(w) + 1).tolist()) for w in want
        )
        square = bool((want[0] | want[1] | want[2] | want[3]).all())
        assert is_square(tuple(arr.tolist())) is square
        got = outcome(_square_records, arr)
        if square:
            assert np.array_equal(got[0], arr) and got[0].dtype == np.int64
            for g, w in zip(got[1], want):
                assert np.array_equal(g, w)
        else:
            assert got == (ValueError, "permutation is not square")


def old_window_separates(arr, hi_mask, lo_mask, i, h):
    window = slice(i - h - 1, i + h)
    vals = arr[window]
    hi = vals[hi_mask[window]]
    lo = vals[lo_mask[window]]
    m_hi = hi.min() if hi.size else math.inf
    m_lo = lo.max() if lo.size else -math.inf
    return m_hi > m_lo


def old_separating_line_exists(p, i, h):
    """The explicit window test: smallest high value against largest low."""
    arr = _as_value_array(p)
    n = arr.size
    lrmax, lrmin, rlmax, rlmin = old_record_masks(arr)
    if not (lrmax | lrmin | rlmax | rlmin).all():
        raise ValueError("permutation is not square")
    z0 = int(np.flatnonzero(arr == 1)[0]) + 1
    z2 = int(np.flatnonzero(arr == n)[0]) + 1
    if z0 < z2:
        if not z0 + h <= i <= z2 - h:
            raise ValueError(f"root {i} outside [{z0 + h}, {z2 - h}]")
        hi_mask, lo_mask = lrmax, rlmin
    else:
        if not z2 + h <= i <= z0 - h:
            raise ValueError(f"root {i} outside [{z2 + h}, {z0 - h}]")
        hi_mask, lo_mask = rlmax, lrmin
    return old_window_separates(arr, hi_mask, lo_mask, i, h)


@pytest.mark.parametrize("h", [0, 1, 2])
def test_separating_lines_match_the_window_oracle_on_every_small_permutation(h):
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            verdicts = []
            for i in range(0, n + 2):
                want = outcome(old_separating_line_exists, p, i, h)
                assert outcome(separating_line_exists, p, i, h) == want
                if not isinstance(want, tuple):
                    verdicts.append(want)
            rate = outcome(separating_failure_rate, p, h)
            if verdicts:
                assert rate == float(1.0 - np.mean(verdicts))
            elif outcome(old_separating_line_exists, p, 1, h) == (
                ValueError, "permutation is not square"
            ):
                assert rate == (ValueError, "permutation is not square")
            else:
                assert rate == (ValueError, "no valid roots at this radius")


@pytest.mark.parametrize("h", [0, 1, 2])
def test_separating_lines_match_the_window_oracle_on_draws(h):
    rng = np.random.default_rng(h)
    for seed in range(3):
        perm = sample_square_approx(20_000, seed)
        for p in (perm, perm[::-1].copy()):  # both orientations of the anchors
            lrmax, lrmin, rlmax, rlmin = old_record_masks(p)
            z0, z2 = int(np.argmin(p)) + 1, int(np.argmax(p)) + 1
            hi_mask, lo_mask = (lrmax, rlmin) if z0 < z2 else (rlmax, lrmin)
            lo, hi = min(z0, z2) + h, max(z0, z2) - h
            ok = [old_window_separates(p, hi_mask, lo_mask, i, h) for i in range(lo, hi + 1)]
            assert separating_failure_rate(p, h) == float(1.0 - np.mean(ok))
            for i in [lo, hi, *rng.integers(lo, hi + 1, size=200).tolist()]:
                assert separating_line_exists(p, i, h) == ok[i - lo]
            for i in (lo - 1, hi + 1):
                assert outcome(separating_line_exists, p, i, h) == outcome(
                    old_separating_line_exists, p, i, h
                )


def assert_same_families(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert (g.kind, g.scale, g.first_index) == (w.kind, w.scale, w.first_index)
        assert_same_int_table(g.points, w.points)


@pytest.mark.parametrize("n, z0", [(40_000, 26_000), (100_000, 62_000), (100_000, 68_000)])
def test_extract_families_matches_the_oracle_on_conditioned_draws(n, z0):
    for seed in range(2):
        pair, _ = sample_conditioned(n, z0, seed)
        perm = reconstruct(pair)
        want = outcome(old_extract_families, perm)
        assert not isinstance(want[0], type)
        assert_same_families(outcome(extract_families, perm), want)
        assert_same_families(outcome(extract_families, perm.tolist()), want)


def old_rotate_families(pair, families):
    dr, dl, ur = families
    z0, n = pair.z0, pair.n
    x, y = dr.xs(), dr.ys()
    p_dr = np.column_stack((x + y - z0 - 1, y - x + z0 - 1))
    x, y = dl.xs(), dl.ys()
    p_dl = np.column_stack(((z0 - x) + y - 1, (z0 - x) - y + 1))
    x, y = ur.xs(), ur.ys()
    p_ur = np.column_stack((x - y + 2 * n - 3 * z0 + 1, (x + y) - (int(x[0]) + int(y[0]))))
    return (
        PointFamily("P_DR", p_dr, HALF_SQRT2),
        PointFamily("P_DL", p_dl, HALF_SQRT2),
        PointFamily("P_UR", p_ur, HALF_SQRT2, first_index=1),
    )


def old_component_families(pair):
    """The label components through one arange and one column_stack per
    family; the anchor checks are left to the function under test."""
    n, z0 = pair.n, pair.z0
    sx, sy = OldLabelStats(pair.x), OldLabelStats(pair.y)
    pos_d, pos_u = sx.pos_table("D"), sx.pos_table("U")
    pos_l, pos_r = sy.pos_table("L"), sy.pos_table("R")
    cdz, cuz = sx.ct("D", z0), sx.ct("U", z0)
    n_dr = sx.count("D") - cdz + 1
    n_dl = sy.ct("L", n - z0 + 1)
    n_ur = sx.count("U") - cuz + 1
    i = np.arange(n_dr, dtype=np.int64)
    x_dr = np.column_stack((i, -(pos_d[cdz + i] - z0) + 2 * i))
    y_abs = pos_r[i].copy()
    y_abs[0] = 1
    y_dr = np.column_stack((i, y_abs - 1 - 2 * i))
    i = np.arange(n_dl, dtype=np.int64)
    x_dl = np.column_stack((i, (z0 - pos_d[cdz - i]) - 2 * i))
    y_dl = np.column_stack((i, -pos_l[i + 1] + 1 + 2 * i))
    i = np.arange(1, n_ur + 1, dtype=np.int64)
    after_u = pos_u[cuz + i] - z0
    x_ur = np.column_stack((i, after_u - after_u[0] - 2 * i))
    rr = pos_r[n - z0 + 1 - i]
    y_ur = np.column_stack((i, rr - rr[0] + 2 * i))
    kinds = ("X_DR", "Y_DR", "X_DL", "Y_DL", "X_UR", "Y_UR")
    fams = (x_dr, y_dr, x_dl, y_dl, x_ur, y_ur)
    return tuple(PointFamily(k, f, first_index=int(k.endswith("UR"))) for k, f in zip(kinds, fams))


def assert_same_point_families(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.kind, g.scale, g.first_index) == (w.kind, w.scale, w.first_index)
        assert_same_int_table(g.points, w.points)


@pytest.mark.parametrize("n, z0", [(40_000, 26_000), (100_000, 68_000), (100_000, 99_000)])
def test_rotated_and_component_families_match_the_oracles(n, z0):
    for seed in range(2):
        pair, _ = sample_conditioned(n, z0, seed)
        families = extract_families(reconstruct(pair))
        got = rotate_families(pair, families)
        assert_same_point_families(got, old_rotate_families(pair, families))
        assert_same_point_families(component_families(pair), old_component_families(pair))


def test_component_families_match_the_oracle_on_moved_anchors():
    # good pairs with the anchor moved to every D column near the end,
    # most of them irregular
    n = 40_000
    pair, _ = sample_conditioned(n, 30_000, 3)
    x_d = [z for z in range(n - 40, n + 1) if pair.x[z - 1] == "D"]
    compared = 0
    for z0 in x_d + [26_000, 25_727, 25_728]:
        if pair.x[z0 - 1] != "D":
            continue
        moved = AnchoredPair(pair.x, pair.y, z0)
        got = outcome(component_families, moved)
        if isinstance(got[0], type):
            assert z0 <= _assumption_floor(n) or "irregular" in got[1]
            continue
        assert_same_point_families(got, old_component_families(moved))
        compared += 1
    assert compared >= 10


def test_extract_families_fails_like_the_oracle():
    n = 40_000
    pair, _ = sample_conditioned(n, 26_000, 7)
    perm = reconstruct(pair)
    low, _ = sample_conditioned(n, 20_000, 7)  # anchor below n/2 + 10 n^0.6
    swapped = perm.copy()
    swapped[[10, 20]] = swapped[[20, 10]]
    bad_inputs = [
        reconstruct(low),
        swapped,  # an internal point: not square
        np.array([2, 1, 3, 5, 4, 6]),  # square but too small for the anchor
        np.array([3, 1, 4, 2, 5, 7, 6, 8, 9]),
        np.concatenate((perm[:-1], [1])),  # not a permutation
        [1, 2, 2],
        [],
        [[1, 2], [2, 1]],
    ]
    for p in bad_inputs:
        want = outcome(old_extract_families, p)
        assert isinstance(want[0], type)
        assert_same_families(outcome(extract_families, p), want)


def test_label_strings_are_the_letters_of_the_drawn_bits():
    for seed, n in enumerate((3, 10, 1001)):
        pair = sampler._draw_pair(np.random.default_rng(seed), n, 2)
        rng = np.random.default_rng(seed)  # X's bits are drawn first, then Y's
        for got, alphabet, forced in ((pair.x, "DU", (1, n, 2)), (pair.y, "LR", (1, n))):
            bits = rng.integers(0, 2, size=n, dtype=np.uint8)
            bits[[i - 1 for i in forced]] = 0
            assert got == "".join(alphabet[b] for b in bits)


# -------------------------------------------------------- report writer


def integer_edge_arrays():
    rng = np.random.default_rng(11)
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64):
        info = np.iinfo(dtype)
        edges = [0, 1, 9, 10, 99, 100, 101, info.min, info.min + 1, info.max - 1, info.max]
        if info.min < 0:
            edges += [-1, -9, -10, -11, -100]
        a = np.array(edges, dtype=dtype)
        yield a
        yield a[::-1]  # a strided view
        for v in (0, info.min, info.max):
            yield np.array([v], dtype=dtype)
            yield np.full(5, v, dtype=dtype)
        yield np.zeros(0, dtype=dtype)
        yield rng.integers(info.min, info.max, size=500, dtype=dtype, endpoint=True)


@pytest.mark.parametrize("sep", [" ", ", ", ",\n      "])
def test_integer_writer_matches_the_string_join(sep):
    for a in integer_edge_arrays():
        assert "".join(_join_ints(a, sep)) == sep.join(map(str, a.tolist()))


def chunk_edge_arrays(chunk):
    """Arrays whose lengths and signs change at the chunk boundaries."""
    rng = np.random.default_rng(chunk)
    for size in (chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 2):
        yield rng.integers(1, 10**6, size=size)
        yield rng.integers(-(2**63), 2**63 - 1, size=size, endpoint=True)
    # negatives and the widest values only after the first chunk
    tail = [-1, -(2**63), 10**18, -10]
    yield np.array([5] * chunk + tail, dtype=np.int64)
    yield np.array([0] * (chunk + 1) + tail, dtype=np.int64)
    yield np.array([7] * chunk + [2**64 - 1, 0], dtype=np.uint64)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_integer_writer_is_unchanged_by_its_chunk_length(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for sep in (" ", ", ", ",\n      "):
        for a in itertools.chain(integer_edge_arrays(), chunk_edge_arrays(chunk)):
            chunks = list(_join_ints(a, sep))
            assert "".join(chunks) == sep.join(map(str, a.tolist()))
            assert len(chunks) == -(-a.size // chunk)


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


NON_INTEGER_HOSTS = [
    [2.9, 1.2, 3.0],
    np.array([1.9, 2.2, 3.7]),
    [1, 2.0, 3],
    ["1", "2", "3"],
    np.array(["2", "1", "3"]),
    [True],
    np.array([True, False, True]),
]


@pytest.mark.parametrize("host", NON_INTEGER_HOSTS, ids=repr)
def test_measures_refuse_non_integer_hosts(host):
    with pytest.raises(ValueError, match="not a permutation of 1..[0-9]+$"):
        _as_value_array(host)
    with pytest.raises(ValueError, match="not a permutation"):
        occ_proportion((1,), host)
    with pytest.raises(ValueError, match="not a permutation"):
        empirical_window_distribution(host, 0)
    with pytest.raises(ValueError, match="not a permutation"):
        grid_cdf(host, 4)
    with pytest.raises(ValueError, match="not a permutation"):
        box_distance_grid(host, 0.5, 4)


def test_integer_hosts_of_any_width_are_accepted():
    want = occ_proportion((1, 2), (2, 4, 1, 3))
    hosts = [(2, 4, 1, 3), [2, 4, 1, 3], [np.int32(v) for v in (2, 4, 1, 3)]]
    hosts += [np.array([2, 4, 1, 3], dtype=t) for t in (np.int8, np.uint16, np.int32, np.uint64)]
    for host in hosts:
        assert occ_proportion((1, 2), host) == want
        assert _as_value_array(host).dtype == np.int64
    arr = np.array([2, 4, 1, 3], dtype=np.int64)
    assert _as_value_array(arr) is arr  # no copy
    with pytest.raises(ValueError, match="not a permutation"):
        _as_value_array(np.array([2**64 - 1, 1], dtype=np.uint64))


@pytest.mark.parametrize("measure", [occ_proportion, coc_proportion])
def test_pattern_proportions_reject_bad_hosts(measure):
    with pytest.raises(ValueError, match="pattern larger"):
        measure((1, 2, 3), (2, 1))
    for bad in ((1, 1, 2), (0, 1, 2), (1, 2, 4), ()):
        with pytest.raises(ValueError):
            measure((1, 2), bad)
    with pytest.raises(ValueError, match="not a permutation"):
        measure((1, 3), (1, 2, 3))
