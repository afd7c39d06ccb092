"""The vectorized estimator kernels against brute-force oracles.

Window counting is checked against ``restrict`` at every root, the k = 2
inversion count against a pair count, consecutive occurrences against
``pattern_at`` over every window, the limit CDF table and the grid
box distance against the scalar ``mu_z_rect`` and explicit maxima over
grid rectangles, and the block-screened Petrov window check against the
min/max filter pair alone.  The round-trip kernels (label tables, the
Petrov check, label matching, record masks and the fluctuation families)
are checked against their earlier straightforward versions, kept here.
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
    extract_families,
    project,
    reconstruct,
    sample_conditioned,
    sample_good,
    sample_regular,
    RootedPattern,
    box_distance_grid,
    coc_proportion,
    count_good_pairs,
    empirical_window_distribution,
    grid_cdf,
    mu_sigma_rect,
    mu_z_rect,
    occ_proportion,
    pattern_at,
    petrov_check,
    restrict,
)
from squareperm import encoding, sampler
from squareperm.core import _as_value_array, _inversion_count
from squareperm.encoding import ALL_PETROV_CONDITIONS, PetrovViolation
from squareperm.fluctuations import AnchorAssumptionError, PointFamily, _assumption_floor
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
    pts = np.concatenate(fams)
    out = np.empty(pair.n, dtype=np.int64)
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
    """reconstruct and build_lambdas agree with the oracle, failures included."""
    want = outcome(old_build_lambdas, pair)
    got = outcome(build_lambdas, pair)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        assert outcome(reconstruct, pair) == want
        return False
    fams, z1, z2, z3 = want
    got_fams = (got.lambda1, got.lambda2, got.lambda3, got.lambda4)
    for g, w in zip(got_fams, fams):
        assert_same_int_table(g, w)
    assert (got.z1, got.z2, got.z3) == (z1, z2, z3)
    assert all(type(z) is int for z in (got.z1, got.z2, got.z3))
    assert_same_int_table(reconstruct(pair), old_reconstruct(pair))
    return True


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
            failed += not assert_same_matching(pair)
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
    results = [assert_same_matching(pair) for pair in pairs]
    assert any(results)
    if n < 20000:
        assert not all(results)


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
        for table, ref in (
            (got.ct_table(label), want.ct_table(label)),
            (got.pos_table(label), want.pos_table(label)),
        ):
            assert_same_int_table(table, ref)
            assert not table.flags.writeable
        assert got.count(label) == want.count(label)
        assert_same_int_table(got.positions(label), want.pos_table(label)[1 : 1 + want.count(label)])
        for i in range(-n - 2, n + 4):
            assert outcome(got.pos, label, i) == outcome(want.pos, label, i)
        for i in range(-n - 1, n + 1):
            assert got.ct(label, i) == want.ct(label, i)


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
        for conditions in (ALL_PETROV_CONDITIONS, (1, 5, 6), (1,), (2,), (5,), (3, 4, 6)):
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


def test_petrov_check_refuses_a_size_other_than_the_length():
    with pytest.raises(ValueError, match="differs from the sequence length"):
        petrov_check(LabelStats("DUDU" * 4), 15)


# record masks and fluctuation families


def test_record_masks_match_the_oracle():
    perms = [np.array(p, dtype=np.int64) for n in range(1, 8)
             for p in itertools.permutations(range(1, n + 1))]
    perms += [np.asarray(random_perm(n, n)) for n in (100, 1001)]
    for arr in perms:
        for got, want in zip(encoding._record_masks(arr), old_record_masks(arr)):
            assert got.dtype == want.dtype == bool
            assert np.array_equal(got, want)


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
        for alphabet, forced in ((("D", "U"), (1, n, 2)), (("L", "R"), (1, n))):
            rng = np.random.default_rng(seed)
            got = sampler._random_label_string(rng, n, alphabet, forced)
            bits = np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)
            bits[[i - 1 for i in forced]] = 0
            assert got == "".join(alphabet[b] for b in bits)


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
