"""Record sets, the square class, enumeration, and pattern proportions."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from squareperm import (
    coc_proportion,
    count_good_pairs,
    count_square_formula,
    enumerate_square,
    inverse,
    is_square,
    occ_proportion,
    pattern_at,
    records,
)

perms = lambda n: st.permutations(range(1, n + 1))
small_perms = st.integers(min_value=1, max_value=7).flatmap(perms)

# Independently computed: 2(n+2)4^(n-3) - 4(2n-5) C(2n-6, n-3) for n >= 3.
SQUARE_COUNTS = {3: 6, 4: 24, 5: 104, 6: 464, 7: 2088, 8: 9392, 9: 42064}


def test_formula_matches_frozen_counts():
    for n, count in SQUARE_COUNTS.items():
        assert count_square_formula(n) == count
    # below n=3 the closed form breaks down, so it refuses
    with pytest.raises(ValueError):
        count_square_formula(2)


def test_good_pair_count_is_the_dominant_term():
    for n in range(3, 12):
        assert count_good_pairs(n) == 2 * (n + 2) * 4 ** (n - 3)
    # the formula is the pair count minus the overcount correction
    assert count_square_formula(9) == count_good_pairs(9) - 4 * 13 * 924


def test_enumeration_agrees_with_formula(squares_by_n):
    assert len(squares_by_n[1]) == 1 and len(squares_by_n[2]) == 2
    for n, members in squares_by_n.items():
        if n >= 3:
            assert len(members) == count_square_formula(n)
        assert len(set(members)) == len(members)  # no duplicates
        assert all(is_square(p) for p in members)


def test_every_non_member_has_an_internal_point(squares_by_n):
    import itertools

    for n in (4, 5):
        member = set(squares_by_n[n])
        for p in itertools.permutations(range(1, n + 1)):
            r = records(p)
            covered = r.lrmax | r.lrmin | r.rlmax | r.rlmin
            if p in member:
                assert covered == set(range(1, n + 1))
            else:
                assert covered != set(range(1, n + 1))


def test_records_frozen_example():
    r = records((2, 4, 1, 3))
    assert r.lrmax == {1, 2}
    assert r.lrmin == {1, 3}
    assert r.rlmax == {2, 4}
    assert r.rlmin == {3, 4}


def test_known_non_square():
    # position 3 holds value 3 with larger and smaller values on both sides
    assert not is_square((2, 5, 3, 1, 4))


@given(small_perms)
def test_records_cover_extremes(p):
    r = records(p)
    n = len(p)
    assert 1 in r.lrmax and 1 in r.lrmin
    assert n in r.rlmax and n in r.rlmin
    assert p.index(max(p)) + 1 in r.lrmax and p.index(max(p)) + 1 in r.rlmax
    assert p.index(min(p)) + 1 in r.lrmin and p.index(min(p)) + 1 in r.rlmin


@given(small_perms)
def test_square_class_has_dihedral_symmetry(p):
    n = len(p)
    rev = tuple(reversed(p))
    comp = tuple(n + 1 - v for v in p)
    inv = inverse(p)
    assert is_square(p) == is_square(rev) == is_square(comp) == is_square(inv)


@given(small_perms)
def test_inverse_is_an_involution(p):
    assert inverse(inverse(p)) == tuple(p)


def test_pattern_at_frozen_example():
    assert pattern_at((8, 7, 5, 3, 2, 4, 6, 1), (2, 4, 7)) == (3, 1, 2)


@given(small_perms, st.data())
def test_pattern_at_is_a_permutation(p, data):
    k = data.draw(st.integers(min_value=1, max_value=len(p)))
    positions = tuple(sorted(data.draw(st.permutations(range(1, len(p) + 1)))[:k]))
    pat = pattern_at(p, positions)
    assert sorted(pat) == list(range(1, k + 1))


def test_occ_frozen_values():
    assert occ_proportion((1, 2), (2, 4, 1, 3)) == Fraction(1, 2)
    assert occ_proportion((2, 1), (2, 4, 1, 3)) == Fraction(1, 2)
    assert occ_proportion((1, 2), (1, 2, 3, 4)) == Fraction(1)


def test_coc_frozen_values():
    assert coc_proportion((2, 1), (2, 4, 1, 3)) == Fraction(1, 4)
    assert coc_proportion((1, 2), (2, 4, 1, 3)) == Fraction(1, 2)


@given(perms(8))
def test_occ_two_point_patterns_partition(p):
    assert occ_proportion((1, 2), p) + occ_proportion((2, 1), p) == 1


@given(perms(7), st.data())
def test_occ_exact_matches_brute_force(p, data):
    import itertools

    k = data.draw(st.integers(min_value=2, max_value=3))
    pi = tuple(data.draw(st.permutations(range(1, k + 1))))
    hits = sum(
        pattern_at(p, c) == pi for c in itertools.combinations(range(1, 8), k)
    )
    total = len(list(itertools.combinations(range(7), k)))
    assert occ_proportion(pi, p) == Fraction(hits, total)


def test_occ_monte_carlo_estimate_tracks_the_exact_value():
    p = tuple(range(1, 101))
    est, se = occ_proportion((1, 2, 3), p, samples=2000, rng=5)
    assert est == 1.0 and se == 0.0  # every triple is increasing


def test_occ_sampled_is_reproducible():
    rng = np.random.default_rng(9)
    p = tuple(int(v) + 1 for v in rng.permutation(60))
    first = occ_proportion((1, 3, 2), p, samples=500, rng=42)
    again = occ_proportion((1, 3, 2), p, samples=500, rng=42)
    other = occ_proportion((1, 3, 2), p, samples=500, rng=43)
    assert first == again
    assert first != other


@pytest.mark.parametrize("samples", [0, -3])
def test_occ_sampled_needs_a_positive_sample_count(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        occ_proportion((1, 3, 2), (2, 4, 1, 3), samples=samples, rng=1)


def test_enumerate_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        enumerate_square(0)
