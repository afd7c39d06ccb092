"""Rooted windows, the window classifier, and local limit probabilities."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from squareperm import (
    build_psi,
    classify_phi,
    e_counts,
    empirical_window_distribution,
    limit_p,
    local_distance,
    map_J,
    quenched_gamma,
    restrict,
    sample_limit_window,
    separating_line_exists,
)
from squareperm.local_limits import (
    RootedPattern,
    WindowLabels,
    e_counts_brute,
    limit_p_even,
    separating_failure_rate,
)

S3 = list(itertools.permutations((1, 2, 3)))
S5 = list(itertools.permutations((1, 2, 3, 4, 5)))
odd_patterns = st.sampled_from([3, 5]).flatmap(
    lambda k: st.permutations(range(1, k + 1))
)


def test_restrict_frozen_examples():
    assert restrict((2, 4, 1, 3), 2, 1) == RootedPattern((2, 3, 1), 2)
    assert restrict((2, 4, 1, 3), 1, 1) == RootedPattern((1, 2), 1)  # clamped
    assert restrict((2, 4, 1, 3), 4, 2) == RootedPattern((3, 1, 2), 3)
    assert restrict((2, 4, 1, 3), 3, 2) == RootedPattern((2, 4, 1, 3), 3)


@given(st.permutations(range(1, 9)), st.integers(1, 8), st.integers(1, 4))
def test_restrict_windows_are_patterns(p, i, h):
    r = restrict(p, i, h)
    k = len(r.pattern)
    assert k <= 2 * h + 1
    assert sorted(r.pattern) == list(range(1, k + 1))
    assert 1 <= r.root <= k
    # away from the boundary the root is centered
    if h + 1 <= i <= 8 - h:
        assert (k, r.root) == (2 * h + 1, h + 1)


def test_local_distance_frozen_values():
    near = restrict((5, 3, 1, 2, 4, 6, 7), 4, 3)
    far = restrict((5, 3, 1, 2, 4, 7, 6), 4, 3)
    assert local_distance(near, near) == 0.0
    assert local_distance(near, far) == 0.25  # agree to radius 2, not 3
    assert local_distance(restrict((1, 2, 3), 2, 1), restrict((3, 2, 1), 2, 1)) == 1.0
    assert local_distance(restrict((1, 2, 3), 1, 1), restrict((1, 2, 3), 2, 1)) == 1.0


def test_local_distance_is_symmetric():
    a = restrict((2, 4, 6, 8, 7, 5, 3, 1), 4, 2)
    b = restrict((1, 2, 3, 5, 4, 7, 6), 4, 2)
    assert local_distance(a, b) == local_distance(b, a)


def test_window_classifier_frozen_tags():
    p = (2, 4, 6, 8, 7, 5, 3, 1)  # z0 = 8, z2 = 4: the decreasing side rules
    tags = [classify_phi(p, i, 1).tag for i in range(1, 9)]
    assert tags == [None, 2, 2, None, 4, 4, 4, None]
    assert classify_phi(p, 2, 1) == WindowLabels(tag=2, d_set=frozenset({1}))
    q = (1, 2, 3, 5, 4, 7, 6)  # z0 = 1, z2 = 6: increasing side
    assert [classify_phi(q, i, 1).tag for i in range(2, 7)] == [1, 1, 1, 1, None]
    assert classify_phi(q, 5, 1).d_set == frozenset({2})


def test_window_builder_frozen_examples():
    assert build_psi(1, {3}, 1) == RootedPattern((2, 3, 1), 2)
    assert build_psi(2, {1}, 1) == RootedPattern((1, 2, 3), 2)
    assert build_psi(4, {1, 2, 3}, 1) == RootedPattern((3, 2, 1), 2)


@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_window_builder_labels_split_monotonically(j, h, data):
    m = 2 * h + 1
    d_set = frozenset(data.draw(st.sets(st.integers(1, m), max_size=m)))
    r = build_psi(j, d_set, h)
    assert len(r.pattern) == m and r.root == h + 1
    lows = [r.pattern[i - 1] for i in sorted(d_set)]
    highs = [r.pattern[i - 1] for i in range(1, m + 1) if i not in d_set]
    # the labeled positions take exactly the low values, each side monotone
    assert sorted(lows) == list(range(1, len(lows) + 1))
    assert lows == (sorted(lows) if j in (1, 3) else sorted(lows, reverse=True))
    assert highs == (sorted(highs) if j in (1, 2) else sorted(highs, reverse=True))


def test_window_builder_composes_with_the_classifier(squares_by_n):
    # on in-scope roots the abstract builder reproduces the actual window
    checked = 0
    for p in squares_by_n[6]:
        for i in range(1, 7):
            labels = classify_phi(p, i, 1)
            if labels.tag is None:
                continue
            if labels.tag in (1, 4) and not separating_line_exists(p, i, 1):
                continue
            assert build_psi(labels.tag, labels.d_set, 1) == restrict(p, i, 1)
            checked += 1
    assert checked > 500  # the scope is not vacuous


def test_separating_line_frozen_examples():
    assert separating_line_exists((1, 2, 3, 5, 4, 7, 6), 5, 1)
    assert not separating_line_exists((1, 2, 3, 4, 5, 6, 7), 2, 1)
    with pytest.raises(ValueError):
        separating_line_exists((2, 4, 1, 3), 2, 1)  # no window between anchors
    assert separating_failure_rate(tuple(range(1, 8)), 1) == 1.0
    assert separating_failure_rate((1, 2, 3, 5, 4, 7, 6), 1) == 0.75
    # a negative radius has an empty window: refused, not a vacuous pass
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        separating_line_exists((1, 2, 3, 5, 4, 7, 6), 5, -1)
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        separating_failure_rate((1, 2, 3, 5, 4, 7, 6), -1)


def test_e_counts_frozen_values():
    assert e_counts((1, 2, 3)) == (4, 2, 2, 0)
    assert e_counts((1, 3, 2)) == (1, 0, 2, 1)
    assert e_counts((3, 2, 1)) == (0, 2, 2, 4)
    assert e_counts((2, 1, 3)) == (1, 2, 0, 1)


@given(odd_patterns)
def test_e_counts_closed_form_matches_brute_force(pi):
    assert e_counts(pi) == e_counts_brute(pi)


def test_limit_probabilities():
    assert limit_p((1, 2, 3)) == Fraction(1, 4)
    assert limit_p((1, 3, 2)) == Fraction(1, 8)
    assert sum(limit_p(pi) for pi in S3) == 1
    with pytest.raises(ValueError):
        limit_p((1, 2))  # even sizes go through the one-point extension
    assert limit_p_even((1, 2)) == Fraction(1, 2)
    assert limit_p_even((2, 1)) == Fraction(1, 2)


def test_quenched_probabilities_are_consistent():
    # at every anchor the window probabilities form a distribution, and
    # averaging the anchor out recovers the annealed limit (both brackets
    # of the formula integrate to 1/4, so the trapezoid rule on the two
    # linear halves is exact)
    for u in (0.0, 0.3, 0.5, 0.7, 1.0):
        assert sum(quenched_gamma(pi, u) for pi in S3) == pytest.approx(1.0)
    for pi in S3 + S5[:20]:
        integral = sum(
            (quenched_gamma(pi, a) + quenched_gamma(pi, b)) / 4
            for a, b in ((0.0, 0.5), (0.5, 1.0))
        )
        assert integral == pytest.approx(float(limit_p(pi)), abs=1e-12)


def test_quenched_frozen_values():
    for u in (0.1, 0.4, 0.8):
        assert quenched_gamma((1, 2, 3), u) == pytest.approx((1 - u) / 2)
        assert quenched_gamma((1, 3, 2), u) == pytest.approx(1 / 8)
    assert quenched_gamma((3, 2, 1), 0.3) == pytest.approx(0.15)


def test_anchor_to_region_frozen_map():
    # region 2 left of both anchors, 3 right of both; between them the
    # orientation picks the diagonal
    assert [map_J(0.3, v) for v in (0.15, 0.5, 0.95)] == [2, 1, 3]
    assert [map_J(0.7, v) for v in (0.15, 0.5, 0.95)] == [2, 4, 3]


def test_limit_window_sampling():
    r = sample_limit_window(1, 2, rng=3)
    assert r == RootedPattern((5, 1, 2, 3, 4), 3)
    again = sample_limit_window(1, 2, rng=3)
    assert again == r
    for j in (1, 2, 3, 4):
        w = sample_limit_window(j, 3, rng=11)
        assert len(w.pattern) == 7 and w.root == 4


def test_empirical_windows_frozen_distribution():
    d = empirical_window_distribution((2, 4, 6, 8, 7, 5, 3, 1), 1)
    assert sum(d.values()) == pytest.approx(1.0)
    as_plain = {(k.pattern, k.root): v for k, v in d.items()}
    assert as_plain == {
        ((1, 2, 3), 2): pytest.approx(2 / 6),
        ((1, 3, 2), 2): pytest.approx(1 / 6),
        ((3, 2, 1), 2): pytest.approx(3 / 6),
    }


def test_empirical_windows_monte_carlo_roots():
    p = tuple(range(1, 101))
    full = empirical_window_distribution(p, 1)
    assert full == {RootedPattern((1, 2, 3), 2): pytest.approx(1.0)}
    sampled = empirical_window_distribution(p, 1, roots=10, rng=4)
    assert sampled == full  # every window of the identity is increasing
