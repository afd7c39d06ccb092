"""Projection to anchored pairs, reconstruction, and the regularity screen."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from squareperm import (
    MatchingFailure,
    anchors,
    build_lambdas,
    is_regular,
    label_stats,
    margin_ok,
    offsets,
    petrov_check,
    project,
    reconstruct,
    records,
)
from squareperm.encoding import (
    ALL_PETROV_CONDITIONS,
    DEFAULT_PETROV_CONDITIONS,
    AnchoredPair,
)

label_strings = lambda alphabet: st.text(alphabet=alphabet, min_size=1, max_size=40)


def test_projection_frozen_example():
    pair = project((2, 4, 1, 3))
    assert pair == AnchoredPair(x="DUDD", y="LLRL", z0=3)
    assert pair.good
    assert anchors(pair) == (2, 2, 3)


def test_projection_reads_off_the_record_minima(squares_by_n):
    # X marks columns by position: D exactly on left-to-right or
    # right-to-left minima.  Y marks rows by value: L exactly on
    # left-to-right minima, on left-to-right maxima that are not also
    # right-to-left minima, and on the forced end rows 1 and n.
    for p in squares_by_n[6]:
        r = records(p)
        pair = project(p)
        for i, v in enumerate(p, start=1):
            assert (pair.x[i - 1] == "D") == (i in r.lrmin or i in r.rlmin)
            assert (pair.y[v - 1] == "L") == (
                i in r.lrmin or (i in r.lrmax and i not in r.rlmin) or v in (1, 6)
            )
        assert pair.z0 == p.index(1) + 1
        assert pair.good


def test_projection_is_injective_on_squares(squares_by_n):
    for n in (5, 6):
        images = {project(p) for p in squares_by_n[n]}
        assert len(images) == len(squares_by_n[n])


def test_projection_rejects_non_squares():
    with pytest.raises(ValueError):
        project((2, 5, 3, 1, 4))


def test_reconstruction_is_a_partial_inverse(squares_by_n):
    # Reconstruction inverts the projection on every square; it is only
    # partial on good pairs, some of which project from no square.
    for n in (4, 5, 6):
        for p in squares_by_n[n]:
            assert tuple(reconstruct(project(p)).tolist()) == p


def test_reconstruction_failure_on_the_all_down_pair():
    pair = AnchoredPair(x="D" * 8, y="L" * 8, z0=1)
    assert pair.good
    with pytest.raises(MatchingFailure):
        reconstruct(pair)


def test_lambda_families_partition_the_points():
    pair = project((2, 4, 1, 3))
    lam = build_lambdas(pair)
    points = np.concatenate(
        [lam.lambda1, lam.lambda2, lam.lambda3, lam.lambda4], axis=0
    )
    assert sorted(points[:, 0].tolist()) == [1, 2, 3, 4]  # each column once
    assert sorted(points[:, 1].tolist()) == [1, 2, 3, 4]  # each value once
    assert (lam.z1, lam.z2, lam.z3) == (2, 2, 3)


@given(label_strings("UD"))
def test_label_stats_prefix_counts(s):
    st_ = label_stats(s)
    n = len(s)
    for i in range(n + 1):
        assert st_.ct("U", i) + st_.ct("D", i) == i
        assert st_.ct("U", i) == s[:i].count("U")
    # pos is the inverse in the Galois sense: the k-th occurrence sits
    # where the prefix count first reaches k
    for label in "UD":
        total = st_.ct(label, n)
        for k in range(1, total + 1):
            i = st_.pos(label, k)
            assert s[i - 1] == label and st_.ct(label, i) == k
        assert st_.pos(label, total + 1) == n  # saturates past the end


@given(label_strings("LR"))
def test_label_stats_row_alphabet(s):
    st_ = label_stats(s)
    assert st_.ct("L", len(s)) == s.count("L")


def test_label_stats_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        label_stats("DL")


def test_offsets_frozen_example():
    e, s = offsets(label_stats("DUDD"))
    assert e.tolist() == [0]
    assert s.tolist() == [-1]


def test_margin_boundaries():
    # n = 1000 leaves no room: n - n^0.9 < n^0.9
    assert not any(margin_ok(1000, z0) for z0 in (1, 250, 500, 750, 1000))
    assert margin_ok(2048, 1024)
    assert not margin_ok(2048, 1)
    assert not margin_ok(2048, 2048)


def test_petrov_screen_frozen_examples():
    flat = label_stats("D" * 16)
    alternating = label_stats("DUDU" * 4)
    assert not petrov_check(flat, 16).passed
    assert petrov_check(alternating, 16).passed
    report = petrov_check(flat, 16)
    assert report.conditions == DEFAULT_PETROV_CONDITIONS
    assert report.violations  # names the failing inequalities


def test_full_petrov_set_is_stricter():
    # conditions 2-4 bound local increments so tightly that a typical
    # uniform string violates them, while the default screen passes it
    assert ALL_PETROV_CONDITIONS == (1, 2, 3, 4, 5, 6)
    rng = np.random.default_rng(0)
    s = "".join(rng.choice(["U", "D"], size=1024))
    st_ = label_stats(s)
    assert petrov_check(st_, 1024, DEFAULT_PETROV_CONDITIONS).passed
    full = petrov_check(st_, 1024, ALL_PETROV_CONDITIONS)
    assert not full.passed
    assert {v.condition for v in full.violations} == {2, 3, 4}


def test_pair_text_and_json_round_trips():
    pair = project((2, 4, 1, 3))
    assert AnchoredPair.from_text(pair.to_text()) == pair
    assert AnchoredPair.from_json_obj(pair.to_json_obj()) == pair


def test_pair_validation():
    with pytest.raises(ValueError):
        AnchoredPair(x="DU", y="LLL", z0=1)  # length mismatch
    with pytest.raises(ValueError):
        AnchoredPair(x="DU", y="LL", z0=3)  # anchor out of range
    # labels are checked as ASCII bytes: lists, bytes and look-alike letters fail
    for x in ("DX", "dU", "DÜ", "D\u0414", ["D", "U"], b"DU"):
        with pytest.raises(ValueError, match="x labels must be U or D"):
            AnchoredPair(x=x, y="LL", z0=1)
    for y in ("LD", "L ", "LŘ", ("L", "L")):
        with pytest.raises(ValueError, match="y labels must be L or R"):
            AnchoredPair(x="DU", y=y, z0=1)


def test_is_regular_requires_margin_and_screen():
    pair = project((2, 4, 1, 3))
    assert not is_regular(pair)  # n=4 sits entirely inside the margin strip
