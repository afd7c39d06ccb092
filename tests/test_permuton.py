"""Rectangle permuton measures, grid CDFs, and box-distance estimates."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from squareperm import (
    box_distance_grid,
    grid_cdf,
    lambda_estimate,
    mu_sigma_rect,
    mu_z_rect,
    sample_pattern_mu_z,
    sample_point_mu_z,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
perms = lambda n: st.permutations(range(1, n + 1))


def test_rectangle_measure_frozen_values():
    assert mu_z_rect(0.5, (0, 0.5, 0, 0.5)) == pytest.approx(0.25)
    # z = 0 degenerates to the increasing diagonal, z = 1 to the decreasing
    assert mu_z_rect(0.0, (0, 0.5, 0, 0.5)) == pytest.approx(0.5)
    assert mu_z_rect(1.0, (0, 0.5, 0, 0.5)) == pytest.approx(0.0)
    assert mu_z_rect(1.0, (0, 0.5, 0.5, 1.0)) == pytest.approx(0.5)


@given(unit)
def test_rectangle_measure_is_a_probability(z):
    assert mu_z_rect(z, (0, 1, 0, 1)) == pytest.approx(1.0)


@given(unit, st.tuples(unit, unit))
def test_rectangle_measure_has_uniform_marginals(z, ab):
    a, b = sorted(ab)
    assert mu_z_rect(z, (a, b, 0, 1)) == pytest.approx(b - a, abs=1e-12)
    assert mu_z_rect(z, (0, 1, a, b)) == pytest.approx(b - a, abs=1e-12)


@given(unit, st.tuples(unit, unit, unit), st.tuples(unit, unit))
def test_rectangle_measure_is_additive(z, xs, ys):
    a, c, b = sorted(xs)
    y0, y1 = sorted(ys)
    whole = mu_z_rect(z, (a, b, y0, y1))
    parts = mu_z_rect(z, (a, c, y0, y1)) + mu_z_rect(z, (c, b, y0, y1))
    assert whole == pytest.approx(parts, abs=1e-12)


def test_rectangle_measure_rejects_bad_input():
    with pytest.raises(ValueError):
        mu_z_rect(1.5, (0, 1, 0, 1))
    with pytest.raises(ValueError):
        mu_z_rect(0.5, (0.7, 0.3, 0, 1))


def test_grid_cdf_frozen_example():
    g = grid_cdf((2, 4, 1, 3), 4)
    assert g.cdf_fraction(2, 2) == Fraction(1, 4)
    assert g.rect_mass(0, 2, 0, 2) == Fraction(1, 4)
    assert g.cdf_fraction(4, 4) == Fraction(1)


@given(perms(9), st.integers(min_value=1, max_value=7))
def test_grid_cdf_has_exact_uniform_marginals(p, G):
    g = grid_cdf(p, G)
    for t in range(G + 1):
        assert g.cdf_fraction(t, G) == Fraction(t, G)
        assert g.cdf_fraction(G, t) == Fraction(t, G)


@given(perms(8))
def test_grid_cdf_agrees_with_the_area_measure(p):
    # the grid table is the exact area-measure CDF at grid corners
    G = 4
    g = grid_cdf(p, G)
    for a in range(G + 1):
        for b in range(G + 1):
            exact = mu_sigma_rect(p, (0, a / G, 0, b / G))
            assert float(g.cdf_fraction(a, b)) == pytest.approx(exact, abs=1e-12)


@given(perms(7))
def test_grid_quadrants_partition_the_mass(p):
    g = grid_cdf(p, 6)
    quads = (
        g.rect_mass(0, 3, 0, 3)
        + g.rect_mass(3, 6, 0, 3)
        + g.rect_mass(0, 3, 3, 6)
        + g.rect_mass(3, 6, 3, 6)
    )
    assert quads == Fraction(1)


def test_area_measure_of_the_identity():
    p = tuple(range(1, 5))
    # each point's square contributes fully below the diagonal band
    assert mu_sigma_rect(p, (0, 1, 0, 1)) == pytest.approx(1.0)
    assert mu_sigma_rect(p, (0, 0.25, 0, 0.25)) == pytest.approx(0.25)
    assert mu_sigma_rect(p, (0, 0.25, 0.25, 1.0)) == pytest.approx(0.0)


def test_box_distance_detects_the_right_corner_measure():
    rng = np.random.default_rng(3)
    up = tuple(range(1, 513))
    down = tuple(range(512, 0, -1))
    # the monotone permutations converge to the two degenerate corners
    assert box_distance_grid(up, 0.0, 16) < 0.07
    assert box_distance_grid(down, 1.0, 16) < 0.07
    # and each is far from the opposite corner
    assert box_distance_grid(up, 1.0, 16) > 0.4
    assert box_distance_grid(down, 0.0, 16) > 0.4


@given(perms(12), unit)
def test_box_distance_is_a_bounded_gap(p, z):
    d = box_distance_grid(p, z, 8)
    assert 0.0 <= d <= 1.0


def test_pattern_sampling_at_the_corners():
    assert sample_pattern_mu_z(0.0, 4, rng=7) == (1, 2, 3, 4)
    assert sample_pattern_mu_z(1.0, 4, rng=7) == (4, 3, 2, 1)


def test_pattern_sampling_is_reproducible():
    first = [sample_pattern_mu_z(0.4, 3, rng=np.random.default_rng(11)) for _ in range(5)]
    again = [sample_pattern_mu_z(0.4, 3, rng=np.random.default_rng(11)) for _ in range(5)]
    assert first == again


def test_sampled_points_have_uniform_marginals():
    # mean of 2000 uniform coordinates has sd ~ 0.0065; +/-0.03 is wide
    DRAWS = 2000
    rng = np.random.default_rng(23)
    pts = np.array([sample_point_mu_z(0.37, rng) for _ in range(DRAWS)])
    assert np.all((0 <= pts) & (pts <= 1))
    assert abs(pts[:, 0].mean() - 0.5) < 0.03
    assert abs(pts[:, 1].mean() - 0.5) < 0.03


def test_pattern_probability_estimates():
    est, se = lambda_estimate((1, 2), 0.0, trials=500, rng=5)
    assert est == 1.0 and se == 0.0
    est, se = lambda_estimate((2, 1), 0.0, trials=500, rng=5)
    assert est == 0.0
    # at z = 1/2 the pattern 12 appears with probability 1/2 by symmetry
    est, se = lambda_estimate((1, 2), 0.5, trials=4000, rng=5)
    assert abs(est - 0.5) < 5 * max(se, 1e-3)
