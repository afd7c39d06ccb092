"""Permutons: empirical measures of permutations and their rectangle limit.

A permuton is a probability measure on the unit square with uniform
marginals.  A permutation induces one by spreading mass ``1/n`` uniformly
over each point's cell; square permutations converge to a one-parameter
family ``mu^z`` supported on four segments joining the corners through
``(0, z)``, ``(z, 0)``, ``(1-z, 1)`` and ``(1, 1-z)``.

Rectangle masses are exact for both measures: cell-overlap areas for the
empirical one, segment clipping for the limit.  :func:`grid_cdf` stores
every grid-corner value of the empirical CDF as an integer numerator so
rectangle queries incur no rounding at all, and :func:`box_distance_grid`
maximizes the discrepancy over grid rectangles (a lower bound on the
rectangle-sup distance, short by at most ``4/G``).  That maximum is a
branch and bound over blocks of 16 grid rows: envelope bounds for every
block pair cost O(G^3 / 256), exact row-pair work is spent only on block
pairs whose bound beats the running best (O(G^3) in the worst case), and
memory is O(G^2).  The result equals the exhaustive loop's bit for bit.

>>> mu_z_rect(0.5, (0.0, 0.5, 0.0, 0.5))
0.25
>>> grid_cdf((2, 4, 1, 3), 4).cdf_fraction(2, 2)
Fraction(1, 4)
>>> sample_pattern_mu_z(0.0, 4, 7)
(1, 2, 3, 4)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .core import _as_value_array, as_permutation

__all__ = [
    "GridCdf",
    "Rect",
    "box_distance_grid",
    "grid_cdf",
    "lambda_estimate",
    "mu_sigma_rect",
    "mu_z_rect",
    "sample_pattern_mu_z",
    "sample_point_mu_z",
]


class Rect(NamedTuple):
    """Axis-aligned rectangle ``(a, b) x (c, d)`` inside the unit square."""

    a: float
    b: float
    c: float
    d: float


def _as_rect(r: Rect | Sequence[float]) -> Rect:
    rect = Rect(*(float(v) for v in r))
    if not (0.0 <= rect.a <= rect.b <= 1.0 and 0.0 <= rect.c <= rect.d <= 1.0):
        raise ValueError(f"not a rectangle in the unit square: {rect}")
    return rect


def mu_sigma_rect(p: Sequence[int] | np.ndarray, r: Rect | Sequence[float]) -> float:
    """Mass the empirical permuton of ``p`` gives to a rectangle.

    Each point spreads mass uniformly over its ``1/n x 1/n`` cell, so the
    mass is ``n`` times the total cell-overlap area.  Only the columns
    meeting the rectangle are touched.

    >>> mu_sigma_rect((1, 2), (0.0, 0.5, 0.0, 0.5))
    0.5
    """
    arr = _as_value_array(p)
    n = arr.size
    a, b, c, d = _as_rect(r)
    i_lo = max(0, math.floor(a * n))
    i_hi = min(n, math.ceil(b * n))
    if i_lo >= i_hi:
        return 0.0
    cols = np.arange(i_lo, i_hi, dtype=np.float64)
    vals = arr[i_lo:i_hi].astype(np.float64)
    dx = np.minimum(b, (cols + 1) / n) - np.maximum(a, cols / n)
    dy = np.minimum(d, vals / n) - np.maximum(c, (vals - 1) / n)
    np.clip(dx, 0.0, None, out=dx)
    np.clip(dy, 0.0, None, out=dy)
    return float(n * (dx * dy).sum())


def _segments(z: float) -> tuple[tuple[float, float, float, float], ...]:
    # (x_lo, x_hi, intercept, slope) for y = intercept + slope * x
    return (
        (0.0, z, z, -1.0),
        (0.0, 1.0 - z, z, 1.0),
        (z, 1.0, -z, 1.0),
        (1.0 - z, 1.0, 2.0 - z, -1.0),
    )


def mu_z_rect(z: float, r: Rect | Sequence[float]) -> float:
    """Mass the rectangle permuton gives to a rectangle.

    Each of the four segments carries half its x-projection length;
    clipping the segment by the rectangle in x and in y reduces the mass
    to an interval-intersection length.  Segment endpoints are shared but
    individual points carry no mass, so no double counting arises.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    a, b, c, d = _as_rect(r)
    total = 0.0
    for x_lo, x_hi, c0, s in _segments(z):
        if s > 0:
            y_lo, y_hi = c - c0, d - c0
        else:
            y_lo, y_hi = c0 - d, c0 - c
        lo = max(x_lo, a, y_lo)
        hi = min(x_hi, b, y_hi)
        if hi > lo:
            total += (hi - lo) / 2.0
    return total


@dataclass(frozen=True, eq=False)
class GridCdf:
    """Exact empirical-permuton CDF on a uniform grid.

    ``numer[a, b] / denom`` is the mass of ``[0, a/G] x [0, b/G]``; the
    numerators are integers, so inclusion-exclusion rectangle queries are
    exact.
    """

    G: int  # grid resolution
    numer: np.ndarray  # (G+1, G+1) int64 corner numerators
    denom: int  # n * G**2

    @property
    def table(self) -> np.ndarray:
        return self.numer / self.denom

    def cdf_fraction(self, a: int, b: int) -> Fraction:
        return Fraction(int(self.numer[a, b]), self.denom)

    def rect_mass(self, a1: int, a2: int, b1: int, b2: int) -> Fraction:
        """Exact mass of ``(a1/G, a2/G) x (b1/G, b2/G)``."""
        num = (
            self.numer[a2, b2]
            - self.numer[a1, b2]
            - self.numer[a2, b1]
            + self.numer[a1, b1]
        )
        return Fraction(int(num), self.denom)


def grid_cdf(p: Sequence[int] | np.ndarray, G: int) -> GridCdf:
    """Integrate the empirical permuton of ``p`` at every grid corner.

    Runs in O(n + G^2): grid corners classify each cell as fully inside,
    fully outside, or the single partial column (row), so the bulk is a
    dominance count computed by a 2D histogram prefix sum and the two
    partial strips are rank-one corrections.  The cells fully left of
    the line ``a/G`` are the first ``k[a] = a*n // G``, so the smallest
    corner covering a cell is a step function of its position (or value)
    with no division, and the partial rows are found at the ``G + 1``
    cut values only.
    """
    arr = _as_value_array(p)
    n = arr.size
    if G < 1:
        raise ValueError("grid resolution must be positive")
    grid = np.arange(G + 1, dtype=np.int64)
    k = grid * n // G  # cells fully covered at each corner
    u_star = grid * n - k * G  # width of the single partial cell, in 1/(nG)

    # step[v]: smallest corner index covering cell v (1..n) entirely;
    # step[0] is padding, so values index it directly
    step = np.repeat(grid, np.diff(k, prepend=-1))
    b_min = step[arr]
    hist = np.bincount(step[1:] * (G + 1) + b_min, minlength=(G + 1) ** 2)
    dom = hist.reshape(G + 1, G + 1).cumsum(axis=0).cumsum(axis=1)

    # the cell (value k + 1) cut by each line; where k == n the partial
    # width is 0 and any cell serves
    cut = np.minimum(k, n - 1)
    # column partially cut by the vertical line a/G, and its value
    col_val = arr[cut]
    col_thresh = step[col_val]
    # row partially cut by the horizontal line b/G, and its position
    wanted = np.zeros(n + 1, dtype=bool)
    wanted[cut + 1] = True
    found = np.flatnonzero(wanted[arr])
    row_of = np.zeros(n + 1, dtype=np.int64)
    row_of[arr[found]] = found + 1
    row_thresh = step[row_of[cut + 1]]

    numer = G * G * dom
    numer += (G * u_star)[:, None] * (grid[None, :] >= col_thresh[:, None])
    numer += (G * u_star)[None, :] * (grid[:, None] >= row_thresh[None, :])
    numer += (
        u_star[:, None]
        * u_star[None, :]
        * (k[None, :] == (col_val - 1)[:, None])
    )
    return GridCdf(G=G, numer=numer, denom=n * G * G)


def _mu_z_grid_cdf(z: float, G: int) -> np.ndarray:
    """``mu_z_rect(z, (0, a/G, 0, b/G))`` at every grid corner ``(a, b)``.

    The same segment clipping as :func:`mu_z_rect`, with the same float
    operations in the same order, run on grid arrays; the table matches
    the scalar function bit for bit.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    edge = np.arange(G + 1) / G  # a/G down axis 0, b/G along axis 1
    total = np.zeros((G + 1, G + 1))
    # full-table scratch, reused by every segment
    hi = np.empty_like(total)
    inside = np.empty(total.shape, dtype=bool)
    for x_lo, x_hi, c0, s in _segments(z):
        if s > 0:
            y_lo, y_hi = 0.0 - c0, edge - c0
        else:
            y_lo, y_hi = c0 - edge, c0 - 0.0
        lo = np.maximum(max(x_lo, 0.0), y_lo)
        np.minimum(np.minimum(x_hi, edge)[:, None], y_hi, out=hi)
        np.greater(hi, lo, out=inside)
        np.subtract(hi, lo, out=hi)
        np.divide(hi, 2.0, out=hi)
        # adding 0.0 elsewhere would leave ``total``, never -0.0, as it is
        np.add(total, hi, out=total, where=inside)
    return total


#: grid rows per block of the box-distance branch and bound
_BOX_BLOCK = 16


def _max_row_pair_spread(diff: np.ndarray) -> float:
    """``max`` over row pairs ``a1 < a2`` of ``max_b - min_b`` of
    ``diff[a2] - diff[a1]``, as the exhaustive loop computes it in floats.

    The rows are cut into blocks of ``_BOX_BLOCK``; each block's
    column-wise envelope ``L <= row <= U`` bounds every row pair of a
    block pair ``alpha <= beta`` by ``max fl(U_beta - L_alpha) -
    min fl(L_beta - U_alpha)``.  Rounding is monotone, so this is an
    upper bound on the computed spread of each of those pairs, not just
    on the real one.  Block pairs are resolved exactly, best bound first,
    until the next bound cannot beat the running best.  Inside a
    diagonal block the pairs ``a2 <= a1`` come along: negation is exact,
    so ``(a2, a1)`` repeats the spread of ``(a1, a2)`` and ``a1 == a2``
    gives 0.
    """
    starts = np.arange(0, diff.shape[0], _BOX_BLOCK)
    hi = np.maximum.reduceat(diff, starts, axis=0)
    lo = np.minimum.reduceat(diff, starts, axis=0)
    # block pairs alpha <= beta, alpha-major, bounded one alpha at a time
    alphas, betas = np.triu_indices(starts.size)
    bounds = np.concatenate([
        (hi[alpha:] - lo[alpha]).max(axis=1) - (lo[alpha:] - hi[alpha]).min(axis=1)
        for alpha in range(starts.size)
    ])
    best = 0.0
    for i in np.argsort(-bounds):
        if bounds[i] <= best:
            break
        r1 = diff[starts[alphas[i]] : starts[alphas[i]] + _BOX_BLOCK]
        r2 = diff[starts[betas[i]] : starts[betas[i]] + _BOX_BLOCK]
        rows = r2[None, :, :] - r1[:, None, :]
        spread = rows.max(axis=2) - rows.min(axis=2)
        best = max(best, float(spread.max()))
    return best


def box_distance_grid(p: Sequence[int] | np.ndarray, z: float, G: int) -> float:
    """Largest mass discrepancy over grid rectangles between ``p`` and ``mu^z``.

    A lower bound for the sup over all rectangles: snapping each side to
    the grid moves either measure by at most ``1/G`` per side (uniform
    marginals), so the true sup exceeds this by less than ``4/G``.  Both
    CDF tables are built whole; the sup over ``(a1, a2) x (b1, b2)`` is
    a branch and bound over blocks of 16 grid rows: the block-pair bounds
    take O(G^3 / 256) time, exact work is spent only on block pairs whose
    bound beats the running best (O(G^3) in the worst case; 1 to 32 of
    the 153 block pairs at G = 256 on six sampled squares of size
    10^5), and memory stays O(G^2).
    """
    if G < 2:
        raise ValueError("need at least a 2x2 grid")
    diff = grid_cdf(p, G).table - _mu_z_grid_cdf(z, G)
    return _max_row_pair_spread(diff)


def _sample_points(
    z: float, m: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    cum = np.array([z / 2.0, 0.5, 1.0 - z / 2.0, 1.0])
    segs = np.array(_segments(z))
    idx = np.searchsorted(cum, gen.random(m), side="right")
    x_lo, x_hi = segs[idx, 0], segs[idx, 1]
    x = x_lo + gen.random(m) * (x_hi - x_lo)
    y = segs[idx, 2] + segs[idx, 3] * x
    return x, y


def sample_point_mu_z(
    z: float, rng: np.random.Generator | int | None = None
) -> tuple[float, float]:
    """One point of the rectangle permuton: a segment picked by mass, then
    a uniform point along it."""
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    x, y = _sample_points(z, 1, np.random.default_rng(rng))
    return float(x[0]), float(y[0])


def sample_pattern_mu_z(
    z: float, k: int, rng: np.random.Generator | int | None = None
) -> tuple[int, ...]:
    """Pattern of ``k`` independent points of the rectangle permuton.

    Points are sorted by x and the pattern is the rank order of their
    heights.  Coordinate ties have probability zero; a tied point is
    redrawn outright.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError("z must lie in [0, 1]")
    if k < 1:
        raise ValueError("pattern size must be positive")
    gen = np.random.default_rng(rng)
    xs, ys = _sample_points(z, k, gen)

    def tied(vals: np.ndarray) -> np.ndarray:
        uniq, counts = np.unique(vals, return_counts=True)
        return np.isin(vals, uniq[counts > 1])

    for _ in range(64):
        bad = tied(xs) | tied(ys)
        if not bad.any():
            break
        xs[bad], ys[bad] = _sample_points(z, int(bad.sum()), gen)
    else:
        raise RuntimeError("could not break coordinate ties")
    order = np.argsort(xs)
    ranks = np.argsort(np.argsort(ys[order])) + 1
    return tuple(int(v) for v in ranks)


def lambda_estimate(
    pi: Sequence[int],
    z: float,
    trials: int,
    rng: np.random.Generator | int | None = None,
) -> tuple[float, float]:
    """Monte Carlo frequency of a pattern among rectangle-permuton samples,
    with its binomial standard error."""
    pi = as_permutation(pi)
    if trials < 1:
        raise ValueError("need at least one trial")
    gen = np.random.default_rng(rng)
    hits = sum(sample_pattern_mu_z(z, len(pi), gen) == pi for _ in range(trials))
    est = hits / trials
    return est, math.sqrt(est * (1.0 - est) / trials)
