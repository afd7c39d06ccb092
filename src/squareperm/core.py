"""Permutations as point sets: records, square permutations, patterns.

A permutation ``p`` of size ``n`` is a tuple ``(p(1), ..., p(n))``
rearranging ``1..n``.  Identifying it with the point set ``{(i, p(i))}``
inside the ``n x n`` grid, a point is a *record* when it is a running
maximum or minimum seen from the left or from the right.  A permutation is
*square* when every point is a record; non-record points are *internal*.

>>> sorted(records((2, 4, 1, 3)).lrmax)
[1, 2]
>>> is_square((2, 4, 1, 3))
True
>>> pattern_at((8, 7, 5, 3, 2, 4, 6, 1), (2, 4, 7))
(3, 1, 2)

Positions and values are 1-based throughout, matching the grid picture.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RecordSets",
    "coc_proportion",
    "count_good_pairs",
    "count_square_formula",
    "enumerate_square",
    "inverse",
    "is_square",
    "occ_proportion",
    "pattern_at",
    "records",
]

Perm = tuple[int, ...]

#: enumerate_square refuses larger sizes; n! blows past any sane budget.
MAX_ENUMERATION_SIZE = 10

#: Default cap on elementary steps for exact pattern counting.
DEFAULT_WORK_BOUND = 10_000_000


def as_permutation(values: Iterable[int]) -> Perm:
    """Validate and return ``values`` as a permutation tuple.

    >>> as_permutation([2, 4, 1, 3])
    (2, 4, 1, 3)
    >>> as_permutation([1, 3])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..2
    """
    p = tuple(int(v) for v in values)
    n = len(p)
    if n < 1 or sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}")
    return p


def inverse(p: Sequence[int]) -> Perm:
    """Inverse permutation: ``inverse(p)[v-1]`` is the position of value ``v``."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


@dataclass(frozen=True)
class RecordSets:
    """Positions of the four record kinds of a permutation."""

    lrmax: frozenset[int]  # left-to-right maxima
    lrmin: frozenset[int]  # left-to-right minima
    rlmax: frozenset[int]  # right-to-left maxima
    rlmin: frozenset[int]  # right-to-left minima

    @property
    def internal(self) -> frozenset[int]:
        """Positions that are records of no kind."""
        n = max(self.lrmax | self.rlmin)
        return frozenset(range(1, n + 1)) - (
            self.lrmax | self.lrmin | self.rlmax | self.rlmin
        )


def records(p: Sequence[int]) -> RecordSets:
    """Classify every position of ``p`` into its record sets.

    Position 1 is always both a left maximum and a left minimum, and
    symmetrically for position ``n``; a position may appear in several sets.

    >>> r = records((2, 4, 1, 3))
    >>> sorted(r.lrmax), sorted(r.lrmin), sorted(r.rlmax), sorted(r.rlmin)
    ([1, 2], [1, 3], [2, 4], [3, 4])
    """
    p = as_permutation(p)
    n = len(p)
    lrmax, lrmin, rlmax, rlmin = set(), set(), set(), set()
    hi = lo = None
    for i in range(1, n + 1):
        v = p[i - 1]
        if hi is None or v > hi:
            hi = v
            lrmax.add(i)
        if lo is None or v < lo:
            lo = v
            lrmin.add(i)
    hi = lo = None
    for i in range(n, 0, -1):
        v = p[i - 1]
        if hi is None or v > hi:
            hi = v
            rlmax.add(i)
        if lo is None or v < lo:
            lo = v
            rlmin.add(i)
    return RecordSets(
        frozenset(lrmax), frozenset(lrmin), frozenset(rlmax), frozenset(rlmin)
    )


def is_square(p: Sequence[int]) -> bool:
    """True when every point of ``p`` is a record.

    >>> is_square((2, 4, 1, 3))
    True
    >>> is_square((8, 7, 5, 3, 2, 4, 6, 1))
    False
    """
    p = as_permutation(p)
    n = len(p)
    seen = bytearray(n)
    hi = lo = None
    for i in range(n):
        v = p[i]
        if hi is None or v > hi:
            hi = v
            seen[i] = 1
        if lo is None or v < lo:
            lo = v
            seen[i] = 1
    hi = lo = None
    for i in range(n - 1, -1, -1):
        v = p[i]
        if hi is None or v > hi:
            hi = v
            seen[i] = 1
        if lo is None or v < lo:
            lo = v
            seen[i] = 1
    return all(seen)


def pattern_at(p: Sequence[int], positions: Iterable[int]) -> Perm:
    """Pattern induced by ``p`` on a set of positions (standardized values).

    Positions are sorted first, so any iterable of distinct 1-based indices
    works; an interval gives the consecutive pattern.

    >>> pattern_at((8, 7, 5, 3, 2, 4, 6, 1), (2, 4, 7))
    (3, 1, 2)
    >>> pattern_at((1, 5, 3, 2, 4, 6, 7), range(2, 5))
    (3, 2, 1)
    """
    p = tuple(p)
    idx = sorted(set(int(i) for i in positions))
    if not idx:
        raise ValueError("empty position set")
    if idx[0] < 1 or idx[-1] > len(p):
        raise IndexError(f"positions out of range for size {len(p)}")
    vals = [p[i - 1] for i in idx]
    rank = {v: r for r, v in enumerate(sorted(vals), start=1)}
    return tuple(rank[v] for v in vals)


def _as_value_array(p: Sequence[int] | np.ndarray) -> np.ndarray:
    """Validate ``p`` as a permutation of 1..n and return it as int64."""
    arr = np.asarray(p, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("permutation must be a nonempty 1-d sequence")
    counts = np.bincount(arr, minlength=arr.size + 1)
    if counts[0] != 0 or not (counts[1:] == 1).all():
        raise ValueError(f"not a permutation of 1..{arr.size}")
    return arr


def _inversion_count(arr: np.ndarray) -> int:
    """Number of pairs ``i < j`` with ``arr[i] > arr[j]`` (exact).

    ``arr`` is a permutation of 1..n.  An MSD radix sort on the values
    ``v = arr - 1``, one vector pass per bit: before the pass for bit
    ``b``, ``cur`` lists the values ordered by ``(v >> (b+1), position)``.
    Since the values are exactly 0..n-1, the group of prefix ``P`` starts
    at index ``P << (b+1)``.  Each value with bit ``b`` clear is inverted
    with the earlier values of its group that have the bit set; a stable
    partition by the bit then refines the order for the next pass.
    """
    cur = arr - 1
    idx = np.arange(cur.size)
    inv = 0
    for b in reversed(range((cur.size - 1).bit_length())):
        base = (cur >> (b + 1)) << (b + 1)
        bit = (cur >> b) & 1
        ones = np.cumsum(bit) - bit  # set bits strictly before each index
        ones_before = ones - ones[base]  # ... within the same group
        clear = bit == 0
        inv += int(ones_before[clear].sum())
        dest = np.where(clear, idx - ones_before, base + (1 << b) + ones_before)
        nxt = np.empty_like(cur)
        nxt[dest] = cur
        cur = nxt
    return inv


def occ_proportion(
    pi: Sequence[int],
    p: Sequence[int],
    samples: int | None = None,
    rng: np.random.Generator | int | None = None,
    work_bound: int = DEFAULT_WORK_BOUND,
) -> Fraction | tuple[float, float]:
    """Proportion of k-subsets of positions of ``p`` inducing pattern ``pi``.

    Exact counting (a :class:`~fractions.Fraction`) runs when the estimated
    work fits under ``work_bound`` elementary steps; patterns of size one
    and two always count exactly, the latter through an O(n log n)
    inversion count.  Passing ``samples`` switches to a Monte Carlo
    estimate over uniform k-subsets and returns ``(estimate,
    standard_error)`` instead.

    >>> occ_proportion((1, 2), (2, 4, 1, 3))
    Fraction(1, 2)
    >>> occ_proportion((1,), (2, 4, 1, 3))
    Fraction(1, 1)
    """
    pi = as_permutation(pi)
    arr = _as_value_array(p)
    k, n = len(pi), arr.size
    if k > n:
        raise ValueError("pattern larger than host permutation")

    if samples is not None:
        if samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(rng)
        target = np.asarray(pi)
        hits = 0
        for _ in range(int(samples)):
            idx = np.sort(rng.choice(n, size=k, replace=False))
            vals = arr[idx]
            if np.array_equal(np.argsort(np.argsort(vals)) + 1, target):
                hits += 1
        est = hits / samples
        err = math.sqrt(est * (1.0 - est) / samples)
        return est, err

    total = math.comb(n, k)
    if k == 1:
        return Fraction(1)
    if k == 2:
        inv = _inversion_count(arr)
        count = inv if pi == (2, 1) else total - inv
        return Fraction(count, total)
    if total * k > work_bound:
        raise ValueError(
            f"exact occurrence count needs {total * k} steps, over the "
            f"bound {work_bound}; pass samples= for a Monte Carlo estimate"
        )
    p = tuple(arr.tolist())
    count = 0
    for idx in itertools.combinations(range(n), k):
        vals = [p[i] for i in idx]
        rank = {v: r for r, v in enumerate(sorted(vals), start=1)}
        if tuple(rank[v] for v in vals) == pi:
            count += 1
    return Fraction(count, total)


def coc_proportion(pi: Sequence[int], p: Sequence[int]) -> Fraction:
    """Consecutive-occurrence proportion: windows inducing ``pi``, over n.

    The denominator is the size of ``p``, not the window count, so the
    proportions of all patterns of one size sum to ``(n-k+1)/n``.  The
    window at ``i`` induces ``pi`` exactly when its entries, read in the
    order ``argsort(pi)``, increase: ``k - 1`` comparisons of shifted
    slices.

    >>> coc_proportion((2, 1), (2, 4, 1, 3))
    Fraction(1, 4)
    >>> coc_proportion((3, 2, 1), (1, 5, 3, 2, 4, 6, 7))
    Fraction(1, 7)
    """
    pi = as_permutation(pi)
    arr = _as_value_array(p)
    k, n = len(pi), arr.size
    if k > n:
        raise ValueError("pattern larger than host permutation")
    m = n - k + 1  # number of windows
    # offsets of the window entries in increasing order of value
    offsets = np.argsort(pi).tolist()
    match = np.ones(m, dtype=bool)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        match &= arr[lo : lo + m] < arr[hi : hi + m]
    return Fraction(int(np.count_nonzero(match)), n)


def _square_mask(block: np.ndarray) -> np.ndarray:
    """Boolean mask of the square rows of a block of permutations."""
    lrmax = block == np.maximum.accumulate(block, axis=1)
    lrmin = block == np.minimum.accumulate(block, axis=1)
    rev = block[:, ::-1]
    rlmax = (rev == np.maximum.accumulate(rev, axis=1))[:, ::-1]
    rlmin = (rev == np.minimum.accumulate(rev, axis=1))[:, ::-1]
    return (lrmax | lrmin | rlmax | rlmin).all(axis=1)


def enumerate_square(n: int) -> list[Perm]:
    """All square permutations of size ``n``, in lexicographic order.

    A brute-force oracle: filters the full symmetric group, so ``n`` is
    capped at :data:`MAX_ENUMERATION_SIZE`.

    >>> len(enumerate_square(3)), len(enumerate_square(4))
    (6, 24)
    """
    if not 1 <= n <= MAX_ENUMERATION_SIZE:
        raise ValueError(f"enumeration supported for 1 <= n <= {MAX_ENUMERATION_SIZE}")
    out: list[Perm] = []
    chunk = 200_000
    gen = itertools.permutations(range(1, n + 1))
    while True:
        block = list(itertools.islice(gen, chunk))
        if not block:
            break
        mask = _square_mask(np.array(block, dtype=np.int64))
        out.extend(itertools.compress(block, mask))
    return out


def count_square_formula(n: int) -> int:
    """Number of square permutations of size ``n >= 3``, in closed form.

    >>> count_square_formula(3), count_square_formula(5)
    (6, 104)
    """
    if n < 3:
        raise ValueError("closed form defined for n >= 3")
    return 2 * (n + 2) * 4 ** (n - 3) - 4 * (2 * n - 5) * math.comb(2 * n - 6, n - 3)


def count_good_pairs(n: int) -> int:
    """Number of good anchored label pairs of size ``n >= 3``.

    Good means both endpoint column labels and the anchor column read D
    while both endpoint row labels read L; see :mod:`squareperm.encoding`.

    >>> count_good_pairs(3), count_good_pairs(6)
    (10, 1024)
    """
    if n < 3:
        raise ValueError("count defined for n >= 3")
    return 2 * (n + 2) * 4 ** (n - 3)
