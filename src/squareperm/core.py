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

    Python and numpy integers pass; float, bool and string entries are
    refused, since ``int`` would truncate or parse them.

    >>> as_permutation([2, 4, 1, 3])
    (2, 4, 1, 3)
    >>> as_permutation(np.array([2, 1]))
    (2, 1)
    >>> as_permutation([1, 3])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..2
    >>> as_permutation([1.9, 2.2])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..2
    """
    p = tuple(values)
    n = len(p)
    if (
        n < 1
        or not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in p)
        or sorted(p) != list(range(1, n + 1))
    ):
        raise ValueError(f"not a permutation of 1..{n}")
    return tuple(int(v) for v in p)


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
    masks = _record_masks(_as_value_array(p))
    return RecordSets(*(frozenset((np.flatnonzero(m) + 1).tolist()) for m in masks))


def is_square(p: Sequence[int]) -> bool:
    """True when every point of ``p`` is a record.

    >>> is_square((2, 4, 1, 3))
    True
    >>> is_square((8, 7, 5, 3, 2, 4, 6, 1))
    False
    """
    return _all_records(_record_masks(_as_value_array(p)))


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
    """Validate ``p`` as a permutation of 1..n and return it as int64.

    Only integer input passes: a cast to int64 would truncate floats and
    parse strings, so float, bool and string values are refused.
    """
    arr = np.asarray(p)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("permutation must be a nonempty 1-d sequence")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"not a permutation of 1..{arr.size}")
    # a no-op on int64; a uint64 beyond the int64 range wraps negative
    arr = arr.astype(np.int64, copy=False)
    # the range check first: bincount refuses negative values and would
    # allocate one counter per value up to the largest
    if (
        arr.min() < 1
        or arr.max() > arr.size
        or not (np.bincount(arr, minlength=arr.size + 1)[1:] == 1).all()
    ):
        raise ValueError(f"not a permutation of 1..{arr.size}")
    return arr


#: Record masks (lrmax, lrmin, rlmax, rlmin) over the positions of a permutation.
Records = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _record_masks(arr: np.ndarray) -> Records:
    """The boolean :data:`Records` of a permutation array.

    Values are distinct, so no left-to-right maximum lies past the
    largest value and no right-to-left maximum before it (minima
    likewise around the smallest): each running extreme is accumulated
    over its own side of the extreme only, about 2n steps in all.
    """
    n = arr.size
    top, bottom = int(np.argmax(arr)), int(np.argmin(arr))
    lrmax, lrmin, rlmax, rlmin = (np.zeros(n, dtype=bool) for _ in range(4))
    for left, right, extreme, at in (
        (lrmax, rlmax, np.maximum, top),
        (lrmin, rlmin, np.minimum, bottom),
    ):
        head = arr[: at + 1]
        np.equal(head, extreme.accumulate(head), out=left[: at + 1])
        tail = arr[at:][::-1]
        np.equal(tail, extreme.accumulate(tail), out=right[at:][::-1])
    return lrmax, lrmin, rlmax, rlmin


def _square_records(p: Sequence[int] | np.ndarray) -> tuple[np.ndarray, Records]:
    """``p`` as an int64 array with its record masks; raises unless square."""
    arr = _as_value_array(p)
    return arr, _records_of_square(arr)


def _records_of_square(arr: np.ndarray) -> Records:
    """Record masks of an int64 permutation array; raises unless square."""
    masks = _record_masks(arr)
    if not _all_records(masks):
        raise ValueError("permutation is not square")
    return masks


def _all_records(masks: Records) -> bool:
    """Every position is a record of some kind; the masks are ORed in
    place into one copy rather than stacked."""
    lrmax, lrmin, rlmax, rlmin = masks
    seen = lrmax | lrmin
    seen |= rlmax
    seen |= rlmin
    return bool(seen.all())


def _inversion_count(arr: np.ndarray) -> int:
    """Number of pairs ``i < j`` with ``arr[i] > arr[j]`` (exact).

    ``arr`` is a permutation of 1..n.  Its points are split among the four
    record chains of :func:`_record_masks`: left-to-right maxima and
    right-to-left minima increase, left-to-right minima and right-to-left
    maxima decrease, and a point in several goes to the last of them (any
    part of a monotone chain is monotone).  The chains are peeled from the
    last to the first, each of ``s`` points counted against every point
    not yet peeled from two prefix counts: with ``i`` chain points to its
    left and ``j`` below it, a point is inverted with ``|i - j|`` points
    of an increasing chain, and with ``s - |i + j - s|`` points of a
    decreasing one, whose own ``C(s, 2)`` pairs are all inverted.  The
    interior, the points in no chain, is re-ranked to 1..m and counted by
    :func:`_radix_inversions`; a square permutation has none.

    >>> _inversion_count(np.array([2, 4, 1, 3]))
    3
    >>> _inversion_count(np.array([8, 7, 5, 3, 2, 4, 6, 1]))
    22
    """
    n = arr.size
    chain = np.zeros(n, dtype=np.int8)  # 1..4 by position; 0 = interior
    for k, mask in enumerate(_record_masks(arr), start=1):
        np.maximum(chain, mask * np.int8(k), out=chain)
    val = arr - 1  # zero-based values
    by_value = np.empty(n, dtype=np.int8)
    by_value[val] = chain
    # positions grouped by chain, interior first, ascending within each
    order = np.argsort(chain, kind="stable")
    val = val[order]
    # running counts, written in place: cumsum into an int64 buffer is
    # about three times faster than cumsum casting bools to a new array
    left, below = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    inv, lo = 0, n
    for k, rising in ((4, True), (3, False), (2, False), (1, True)):
        on_chain = chain == k
        s = int(np.count_nonzero(on_chain))
        lo -= s  # order[:lo], val[:lo]: the points not yet peeled
        if not rising:
            inv += s * lo + math.comb(s, 2)
        if lo == 0:  # every point is peeled: no interior
            return inv
        np.cumsum(on_chain, out=left)
        np.cumsum(by_value == k, out=below)
        i = left[order[:lo]]  # chain points to the left
        j = below[val[:lo]]  # chain points below
        if rising:
            i -= j
            inv += int(np.abs(i, out=i).sum())
        else:
            i += j
            i -= s
            inv -= int(np.abs(i, out=i).sum())
    np.cumsum(by_value == 0, out=below)
    return inv + _radix_inversions(below[val[:lo]])


def _radix_inversions(arr: np.ndarray) -> int:
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
    and two always count exactly, the latter through an inversion count:
    each of the four record chains is counted against the other points
    in a few O(n) vector passes, which is the whole count on a square
    permutation, and the points in no chain by a radix count of
    O(log n) passes.  Passing ``samples`` switches to a Monte Carlo
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
