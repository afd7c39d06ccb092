"""Local limits of square permutations around a uniform root.

The local view of a permutation at a root ``i`` is the consecutive
pattern of the radius-``h`` window centered there, rooted at its center.
For square permutations these windows are eventually monotone-by-parts:
away from the anchor columns the window splits into a low part and a high
part, each monotone, and the split is read off the column labels alone.
The classifier :func:`classify_phi` extracts (case tag, D-positions), the
builder :func:`build_psi` rebuilds the window, and the two compose to the
window map whenever a separating line exists.

In the limit the root sees one of four infinite monotone-by-parts orders
with iid fair labels, picked by :func:`map_J` from the rescaled anchor
``u`` and root ``v``.  Window probabilities follow in closed form:
:func:`limit_p` gives the annealed law, :func:`quenched_gamma` the law
conditioned on the anchor.

>>> restrict((2, 4, 1, 3), 2, 1)
RootedPattern(pattern=(2, 3, 1), root=2)
>>> build_psi(1, {3}, 1)
RootedPattern(pattern=(2, 3, 1), root=2)
>>> limit_p((1, 2, 3))
Fraction(1, 4)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .core import _as_value_array, _square_records, as_permutation, pattern_at
from .encoding import project

__all__ = [
    "FamilyTag",
    "RootedPattern",
    "WindowLabels",
    "build_psi",
    "classify_phi",
    "e_counts",
    "e_counts_brute",
    "empirical_window_distribution",
    "family_membership",
    "limit_p",
    "limit_p_even",
    "local_distance",
    "map_J",
    "quenched_gamma",
    "restrict",
    "sample_limit_window",
    "separating_failure_rate",
    "separating_line_exists",
]


class RootedPattern(NamedTuple):
    """A finite permutation with a distinguished root position."""

    pattern: tuple[int, ...]
    root: int  # 1-based position inside pattern


class WindowLabels(NamedTuple):
    """Classifier output: case tag (None for the boundary case) and the
    window positions labeled D."""

    tag: int | None
    d_set: frozenset[int]


def restrict(p: Sequence[int], i: int, h: int) -> RootedPattern:
    """Radius-``h`` window of ``p`` around position ``i``, rooted there.

    The window clamps at the boundary, so near the ends the pattern is
    shorter than ``2h + 1`` and the root drifts off center.

    >>> restrict((2, 4, 1, 3), 1, 1)
    RootedPattern(pattern=(1, 2), root=1)
    >>> restrict((2, 4, 1, 3), 3, 0)
    RootedPattern(pattern=(1,), root=1)
    """
    p = tuple(p)
    n = len(p)
    if not 1 <= i <= n:
        raise IndexError(f"root {i} out of range for size {n}")
    if h < 0:
        raise ValueError("radius must be nonnegative")
    a = max(1, i - h)
    b = min(n, i + h)
    return RootedPattern(pattern_at(p, range(a, b + 1)), i - a + 1)


def local_distance(
    r1: RootedPattern, r2: RootedPattern, max_radius: int = 64
) -> float:
    """Local distance ``2^{-h*}`` between two rooted patterns.

    ``h*`` is the largest radius at which the two re-restricted windows
    agree (0 when even radius 1 disagrees); identical rooted patterns
    agree at every radius and are at distance zero.

    >>> local_distance(RootedPattern((1, 2), 1), RootedPattern((1, 2), 1))
    0.0
    >>> local_distance(RootedPattern((1, 2), 1), RootedPattern((2, 1), 1))
    1.0
    """
    if r1 == r2:
        return 0.0
    agreed = 0
    for h in range(1, max_radius + 1):
        w1 = restrict(r1.pattern, r1.root, h)
        w2 = restrict(r2.pattern, r2.root, h)
        if w1 != w2:
            break
        agreed = h
        if len(w1.pattern) == len(r1.pattern) and len(w2.pattern) == len(r2.pattern):
            # both windows saturated and still differ somewhere: impossible
            # since r1 != r2 would already have shown up
            break
    return 2.0 ** (-agreed)


def classify_phi(p: Sequence[int] | np.ndarray, i: int, h: int) -> WindowLabels:
    """Case tag and D-positions of the window of a square permutation.

    With ``z0`` and ``z2`` the columns of the lowest and highest points,
    the tag is 1 between them (in that order), 2 before both, 3 after
    both, 4 between them in reversed order, and None within ``h`` of any
    of the four boundaries.  The D-set collects the window positions whose
    column label is D, shifted to ``[1, 2h+1]``.
    """
    arr = _as_value_array(p)
    n = arr.size
    if not 1 <= i <= n:
        raise IndexError(f"root {i} out of range for size {n}")
    if h < 0:
        raise ValueError("radius must be nonnegative")
    pair = project(arr)
    z0, z2 = pair.z0, int(np.argmax(arr)) + 1
    if z0 <= z2 and z0 + h <= i <= z2 - h:
        tag: int | None = 1
    elif 1 + h <= i <= min(z0, z2) - h:
        tag = 2
    elif max(z0, z2) + h <= i <= n - h:
        tag = 3
    elif z2 <= z0 and z2 + h <= i <= z0 - h:
        tag = 4
    else:
        tag = None
    lo = max(1, i - h)
    hi = min(n, i + h)
    d_set = frozenset(
        x - (i - h) + 1 for x in range(lo, hi + 1) if pair.x_is_d[x - 1]
    )
    return WindowLabels(tag, d_set)


def build_psi(j: int, d_set: Iterable[int], h: int) -> RootedPattern:
    """The monotone-by-parts window with D-positions ``d_set``, case ``j``.

    D-positions carry the lowest values; each part is increasing or
    decreasing per the case: both increasing for 1, D decreasing for 2,
    U decreasing for 3, both decreasing for 4.  Rooted at the center.

    >>> build_psi(2, {1}, 1)
    RootedPattern(pattern=(1, 2, 3), root=2)
    >>> build_psi(4, {1, 2, 3}, 1)
    RootedPattern(pattern=(3, 2, 1), root=2)
    """
    if j not in (1, 2, 3, 4):
        raise ValueError("case must be 1, 2, 3 or 4")
    m = 2 * h + 1
    d_pos = sorted(set(int(x) for x in d_set))
    if d_pos and not (1 <= d_pos[0] and d_pos[-1] <= m):
        raise ValueError(f"D-positions must lie in [1, {m}]")
    u_pos = sorted(set(range(1, m + 1)) - set(d_pos))
    k = len(d_pos)
    values = [0] * m
    for r, x in enumerate(d_pos):
        values[x - 1] = r + 1 if j in (1, 3) else k - r
    for r, x in enumerate(u_pos):
        values[x - 1] = k + r + 1 if j in (1, 2) else m - r
    return RootedPattern(tuple(values), h + 1)


def _separating_roots(p: Sequence[int] | np.ndarray, h: int) -> tuple[int, int, np.ndarray]:
    """The valid roots ``lo..hi`` at radius ``h`` and, for each one, whether
    its window has a separating line (``ok[i - lo]``), from one pair of
    sliding min/max filters; see :func:`separating_line_exists`."""
    if h < 0:
        raise ValueError("radius must be nonnegative")
    arr, (lrmax, lrmin, rlmax, rlmin) = _square_records(p)
    z0, z2 = int(np.argmin(arr)) + 1, int(np.argmax(arr)) + 1
    if z0 < z2:
        lo, hi = z0 + h, z2 - h
        hi_mask, lo_mask = lrmax, rlmin
    else:
        lo, hi = z2 + h, z0 - h
        hi_mask, lo_mask = rlmax, lrmin
    if lo > hi:
        return lo, hi, np.zeros(0, dtype=bool)
    vals = arr.astype(np.float64)
    w = 2 * h + 1
    win_hi = minimum_filter1d(np.where(hi_mask, vals, np.inf), w, mode="nearest")
    win_lo = maximum_filter1d(np.where(lo_mask, vals, -np.inf), w, mode="nearest")
    return lo, hi, win_hi[lo - 1 : hi] > win_lo[lo - 1 : hi]


def separating_line_exists(p: Sequence[int] | np.ndarray, i: int, h: int) -> bool:
    """Whether the window around ``i`` splits cleanly into low and high parts.

    Between the anchors (tag 1, ``z0 < z2``) the low part is the
    right-to-left minima and the high part the left-to-right maxima; the
    event compares the window's smallest maximum against its largest
    minimum, with ``min {} = +inf`` and ``max {} = -inf``.  In the mirror
    orientation (tag 4, ``z2 < z0``) the record kinds swap.  Roots outside
    the corresponding tag range are rejected.
    """
    lo, hi, ok = _separating_roots(p, h)
    if not lo <= i <= hi:
        raise ValueError(f"root {i} outside [{lo}, {hi}]")
    return bool(ok[i - lo])


def separating_failure_rate(p: Sequence[int] | np.ndarray, h: int) -> float:
    """Fraction of valid roots whose window has no separating line."""
    lo, hi, ok = _separating_roots(p, h)
    if lo > hi:
        raise ValueError("no valid roots at this radius")
    return float(1.0 - ok.mean())


def _is_increasing(vals: Sequence[int]) -> bool:
    return all(a < b for a, b in zip(vals, vals[1:]))


def _is_decreasing(vals: Sequence[int]) -> bool:
    return all(a > b for a, b in zip(vals, vals[1:]))


def _split_count(pi: tuple[int, ...], low_increasing: bool, high_increasing: bool) -> int:
    """Number of value thresholds splitting pi into monotone low/high parts.

    The low part must collect exactly the values up to the threshold (the
    builder always puts D-values below U-values), so candidate D-sets are
    value prefixes and nothing else.
    """
    m = len(pi)
    count = 0
    for v in range(m + 1):
        low = [x for x in pi if x <= v]
        high = [x for x in pi if x > v]
        low_ok = _is_increasing(low) if low_increasing else _is_decreasing(low)
        high_ok = _is_increasing(high) if high_increasing else _is_decreasing(high)
        if low_ok and high_ok:
            count += 1
    return count


@dataclass(frozen=True)
class FamilyTag:
    """Membership in the six monotone-by-parts families."""

    a1: bool  # non-monotone, splits with both parts increasing
    a2: bool  # splits with low part decreasing, high increasing
    a3: bool  # splits with low part increasing, high decreasing
    a4: bool  # non-monotone, splits with both parts decreasing
    a5: bool  # increasing
    a6: bool  # decreasing


def family_membership(pi: Sequence[int]) -> FamilyTag:
    """Classify a pattern into the (overlapping) families A1..A6."""
    pi = as_permutation(pi)
    inc = _is_increasing(pi)
    dec = _is_decreasing(pi)
    monotone = inc or dec
    return FamilyTag(
        a1=not monotone and _split_count(pi, True, True) > 0,
        a2=_split_count(pi, False, True) > 0,
        a3=_split_count(pi, True, False) > 0,
        a4=not monotone and _split_count(pi, False, False) > 0,
        a5=inc,
        a6=dec,
    )


def _require_odd(pi: tuple[int, ...]) -> None:
    if len(pi) % 2 == 0:
        raise ValueError("window patterns have odd size")
    if len(pi) < 3:
        raise ValueError("window patterns have size >= 3")


def e_counts(pi: Sequence[int]) -> tuple[int, int, int, int]:
    """How many D-sets build ``pi`` under each case, in closed form.

    A non-monotone pattern admits at most one D-set per case; monotone
    patterns sit in every compatible family, and the fully flexible case
    (increasing under case 1, decreasing under case 4) admits ``|pi| + 1``
    thresholds.

    >>> e_counts((1, 2, 3)), e_counts((1, 3, 2))
    ((4, 2, 2, 0), (1, 0, 2, 1))
    """
    pi = as_permutation(pi)
    _require_odd(pi)
    tag = family_membership(pi)
    m1 = len(pi) + 1
    return (
        (m1 if tag.a5 else 1 if tag.a1 else 0),
        2 if tag.a2 else 0,
        2 if tag.a3 else 0,
        (m1 if tag.a6 else 1 if tag.a4 else 0),
    )


def e_counts_brute(pi: Sequence[int]) -> tuple[int, int, int, int]:
    """The same counts by enumerating all D-sets (its own oracle)."""
    pi = as_permutation(pi)
    _require_odd(pi)
    h = (len(pi) - 1) // 2
    target = RootedPattern(pi, h + 1)
    out = []
    positions = range(1, 2 * h + 2)
    for j in (1, 2, 3, 4):
        count = 0
        for r in range(len(positions) + 1):
            for d in itertools.combinations(positions, r):
                if build_psi(j, d, h) == target:
                    count += 1
        out.append(count)
    return tuple(out)


def limit_p(pi: Sequence[int]) -> Fraction:
    """Limit probability of seeing ``pi`` as the window at a uniform root.

    Exact: ``2^{-|pi|-2}`` times the total D-set count over the four
    cases (anchor and case both uniformize in the annealed limit).

    >>> limit_p((1, 3, 2))
    Fraction(1, 8)
    """
    pi = as_permutation(pi)
    _require_odd(pi)
    return Fraction(sum(e_counts(pi)), 2 ** (len(pi) + 2))


def _append_final_below(pi: tuple[int, ...], m: int) -> tuple[int, ...]:
    # append a final element immediately below the m-th row
    return tuple(v + 1 if v >= m else v for v in pi) + (m,)


def limit_p_even(pi: Sequence[int]) -> Fraction:
    """Even-size window probabilities, reduced to odd size.

    An even window extends to an odd one by one more final element, whose
    row is anything from below everything to above everything; the even
    probability is the sum over these ``|pi| + 1`` extensions.

    >>> limit_p_even((1, 2))
    Fraction(1, 2)
    """
    pi = as_permutation(pi)
    if len(pi) % 2 == 1:
        raise ValueError("use limit_p for odd sizes")
    return sum(
        (limit_p(_append_final_below(pi, m)) for m in range(1, len(pi) + 2)),
        Fraction(0),
    )


def quenched_gamma(pi: Sequence[int], u: float) -> float:
    """Window probability of ``pi`` conditioned on the rescaled anchor ``u``.

    At anchor fraction ``u`` the four cases occupy root-fractions
    ``(1-2u)^+``, ``min(u, 1-u)``, ``min(u, 1-u)`` and ``(2u-1)^+``, and
    within each case every D-set is fair, so

        gamma = 2^{-|pi|} (e1 (1-2u)^+ + (e2+e3) min(u,1-u) + e4 (2u-1)^+).

    Piecewise linear in ``u`` with its only breakpoint at 1/2; sums to 1
    over patterns of one size; integrates to :func:`limit_p`.

    >>> quenched_gamma((1, 3, 2), 0.3)
    0.125
    """
    pi = as_permutation(pi)
    _require_odd(pi)
    if not 0.0 <= u <= 1.0:
        raise ValueError("anchor fraction must lie in [0, 1]")
    e1, e2, e3, e4 = e_counts(pi)
    middle = max(1.0 - 2.0 * u, 0.0)
    corner = min(u, 1.0 - u)
    reversed_middle = max(2.0 * u - 1.0, 0.0)
    return (e1 * middle + (e2 + e3) * corner + e4 * reversed_middle) / 2 ** len(pi)


def map_J(u: float, v: float) -> int:
    """Limit case seen by a root at fraction ``v`` with anchor fraction ``u``.

    >>> map_J(0.3, 0.5), map_J(0.5, 0.5), map_J(0.3, 0.1)
    (1, 4, 2)
    """
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError("(u, v) must lie in the unit square")
    if u < 0.5 and u <= v <= 1.0 - u:
        return 1
    if v < min(u, 1.0 - u):
        return 2
    if v > max(u, 1.0 - u):
        return 3
    return 4


def sample_limit_window(
    j: int, h: int, rng: np.random.Generator | int | None = None
) -> RootedPattern:
    """One radius-``h`` window of the case-``j`` limit order.

    Labels on the window are iid fair coins; minus-labeled positions form
    the D-set of the builder.
    """
    gen = np.random.default_rng(rng)
    labels = gen.integers(0, 2, size=2 * h + 1)
    d_set = {int(k) + 1 for k in np.flatnonzero(labels == 0)}
    return build_psi(j, d_set, h)


#: window codes stay below this bound, so they fit the int64 of
#: ``np.unique``'s inverse
_CODE_LIMIT = 2**63


def empirical_window_distribution(
    p: Sequence[int] | np.ndarray,
    h: int,
    roots: int | str = "all",
    rng: np.random.Generator | int | None = None,
) -> dict[RootedPattern, float]:
    """Frequency of each full window pattern over the roots of ``p``.

    The quenched object: the law of the rooted window given this one
    permutation.  ``roots="all"`` counts every interior root exactly;
    an integer draws that many uniform interior roots with replacement.
    Boundary (truncated) windows are excluded either way.  Patterns come
    in lexicographic order.

    Each window's pattern is its rank vector: entry ``j`` ranks one above
    the number of window entries below it, summed over the ``w(w-1)/2``
    comparisons of shifted columns.  The ranks minus one are the digits
    of one integer code per window, in base ``w`` and most significant
    first, so codes sort as rank vectors sort lexicographically.  The
    codes are counted with ``np.bincount`` while the ``w^w`` possible
    codes are no more than the windows, and with ``np.unique`` otherwise
    (a sort); each distinct pattern is read off one representative
    window.  Where the next digit would overflow int64 (``w >= 17``), the
    codes so far are replaced by their order-keeping dense ranks.
    """
    arr = _as_value_array(p)
    if h < 0:
        raise ValueError("radius must be nonnegative")
    w = 2 * h + 1
    if arr.size < w:
        raise ValueError("permutation shorter than the window")
    windows = np.lib.stride_tricks.sliding_window_view(arr, w)
    if roots == "all":
        chosen = windows
    else:
        count = int(roots)
        if count < 1:
            raise ValueError("need at least one root")
        gen = np.random.default_rng(rng)
        chosen = windows[gen.integers(0, windows.shape[0], size=count)]
    total = chosen.shape[0]
    # digits[j] counts the window entries below entry j: its rank minus one
    digits = np.zeros((w, total), dtype=np.min_scalar_type(w))
    for i, j in itertools.combinations(range(w), 2):
        below = chosen[:, i] < chosen[:, j]
        digits[j] += below
        digits[i] += ~below
    # the codes of the digits folded so far lie below `space`
    codes = digits[0].astype(np.min_scalar_type(min(w**w, _CODE_LIMIT) - 1))
    space = w
    for row in digits[1:]:
        if space * w > _CODE_LIMIT:
            uniq, codes = np.unique(codes, return_inverse=True)
            space = uniq.size
        codes *= w
        codes += row
        space *= w
    if space > total:
        _, codes, counts = np.unique(codes, return_inverse=True, return_counts=True)
    else:
        counts = np.bincount(codes, minlength=space)
    # any window of a group shows its pattern
    rep = np.empty(counts.size, dtype=np.intp)
    rep[codes] = np.arange(total)
    present = np.flatnonzero(counts)
    patterns = digits[:, rep[present]] + 1
    return {
        RootedPattern(tuple(row), h + 1): c / total
        for row, c in zip(patterns.T.tolist(), counts[present])
    }
