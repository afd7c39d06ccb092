"""Anchored label pairs: the projection of a square permutation and back.

A square permutation of size ``n`` projects to an *anchored pair*
``(X, Y, z0)``: the sequence ``X`` in ``{U, D}^n`` records for every column
whether its point is a minimum (``D``) or a maximum (``U``), the sequence
``Y`` in ``{L, R}^n`` records for every row whether its point is a left or
a right record, and the anchor ``z0`` is the column of the lowest point.
The pair is *good* when ``X[1] = X[n] = X[z0] = D`` and ``Y[1] = Y[n] = L``,
which projection always produces.

A pair's canonical form is two bool masks, ``X == D`` and ``Y == L``:
the samplers draw them, :func:`project` computes them, and the label
tables, the Petrov screen and the matching read them.  The letter
strings are built on demand, for text, JSON and ``repr``, and a string
is validated once, where it comes in.

The inverse direction matches label occurrences back into points along the
four sides of the square.  It inverts the projection on every square
permutation; a good pair that is no square's projection either fails
loudly or yields a permutation that does not project back to it:

>>> pair = project((2, 4, 1, 3))
>>> pair
AnchoredPair(x='DUDD', y='LLRL', z0=3)
>>> reconstruct(pair).tolist()
[2, 4, 1, 3]
>>> reconstruct(AnchoredPair("DDD", "LLL", 1))
Traceback (most recent call last):
    ...
squareperm.encoding.MatchingFailure: label matching is not a bijection

Everything here is 1-based to match the grid picture; count and position
tables carry the index-0 conventions ``ct(0) = 0`` and ``pos(0) = 0``, and
position tables return ``n`` past the last occurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .core import Records, _square_records

__all__ = [
    "ALL_PETROV_CONDITIONS",
    "DEFAULT_PETROV_CONDITIONS",
    "AnchoredPair",
    "LabelStats",
    "LambdaFamilies",
    "MatchingFailure",
    "PetrovReport",
    "PetrovViolation",
    "anchors",
    "build_lambdas",
    "is_regular",
    "label_stats",
    "margin_ok",
    "offsets",
    "project",
    "reconstruct",
]

#: All six Petrov conditions, as defined.
ALL_PETROV_CONDITIONS = (1, 2, 3, 4, 5, 6)

#: Conditions enforced by default.  The window conditions (2)-(4) compare a
#: random-walk deviation of order sqrt(k) against k^0.6 over windows of
#: length k down to n^0.3, a ratio that grows like k^0.1: they hold with
#: probability 1-o(1), but the o(1) decays so slowly that uniform label
#: sequences of any practical size violate them almost surely.  Condition
#: (1) and the global bounds (5)-(6) concentrate at rate n^0.1 from windows
#: of length n^0.6 and already hold at moderate sizes; they are also what
#: the reconstruction actually consumes.  The full set stays available
#: through the ``conditions`` argument.
DEFAULT_PETROV_CONDITIONS = (1, 5, 6)

_X_ALPHABET = ("D", "U")
_Y_ALPHABET = ("L", "R")


def _mask_of(labels: object, alphabet: tuple[str, str]) -> np.ndarray | None:
    """``labels == alphabet[0]`` as a read-only bool mask, or None unless
    ``labels`` is a string over the two ASCII letters of ``alphabet``."""
    if not (isinstance(labels, str) and labels.isascii()):
        return None
    raw = labels.encode("ascii")
    if raw.translate(None, "".join(alphabet).encode("ascii")):
        return None
    mask = np.frombuffer(raw, dtype=np.uint8) == ord(alphabet[0])
    mask.setflags(write=False)
    return mask


class MatchingFailure(ValueError):
    """Label matching did not assemble into a permutation."""


def _letters(mask: np.ndarray, alphabet: tuple[str, str]) -> str:
    """The label string of a bool mask: ``alphabet[0]`` where it holds,
    ``alphabet[1]`` elsewhere."""
    first, second = map(ord, alphabet)
    # 0 or the gap, then shifted onto the letters; uint8 arithmetic wraps
    codes = np.multiply(mask, np.uint8((first - second) % 256), dtype=np.uint8)
    codes += np.uint8(second)
    return codes.tobytes().decode("ascii")


class AnchoredPair:
    """A pair of label sequences anchored at ``z0``.

    The canonical form is two read-only bool masks, ``x_is_d`` (``X == D``,
    by column) and ``y_is_l`` (``Y == L``, by row), and the anchor.  The
    strings ``x`` over {U, D} and ``y`` over {L, R} are built on demand.
    A string is validated once, by the constructor, where it comes in;
    the samplers and :func:`project` build pairs from masks of their own.
    Pairs are immutable and compare and hash by value.
    """

    def __init__(self, x: str, y: str, z0: int) -> None:
        if isinstance(x, str) and isinstance(y, str) and len(x) != len(y):
            raise ValueError("label sequences differ in length")
        x_is_d = _mask_of(x, _X_ALPHABET)
        if x_is_d is None:
            raise ValueError("x labels must be U or D")
        y_is_l = _mask_of(y, _Y_ALPHABET)
        if y_is_l is None:
            raise ValueError("y labels must be L or R")
        if not 1 <= z0 <= len(x):
            raise ValueError("anchor out of range")
        self.__dict__.update(x_is_d=x_is_d, y_is_l=y_is_l, z0=z0, x=x, y=y)

    @classmethod
    def _of_masks(cls, x_is_d: np.ndarray, y_is_l: np.ndarray, z0: int) -> "AnchoredPair":
        """The pair of two bool masks of equal length, taken over unchecked
        and made read-only."""
        x_is_d.setflags(write=False)
        y_is_l.setflags(write=False)
        pair = cls.__new__(cls)
        pair.__dict__.update(x_is_d=x_is_d, y_is_l=y_is_l, z0=z0)
        return pair

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an AnchoredPair")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnchoredPair):
            return NotImplemented
        return (
            self.z0 == other.z0
            and np.array_equal(self.x_is_d, other.x_is_d)
            and np.array_equal(self.y_is_l, other.y_is_l)
        )

    def __hash__(self) -> int:
        return hash((self.x_is_d.tobytes(), self.y_is_l.tobytes(), self.z0))

    def __repr__(self) -> str:
        return f"AnchoredPair(x={self.x!r}, y={self.y!r}, z0={self.z0!r})"

    @cached_property
    def x(self) -> str:
        """Column labels, over {U, D}."""
        return _letters(self.x_is_d, _X_ALPHABET)

    @cached_property
    def y(self) -> str:
        """Row labels, over {L, R}."""
        return _letters(self.y_is_l, _Y_ALPHABET)

    @property
    def n(self) -> int:
        return self.x_is_d.size

    @property
    def good(self) -> bool:
        """Endpoint labels and the anchor column all read D (resp. L)."""
        x, y = self.x_is_d, self.y_is_l
        return bool(x[0] and x[-1] and x[self.z0 - 1] and y[0] and y[-1])

    @cached_property
    def x_stats(self) -> "LabelStats":
        return LabelStats._of_mask(self.x_is_d, _X_ALPHABET)

    @cached_property
    def y_stats(self) -> "LabelStats":
        return LabelStats._of_mask(self.y_is_l, _Y_ALPHABET)

    def to_text(self) -> str:
        """Three-line form: X, Y, then the anchor in decimal."""
        return f"{self.x}\n{self.y}\n{self.z0}\n"

    @classmethod
    def from_text(cls, text: str) -> "AnchoredPair":
        lines = text.split()
        if len(lines) != 3:
            raise ValueError("expected three lines: X, Y, z0")
        return cls(lines[0], lines[1], int(lines[2]))

    def to_json_obj(self) -> dict:
        return {"x": self.x, "y": self.y, "z0": self.z0}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AnchoredPair":
        return cls(obj["x"], obj["y"], int(obj["z0"]))


def _positions_of(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based positions where the bool ``mask`` holds and where it does not."""
    shifted = np.empty(mask.size + 1, dtype=bool)
    shifted[0] = False
    shifted[1:] = mask
    first = np.flatnonzero(shifted)
    np.logical_not(mask, out=shifted[1:])
    return first, np.flatnonzero(shifted)


class LabelStats:
    """Occurrence positions, and prefix counts, for a two-letter sequence.

    ``ct(l, i)`` counts occurrences of label ``l`` among the first ``i``
    characters; ``pos(l, i)`` is the position of the i-th occurrence.  Both
    honor the extension conventions: ``ct(l, 0) = 0``, ``pos(l, 0) = 0``,
    and ``pos(l, i) = n`` once ``i`` exceeds the occurrence count.

    Only the padded position tables are built: label matching reads
    positions and a few counts, and a count is a binary search in the
    positions.  The tables of a pair's labels are built from its mask,
    with the pair's alphabet; a string is validated here.

    >>> st = LabelStats("DUDD")
    >>> [st.ct("D", i) for i in range(5)]
    [0, 1, 1, 2, 3]
    >>> [st.pos("D", i) for i in (1, 2, 3)], st.pos("U", 1), st.pos("U", 2)
    ([1, 3, 4], 2, 4)
    """

    __slots__ = ("n", "alphabet", "mask", "_count", "_pos")

    def __init__(self, sequence: str | Iterable[str]) -> None:
        seq = sequence if isinstance(sequence, str) else "".join(sequence)
        if not seq:
            raise ValueError("empty label sequence")
        alphabet = _X_ALPHABET if seq[0] in _X_ALPHABET else _Y_ALPHABET
        mask = _mask_of(seq, alphabet)
        if mask is None:
            raise ValueError("labels must be over {U,D} or {L,R}")
        self._fill(mask, alphabet)

    @classmethod
    def _of_mask(cls, mask: np.ndarray, alphabet: tuple[str, str]) -> "LabelStats":
        """The tables of the sequence reading ``alphabet[0]`` where the
        read-only bool ``mask`` holds, taken over unchecked."""
        stats = cls.__new__(cls)
        stats._fill(mask, alphabet)
        return stats

    def _fill(self, mask: np.ndarray, alphabet: tuple[str, str]) -> None:
        n = mask.size
        count: dict[str, int] = {}
        pos: dict[str, np.ndarray] = {}
        for label, where in zip(alphabet, _positions_of(mask)):
            m = where.size
            padded = np.empty(n + 2, dtype=np.int64)
            padded[0] = 0
            padded[1 : 1 + m] = where
            padded[1 + m :] = n
            padded.setflags(write=False)
            count[label] = m
            pos[label] = padded
        self.n = n
        self.alphabet = alphabet
        self.mask = mask  # where the alphabet's first letter stands
        self._count = count
        self._pos = pos

    @property
    def sequence(self) -> str:
        """The label string, built on demand."""
        return _letters(self.mask, self.alphabet)

    def count(self, label: str) -> int:
        """Total occurrences of ``label``."""
        return self._count[label]

    def ct(self, label: str, i: int) -> int:
        # indexed like the 0..n table: negative i counts from the end
        i = range(self.n + 1)[i]
        return int(np.searchsorted(self.positions(label), i, side="right"))

    def pos(self, label: str, i: int) -> int:
        if i > self.n + 1:
            return self.n
        return int(self._pos[label][i])

    def pos_table(self, label: str) -> np.ndarray:
        """Padded positions, indexed 0..n+1 (read-only); entry 0 is 0."""
        return self._pos[label]

    def positions(self, label: str) -> np.ndarray:
        """Actual occurrence positions of ``label``, 1-based (read-only)."""
        return self._pos[label][1 : 1 + self._count[label]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabelStats({self.sequence!r})"


def label_stats(sequence: str | Iterable[str]) -> LabelStats:
    """Build the ct/pos tables of a label sequence."""
    return LabelStats(sequence)


def offsets(stats: LabelStats) -> tuple[np.ndarray, np.ndarray]:
    """Offset sequences ``e`` and ``s`` relating the two position tables.

    With the alphabet's second letter in the role of U and the first in the
    role of D: ``e(i) = pos_U(i) - 2i`` for ``i <= ct_U(n)`` and
    ``s(i) = pos_D(i) - 2i + e(i)`` for ``i`` up to the smaller label
    count, so that ``pos_U(i) = 2i + e(i)`` and
    ``pos_D(i) = 2i - e(i) + s(i)``.  Returned 0-based: ``e[k]`` is
    ``e(k+1)``.

    >>> e, s = offsets(LabelStats("DUDD"))
    >>> e.tolist(), s.tolist()
    ([0], [-1])
    """
    down, up = stats.alphabet
    m_up = stats.count(up)
    m_dn = stats.count(down)
    iu = np.arange(1, m_up + 1, dtype=np.int64)
    e = stats.positions(up) - 2 * iu
    m = min(m_up, m_dn)
    im = np.arange(1, m + 1, dtype=np.int64)
    s = stats.positions(down)[:m] - 2 * im + e[:m]
    return e, s


class PetrovViolation(NamedTuple):
    condition: int  # 1..6
    label: str
    i: int
    j: int
    deviation: float


@dataclass(frozen=True)
class PetrovReport:
    """Outcome of a Petrov-condition check (one witness per failure)."""

    passed: bool
    violations: tuple[PetrovViolation, ...]
    conditions: tuple[int, ...]  # which conditions were evaluated


def _window_extremes(
    dev: np.ndarray, reach: int, bound: float
) -> tuple[int, int, int] | None:
    """Worst (i, j, spread) over index pairs at distance <= reach.

    None when there is no such pair, or when a block screen shows every
    spread to be below ``bound``: a window of ``width`` consecutive
    entries lies inside two adjacent blocks of ``width``, so the spread
    of each pair of adjacent blocks bounds the spread of every window.
    """
    if reach < 1 or dev.size < 2:
        return None
    width = min(reach + 1, dev.size)
    starts = np.arange(0, dev.size, width)
    hi = np.maximum.reduceat(dev, starts)
    lo = np.minimum.reduceat(dev, starts)
    if hi.size > 1:
        hi, lo = np.maximum(hi[:-1], hi[1:]), np.minimum(lo[:-1], lo[1:])
    if (hi - lo).max() < bound:
        return None
    spread = maximum_filter1d(dev, width, mode="nearest") - minimum_filter1d(
        dev, width, mode="nearest"
    )
    c = int(np.argmax(spread))
    lo = max(0, c - (width - 1) // 2)
    window = dev[lo : min(dev.size, c + width // 2 + 1)]
    i = lo + int(np.argmax(window))
    j = lo + int(np.argmin(window))
    return i, j, int(spread[c])


def _long_range_violation(
    dev: np.ndarray, d_min: int, scale: float
) -> tuple[int, int, int] | None:
    """First pair (i, j), |i-j| >= d_min, with |dev[i]-dev[j]| >= scale*|i-j|^0.6.

    Dyadic blocks of distances are screened with a sliding max-min filter
    against the block's smallest threshold; only flagged blocks are scanned
    offset by offset.  Random label sequences that fail do so at small
    distances, so the scan exits early in practice.
    """
    top = dev.size - 1
    a = d_min
    while a <= top:
        b = min(2 * a - 1, top)
        width = min(b + 1, dev.size)
        spread = maximum_filter1d(dev, width, mode="nearest") - minimum_filter1d(
            dev, width, mode="nearest"
        )
        if spread.max() >= scale * a**0.6:
            for d in range(a, b + 1):
                diff = np.abs(dev[d:] - dev[:-d])
                k = int(np.argmax(diff))
                if diff[k] >= scale * d**0.6:
                    return k + d, k, int(diff[k])
        a = b + 1
    return None


def _walk_dtype(n: int) -> type[np.signedinteger]:
    """Integer type of the count walk ``2 ct(i) - i`` of a length-``n`` string.

    Its entries lie in [-n, n], so its spreads and lagged differences reach
    2n: int32 holds them while ``n < 2^30``, int64 from there up.
    """
    return np.int32 if n < 2**30 else np.int64


def petrov_check(
    stats: LabelStats,
    n: int | None = None,
    conditions: Iterable[int] = DEFAULT_PETROV_CONDITIONS,
) -> PetrovReport:
    """Check the Petrov conditions for both labels of a sequence.

    All inequalities are strict, with exact integer deviations compared
    against float powers of ``n``:

    1. ``|ct(i) - ct(j) - (i-j)/2| < n^0.4`` for ``|i-j| < n^0.6``;
    2. the same deviation ``< |i-j|^0.6 / 2`` for ``|i-j| > n^0.3``;
    3. ``|pos(i) - pos(j) - 2(i-j)| < n^0.4`` for ``|i-j| < n^0.6``;
    4. the same deviation ``< 2|i-j|^0.6`` for ``|i-j| > n^0.3``;
    5. ``|ct(i) - i/2| < n^0.6`` for all ``i``;
    6. ``|pos(i) - 2i| < 2 n^0.6`` up to the label count,

    where (5) and (6) are the ``j = 0`` cases of (2) and (4) under the
    conventions ``ct(0) = 0`` and ``pos(0) = 0``.  Indices in (3), (4) and
    (6) run over occurrence counts, not sequence positions.  For either
    letter ``|pos(i) - 2i| = |2 ct(k) - k|`` at ``k = pos(i)``: twice the
    deviation of (5) at ``k``, against twice its bound.  So once (5) has
    passed, (6) holds and is not evaluated.  A report lists one witness
    pair per failing condition and label.  See
    :data:`DEFAULT_PETROV_CONDITIONS` for why (2)-(4) are opt-in.

    >>> petrov_check(LabelStats("D" * 16)).passed
    False
    >>> petrov_check(LabelStats("DUDU" * 4)).passed
    True
    """
    if n is None:
        n = stats.n
    wanted = sorted(set(conditions))
    if not set(wanted) <= set(ALL_PETROV_CONDITIONS):
        raise ValueError("conditions must be among 1..6")
    if n != stats.n:
        raise ValueError(f"n={n} differs from the sequence length {stats.n}")
    nf = float(n)
    t_04, t_06, t_03 = nf**0.4, nf**0.6, nf**0.3
    reach = math.ceil(t_06) - 1  # largest integer distance strictly below n^0.6
    d_min = math.floor(t_03) + 1  # smallest integer distance strictly above n^0.3
    # (half, bound) per condition; count deviations are doubled, so halved
    # when reported, and (2), (4) return only violating pairs
    limits = {
        1: (2.0, 2 * t_04),
        2: (2.0, 0.0),
        3: (1.0, t_04),
        4: (1.0, 0.0),
        5: (2.0, 2 * t_06),
        6: (1.0, 2 * t_06),
    }
    violations: list[PetrovViolation] = []

    # deviations kept exactly integral: ct doubled, pos as printed.  The
    # second letter's count deviation is the first's negated, so the count
    # conditions (1), (2), (5) run once: spreads, distance differences and
    # |dev| are unchanged, and in (1) a window's argmax and argmin swap.
    first = stats.alphabet[0]
    walk = _walk_dtype(n)
    dev_ct = np.zeros(n + 1, dtype=walk)  # 2 ct(i) - i: a walk of +-1 steps
    steps = stats.mask.view(np.int8) * np.int8(2) - np.int8(1)
    np.cumsum(steps, dtype=walk, out=dev_ct[1:])
    mirrored: dict[int, tuple[int, int, int] | None] = {}
    for label in stats.alphabet:
        dev_pos = None
        for cond in wanted:
            half, bound = limits[cond]
            hit: tuple[int, int, int] | None
            if label != first and cond in mirrored:
                hit = mirrored[cond]
            elif cond == 1:
                hit = _window_extremes(dev_ct, reach, bound)
                mirrored[1] = None if hit is None else (hit[1], hit[0], hit[2])
            elif cond == 2:
                hit = mirrored[2] = _long_range_violation(dev_ct, d_min, 1.0)
            elif cond == 5:
                k = int(np.argmax(np.abs(dev_ct)))
                hit = mirrored[5] = (k, 0, abs(int(dev_ct[k])))
            elif cond == 6 and 5 in mirrored and mirrored[5][2] < bound:
                continue  # (5) passed under the same bound, so (6) holds
            else:
                if dev_pos is None:
                    m = stats.count(label)
                    dev_pos = np.arange(0, -2 * (m + 1), -2, dtype=np.int64)
                    dev_pos += stats.pos_table(label)[: m + 1]
                if cond == 3:
                    hit = _window_extremes(dev_pos, reach, bound)
                elif cond == 4:
                    hit = _long_range_violation(dev_pos, d_min, 2.0)
                else:
                    k = int(np.argmax(np.abs(dev_pos)))
                    hit = (k, 0, abs(int(dev_pos[k])))
            if hit is None:
                continue
            i, j, dev = hit
            if cond in (2, 4) or dev >= bound:
                violations.append(PetrovViolation(cond, label, i, j, dev / half))

    return PetrovReport(not violations, tuple(violations), tuple(wanted))


def margin_ok(n: int, z0: int) -> bool:
    """Anchor margin of the regular set: ``n^0.9 <= z0 <= n - n^0.9``."""
    edge = float(n) ** 0.9
    return edge <= z0 <= n - edge


def is_regular(
    pair: AnchoredPair, conditions: Iterable[int] = DEFAULT_PETROV_CONDITIONS
) -> bool:
    """Membership in the regular set: anchor margin plus Petrov labels.

    >>> is_regular(AnchoredPair("DUDD", "LLRL", 3))
    False
    """
    if not pair.good:
        raise ValueError("pair is not good")
    return margin_ok(pair.n, pair.z0) and passes_petrov(pair, conditions)


def passes_petrov(pair: AnchoredPair, conditions: Iterable[int]) -> bool:
    """Both label strings of ``pair`` pass the Petrov screen."""
    return (
        petrov_check(pair.x_stats, pair.n, conditions).passed
        and petrov_check(pair.y_stats, pair.n, conditions).passed
    )


def _label_masks(arr: np.ndarray, masks: Records) -> tuple[np.ndarray, np.ndarray, int]:
    """The projection of a square as masks: ``(X == D, Y == L, z0)``.

    ``X == D`` is indexed by column and ``Y == L`` by row (value), both
    0-based; ``masks`` are the record masks of the permutation ``arr``.
    """
    lrmax, lrmin, _, rlmin = masks
    is_min = lrmin | rlmin  # ties resolve to D
    is_min[0] = is_min[-1] = True
    is_left = np.empty(arr.size, dtype=bool)
    # an LRmax that is an RLmin is on family 3
    is_left[arr - 1] = lrmin | (lrmax & ~rlmin)
    is_left[0] = is_left[-1] = True
    return is_min, is_left, int(np.argmin(arr)) + 1


def project(p: Sequence[int] | np.ndarray) -> AnchoredPair:
    """Project a square permutation to its anchored pair.

    Columns whose point is a minimum record get ``X = D``, maxima get
    ``U``; rows whose point is a left record get ``Y = L``, right records
    get ``R``.  A point that is both a minimum and a maximum record counts
    as ``D``; its row reads ``R`` when it is a right-to-left minimum and
    not a left-to-right minimum, and ``L`` otherwise, which sends it to
    the family that :func:`reconstruct` rebuilds it on.  Endpoints are
    forced to ``D`` and ``L``, and the anchor is the column of value 1.

    >>> project((1, 2, 3, 4))
    AnchoredPair(x='DDDD', y='LRRL', z0=1)
    >>> project((4, 3, 2, 1))
    AnchoredPair(x='DDDD', y='LLLL', z0=4)
    """
    return AnchoredPair._of_masks(*_label_masks(*_square_records(p)))


def anchors(pair: AnchoredPair) -> tuple[int, int, int]:
    """The three derived anchors (z1, z2, z3) of a good pair.

    z1 is the row of the leftmost point, z2 the column of the highest
    point, z3 the row of the rightmost point, read off the label tables:

    >>> anchors(AnchoredPair("DUDD", "LLRL", 3))
    (2, 2, 3)
    >>> anchors(AnchoredPair("D" * 5, "L" * 5, 1))
    (1, 5, 5)
    """
    if not pair.good:
        raise ValueError("pair is not good")
    sx, sy = pair.x_stats, pair.y_stats
    cd = sx.ct("D", pair.z0)
    return sy.pos("L", cd), sx.pos("U", sy.count("L") - cd), sy.pos("R", sx.count("D") - cd)


@dataclass(frozen=True)
class LambdaFamilies:
    """The four matched point families plus the derived anchors."""

    lambda1: np.ndarray  # decreasing, (1, z1) .. (z0, 1)
    lambda2: np.ndarray  # increasing, ending at (z2, n)
    lambda3: np.ndarray  # increasing, ending at (n, z3)
    lambda4: np.ndarray  # decreasing, strictly between (z2, n) and (n, z3)
    z1: int
    z2: int
    z3: int

    def points(self) -> np.ndarray:
        """All points, stacked."""
        return np.concatenate(
            [self.lambda1, self.lambda2, self.lambda3, self.lambda4]
        )


_FamilySlices = tuple[tuple[np.ndarray, np.ndarray], ...]


def _match(pair: AnchoredPair) -> tuple[np.ndarray, _FamilySlices, tuple[int, int, int]]:
    """The matching kernel of :func:`build_lambdas`, :func:`reconstruct`
    and the square sampler's round trip.

    With ``cd`` the D count up to the anchor, family 1 pairs the first
    ``cd`` D columns with the first ``cd`` L rows in reverse, family 2
    the first ``cu`` U columns (those up to z2) with the L rows family 1
    leaves, ``cu = #L - cd`` of them, family 3 the later D columns with
    the R rows in order, and family 4 the remaining U columns with the
    remaining R rows in reverse.  The column slices partition the D and
    U columns.  When ``0 <= cu <= #U`` the row slices partition the L and
    R rows, so the rows are a bijection without a check.

    Exactly one other count assembles into a permutation, ``cu = #U + 1``:
    families 1 and 2 then leave only the last L row, n, and family 3 has
    one column more than there are R rows, so the last D column, n, takes
    row n.  The squares built this way are those whose highest point is
    in column z2 = n, ``C(2n - 4, n - 2)`` of them.  This is the one case
    in which the matching reads past a position table (where a padded
    table reads n); any other count would read past one and raises
    :class:`MatchingFailure`.
    """
    if not pair.good:
        raise ValueError("pair is not good")
    n = pair.n
    (down, up), (left, right) = _positions_of(pair.x_is_d), _positions_of(pair.y_is_l)
    cd = int(np.searchsorted(down, pair.z0)) + 1  # the anchor column is the cd-th D
    cu = left.size - cd
    if not 0 <= cu <= up.size + 1:
        raise MatchingFailure("label matching is not a bijection")
    if cu > up.size:
        cu = up.size
        rows3, z2 = np.append(right, n), n
    else:
        rows3, z2 = right, int(up[cu - 1]) if cu else 0
    m3 = down.size - cd
    families = (
        (down[:cd], left[cd - 1 :: -1]),
        (up[:cu], left[cd : cd + cu]),
        (down[cd:], rows3[:m3]),
        (up[cu:], right[m3:][::-1]),
    )
    out = np.empty(n + 1, dtype=np.int64)  # 1-based: entry 0 is unused
    for cols, rows in families:
        out[cols] = rows
    z1, z3 = int(left[cd - 1]), int(rows3[m3 - 1]) if m3 else 0
    return out[1:], families, (z1, z2, z3)


def build_lambdas(pair: AnchoredPair) -> LambdaFamilies:
    """Match label occurrences into the four point families.

    Family 1 pairs the D columns up to the anchor with the L rows below
    z1 in reverse, family 2 the U columns up to z2 with the remaining L
    rows, family 3 the later D columns with the R rows, family 4 the
    remaining U columns with the remaining R rows, exactly one label
    occurrence each.  Raises :class:`MatchingFailure` when the label
    counts leave the families no permutation to assemble into, which is
    how irregular pairs surface.
    """
    _, families, (z1, z2, z3) = _match(pair)
    return LambdaFamilies(*(np.column_stack(f) for f in families), z1=z1, z2=z2, z3=z3)


def reconstruct(pair: AnchoredPair) -> np.ndarray:
    """Rebuild the permutation whose projection is the given pair.

    Construction is attempted unconditionally on good pairs.  The label
    counts decide whether the matching is a bijection: a count that
    would read past a position table raises :class:`MatchingFailure`
    rather than returning garbage, save the one case that stands for the
    squares with ``p(n) = n``, where the last D column takes row n (see
    :func:`_match`).  This inverts :func:`project` on every square
    permutation; the reconstruction of a good pair that is no square's
    projection, when it succeeds, does not project back to it.

    >>> reconstruct(AnchoredPair("DUDD", "LLRL", 3)).tolist()
    [2, 4, 1, 3]
    """
    return _match(pair)[0]
