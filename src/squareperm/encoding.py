"""Anchored label pairs: the projection of a square permutation and back.

A square permutation of size ``n`` projects to an *anchored pair*
``(X, Y, z0)``: the sequence ``X`` in ``{U, D}^n`` records for every column
whether its point is a minimum (``D``) or a maximum (``U``), the sequence
``Y`` in ``{L, R}^n`` records for every row whether its point is a left or
a right record, and the anchor ``z0`` is the column of the lowest point.
The pair is *good* when ``X[1] = X[n] = X[z0] = D`` and ``Y[1] = Y[n] = L``,
which projection always produces.

The inverse direction matches label occurrences back into points along the
four sides of the square.  It succeeds on the *regular* triples (anchor
bounded away from the ends, all four labels satisfying the Petrov
conditions), and fails loudly otherwise:

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

from .core import _as_value_array

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


def _over(labels: object, alphabet: bytes) -> bool:
    """True when ``labels`` is a string over the ASCII letters of ``alphabet``."""
    return (
        isinstance(labels, str)
        and labels.isascii()
        and not labels.encode("ascii").translate(None, alphabet)
    )


class MatchingFailure(ValueError):
    """Label matching did not assemble into a permutation."""


def _record_masks(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boolean masks (lrmax, lrmin, rlmax, rlmin) over the positions of a
    permutation.

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


def _labels_to_string(mask: np.ndarray, when_true: str, when_false: str) -> str:
    out = np.where(mask, np.uint8(ord(when_true)), np.uint8(ord(when_false)))
    return out.tobytes().decode("ascii")


@dataclass(frozen=True)
class AnchoredPair:
    """A pair of label sequences anchored at ``z0``."""

    x: str  # column labels, over {U, D}
    y: str  # row labels, over {L, R}
    z0: int  # anchor column: position of the lowest point

    def __post_init__(self) -> None:
        if isinstance(self.x, str) and isinstance(self.y, str) and len(self.x) != len(self.y):
            raise ValueError("label sequences differ in length")
        if not _over(self.x, b"DU"):
            raise ValueError("x labels must be U or D")
        if not _over(self.y, b"LR"):
            raise ValueError("y labels must be L or R")
        if not 1 <= self.z0 <= len(self.x):
            raise ValueError("anchor out of range")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def good(self) -> bool:
        """Endpoint labels and the anchor column all read D (resp. L)."""
        x, y = self.x, self.y
        return (
            x[0] == "D"
            and x[-1] == "D"
            and x[self.z0 - 1] == "D"
            and y[0] == "L"
            and y[-1] == "L"
        )

    @cached_property
    def x_stats(self) -> "LabelStats":
        return LabelStats(self.x)

    @cached_property
    def y_stats(self) -> "LabelStats":
        return LabelStats(self.y)

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


class LabelStats:
    """Prefix counts and occurrence positions for a two-letter sequence.

    ``ct(l, i)`` counts occurrences of label ``l`` among the first ``i``
    characters; ``pos(l, i)`` is the position of the i-th occurrence.  Both
    honor the extension conventions: ``ct(l, 0) = 0``, ``pos(l, 0) = 0``,
    and ``pos(l, i) = n`` once ``i`` exceeds the occurrence count.

    >>> st = LabelStats("DUDD")
    >>> [st.ct("D", i) for i in range(5)]
    [0, 1, 1, 2, 3]
    >>> [st.pos("D", i) for i in (1, 2, 3)], st.pos("U", 1), st.pos("U", 2)
    ([1, 3, 4], 2, 4)
    """

    __slots__ = ("sequence", "n", "alphabet", "_ct", "_pos")

    def __init__(self, sequence: str | Iterable[str]) -> None:
        seq = sequence if isinstance(sequence, str) else "".join(sequence)
        if not seq:
            raise ValueError("empty label sequence")
        if _over(seq, b"DU"):
            alphabet = _X_ALPHABET
        elif _over(seq, b"LR"):
            alphabet = _Y_ALPHABET
        else:
            raise ValueError("labels must be over {U,D} or {L,R}")
        n = len(seq)
        first = np.frombuffer(seq.encode("ascii"), dtype=np.uint8) == ord(alphabet[0])
        # one prefix sum: the second letter's count is i minus the first's
        ct_first = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(first, out=ct_first[1:])
        ct_second = np.arange(n + 1, dtype=np.int64)
        ct_second -= ct_first
        ct: dict[str, np.ndarray] = {}
        pos: dict[str, np.ndarray] = {}
        for label, table, mask in (
            (alphabet[0], ct_first, first),
            (alphabet[1], ct_second, ~first),
        ):
            m = int(table[-1])
            padded = np.empty(n + 2, dtype=np.int64)
            padded[0] = 0
            np.add(np.flatnonzero(mask), 1, out=padded[1 : 1 + m])
            padded[1 + m :] = n
            table.setflags(write=False)
            padded.setflags(write=False)
            ct[label] = table
            pos[label] = padded
        self.sequence = seq
        self.n = n
        self.alphabet = alphabet
        self._ct = ct
        self._pos = pos

    def count(self, label: str) -> int:
        """Total occurrences of ``label``."""
        return int(self._ct[label][-1])

    def ct(self, label: str, i: int) -> int:
        return int(self._ct[label][i])

    def pos(self, label: str, i: int) -> int:
        if i > self.n + 1:
            return self.n
        return int(self._pos[label][i])

    def ct_table(self, label: str) -> np.ndarray:
        """Prefix counts, indexed 0..n (read-only)."""
        return self._ct[label]

    def pos_table(self, label: str) -> np.ndarray:
        """Padded positions, indexed 0..n+1 (read-only); entry 0 is 0."""
        return self._pos[label]

    def positions(self, label: str) -> np.ndarray:
        """Actual occurrence positions of ``label``, 1-based (read-only)."""
        return self._pos[label][1 : 1 + self.count(label)]

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
    (6) run over occurrence counts, not sequence positions.  A report lists
    one witness pair per failing condition and label.  See
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
    first, second = stats.alphabet
    dev_ct = stats.ct_table(first) - stats.ct_table(second)  # 2 ct(i) - i
    mirrored: dict[int, tuple[int, int, int] | None] = {}
    for label in stats.alphabet:
        m = stats.count(label)
        dev_pos = np.arange(0, -2 * (m + 1), -2, dtype=np.int64)
        dev_pos += stats.pos_table(label)[: m + 1]
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
            elif cond == 3:
                hit = _window_extremes(dev_pos, reach, bound)
            elif cond == 4:
                hit = _long_range_violation(dev_pos, d_min, 2.0)
            elif cond == 5:
                k = int(np.argmax(np.abs(dev_ct)))
                hit = mirrored[5] = (k, 0, abs(int(dev_ct[k])))
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
    if not margin_ok(pair.n, pair.z0):
        return False
    return (
        petrov_check(pair.x_stats, pair.n, conditions).passed
        and petrov_check(pair.y_stats, pair.n, conditions).passed
    )


def project(p: Sequence[int] | np.ndarray) -> AnchoredPair:
    """Project a square permutation to its anchored pair.

    Columns whose point is a minimum record get ``X = D``, maxima get
    ``U``; rows whose point is a left record get ``Y = L``, right records
    get ``R``; points that are simultaneously minima and maxima (the two
    diagonals) count as ``D`` and ``L``.  Endpoints are forced to ``D`` and
    ``L``, and the anchor is the column of value 1.

    >>> project((1, 2, 3, 4))
    AnchoredPair(x='DDDD', y='LLLL', z0=1)
    >>> project((4, 3, 2, 1))
    AnchoredPair(x='DDDD', y='LLLL', z0=4)
    """
    arr = _as_value_array(p)
    n = arr.size
    lrmax, lrmin, rlmax, rlmin = _record_masks(arr)
    if not (lrmax | lrmin | rlmax | rlmin).all():
        raise ValueError("permutation is not square")
    is_min = lrmin | rlmin  # ties (diagonal points) resolve to D
    is_left = lrmin | lrmax  # and to L
    is_min[0] = is_min[-1] = True
    x = _labels_to_string(is_min, "D", "U")
    by_value = np.empty(n, dtype=bool)
    by_value[arr - 1] = is_left
    by_value[0] = by_value[-1] = True
    y = _labels_to_string(by_value, "L", "R")
    z0 = int(np.flatnonzero(arr == 1)[0]) + 1
    return AnchoredPair(x, y, z0)


def _anchor_counts(pair: AnchoredPair) -> tuple[int, int, int, int]:
    """``(cd, z1, z2, z3)``: the D count up to the anchor and the anchors."""
    if not pair.good:
        raise ValueError("pair is not good")
    sx, sy = pair.x_stats, pair.y_stats
    cd = sx.ct("D", pair.z0)
    z1 = sy.pos("L", cd)
    z2 = sx.pos("U", sy.count("L") - cd)
    z3 = sy.pos("R", sx.count("D") - cd)
    return cd, z1, z2, z3


def anchors(pair: AnchoredPair) -> tuple[int, int, int]:
    """The three derived anchors (z1, z2, z3) of a good pair.

    z1 is the row of the leftmost point, z2 the column of the highest
    point, z3 the row of the rightmost point, read off the label tables:

    >>> anchors(AnchoredPair("DUDD", "LLRL", 3))
    (2, 2, 3)
    >>> anchors(AnchoredPair("D" * 5, "L" * 5, 1))
    (1, 5, 5)
    """
    return _anchor_counts(pair)[1:]


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
    """The matching kernel of :func:`build_lambdas` and :func:`reconstruct`.

    Each family is a pair of (columns, rows) views of the padded position
    tables, reversed where the family runs backwards; the rows are
    scattered by column into the permutation.  The column slices
    partition the D and U positions whatever the counts, so only the rows
    can fail to be a bijection.  Returns the permutation (a view), the
    four families and the anchors.
    """
    cd, z1, z2, z3 = _anchor_counts(pair)
    n = pair.n
    sx, sy = pair.x_stats, pair.y_stats
    cu = sx.ct("U", z2)
    md, mu = sx.count("D"), sx.count("U")
    pos_d, pos_u = sx.pos_table("D"), sx.pos_table("U")
    pos_l, pos_r = sy.pos_table("L"), sy.pos_table("R")
    fams = (
        (pos_d[1 : cd + 1], pos_l[cd:0:-1]),
        (pos_u[1 : cu + 1], pos_l[cd + 1 : cd + cu + 1]),
        (pos_d[cd + 1 : md + 1], pos_r[1 : md - cd + 1]),
        (pos_u[cu + 1 : mu + 1], pos_r[n - cd - cu : md - cd : -1]),
    )
    out = np.empty(n + 1, dtype=np.int64)  # 1-based: entry 0 is unused
    for cols, rows in fams:
        out[cols] = rows
    perm = out[1:]
    seen = np.zeros(n + 1, dtype=bool)
    seen[perm] = True
    if not seen[1:].all():  # n rows cover 1..n exactly when each appears once
        raise MatchingFailure("label matching is not a bijection")
    return perm, fams, (z1, z2, z3)


def build_lambdas(pair: AnchoredPair) -> LambdaFamilies:
    """Match label occurrences into the four point families.

    Family 1 pairs the D columns up to the anchor with the L rows below
    z1 in reverse, family 2 the U columns up to z2 with the remaining L
    rows, family 3 the later D columns with the R rows, family 4 the
    remaining U columns with the remaining R rows, exactly one label
    occurrence each.  Raises :class:`MatchingFailure` when the families do
    not assemble into a permutation, which is how irregular pairs
    (typically with degenerate, padded position lookups) surface.
    """
    _, fams, (z1, z2, z3) = _match(pair)
    return LambdaFamilies(
        *(np.column_stack(f) for f in fams), z1=int(z1), z2=int(z2), z3=int(z3)
    )


def reconstruct(pair: AnchoredPair) -> np.ndarray:
    """Rebuild the permutation whose projection is the given pair.

    Total on good pairs: construction is attempted unconditionally and
    validated, so irregular pairs fail with :class:`MatchingFailure`
    rather than returning garbage.  On the regular set this inverts
    :func:`project` exactly.

    >>> reconstruct(AnchoredPair("DUDD", "LLRL", 3)).tolist()
    [2, 4, 1, 3]
    """
    return _match(pair)[0]
