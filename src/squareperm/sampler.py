"""Samplers for anchored pairs and square permutations.

The pipeline is rejection all the way down.  A *good* anchored pair is a
product-uniform draw of labels conditioned on the anchor column reading
``D``; a *regular* pair additionally keeps its anchor away from the ends
and its labels inside the Petrov envelope.  A square permutation is a
uniform good pair that reconstructs to a permutation projecting back to
it: :func:`~squareperm.encoding.project` is injective and
:func:`~squareperm.encoding.reconstruct` inverts it on every square, so
the accepted pairs are exactly the projections of ``Sq(n)``, each once,
and the draw is exactly uniform on ``Sq(n)`` at every size.  The round
trip is checked column by column on the permutation's record masks,
without projecting the permutation again: a matching that succeeds is a
bijection by its label counts and puts row 1 in the anchor column, and
on a square whose minima are the D columns every row reads the letter
the matching dealt it, so none of these needs a pass (see
:func:`_square_of`).  The draw builds no label tables; they are built
from the pair's masks when something first reads them.

``sample_good``, ``sample_regular``, ``sample_conditioned`` and
``_sample_square`` run one rejection loop and differ only in what they
hand it: the anchor law (uniform; uniform, with anchors outside the
margin rejected; fixed) and the acceptance predicate (none, the Petrov
screen on both label strings, or the round trip).  Every experiment
draws its squares through the round trip: ``sample_square_approx`` with
a uniform anchor, the fluctuation replicates with the anchor fixed.
``sample_regular`` and ``sample_conditioned`` name the paper's regular
pairs.

Generators follow a two-level scheme: ``replicate_rng(master, k)`` derives
the stream for replicate ``k``, so parallel and serial runs agree
draw-for-draw per replicate index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .core import Records, _record_masks
from .encoding import (
    DEFAULT_PETROV_CONDITIONS,
    AnchoredPair,
    MatchingFailure,
    _match,
    margin_ok,
    passes_petrov,
)

__all__ = [
    "SamplerStats",
    "SamplingBudgetExceeded",
    "replicate_rng",
    "sample_conditioned",
    "sample_good",
    "sample_regular",
    "sample_square_approx",
]

DEFAULT_MAX_ATTEMPTS = 1_000_000


@dataclass
class SamplerStats:
    """Attempt accounting for the rejection pipeline."""

    attempts: int = 0
    rejects_anchor_label: int = 0  # anchor column drew U
    rejects_margin: int = 0  # anchor too close to an end
    rejects_petrov: int = 0
    rejects_roundtrip: int = 0  # the pair is no square's projection

    @property
    def accepts(self) -> int:
        return self.attempts - (
            self.rejects_anchor_label
            + self.rejects_margin
            + self.rejects_petrov
            + self.rejects_roundtrip
        )


class SamplingBudgetExceeded(RuntimeError):
    """No acceptable draw within the attempt cap; carries the stats."""

    def __init__(self, message: str, stats: SamplerStats):
        super().__init__(message)
        self.stats = stats


def replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent stream for one replicate of a seeded experiment."""
    return np.random.default_rng((int(master_seed), int(replicate)))


def _random_label_mask(rng: np.random.Generator, n: int, forced: Iterable[int]) -> np.ndarray:
    """Uniform label mask, True for the alphabet's first letter (a drawn 0
    bit), with the given 1-based positions forced to it.

    The mask is ``rng.integers(0, 2, size=n, dtype=np.uint8) == 0`` bit
    for bit, and leaves the generator in the same state: that draw takes
    one 32-bit word per four values, least significant byte first, and
    keeps the top bit of each byte.  Here the words are drawn whole, and
    a byte below 128 reads as the first letter.
    """
    words = rng.integers(0, 2**32, size=-(-n // 4), dtype=np.uint32)
    mask = words.astype("<u4", copy=False).view(np.uint8)[:n] < 128
    for i in forced:
        mask[i - 1] = True
    return mask


def _draw_pair(rng: np.random.Generator, n: int, z0: int) -> AnchoredPair:
    x_is_d = _random_label_mask(rng, n, (1, n, z0))
    return AnchoredPair._of_masks(x_is_d, _random_label_mask(rng, n, (1, n)), z0)


def _anchor_label_is_d(rng: np.random.Generator, n: int, z0: int) -> bool:
    # endpoints are forced to D; interior anchors flip a fair coin
    if z0 == 1 or z0 == n:
        return True
    return int(rng.integers(0, 2)) == 0


def _rejection_loop(
    rng: np.random.Generator | int | None,
    n: int,
    draw_anchor: Callable[[np.random.Generator], int | None],
    accept: Callable[[AnchoredPair], Any],
    rejects: str,
    max_attempts: float,
    exhausted: str,
) -> tuple[Any, SamplerStats]:
    """The one rejection loop behind every sampler, with its accounting.

    Each attempt redraws everything, cheap checks first: ``draw_anchor``
    gives the anchor, or None for one outside the margin; the anchor
    column must then read ``D`` (one coin flip); only a surviving attempt
    draws its label strings and hands the pair to ``accept``, which
    returns the sample or None to reject it, counted in the
    :class:`SamplerStats` field named ``rejects``.  The rejection order
    does not change the conditioned law.  Raises
    :class:`SamplingBudgetExceeded` with the message ``exhausted`` after
    ``max_attempts`` attempts.
    """
    gen = np.random.default_rng(rng)
    stats = SamplerStats()
    while stats.attempts < max_attempts:
        stats.attempts += 1
        z0 = draw_anchor(gen)
        if z0 is None:
            stats.rejects_margin += 1
            continue
        if not _anchor_label_is_d(gen, n, z0):
            stats.rejects_anchor_label += 1
            continue
        sample = accept(_draw_pair(gen, n, z0))
        if sample is not None:
            return sample, stats
        setattr(stats, rejects, getattr(stats, rejects) + 1)
    raise SamplingBudgetExceeded(exhausted, stats)


def _petrov_screen(conditions: Iterable[int]) -> Callable[[AnchoredPair], AnchoredPair | None]:
    conditions = tuple(conditions)
    return lambda pair: pair if passes_petrov(pair, conditions) else None


def _square_of(pair: AnchoredPair) -> tuple[AnchoredPair, np.ndarray, Records] | None:
    """``(pair, p, masks)`` for the square permutation ``p`` projecting to
    ``pair``, with its record masks (lrmax, lrmin, rlmax, rlmin), or None
    if there is none.

    ``project`` is injective and ``reconstruct`` inverts it, so the
    matching's permutation is the preimage exactly when it is square and
    projects back to the pair.  Both are read off the record masks,
    column by column: every point is a record, and the minima are the D
    columns.  The anchor needs no check (the matching puts row 1 in
    column z0), nor does the matching (one that succeeds is a bijection),
    nor do the row labels.  The matching deals L rows to the D columns up
    to z0 and the U columns up to z2, and R rows to the rest; projection
    reads a point's row as L when it is a left minimum, or a left maximum
    that is no right minimum.  Left of both the lowest point (column z0)
    and the highest (column z2, or 1 when z2 = 0), a point of a square is
    a left record and reads L; right of both, a right record that reads R.
    Between them it is a right minimum or a left maximum when z0 < z2,
    reading R exactly when it is a minimum, and a left minimum or a right
    maximum when z2 < z0, reading L exactly when it is a minimum: where
    the minima are the D columns, always the letter the matching dealt.
    Rows 1 and n read L on both sides.  The label tables are not built.
    """
    try:
        p = _match(pair)[0]
    except MatchingFailure:
        return None
    masks = lrmax, lrmin, rlmax, rlmin = _record_masks(p)
    # the end columns are minima of both kinds and read D
    seen = lrmin | rlmin
    if not np.array_equal(seen, pair.x_is_d):
        return None
    seen |= lrmax
    seen |= rlmax
    if not seen.all():
        return None
    return pair, p, masks


def sample_good(n: int, rng: np.random.Generator | int | None = None) -> AnchoredPair:
    """Exactly uniform draw from the good anchored pairs of size ``n``.

    Labels are product-uniform with the endpoints forced, the anchor is
    uniform over columns, and draws are restarted until the anchor column
    reads ``D`` (acceptance approaches 1/2, so two attempts on average).
    """
    if n < 3:
        raise ValueError("good pairs need n >= 3")
    # accept every pair and set no budget: the loop ends with probability one
    pair, _ = _rejection_loop(
        rng, n, lambda gen: int(gen.integers(1, n + 1)), lambda pair: pair, "", math.inf, ""
    )
    return pair


def sample_regular(
    n: int,
    rng: np.random.Generator | int | None = None,
    conditions: Iterable[int] = DEFAULT_PETROV_CONDITIONS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[AnchoredPair, SamplerStats]:
    """Uniform draw from the regular good pairs, with rejection accounting.

    The anchor is uniform over columns; one outside the margin is a
    margin reject, before any other draw.  Raises ValueError before the
    first draw when the margin holds no column, as at every size up to
    1025 and at a few just above.
    """
    if n < 3:
        raise ValueError("regular pairs need n >= 3")
    # the smallest column at or above n^0.9 is the first the margin can hold
    if not margin_ok(n, math.ceil(float(n) ** 0.9)):
        raise ValueError(f"no regular pair of size {n}: the anchor margin [n^0.9, n - n^0.9] is empty")

    def uniform_in_margin(gen: np.random.Generator) -> int | None:
        z0 = int(gen.integers(1, n + 1))
        return z0 if margin_ok(n, z0) else None

    return _rejection_loop(
        rng, n, uniform_in_margin, _petrov_screen(conditions), "rejects_petrov", max_attempts,
        f"no regular pair of size {n} within {max_attempts} attempts",
    )


def sample_conditioned(
    n: int,
    z0: int,
    rng: np.random.Generator | int | None = None,
    conditions: Iterable[int] = DEFAULT_PETROV_CONDITIONS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[AnchoredPair, SamplerStats]:
    """Uniform Petrov-passing good pair with the anchor fixed at ``z0``.

    The margin is deliberately not enforced: the anchor is the caller's
    choice, and the limit statements conditioned on an anchor sequence
    remain valid for anchors outside the margin window.
    """
    if n < 3:
        raise ValueError("good pairs need n >= 3")
    if not 1 <= z0 <= n:
        raise ValueError("anchor out of range")
    return _rejection_loop(
        rng, n, lambda gen: z0, _petrov_screen(conditions), "rejects_petrov", max_attempts,
        f"no Petrov-passing pair of size {n} anchored at {z0} "
        f"within {max_attempts} attempts",
    )


def _sample_square(
    n: int, rng: np.random.Generator | int | None = None, z0: int | None = None
) -> tuple[tuple[AnchoredPair | None, np.ndarray, Records | None], SamplerStats]:
    """:func:`sample_square_approx` with its rejection accounting; with
    ``z0`` given, exactly uniform on the squares whose value 1 sits at
    column ``z0``.

    Returns ``((pair, p, masks), stats)`` as :func:`_square_of` gives
    them.  Below size 3 no good pair exists and every permutation is
    square: an unanchored draw there carries ``p`` alone.
    """
    if n < 1:
        raise ValueError("square permutations need n >= 1")
    if z0 is None:
        if n <= 2:
            perm = np.random.default_rng(rng).permutation(n) + 1
            return (None, perm, None), SamplerStats(attempts=1)
        anchor = f"of size {n}"
        draw_anchor = lambda gen: int(gen.integers(1, n + 1))
    elif n >= 3 and 1 <= z0 <= n:
        anchor = f"of size {n} anchored at {z0}"
        draw_anchor = lambda gen: z0
    else:
        raise ValueError(f"anchored squares need n >= 3 and 1 <= z0 <= n, not n={n}, z0={z0}")
    return _rejection_loop(
        rng, n, draw_anchor, _square_of, "rejects_roundtrip", DEFAULT_MAX_ATTEMPTS,
        f"no square permutation {anchor} within {DEFAULT_MAX_ATTEMPTS} attempts",
    )


def sample_square_approx(
    n: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Exactly uniform draw from the square permutations of size ``n >= 1``.

    Draws a uniform good pair and accepts its reconstruction when that
    projects back onto the pair; the accepted pairs are the projections
    of ``Sq(n)``, each once.  A good pair is accepted with probability
    ``count_square_formula(n) / count_good_pairs(n)``: 0.6 at n = 3,
    about 0.93 at n = 10^3 and tending to 1.
    """
    return _sample_square(n, rng)[0][1]
