"""Samplers for anchored pairs and square permutations.

The pipeline is rejection all the way down: a *good* anchored pair is a
product-uniform draw of labels conditioned on the anchor column reading
``D``; a *regular* pair additionally keeps its anchor away from the ends
and its labels inside the Petrov envelope; a square permutation is the
reconstruction of a regular pair.  The last step is exactly uniform over
the squares reconstructed from regular pairs, and those all have their
anchor ``z0`` (the column of value 1) in the window
``[n^0.9, n - n^0.9]``.  The share it leaves out, about 2 n^-0.1, falls
only slowly: about 63% of the square permutations at n = 10^5 and 40% at
n = 10^7, so at practical sizes the draw is not uniform on all squares
(ROADMAP item 1).  For sizes up to 10 an exact-uniform oracle
draws from the exhaustive enumeration.

Generators follow a two-level scheme: ``replicate_rng(master, k)`` derives
the stream for replicate ``k``, so parallel and serial runs agree
draw-for-draw per replicate index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import MAX_ENUMERATION_SIZE, enumerate_square
from .encoding import (
    DEFAULT_PETROV_CONDITIONS,
    AnchoredPair,
    margin_ok,
    petrov_check,
    project,
    reconstruct,
)

__all__ = [
    "SamplerStats",
    "SamplingBudgetExceeded",
    "replicate_rng",
    "sample_conditioned",
    "sample_good",
    "sample_regular",
    "sample_square_approx",
    "sample_square_exact",
]

DEFAULT_MAX_ATTEMPTS = 1_000_000

RngLike = "np.random.Generator | int | None"


@dataclass
class SamplerStats:
    """Attempt accounting for the rejection pipeline."""

    attempts: int = 0
    rejects_anchor_label: int = 0  # anchor column drew U
    rejects_margin: int = 0  # anchor too close to an end
    rejects_petrov: int = 0

    @property
    def accepts(self) -> int:
        return self.attempts - (
            self.rejects_anchor_label + self.rejects_margin + self.rejects_petrov
        )


class SamplingBudgetExceeded(RuntimeError):
    """No acceptable draw within the attempt cap; carries the stats."""

    def __init__(self, message: str, stats: SamplerStats):
        super().__init__(message)
        self.stats = stats


def ensure_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Pass generators through; treat anything else as a seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent stream for one replicate of a seeded experiment."""
    return np.random.default_rng((int(master_seed), int(replicate)))


def _random_label_string(
    rng: np.random.Generator, n: int, alphabet: tuple[str, str], forced: Iterable[int]
) -> str:
    """Uniform label string with the given 1-based positions forced low."""
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    for i in forced:
        bits[i - 1] = 0
    low, high = ord(alphabet[0]), ord(alphabet[1])
    bits *= np.uint8(high - low)  # 0 or the gap, then shifted onto the letters
    bits += np.uint8(low)
    return bits.tobytes().decode("ascii")


def _draw_pair(rng: np.random.Generator, n: int, z0: int) -> AnchoredPair:
    x = _random_label_string(rng, n, ("D", "U"), (1, n, z0))
    y = _random_label_string(rng, n, ("L", "R"), (1, n))
    return AnchoredPair(x, y, z0)


def _anchor_label_is_d(rng: np.random.Generator, n: int, z0: int) -> bool:
    # endpoints are forced to D; interior anchors flip a fair coin
    if z0 == 1 or z0 == n:
        return True
    return int(rng.integers(0, 2)) == 0


def sample_good(n: int, rng: np.random.Generator | int | None = None) -> AnchoredPair:
    """Exactly uniform draw from the good anchored pairs of size ``n``.

    Labels are product-uniform with the endpoints forced, the anchor is
    uniform over columns, and draws are restarted until the anchor column
    reads ``D`` (acceptance approaches 1/2, so two attempts on average).
    """
    if n < 3:
        raise ValueError("good pairs need n >= 3")
    gen = ensure_rng(rng)
    while True:
        z0 = int(gen.integers(1, n + 1))
        if _anchor_label_is_d(gen, n, z0):
            return _draw_pair(gen, n, z0)


def sample_regular(
    n: int,
    rng: np.random.Generator | int | None = None,
    conditions: Iterable[int] = DEFAULT_PETROV_CONDITIONS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[AnchoredPair, SamplerStats]:
    """Uniform draw from the regular good pairs, with rejection accounting.

    Each attempt redraws everything; cheap checks run first (the margin
    needs only the anchor, the anchor label one coin flip), so full label
    strings and Petrov checks only materialize for surviving attempts.
    The rejection order does not change the conditioned law.
    """
    if n < 3:
        raise ValueError("regular pairs need n >= 3")
    gen = ensure_rng(rng)
    stats = SamplerStats()
    conditions = tuple(conditions)
    while stats.attempts < max_attempts:
        stats.attempts += 1
        z0 = int(gen.integers(1, n + 1))
        if not margin_ok(n, z0):
            stats.rejects_margin += 1
            continue
        if not _anchor_label_is_d(gen, n, z0):
            stats.rejects_anchor_label += 1
            continue
        pair = _draw_pair(gen, n, z0)
        if (
            petrov_check(pair.x_stats, n, conditions).passed
            and petrov_check(pair.y_stats, n, conditions).passed
        ):
            return pair, stats
        stats.rejects_petrov += 1
    raise SamplingBudgetExceeded(
        f"no regular pair of size {n} within {max_attempts} attempts "
        "(the margin interval is empty below n=1024)",
        stats,
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
    gen = ensure_rng(rng)
    stats = SamplerStats()
    conditions = tuple(conditions)
    while stats.attempts < max_attempts:
        stats.attempts += 1
        if not _anchor_label_is_d(gen, n, z0):
            stats.rejects_anchor_label += 1
            continue
        pair = _draw_pair(gen, n, z0)
        if (
            petrov_check(pair.x_stats, n, conditions).passed
            and petrov_check(pair.y_stats, n, conditions).passed
        ):
            return pair, stats
        stats.rejects_petrov += 1
    raise SamplingBudgetExceeded(
        f"no Petrov-passing pair of size {n} anchored at {z0} "
        f"within {max_attempts} attempts",
        stats,
    )


def sample_square_approx(
    n: int,
    rng: np.random.Generator | int | None = None,
    conditions: Iterable[int] = DEFAULT_PETROV_CONDITIONS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> np.ndarray:
    """Square permutation of size ``n`` from a uniform regular pair.

    Reconstructs a uniform regular pair; the result is validated to be
    square before it is returned.  Exactly uniform on the squares it can
    reach, whose anchors all lie in ``[n^0.9, n - n^0.9]``: about 37% of
    the square permutations at n = 10^5 and 60% at n = 10^7, so not
    uniform on all of them at the sizes in use (ROADMAP item 1).
    """
    pair, _ = sample_regular(n, rng, conditions, max_attempts)
    p = reconstruct(pair)
    # cheap guard: projecting again must reproduce the pair we built from
    if project(p) != pair:
        raise RuntimeError("reconstructed permutation does not project back")
    return p


@lru_cache(maxsize=4)
def _square_table(n: int) -> np.ndarray:
    return np.array(enumerate_square(n), dtype=np.int64)


def sample_square_exact(
    n: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Exactly uniform square permutation, for ``n`` up to 10 (oracle)."""
    if not 1 <= n <= MAX_ENUMERATION_SIZE:
        raise ValueError(f"exact sampling supported for 1 <= n <= {MAX_ENUMERATION_SIZE}")
    gen = ensure_rng(rng)
    table = _square_table(n)
    return table[int(gen.integers(0, len(table)))].copy()
