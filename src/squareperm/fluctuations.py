"""Side-path fluctuations of square permutations around the limit shape.

Around an anchor in the right half of the square, three families of record
points trace the sides of the limiting rectangle: the right-to-left minima
(``DR``), the low left-to-right minima (``DL``), and the right-to-left
maxima past the anchor (``UR``).  Rotating each family onto its limit line
and rescaling by the square root of its size turns the residuals into
random paths; jointly, the three paths converge to coupled sums of four
independent Brownian motions,

    (F_DR, F_DL, F_UR)  ->  (B1 + B2, B3 + B1, B4 + B2),

so each path has variance 2t, neighboring paths sharing a label sequence
have covariance t, and the opposite pair is asymptotically independent.
:func:`endpoint_stats` estimates these moments over seeded replicates.

Rotated coordinates are kept as exact integers with the scale factor
(sqrt(2)/2 for the 45-degree rotations) carried separately, so the split
of each rotated family into its X- and Y-label components is an exact
integer identity, checked on every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import Records, _square_records
from .encoding import AnchoredPair
from .sampler import _sample_square, replicate_rng

__all__ = [
    "AnchorAssumptionError",
    "EndpointStats",
    "PointFamily",
    "Polyline",
    "component_families",
    "conditioning_interval",
    "endpoint_stats",
    "extract_families",
    "minimum_conditioning_size",
    "path_F",
    "path_FX",
    "path_FY",
    "replicate_path_values",
    "rotate_families",
    "stats_from_values",
]

HALF_SQRT2 = math.sqrt(2.0) / 2.0

PATH_KINDS = ("P_DR", "P_DL", "P_UR")


class AnchorAssumptionError(ValueError):
    """The anchor is not deep enough in the right half of the square."""


@dataclass(frozen=True)
class PointFamily:
    """A finite family of lattice points, ordered by family index.

    ``points[k]`` is the point of index ``first_index + k``; semantic
    coordinates are ``scale * points``.  The raw families keep their grid
    coordinates (scale 1); rotated families carry sqrt(2)/2.
    """

    kind: str
    points: np.ndarray  # shape (size, 2), integer
    scale: float = 1.0
    first_index: int = 0  # 0 for DR/DL-derived families, 1 for UR-derived

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be an (m, 2) array")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def xs(self) -> np.ndarray:
        return self.points[:, 0]

    def ys(self) -> np.ndarray:
        return self.points[:, 1]


@dataclass(frozen=True)
class Polyline:
    """Piecewise-linear function on [0, 1] given by its breakpoints."""

    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.ts.shape != self.values.shape or self.ts.ndim != 1:
            raise ValueError("breakpoint arrays must be 1-d and equal length")
        if self.ts[0] != 0.0 or self.ts[-1] != 1.0:
            raise ValueError("breakpoints must span [0, 1]")
        if np.any(np.diff(self.ts) < 0):
            raise ValueError("breakpoint times must be nondecreasing")

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        out = np.interp(t, self.ts, self.values)
        return float(out) if np.isscalar(t) else out


def _assumption_floor(n: int) -> float:
    return n / 2 + 10 * float(n) ** 0.6


def _columns(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An unfilled ``(m, 2)`` int64 family and views of its two columns."""
    pts = np.empty((m, 2), dtype=np.int64)
    return pts, pts[:, 0], pts[:, 1]


def _family(arr: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Points ``(i + 1, arr[i])`` for the 0-based positions ``at``, in order."""
    pts, cols, rows = _columns(at.size)
    np.add(at, 1, out=cols)
    np.take(arr, at, out=rows)
    return pts


def extract_families(
    p: Sequence[int] | np.ndarray,
) -> tuple[PointFamily, PointFamily, PointFamily]:
    """The three record families DR, DL, UR of a square permutation.

    DR holds the right-to-left minima (corner ``(z0, 1)`` first, then
    rightward), DL the left-to-right minima with values at most
    ``n - z0 + 1`` (corner first, then leftward), UR the right-to-left
    maxima at or past the anchor (leftmost first).  Requires the anchor
    assumption ``z0 > n/2 + 10 n^0.6``, which puts the whole top-left
    corner strictly before the anchor.
    """
    return _families_of(*_square_records(p))


def _families_of(arr: np.ndarray, masks: Records) -> tuple[PointFamily, PointFamily, PointFamily]:
    """:func:`extract_families` of the int64 permutation ``arr`` with its
    record masks, which the caller has validated."""
    _, lrmin, rlmax, rlmin = masks
    n = arr.size
    z0 = int(np.argmin(arr)) + 1
    if not z0 > _assumption_floor(n):
        raise AnchorAssumptionError(
            f"anchor z0={z0} must exceed n/2 + 10 n^0.6 = {_assumption_floor(n):.2f}"
        )
    dr = _family(arr, np.flatnonzero(rlmin))
    # corner first: walk leftward
    dl = _family(arr, np.flatnonzero(lrmin & (arr <= n - z0 + 1))[::-1])
    ur = _family(arr, np.flatnonzero(rlmax[z0 - 1 :]) + (z0 - 1))

    return (
        PointFamily("DR", dr),
        PointFamily("DL", dl),
        PointFamily("UR", ur, first_index=1),
    )


def rotate_families(
    pair: AnchoredPair,
    families: tuple[PointFamily, PointFamily, PointFamily],
) -> tuple[PointFamily, PointFamily, PointFamily]:
    """Rotate the three families onto their limit lines.

    DR rotates clockwise by 45 degrees about the corner ``(z0, 1)``, DL
    clockwise by 135 degrees about the same corner, UR counter-clockwise
    by 45 degrees with its height translated so the first point lands at
    height zero.  Coordinates are returned as exact integers with the
    sqrt(2)/2 scale carried on the family.
    """
    dr, dl, ur = families
    z0, n = pair.z0, pair.n
    x, y = dr.xs(), dr.ys()
    p_dr, a, b = _columns(x.size)
    np.add(x, y, out=a)
    a -= z0 + 1
    np.subtract(y, x, out=b)
    b += z0 - 1
    x, y = dl.xs(), dl.ys()
    p_dl, a, b = _columns(x.size)
    np.subtract(y, x, out=a)
    a += z0 - 1
    np.add(x, y, out=b)
    np.subtract(z0 + 1, b, out=b)
    x, y = ur.xs(), ur.ys()
    if x.size == 0:
        raise ValueError("empty UR family")
    p_ur, a, b = _columns(x.size)
    np.subtract(x, y, out=a)
    a += 2 * n - 3 * z0 + 1
    np.add(x, y, out=b)
    b -= b[0]
    return (
        PointFamily("P_DR", p_dr, HALF_SQRT2),
        PointFamily("P_DL", p_dl, HALF_SQRT2),
        PointFamily("P_UR", p_ur, HALF_SQRT2, first_index=1),
    )


def component_families(pair: AnchoredPair) -> tuple[PointFamily, ...]:
    """The six label components (X_DR, Y_DR, X_DL, Y_DL, X_UR, Y_UR).

    Each rotated family's height splits into a part read off the column
    labels and a part read off the row labels; the split is exact:
    ``y(P_i) = y(X_i) + y(Y_i)`` in integer coordinates.  Computed from
    the pair's label tables alone.
    """
    if not pair.good:
        raise ValueError("pair is not good")
    n, z0 = pair.n, pair.z0
    if not z0 > _assumption_floor(n):
        raise AnchorAssumptionError(
            f"anchor z0={z0} must exceed n/2 + 10 n^0.6 = {_assumption_floor(n):.2f}"
        )
    sx, sy = pair.x_stats, pair.y_stats
    pos_d, pos_u = sx.pos_table("D"), sx.pos_table("U")
    pos_l, pos_r = sy.pos_table("L"), sy.pos_table("R")
    cdz, cuz = sx.ct("D", z0), sx.ct("U", z0)
    n_dr = sx.count("D") - cdz + 1
    n_dl = sy.ct("L", n - z0 + 1)
    n_ur = sx.count("U") - cuz + 1
    if n_dl > cdz:
        raise ValueError("pair too irregular: left minima outrun the anchor Ds")

    idx = np.arange(max(n_dr, n_dl, n_ur + 1), dtype=np.int64)
    two = 2 * idx

    def indexed(first: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Family ``first .. first + m - 1``: its array, its heights, 2i."""
        pts, i, h = _columns(m)
        i[:] = idx[first : first + m]
        return pts, h, two[first : first + m]

    x_dr, h, two_i = indexed(0, n_dr)
    # minus the distance of the i-th D past the anchor
    np.subtract(z0, pos_d[cdz : cdz + n_dr], out=h)
    h += two_i
    y_dr, h, two_i = indexed(0, n_dr)
    np.subtract(pos_r[:n_dr], 1, out=h)
    h -= two_i
    # the corner (z0, 1) is index 0 and is not an R occurrence: its height
    # is the anchor value 1, not a table lookup
    h[0] = 0

    x_dl, h, two_i = indexed(0, n_dl)
    # the distance of the i-th D before the anchor
    np.subtract(z0, pos_d[cdz + 1 - n_dl : cdz + 1][::-1], out=h)
    h -= two_i
    y_dl, h, two_i = indexed(0, n_dl)
    np.subtract(1, pos_l[1 : n_dl + 1], out=h)
    h += two_i

    x_ur, h, two_i = indexed(1, n_ur)
    after_u = pos_u[cuz + 1 : cuz + n_ur + 1]
    np.subtract(after_u, after_u[0], out=h)
    h -= two_i
    y_ur, h, two_i = indexed(1, n_ur)
    rr = pos_r[n - z0 + 1 - n_ur : n - z0 + 1][::-1]
    np.subtract(rr, rr[0], out=h)
    h += two_i

    return (
        PointFamily("X_DR", x_dr),
        PointFamily("Y_DR", y_dr),
        PointFamily("X_DL", x_dl),
        PointFamily("Y_DL", y_dl),
        PointFamily("X_UR", x_ur, first_index=1),
        PointFamily("Y_UR", y_ur, first_index=1),
    )


def _breakpoints(fam: PointFamily) -> tuple[np.ndarray, np.ndarray, int]:
    """(x, y, m): coordinates with the origin prepended for 1-indexed
    families, and the largest index m used for normalization."""
    pts = fam.points
    if fam.first_index == 1:
        pts = np.concatenate((np.zeros((1, 2), dtype=pts.dtype), pts))
    if pts.shape[0] < 2:
        raise ValueError(f"family {fam.kind} too small for a path")
    x = pts[:, 0].astype(np.float64)
    y = pts[:, 1].astype(np.float64)
    # a 1-indexed family may start a few lattice steps left of the origin;
    # fold such points onto it rather than breaking monotonicity
    np.maximum.accumulate(x, out=x)
    return x, y, pts.shape[0] - 1


def path_F(fam: PointFamily) -> Polyline:
    """Normalized residual path: breakpoints ``(x_i/x_m, scale * y_i/sqrt(m))``."""
    x, y, m = _breakpoints(fam)
    if x[-1] <= 0:
        raise ValueError(f"family {fam.kind} has no horizontal extent")
    return Polyline(x / x[-1], fam.scale * y / math.sqrt(m))


def path_FX(fam: PointFamily) -> Polyline:
    """Horizontal part: breakpoints ``(x_i/x_m, i/m)``."""
    x, _, m = _breakpoints(fam)
    if x[-1] <= 0:
        raise ValueError(f"family {fam.kind} has no horizontal extent")
    return Polyline(x / x[-1], np.arange(m + 1) / m)


def path_FY(fam: PointFamily) -> Polyline:
    """Vertical part: breakpoints ``(i/m, scale * y_i/sqrt(m))``; satisfies
    ``path_F = path_FY . path_FX`` exactly."""
    _, y, m = _breakpoints(fam)
    return Polyline(np.arange(m + 1) / m, fam.scale * y / math.sqrt(m))


def minimum_conditioning_size() -> int:
    """Smallest n whose anchor-conditioning interval is nonempty."""
    n = 3
    while not _assumption_floor(n) < n - float(n) ** 0.9:
        n += max(1, n // 20)
    while _assumption_floor(n - 1) < (n - 1) - float(n - 1) ** 0.9:
        n -= 1
    return n


@dataclass(frozen=True)
class EndpointStats:
    """Replicate moments of the three paths at fixed times."""

    times: tuple[float, ...]
    replicates: int
    values: np.ndarray  # shape (3, replicates, len(times)), order PATH_KINDS
    variances: dict[str, np.ndarray]
    variance_se: dict[str, np.ndarray]
    covariances: dict[tuple[str, str], np.ndarray]
    covariance_se: dict[tuple[str, str], np.ndarray]
    variance_target: np.ndarray  # 2t for every path
    covariance_target: dict[tuple[str, str], np.ndarray]

    def cov_matrix(self, time_index: int) -> np.ndarray:
        """Sample covariance of the three paths at one time (PSD)."""
        return np.cov(self.values[:, :, time_index])


def _check_sample_invariants(
    pair: AnchoredPair,
    rotated: tuple[PointFamily, PointFamily, PointFamily],
    components: tuple[PointFamily, ...],
) -> None:
    n = pair.n
    # The height split is exact on every square.  The two bounds below
    # follow from Petrov (5) and (6) on the labels, which an exact draw
    # meets with high probability only: (5) fails beyond n^0.6 against a
    # label-walk deviation of sd sqrt(n)/2, about 6 standard deviations
    # at these sizes (5.9 at n = 5*10^4, 6.3 at 10^5, 8.0 at 10^6).
    bound_x = 4 * float(n) ** 0.6 + 1
    p_dr, p_dl, p_ur = rotated
    x_dr, y_dr, x_dl, y_dl, x_ur, y_ur = components
    for rot, cx, cy in ((p_dr, x_dr, y_dr), (p_dl, x_dl, y_dl), (p_ur, x_ur, y_ur)):
        if not np.array_equal(rot.ys(), cx.ys() + cy.ys()):
            raise AssertionError(f"height split of {rot.kind} is not exact")
    m = p_dr.size
    dev = np.abs(p_dr.xs() - 4 * np.arange(m))
    if not dev.max() < bound_x:
        raise AssertionError("DR horizontal deviation exceeds 4 n^0.6 + 1")
    # with that deviation bound, F_X stays near the identity
    fx = path_FX(p_dr)
    sup = np.abs(fx.ts - fx.values).max()
    if not sup <= 2 * bound_x / float(p_dr.xs()[-1]):
        raise AssertionError("F_X of P_DR strays from the identity")


def conditioning_interval(n: int) -> tuple[float, float]:
    """Anchors (lo, hi] at which all three paths are defined and regular."""
    return _assumption_floor(n), n - float(n) ** 0.9


def replicate_path_values(
    n: int, t_n: int, times: tuple[float, ...], seed: int, k: int
) -> np.ndarray:
    """Path values (3, len(times)) of replicate ``k`` under master ``seed``.

    The replicate is a uniform square with its anchor at ``t_n``, drawn
    with the stream ``replicate_rng(seed, k)``; the draw hands over its
    pair and record masks.  Pure in its arguments, so replicates can run
    on any executor in any order and still assemble into the same
    statistics.
    """
    (pair, perm, masks), _ = _sample_square(n, replicate_rng(seed, k), t_n)
    rotated = rotate_families(pair, _families_of(perm, masks))
    # about 12 MB at n = 10^6 that need not outlive the families: the
    # label tables built next set the replicate's peak
    del perm, masks
    comps = component_families(pair)
    _check_sample_invariants(pair, rotated, comps)
    t_arr = np.asarray(tuple(float(t) for t in times))
    return np.stack([path_F(fam)(t_arr) for fam in rotated])


def stats_from_values(times: Iterable[float], values: np.ndarray) -> EndpointStats:
    """Assemble endpoint moments from stacked replicate path values."""
    times = tuple(float(t) for t in times)
    t_arr = np.asarray(times)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3 or values.shape[0] != 3 or values.shape[2] != len(times):
        raise ValueError("values must have shape (3, replicates, len(times))")
    r = values.shape[1]
    if r < 2:
        raise ValueError("need at least two replicates")
    variances: dict[str, np.ndarray] = {}
    variance_se: dict[str, np.ndarray] = {}
    for f, kind in enumerate(PATH_KINDS):
        v = values[f].var(axis=0, ddof=1)
        variances[kind] = v
        variance_se[kind] = v * math.sqrt(2.0 / (r - 1))
    covariances: dict[tuple[str, str], np.ndarray] = {}
    covariance_se: dict[tuple[str, str], np.ndarray] = {}
    pairs = ((0, 1), (0, 2), (1, 2))
    for a, b in pairs:
        key = (PATH_KINDS[a], PATH_KINDS[b])
        ca = values[a] - values[a].mean(axis=0)
        cb = values[b] - values[b].mean(axis=0)
        cov = (ca * cb).sum(axis=0) / (r - 1)
        covariances[key] = cov
        covariance_se[key] = np.sqrt(
            (variances[PATH_KINDS[a]] * variances[PATH_KINDS[b]] + cov**2) / (r - 1)
        )
    cov_target = {
        (PATH_KINDS[0], PATH_KINDS[1]): t_arr.copy(),
        (PATH_KINDS[0], PATH_KINDS[2]): t_arr.copy(),
        (PATH_KINDS[1], PATH_KINDS[2]): np.zeros_like(t_arr),
    }
    return EndpointStats(
        times=times,
        replicates=r,
        values=values,
        variances=variances,
        variance_se=variance_se,
        covariances=covariances,
        covariance_se=covariance_se,
        variance_target=2.0 * t_arr,
        covariance_target=cov_target,
    )


def endpoint_stats(
    n: int,
    t_n: int,
    times: Iterable[float] = (0.25, 0.5, 0.75, 1.0),
    replicates: int = 400,
    rng: np.random.Generator | int | None = None,
) -> EndpointStats:
    """Monte Carlo endpoint moments of the three paths at anchor ``t_n``.

    Each replicate draws a uniform square permutation with its anchor at
    ``t_n`` (the exact round-trip sampler with the anchor fixed), extracts
    and rotates the families, checks the integer invariants, and records
    path values at the requested times.
    Replicate k uses the stream ``replicate_rng(seed, k)``, so results do
    not depend on execution order; a generator (or None, fresh entropy)
    supplies the master seed with one draw.  Times must lie in (0, 1].

    Limit targets: variance 2t per path, covariance t for (DR, DL) and
    (DR, UR), 0 for (DL, UR).
    """
    return _endpoint_stats(map, n, t_n, times, replicates, rng)


def _endpoint_stats(
    mapper: Callable[..., Iterable[np.ndarray]],
    n: int,
    t_n: int,
    times: Iterable[float],
    replicates: int,
    rng: np.random.Generator | int | None,
) -> EndpointStats:
    """:func:`endpoint_stats` with its replicates run through ``mapper``,
    the builtin ``map`` or an executor's; every argument is checked
    before the first draw."""
    lo, hi = conditioning_interval(n)
    if not lo < hi:
        raise ValueError(
            f"conditioning interval is empty at n={n}; "
            f"need n >= {minimum_conditioning_size()}"
        )
    if not lo < t_n <= hi:
        raise ValueError(f"t_n={t_n} outside the valid interval ({lo:.1f}, {hi:.1f}]")
    if replicates < 2:
        raise ValueError("need at least two replicates")
    times = tuple(float(t) for t in times)
    if not times or not all(0.0 < t <= 1.0 for t in times):
        raise ValueError("times must lie in (0, 1]")
    if rng is None or isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng).integers(2**63)
    blocks = mapper(
        replicate_path_values,
        repeat(n, replicates),
        repeat(t_n, replicates),
        repeat(times, replicates),
        repeat(int(rng), replicates),
        range(replicates),
    )
    return stats_from_values(times, np.stack(list(blocks), axis=1))
