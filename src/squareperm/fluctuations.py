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
from typing import Iterable, Sequence

import numpy as np

from .core import _as_value_array
from .encoding import (
    DEFAULT_PETROV_CONDITIONS,
    AnchoredPair,
    _record_masks,
    reconstruct,
)
from .sampler import ensure_rng, replicate_rng, sample_conditioned

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


def _family(arr: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Points ``(i + 1, arr[i])`` for the 0-based positions ``at``, in order."""
    pts = np.empty((at.size, 2), dtype=np.int64)
    np.add(at, 1, out=pts[:, 0])
    np.take(arr, at, out=pts[:, 1])
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
    arr = _as_value_array(p)
    n = arr.size
    lrmax, lrmin, rlmax, rlmin = _record_masks(arr)
    if not (lrmax | lrmin | rlmax | rlmin).all():
        raise ValueError("permutation is not square")
    z0 = int(np.flatnonzero(arr == 1)[0]) + 1
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
    p_dr = np.column_stack((x + y - z0 - 1, y - x + z0 - 1))
    x, y = dl.xs(), dl.ys()
    p_dl = np.column_stack(((z0 - x) + y - 1, (z0 - x) - y + 1))
    x, y = ur.xs(), ur.ys()
    if x.size == 0:
        raise ValueError("empty UR family")
    p_ur = np.column_stack(
        (x - y + 2 * n - 3 * z0 + 1, (x + y) - (int(x[0]) + int(y[0])))
    )
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

    i = np.arange(n_dr, dtype=np.int64)
    after = pos_d[cdz + i] - z0  # distance of the i-th D past the anchor
    x_dr = np.column_stack((i, -after + 2 * i))
    # the corner (z0, 1) is index 0 and is not an R occurrence: its height
    # is the anchor value 1, not a table lookup
    y_abs = pos_r[i].copy()
    y_abs[0] = 1
    y_dr = np.column_stack((i, y_abs - 1 - 2 * i))

    i = np.arange(n_dl, dtype=np.int64)
    before = z0 - pos_d[cdz - i]  # distance of the i-th D before the anchor
    x_dl = np.column_stack((i, before - 2 * i))
    y_dl = np.column_stack((i, -pos_l[i + 1] + 1 + 2 * i))

    i = np.arange(1, n_ur + 1, dtype=np.int64)
    after_u = pos_u[cuz + i] - z0
    x_ur = np.column_stack((i, after_u - after_u[0] - 2 * i))
    rr = pos_r[n - z0 + 1 - i]
    y_ur = np.column_stack((i, rr - rr[0] + 2 * i))

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


def _path_values(
    stream: np.random.Generator,
    n: int,
    t_n: int,
    t_arr: np.ndarray,
    conditions: tuple[int, ...],
) -> np.ndarray:
    pair, _ = sample_conditioned(n, t_n, stream, conditions)
    perm = reconstruct(pair)
    rotated = rotate_families(pair, extract_families(perm))
    comps = component_families(pair)
    _check_sample_invariants(pair, rotated, comps)
    return np.stack([path_F(fam)(t_arr) for fam in rotated])


def replicate_path_values(
    n: int,
    t_n: int,
    times: tuple[float, ...],
    seed: int,
    k: int,
    conditions: Iterable[int] = DEFAULT_PETROV_CONDITIONS,
) -> np.ndarray:
    """Path values (3, len(times)) of replicate ``k`` under master ``seed``.

    Pure in its arguments, so replicates can run on any executor in any
    order and still assemble into the same statistics.
    """
    t_arr = np.asarray(tuple(float(t) for t in times))
    return _path_values(
        replicate_rng(seed, k), n, t_n, t_arr, tuple(conditions)
    )


def stats_from_values(times: Iterable[float], values: np.ndarray) -> EndpointStats:
    """Assemble endpoint moments from stacked replicate path values."""
    times = tuple(float(t) for t in times)
    t_arr = np.asarray(times)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != 3 or values.shape[2] != len(times):
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
    conditions: Iterable[int] = DEFAULT_PETROV_CONDITIONS,
) -> EndpointStats:
    """Monte Carlo endpoint moments of the three paths at anchor ``t_n``.

    Each replicate draws a Petrov-regular pair conditioned on the anchor,
    reconstructs, extracts and rotates the families, checks the exact
    integer invariants, and records path values at the requested times.
    Replicate k uses the stream ``replicate_rng(seed, k)`` when ``rng`` is
    a seed (or None), so results do not depend on execution order.

    Limit targets: variance 2t per path, covariance t for (DR, DL) and
    (DR, UR), 0 for (DL, UR).
    """
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
    t_arr = np.asarray(times)
    conds = tuple(conditions)
    values = np.empty((3, replicates, len(times)))
    if isinstance(rng, np.random.Generator):
        for k in range(replicates):
            values[:, k, :] = _path_values(rng, n, t_n, t_arr, conds)
    else:
        seed = int(np.random.default_rng(rng).integers(2**63)) if rng is None else int(rng)
        for k in range(replicates):
            values[:, k, :] = _path_values(replicate_rng(seed, k), n, t_n, t_arr, conds)
    return stats_from_values(times, values)
