"""Side-path extraction, rotation, and replicate moment estimates."""

from __future__ import annotations

import numpy as np
import pytest

from squareperm import (
    component_families,
    endpoint_stats,
    extract_families,
    path_F,
    reconstruct,
    rotate_families,
    sample_conditioned,
)
from squareperm import fluctuations
from squareperm.fluctuations import (
    AnchorAssumptionError,
    conditioning_interval,
    minimum_conditioning_size,
    path_FX,
    path_FY,
    replicate_path_values,
    stats_from_values,
)
from squareperm.sampler import replicate_rng

N = 50_000
T_N = 32_500  # = 0.65 n, inside the anchor window (0.632n, 0.661n]


def conditioned_sample(seed):
    pair, _ = sample_conditioned(N, T_N, rng=seed)
    return pair, reconstruct(pair)


def test_anchor_window_brackets():
    lo, hi = conditioning_interval(N)
    assert lo < T_N <= hi
    n_min = minimum_conditioning_size()
    assert conditioning_interval(n_min)[0] < conditioning_interval(n_min)[1]
    assert conditioning_interval(n_min - 1)[0] >= conditioning_interval(n_min - 1)[1]


def test_families_carry_the_three_corners():
    pair, perm = conditioned_sample(41)
    dr, dl, ur = extract_families(perm)
    assert (dr.kind, dl.kind, ur.kind) == ("DR", "DL", "UR")
    n = len(perm)
    # DR and DL both leave the bottom corner (z0, 1); DR walks right to
    # the last column with increasing values, DL walks left
    assert dr.points[0].tolist() == [pair.z0, 1]
    assert dr.points[-1][0] == n
    assert np.all(np.diff(dr.points[:, 1]) > 0)
    assert dl.points[0].tolist() == [pair.z0, 1]
    assert np.all(np.diff(dl.points[:, 0]) < 0)
    # UR holds the suffix maxima right of the anchor: values decreasing
    assert np.all(ur.points[:, 0] >= pair.z0)
    assert ur.points[-1][0] == n
    assert np.all(np.diff(ur.points[:, 1]) < 0)


def test_extraction_rejects_shallow_anchors():
    # at n = 2000 the assumption floor is ~1958, so z0 = 1300 is too central
    pair, _ = sample_conditioned(2000, 1300, rng=43)
    perm = reconstruct(pair)
    with pytest.raises(AnchorAssumptionError):
        extract_families(perm)


def test_rotation_splits_heights_exactly():
    pair, perm = conditioned_sample(47)
    rotated = rotate_families(pair, extract_families(perm))
    comps = component_families(pair)
    assert len(comps) == 6
    for rot, (cx, cy) in zip(rotated, zip(comps[::2], comps[1::2])):
        # the rotated height decomposes into label-aligned X and Y parts
        assert np.array_equal(rot.ys(), cx.ys() + cy.ys())
        assert rot.scale == pytest.approx(np.sqrt(2) / 2)
    assert tuple(f.kind for f in rotated) == ("P_DR", "P_DL", "P_UR")


def test_paths_compose_and_interpolate():
    pair, perm = conditioned_sample(53)
    fam = rotate_families(pair, extract_families(perm))[0]
    f, fx, fy = path_F(fam), path_FX(fam), path_FY(fam)
    assert f.ts[0] == 0.0 and f.ts[-1] == 1.0
    assert np.all(np.diff(f.ts) >= 0)
    # the residual path factors through its horizontal part
    assert np.allclose(fy(fx(f.ts)), f.values)
    mid = f(np.array([0.5]))
    assert f.values.min() <= mid[0] <= f.values.max()


def test_replicate_values_are_reproducible_and_parallel_safe():
    times = (0.5, 1.0)
    first = replicate_path_values(N, T_N, times, seed=5, k=2)
    again = replicate_path_values(N, T_N, times, seed=5, k=2)
    other = replicate_path_values(N, T_N, times, seed=5, k=3)
    assert first.shape == (3, 2)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_replicate_values_are_the_public_composition():
    times = (0.25, 0.5, 1.0)
    for k in range(3):
        pair, _ = sample_conditioned(N, T_N, replicate_rng(5, k))
        rotated = rotate_families(pair, extract_families(reconstruct(pair)))
        want = np.stack([path_F(fam)(np.asarray(times)) for fam in rotated])
        assert np.array_equal(replicate_path_values(N, T_N, times, seed=5, k=k), want)


def test_endpoint_stats_match_the_replicate_helper():
    # the serial driver must agree with the per-replicate pure function
    times = (0.5, 1.0)
    stats = endpoint_stats(N, T_N, times=times, replicates=3, rng=5)
    stacked = np.stack(
        [replicate_path_values(N, T_N, times, seed=5, k=k) for k in range(3)],
        axis=1,
    )
    assert np.array_equal(stats.values, stacked)
    rebuilt = stats_from_values(times, stacked)
    assert rebuilt.variances.keys() == stats.variances.keys()
    for key in stats.variances:
        assert np.array_equal(rebuilt.variances[key], stats.variances[key])


def test_endpoint_stats_draws_one_master_seed_from_a_generator():
    # a generator is read once, for the master seed of the replicate streams
    times = (0.5, 1.0)
    stats = endpoint_stats(N, T_N, times=times, replicates=2, rng=np.random.default_rng(8))
    seed = int(np.random.default_rng(8).integers(2**63))
    assert np.array_equal(stats.values, endpoint_stats(N, T_N, times, 2, seed).values)


def test_endpoint_stats_checks_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a replicate")

    monkeypatch.setattr(fluctuations, "replicate_path_values", no_draws)
    with pytest.raises(ValueError, match="need at least two replicates"):
        endpoint_stats(N, T_N, replicates=1, rng=1)
    with pytest.raises(ValueError, match="outside the valid interval"):
        endpoint_stats(N, int(0.7 * N), replicates=2, rng=np.random.default_rng(1))
    # np.interp would clamp the paths and report targets 2t no path reaches
    for times in ((), (1.0, 1.5, 3.0), (-1.0,), (0.0,), (float("nan"),)):
        with pytest.raises(ValueError, match=r"times must lie in \(0, 1\]"):
            endpoint_stats(N, T_N, times=times, replicates=2, rng=1)


def test_moment_arithmetic_on_synthetic_values():
    rng = np.random.default_rng(99)
    values = rng.normal(size=(3, 40, 2))
    stats = stats_from_values((0.5, 1.0), values)
    assert stats.replicates == 40
    for i, kind in enumerate(("P_DR", "P_DL", "P_UR")):
        expect = values[i].var(axis=0, ddof=1)
        assert np.allclose(stats.variances[kind], expect)
    # variance target is 2t for every path
    assert np.allclose(stats.variance_target, [1.0, 2.0])
    cov = stats.covariances[("P_DR", "P_DL")]
    manual = [
        np.cov(values[0, :, j], values[1, :, j], ddof=1)[0, 1] for j in range(2)
    ]
    assert np.allclose(cov, manual)
    # a PSD covariance matrix comes back at each time index
    eig = np.linalg.eigvalsh(stats.cov_matrix(1))
    assert eig.min() > -1e-12


def test_moment_estimates_need_two_replicates():
    with pytest.raises(ValueError):
        stats_from_values((1.0,), np.zeros((3, 1, 1)))
    with pytest.raises(ValueError, match="values must have shape"):
        stats_from_values((1.0,), np.zeros((3, 2)))


def test_endpoint_stats_requires_a_valid_anchor():
    with pytest.raises(ValueError, match="outside the valid interval"):
        endpoint_stats(N, int(0.55 * N), replicates=2, rng=1)
    with pytest.raises(ValueError, match="interval is empty"):
        endpoint_stats(10_000, 7_000, replicates=2, rng=1)
