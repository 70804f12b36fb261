"""Tests for clustering, sensitivity bounds, boundary offsets, and the
synthetic cycle generator."""

from __future__ import annotations

import itertools
import types

import numpy as np
import pytest

from fcpd import (
    ClosedBy,
    ClusterResult,
    InvalidConfigError,
    InvalidDataError,
    LevelShift,
    NoiseBurst,
    Segment,
    ShapeVector,
    aggregate_sensitivity,
    change_point_offsets,
    generate_cycle,
    kmeans_points,
    kmeans_segments,
    sensitivity_bounds,
)


# ---------------------------------------------------------------------------
# k-means


def test_single_cluster_centroid_is_the_mean():
    rng = np.random.default_rng(0)
    pts = rng.normal(0.0, 2.0, (40, 2))
    labels, centers, inertia, history = kmeans_points(pts, 1, seed=0)
    assert np.all(labels == 0)
    np.testing.assert_allclose(centers[0], pts.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(inertia, np.sum((pts - pts.mean(axis=0)) ** 2), rtol=1e-12)
    assert history[-1] == inertia


def test_four_corners_separate_perfectly():
    corners = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    pts = np.repeat(corners, 5, axis=0) + np.random.default_rng(1).normal(0, 0.01, (20, 2))
    labels, centers, inertia, _ = kmeans_points(pts, 4, seed=3)
    for block in range(4):
        assert len(set(labels[5 * block : 5 * block + 5])) == 1
    assert len(set(labels.tolist())) == 4
    assert inertia < 0.1


def _brute_force_two_split(pts: np.ndarray) -> float:
    n = pts.shape[0]
    best = np.inf
    for mask in range(1, 2**n - 1):
        members = [i for i in range(n) if mask >> i & 1]
        rest = [i for i in range(n) if not mask >> i & 1]
        ss = 0.0
        for group in (members, rest):
            g = pts[group]
            ss += float(np.sum((g - g.mean(axis=0)) ** 2))
        best = min(best, ss)
    return best


def test_two_clusters_reach_the_brute_force_optimum():
    # Lloyd restarts are a randomized search; 40 seeded restarts suffice to
    # land in the global basin on every point set this corpus contains.
    for seed in range(12):
        n = 5 + seed % 4
        pts = np.random.default_rng(seed).normal(0.0, 1.0, (n, 2))
        _, _, inertia, _ = kmeans_points(pts, 2, seed=11, n_init=40)
        assert inertia == pytest.approx(_brute_force_two_split(pts), rel=1e-9)


def test_fixed_seed_reproduces_bitwise():
    pts = np.random.default_rng(5).normal(0.0, 1.0, (30, 2))
    a = kmeans_points(pts, 3, seed=42)
    b = kmeans_points(pts, 3, seed=42)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]
    assert a[3] == b[3]


def test_inertia_history_is_non_increasing():
    pts = np.random.default_rng(9).normal(0.0, 1.0, (60, 2))
    _, _, _, history = kmeans_points(pts, 4, seed=1)
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_final_centroids_are_member_means():
    pts = np.random.default_rng(13).normal(0.0, 1.0, (50, 2))
    labels, centers, _, _ = kmeans_points(pts, 3, seed=2)
    for c in range(3):
        np.testing.assert_allclose(centers[c], pts[labels == c].mean(axis=0), rtol=1e-9)


def test_kmeans_input_validation():
    pts = np.zeros((5, 2))
    with pytest.raises(InvalidConfigError):
        kmeans_points(pts, 6, seed=0)
    with pytest.raises(InvalidConfigError):
        kmeans_points(pts, 0, seed=0)
    with pytest.raises(InvalidConfigError):
        kmeans_points(pts, True, seed=0)
    with pytest.raises(InvalidDataError):
        kmeans_points(np.zeros((0, 2)), 1, seed=0)
    with pytest.raises(InvalidDataError):
        kmeans_points([1.0, 2.0, 3.0], 1, seed=0)
    with pytest.raises(InvalidDataError):
        kmeans_points([[0.0, float("nan")]], 1, seed=0)


@pytest.mark.parametrize("max_iter", [0, -1, 1.5, 2.0, True, None])
def test_kmeans_rejects_a_max_iter_below_one_or_not_an_integer(max_iter):
    # With no Lloyd step every label would stay -1, a wrong result and no error.
    pts = [[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]]
    with pytest.raises(InvalidConfigError, match="max_iter"):
        kmeans_points(pts, 2, seed=0, max_iter=max_iter)


def test_kmeans_with_one_iteration_labels_every_point():
    labels, _, _, _ = kmeans_points([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]], 2, seed=0,
                                    max_iter=1)
    assert sorted(set(labels.tolist())) == [0, 1]


@pytest.mark.parametrize(
    "points",
    [[[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]], [[1.7e308, 1.7e308]] * 3],
    ids=["distances", "centroid-sums"],
)
def test_kmeans_overflow_is_a_data_error(points):
    with pytest.raises(InvalidDataError, match="squared distances overflow"):
        kmeans_points(points, 2, seed=0)


def _coeff_segment(index: int, slope: float, curvature: float) -> Segment:
    vec = ShapeVector(alpha=np.array([0.0, slope, curvature]), window_len=9, degree=2)
    return Segment(index=index, start=10 * index, end=10 * index + 9, alpha=vec,
                   closed_by=ClosedBy.DPU)


def test_segment_clustering_groups_by_coefficients():
    rng = np.random.default_rng(21)
    segments = []
    for i in range(6):
        segments.append(_coeff_segment(i, 1.0 + rng.normal(0, 0.02), rng.normal(0, 0.02)))
    for i in range(6, 12):
        segments.append(_coeff_segment(i, -1.0 + rng.normal(0, 0.02), 0.5 + rng.normal(0, 0.02)))
    tail = Segment(index=12, start=120, end=121, alpha=None, closed_by=ClosedBy.END_OF_STREAM)
    segments.append(tail)

    result = kmeans_segments(segments, k=2, seed=0)
    assert isinstance(result, ClusterResult)
    assert result.excluded == (12,)
    assert result.segment_indices == tuple(range(12))
    first, second = result.assignments[:6], result.assignments[6:]
    assert len(set(first)) == 1 and len(set(second)) == 1
    assert set(result.assignments) == {0, 1}
    # One representative per cluster, drawn from that cluster's members.
    for c in (0, 1):
        rep = result.representatives[c]
        members = [idx for idx, a in zip(result.segment_indices, result.assignments) if a == c]
        assert rep in members
    assert result.inertia == pytest.approx(result.inertia_history[-1])


def test_segment_clustering_validation():
    tail = Segment(index=0, start=0, end=1, alpha=None, closed_by=ClosedBy.END_OF_STREAM)
    with pytest.raises(InvalidDataError):
        kmeans_segments([tail], k=1, seed=0)
    seg = _coeff_segment(0, 1.0, 0.0)
    with pytest.raises(InvalidConfigError):
        kmeans_segments([seg], k=1, seed=0, feature_pair=(1, 3))
    with pytest.raises(InvalidConfigError):
        kmeans_segments([seg], k=1, seed=0, feature_pair=(-1, 2))


# ---------------------------------------------------------------------------
# Sensitivity bounds


def test_sensitivity_bounds_golden():
    report = sensitivity_bounds([0.9, 0.8, 0.7, 0.1])
    assert report.mean_upper == pytest.approx(0.8, abs=1e-9)
    assert report.mean_lower == pytest.approx(1.6 / 3.0, abs=1e-9)
    assert (report.upper_count, report.lower_count, report.segment_count) == (3, 3, 4)


def test_sensitivity_with_few_scores_uses_what_exists():
    report = sensitivity_bounds([0.5])
    assert report.mean_upper == 0.5
    assert report.mean_lower == 0.5
    assert (report.upper_count, report.lower_count, report.segment_count) == (1, 1, 1)


def test_sensitivity_on_identical_scores():
    report = sensitivity_bounds([0.3] * 5)
    assert report.mean_upper == pytest.approx(0.3)
    assert report.mean_lower == pytest.approx(0.3)


def test_sensitivity_validation():
    with pytest.raises(InvalidDataError):
        sensitivity_bounds([])
    with pytest.raises(InvalidDataError):
        sensitivity_bounds([0.2, float("nan")])
    with pytest.raises(InvalidConfigError):
        sensitivity_bounds([0.2], top_n=0)


@pytest.mark.parametrize("top_n", [0, -2, 1.5, 2.0, True, None, "3"])
def test_sensitivity_rejects_a_top_n_below_one_or_not_an_integer(top_n):
    # top_n=True would slice like 1, top_n=1.5 would fail inside the slice.
    with pytest.raises(InvalidConfigError, match="top_n"):
        sensitivity_bounds([0.9, 0.5, 0.1], top_n=top_n)


def test_aggregate_sensitivity_averages_reports():
    a = sensitivity_bounds([0.9, 0.8, 0.7, 0.1])
    b = sensitivity_bounds([0.5])
    agg = aggregate_sensitivity([a, b])
    assert agg.mean_upper == pytest.approx((0.8 + 0.5) / 2)
    assert agg.mean_lower == pytest.approx((1.6 / 3.0 + 0.5) / 2)
    assert (agg.upper_count, agg.lower_count) == (3, 3)
    assert agg.segment_count == round((4 + 1) / 2)
    with pytest.raises(InvalidDataError):
        aggregate_sensitivity([])


def test_sensitivity_means_are_summed_left_to_right():
    # The mean a left-to-right sum gives on every Python. From 3.12 on,
    # builtin sum() compensates and gives 0.1595068321050409, a digit the
    # CSV output prints.
    triple = [0.19796525667835468, 0.19755523963676805, 0.08300000000000002]
    report = sensitivity_bounds(triple)
    assert report.mean_upper == report.mean_lower == 0.15950683210504094
    agg = aggregate_sensitivity([sensitivity_bounds([score]) for score in triple])
    assert agg.mean_upper == agg.mean_lower == 0.15950683210504094


# ---------------------------------------------------------------------------
# Boundary offsets


def test_identical_boundaries_have_zero_offsets():
    result = change_point_offsets([5, 15, 25], [5, 15, 25])
    assert result.offsets == (0.0, 0.0, 0.0)
    assert result.unmatched_reference == ()
    assert result.unmatched_candidate == ()


def test_offsets_golden_triplet():
    result = change_point_offsets([10, 20, 30], [13, 21, 32])
    assert result.offsets == (3.0, 1.0, 2.0)
    assert result.pairs == ((10.0, 13.0), (20.0, 21.0), (30.0, 32.0))


def test_single_reference_takes_the_nearest_candidate():
    result = change_point_offsets([10], [5, 40])
    assert result.offsets == (-5.0,)
    assert result.unmatched_candidate == (40.0,)


def test_tie_goes_to_the_earlier_candidate():
    result = change_point_offsets([5], [4, 6])
    assert result.pairs == ((5.0, 4.0),)


def test_surplus_references_stay_unmatched():
    # References are walked in ascending order, so the first one claims the
    # only candidate and the rest go unmatched.
    result = change_point_offsets([1, 2, 3], [2.2])
    assert result.pairs == ((1.0, 2.2),)
    assert result.unmatched_reference == (2.0, 3.0)


def test_empty_candidate_list_matches_nothing():
    result = change_point_offsets([7, 9], [])
    assert result.pairs == ()
    assert result.offsets == ()
    assert result.unmatched_reference == (7.0, 9.0)


def test_input_order_does_not_matter():
    assert change_point_offsets([30, 10, 20], [32, 13, 21]) == change_point_offsets(
        [10, 20, 30], [13, 21, 32]
    )


def test_offsets_negate_under_swap_for_separated_boundaries():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        base = 50.0 * np.arange(1, m + 1)
        ref = base + rng.uniform(-10, 10, m)
        cand = base + rng.uniform(-10, 10, m)
        forward = change_point_offsets(ref, cand).offsets
        backward = change_point_offsets(cand, ref).offsets
        assert forward == tuple(-x for x in backward)


def test_offsets_reject_non_finite_boundaries():
    with pytest.raises(InvalidDataError):
        change_point_offsets([1.0, float("inf")], [1.0])


# ---------------------------------------------------------------------------
# Synthetic cycle generator


def test_generator_is_deterministic():
    assert np.array_equal(generate_cycle(seed=7), generate_cycle(seed=7))
    assert not np.array_equal(generate_cycle(seed=7), generate_cycle(seed=8))


def test_pure_cycle_is_normalized():
    series = generate_cycle(anomalies=())
    assert abs(series.mean()) < 1e-2
    assert abs(series.var() - 1.0) < 1e-2


def test_default_level_shift_holds_near_its_level():
    series = generate_cycle()
    assert abs(series[1400:1601].mean() - 0.5) < 0.1


def test_samples_outside_anomalies_follow_the_pure_cycle():
    pure = generate_cycle(anomalies=())
    series = generate_cycle()
    mask = np.ones(2000, dtype=bool)
    mask[500:601] = False
    mask[1400:1601] = False
    assert np.array_equal(series[mask], pure[mask])
    assert not np.array_equal(series[500:601], pure[500:601])
    assert not np.array_equal(series[1400:1601], pure[1400:1601])


def test_zero_scale_anomalies_are_exact():
    quiet = generate_cycle(n=100, anomalies=(NoiseBurst(10, 20, scale=0.0),))
    assert np.array_equal(quiet, generate_cycle(n=100, anomalies=()))
    shifted = generate_cycle(n=100, anomalies=(LevelShift(10, 12, level=0.5, scale=0.0),))
    assert np.all(shifted[10:13] == 0.5)


def test_noise_draws_happen_in_anomaly_order():
    # With the burst listed first it consumes draws before the level shift;
    # listing the shift first must reproduce a shift-only run on its interval.
    shift = LevelShift(60, 80)
    burst = NoiseBurst(10, 30)
    shift_first = generate_cycle(n=100, seed=3, anomalies=(shift, burst))
    shift_only = generate_cycle(n=100, seed=3, anomalies=(shift,))
    burst_first = generate_cycle(n=100, seed=3, anomalies=(burst, shift))
    assert np.array_equal(shift_first[60:81], shift_only[60:81])
    assert not np.array_equal(burst_first[60:81], shift_only[60:81])


def test_generator_validation():
    with pytest.raises(InvalidConfigError):
        generate_cycle(n=0)
    with pytest.raises(InvalidConfigError):
        generate_cycle(n=1.5)
    with pytest.raises(InvalidConfigError):
        generate_cycle(period=0.0)
    with pytest.raises(InvalidConfigError):
        generate_cycle(n=100, anomalies=(NoiseBurst(50, 40),))
    with pytest.raises(InvalidConfigError):
        generate_cycle(n=100, anomalies=(NoiseBurst(90, 100),))
    with pytest.raises(InvalidConfigError):
        generate_cycle(n=100, anomalies=(NoiseBurst(-1, 10),))
    bogus = types.SimpleNamespace(start=0, end=5)
    with pytest.raises(InvalidConfigError):
        generate_cycle(n=100, anomalies=(bogus,))
