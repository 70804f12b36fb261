"""Post-segmentation analysis: clustering, score bounds, boundary offsets,
and a seeded synthetic generator for cyclic test series."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfigError, InvalidDataError, as_floats, check_int, check_real
from .segmentation import Segmentation


# ---------------------------------------------------------------------------
# k-means over segment coefficients


@dataclass(frozen=True)
class ClusterResult:
    """Clustering of segments in a 2-D coefficient space.

    segment_indices lists the clustered segments (segments without a
    coefficient vector are excluded and reported); assignments aligns with
    it.  representatives[c] is the segment index closest to centroid c.
    """

    segment_indices: tuple[int, ...]
    assignments: tuple[int, ...]
    centroids: np.ndarray
    representatives: tuple[int, ...]
    inertia: float
    inertia_history: tuple[float, ...]
    excluded: tuple[int, ...] = ()


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[i] = points[rng.integers(n)]
            continue
        centers[i] = points[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(
    points: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    k = centers.shape[0]
    labels = np.full(points.shape[0], -1)
    history: list[float] = []
    for _ in range(max_iter):
        distances = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(distances, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                # Re-seed an empty cluster with the point farthest from its center.
                farthest = int(np.argmax(distances[np.arange(len(points)), new_labels]))
                new_labels[farthest] = c
        history.append(float(np.sum((points - centers[new_labels]) ** 2)))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    inertia = float(np.sum((points - centers[labels]) ** 2))
    history.append(inertia)
    return labels, centers, inertia, history


def kmeans_points(
    points, k: int, seed: int, n_init: int = 10, max_iter: int = 300
) -> tuple[np.ndarray, np.ndarray, float, tuple[float, ...]]:
    """Seeded k-means++ / Lloyd on raw points; deterministic for a fixed seed.

    Convergence is assignment stabilization (or max_iter).  The best of
    n_init restarts by within-cluster sum of squares wins.
    """
    pts = as_floats("point array", points)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidDataError(f"expected a non-empty 2-D point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidDataError("points must be finite")
    check_int("k", k, 1)
    check_int("seed", seed, 0)
    if k > pts.shape[0]:
        raise InvalidConfigError(f"k={k} exceeds the {pts.shape[0]} available points")
    check_int("n_init", n_init, 1)
    check_int("max_iter", max_iter, 1)
    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, float, list[float]] | None = None
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(n_init):
                centers = _kmeans_plus_plus(pts, k, rng)
                labels, centers, inertia, history = _lloyd(pts, centers.copy(), max_iter)
                if best is None or inertia < best[2]:
                    best = (labels, centers, inertia, history)
    except FloatingPointError:
        raise InvalidDataError("points too large to cluster: squared distances overflow") from None
    labels, centers, inertia, history = best
    return labels, centers, inertia, tuple(history)


def kmeans_segments(
    segments,
    k: int,
    seed: int,
    feature_pair: tuple[int, int] = (1, 2),
    n_init: int = 10,
) -> ClusterResult:
    """Cluster segments by a pair of fitted coefficients (default slope/curvature)."""
    segs = segments.segments if isinstance(segments, Segmentation) else tuple(segments)
    a, b = feature_pair
    for order in (a, b):
        check_int("feature_pair entry", order, 0)
    usable = [s for s in segs if s.alpha is not None]
    excluded = tuple(s.index for s in segs if s.alpha is None)
    if not usable:
        raise InvalidDataError("no segment carries a coefficient vector")
    degree = min(s.alpha.degree for s in usable)
    if max(a, b) > degree:
        raise InvalidConfigError(
            f"feature_pair {feature_pair} needs degree >= {max(a, b)}, fit degree is {degree}"
        )
    points = np.array([[s.alpha.alpha[a], s.alpha.alpha[b]] for s in usable])
    labels, centers, inertia, history = kmeans_points(points, k, seed, n_init=n_init)
    representatives = []
    for c in range(k):
        members = np.flatnonzero(labels == c)
        distances = np.sum((points[members] - centers[c]) ** 2, axis=1)
        representatives.append(usable[members[int(np.argmin(distances))]].index)
    return ClusterResult(
        segment_indices=tuple(s.index for s in usable),
        assignments=tuple(int(v) for v in labels),
        centroids=centers,
        representatives=tuple(representatives),
        inertia=inertia,
        inertia_history=history,
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# Sensitivity bounds


@dataclass(frozen=True)
class SensitivityReport:
    """Mean of the best / worst scores (up to 3 each) plus the counts used."""

    mean_upper: float
    mean_lower: float
    upper_count: int
    lower_count: int
    segment_count: int


def sensitivity_bounds(scores, top_n: int = 3, segment_count: int | None = None) -> SensitivityReport:
    """Upper/lower score bounds: means of the best and worst top_n scores.

    With fewer than top_n scores, whatever exists is averaged and the counts
    say so.  segment_count, at least the number of scores, defaults to it.
    """
    arr = as_floats("score list", scores)
    if arr.ndim != 1:
        raise InvalidDataError(f"scores must be a 1-D sequence, got shape {arr.shape}")
    values = arr.tolist()
    if not values:
        raise InvalidDataError("sensitivity_bounds needs at least one score")
    if any(not math.isfinite(v) for v in values):
        raise InvalidDataError("scores must be finite")
    check_int("top_n", top_n, 1)
    if segment_count is not None:
        # Scores come from segments, so there are at least as many segments.
        check_int("segment_count", segment_count, len(values))
    ordered = sorted(values, reverse=True)
    upper = ordered[:top_n]
    lower = ordered[-top_n:]
    return SensitivityReport(
        mean_upper=_mean(upper),
        mean_lower=_mean(lower),
        upper_count=len(upper),
        lower_count=len(lower),
        segment_count=len(values) if segment_count is None else int(segment_count),
    )


def _mean(values: list[float]) -> float:
    """The mean summed left to right; from Python 3.12 on, sum() compensates."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def aggregate_sensitivity(reports: Sequence[SensitivityReport]) -> SensitivityReport:
    """Average per-series reports into data-set level bounds."""
    if not reports:
        raise InvalidDataError("aggregate_sensitivity needs at least one report")
    return SensitivityReport(
        mean_upper=_mean([r.mean_upper for r in reports]),
        mean_lower=_mean([r.mean_lower for r in reports]),
        upper_count=max(r.upper_count for r in reports),
        lower_count=max(r.lower_count for r in reports),
        segment_count=round(sum(r.segment_count for r in reports) / len(reports)),
    )


# ---------------------------------------------------------------------------
# Change-point offsets


@dataclass(frozen=True)
class OffsetResult:
    """Greedy in-order pairing of reference boundaries with candidates.

    offsets[i] = pairs[i][1] - pairs[i][0] (candidate minus reference).
    """

    pairs: tuple[tuple[float, float], ...]
    offsets: tuple[float, ...]
    unmatched_reference: tuple[float, ...]
    unmatched_candidate: tuple[float, ...]


def change_point_offsets(reference, candidate) -> OffsetResult:
    """Per-boundary offsets between a reference and a candidate boundary list.

    Reference points are walked in ascending order; each takes the nearest
    still-unmatched candidate (ties go to the earlier candidate).  An empty
    candidate list yields a no-matches result.
    """
    ref, cand = (as_floats("boundary list", v) for v in (reference, candidate))
    if ref.ndim != 1 or cand.ndim != 1:
        raise InvalidDataError("boundary indices must be 1-D sequences")
    ref, cand = sorted(ref.tolist()), sorted(cand.tolist())
    if any(not math.isfinite(v) for v in ref + cand):
        raise InvalidDataError("boundary indices must be finite")
    available = list(range(len(cand)))
    pairs: list[tuple[float, float]] = []
    unmatched_ref: list[float] = []
    for r in ref:
        if not available:
            unmatched_ref.append(r)
            continue
        best = min(available, key=lambda i: (abs(cand[i] - r), cand[i]))
        available.remove(best)
        pairs.append((r, cand[best]))
    return OffsetResult(
        pairs=tuple(pairs),
        offsets=tuple(c - r for r, c in pairs),
        unmatched_reference=tuple(unmatched_ref),
        unmatched_candidate=tuple(cand[i] for i in available),
    )


# ---------------------------------------------------------------------------
# Synthetic cyclic series


@dataclass(frozen=True)
class NoiseBurst:
    """Adds scale * N(0,1) noise on the inclusive sample interval [start, end]."""

    start: int
    end: int
    scale: float = 1.0


@dataclass(frozen=True)
class LevelShift:
    """Replaces samples on [start, end] with level + scale * N(0,1)."""

    start: int
    end: int
    level: float = 0.5
    scale: float = 0.5


DEFAULT_ANOMALIES: tuple[NoiseBurst | LevelShift, ...] = (
    NoiseBurst(500, 600),
    LevelShift(1400, 1600),
)


def generate_cycle(
    n: int = 2000,
    period: float = 200.0,
    seed: int = 0,
    anomalies: Sequence[NoiseBurst | LevelShift] = DEFAULT_ANOMALIES,
) -> np.ndarray:
    """Normalized sinusoid (mean 0, variance 1 over whole periods) with anomalies.

    Samples outside anomaly intervals equal the pure sinusoid exactly.  The
    draw order is fixed (anomalies in the given order), so output is
    deterministic under the seed.
    """
    # Past 2^53 the sample positions are no longer exact floats.
    check_int("n", n, 1, 2**53)
    check_real("period", period, 0)
    check_int("seed", seed, 0)
    if not math.isfinite(2.0 * math.pi * (n - 1) / period):
        raise InvalidConfigError(
            f"period {period} is too short for {n} samples: 2 pi (n - 1) / period overflows"
        )
    try:
        x = np.arange(n)
        series = math.sqrt(2.0) * np.sin(2.0 * math.pi * x / period)
    except MemoryError:
        raise InvalidConfigError(f"cannot hold {n} samples in memory") from None
    rng = np.random.default_rng(seed)
    for anomaly in anomalies:
        start = check_int("anomaly start", anomaly.start, 0)
        end = check_int("anomaly end", anomaly.end, 0)
        if start > end:
            raise InvalidConfigError(f"anomaly interval reversed: {anomaly}")
        if end >= n:
            raise InvalidConfigError(f"anomaly interval outside 0..{n - 1}: {anomaly}")
        noise = rng.standard_normal(end - start + 1)
        if isinstance(anomaly, NoiseBurst):
            series[start : end + 1] += anomaly.scale * noise
        elif isinstance(anomaly, LevelShift):
            series[start : end + 1] = anomaly.level + anomaly.scale * noise
        else:
            raise InvalidConfigError(f"unknown anomaly type {anomaly!r}")
    return series
