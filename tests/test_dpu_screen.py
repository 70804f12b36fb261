"""The DPU screen decides what the exact fit would, and skips it on quiet data.

``window_grow(state, y, th_dpu)`` answers "deviation > th_dpu" from an O(K)
estimate of the fitted end point and a derived error margin, and runs the
exact fit when the estimate is within the margin of the threshold.  It also
runs the exact fit when the screen tables cannot certify that it stays
finite, so an overflowing fit raises at the same sample as when every sample
was fitted.
"""

from __future__ import annotations

import math
import operator

import numpy as np
import pytest

from fcpd import (
    MAX_DEGREE,
    InvalidDataError,
    SegmentationConfig,
    SegmentStream,
    SlopeSignMode,
    build_basis,
    evaluate,
    segment_series,
    shape_space,
    window_grow,
    window_init,
)
from fcpd.shape_space import ShapeVector

U = 2.0**-53
OFFSETS = (0.0, 1e3, 1e6)


def _walk(seed: int, n: int, offset: float) -> list[float]:
    rng = np.random.default_rng(seed)
    return (offset + np.cumsum(rng.normal(0.0, 1.0, n)) + rng.normal(0.0, 0.5, n)).tolist()


def _first_close(series: list[float], th_dpu: float, degree: int) -> int | None:
    stream = SegmentStream(SegmentationConfig(degree=degree, th_dpu=th_dpu))
    for value in series:
        closed = stream.push(value)
        if closed is not None:
            return closed.end
    return None


def _row(state) -> tuple[float, ...]:
    """The screen-table row of the window's current length, as window_grow reads it."""
    n = state.count - 1
    start = n - n % shape_space._BLOCK_LEN
    return shape_space._block(start, state.degree)[1][n - start]


def _screen(state) -> tuple[float, float]:
    """(F~, Y scale) at the window's newest sample, with window_grow's arithmetic."""
    row = _row(state)
    return sum(map(operator.mul, row, state.moments)), state.peak * row[shape_space._SCALE]


@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_dpu_closes_exactly_above_the_exact_deviation(degree):
    # Within one window, a sample whose exact deviation beats every earlier
    # one closes the window at th_dpu one ulp below that deviation, and not
    # at th_dpu equal to it.  The last few such records of each window are
    # checked, at every level offset and, for three degrees, past 2 048.
    n = 2300 if degree in (3, 7, 10) else 500
    for k, offset in enumerate(OFFSETS):
        series = _walk(100 * degree + k, n, offset)
        state = window_init(0, degree)
        min_len = max(2, degree + 1)
        records, best = [], -1.0
        for t, value in enumerate(series):
            window_grow(state, value)
            if state.count >= min_len and state.deviation > best:
                best = state.deviation
                records.append((t, best))
        for t, deviation in records[-3:]:
            prefix = series[: t + 1]
            assert _first_close(prefix, deviation, degree) is None
            assert _first_close(prefix, math.nextafter(deviation, 0.0), degree) == t


@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_screen_estimate_is_within_the_derived_bound(degree):
    # |exact fit - F~| <= (2K + 8) u S to first order (window_grow),
    # half the margin the screen takes, at every sample of windows that run
    # past 2 048 samples.
    derived = (2 * degree + 8) * U * (1 + 1e-12)
    assert 2 * derived <= shape_space._SCREEN_ULPS
    worst = 0.0
    for k, offset in enumerate(OFFSETS):
        state = window_init(0, degree, sss_mode=None)
        for t, value in enumerate(_walk(7 + 10 * degree + k, 2200, offset)):
            window_grow(state, value)
            if state.count <= degree or (t % 4 and t < 2040):
                continue
            n = state.count - 1
            shape = ShapeVector(alpha=state.alpha, window_len=n, degree=degree)
            fitted = evaluate(shape, build_basis(n, degree), float(n))
            estimate, bound = _screen(state)
            floor = _row(state)[shape_space._FLOOR]
            assert abs(fitted - estimate) <= derived * bound + floor
            worst = max(worst, abs(fitted - estimate) / (U * bound))
    assert worst > 0.0  # the two paths do round differently


def _series_of_every_kind(seed: int, n: int) -> dict[str, list[float]]:
    rng = np.random.default_rng(seed)
    kinds = {f"walk{offset:+g}": _walk(seed, n, offset) for offset in (0.0, 1e3, -1e3, 1e6)}
    walk = np.array(kinds["walk+0"])
    kinds["mean-zero walk"] = (walk - walk.mean()).tolist()
    kinds["poisson"] = rng.poisson(20.0, n).astype(float).tolist()
    kinds["alternating"] = ((-1.0) ** np.arange(n) * rng.uniform(1.0, 9.0, n)).tolist()
    return kinds


def _moment_bounds(state) -> tuple[float, float]:
    """(S, T (sum_j |M_j| + |y|)) from the moments, as _screen_table's docstring defines them.

    Rebuilt from build_basis alone: a_j = sum_k |r_kj p_k(n) / N_k| and
    T = max(max_kj |r_kj| max(1, 1/N_k), max_j a_j).
    """
    n = state.count - 1
    basis = build_basis(n, state.degree)
    a = [0.0] * (state.degree + 1)
    t = 0.0
    for row, norm, pk in zip(basis.rows, basis.norms, basis.poly_values(float(n)).tolist()):
        q = pk / norm
        for j, r in enumerate(row):
            a[j] += abs(r * q)
        t = max(t, max(map(abs, row)) * max(1.0, 1.0 / norm))
    t = max(t, *a)
    magnitudes = [abs(m) for m in state.moments]
    return (
        sum(map(operator.mul, a, magnitudes)),
        t * (sum(magnitudes) + abs(state.last_value)),
    )


@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_the_peak_bounds_dominate_the_moment_sums(degree):
    # At every sample, the window's peak |y| times the table's columns is at
    # least the magnitude sum S that the margin needs and the certificate's
    # T (sum_j |M_j| + |y|), on windows that cross a block edge.
    for kind, series in _series_of_every_kind(degree, 1100).items():
        state = window_init(0, degree, sss_mode=None)
        for value in series:
            window_grow(state, value)
            if state.count <= degree:
                continue
            row = _row(state)
            assert state.peak == max(map(abs, series[: state.count]))
            magnitude_sum, certified = _moment_bounds(state)
            _, bound = _screen(state)
            assert bound == state.peak * row[shape_space._SCALE]
            assert bound >= magnitude_sum, (kind, state.count)
            assert math.isfinite(row[shape_space._BOUND])
            assert state.peak * row[shape_space._BOUND] >= certified, (kind, state.count)


@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_the_screened_answer_is_the_exact_comparison(degree):
    # Twin B grows without a threshold; twin A is asked at every sample with
    # a threshold one ulp below, at and one ulp above B's exact deviation,
    # where the screen cannot decide and the exact comparison must.
    factors = (1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52)
    for kind, series in _series_of_every_kind(degree, 1100).items():
        a = window_init(0, degree, sss_mode=None)
        b = window_init(0, degree, sss_mode=None)
        for t, value in enumerate(series):
            window_grow(b, value)
            if b.deviation is None:
                assert window_grow(a, value, 1.0) is False
            else:
                th_dpu = b.deviation * factors[t % 3]
                assert window_grow(a, value, th_dpu) == (b.deviation > th_dpu), (kind, t)
            assert a.moments == b.moments
            assert a == b


@pytest.mark.parametrize("level", [1e3, 0.0, -1e3])
@pytest.mark.parametrize("degree", [0, 5, 7, 10])
def test_a_quiet_dpu_stream_runs_few_exact_fits(degree, level, monkeypatch):
    calls = []
    real = shape_space.build_basis

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(shape_space, "build_basis", counted)
    rng = np.random.default_rng(degree)
    stream = SegmentStream(SegmentationConfig(degree=degree, th_dpu=8.0))
    for value in (level + rng.normal(0.0, 1.0, 6000)).tolist():
        assert stream.push(value) is None
    (segment,) = stream.result().segments
    assert segment.length == 6000
    # The tail's coefficients, read at close, are the one fit needed.
    assert len(calls) <= 3


def test_slopes_are_tracked_only_where_something_reads_them():
    def tracks(trigger=None, **thresholds):
        config = SegmentationConfig(degree=3, **thresholds)
        return SegmentStream(config, trigger=trigger).state.sss_mode is not None

    assert not tracks(th_dpu=2.0)
    assert tracks(th_sss=2)
    assert tracks(th_dpu=2.0, th_sss=2)
    assert tracks(trigger=lambda state, index: None, th_dpu=2.0)
    assert window_init(0, 3).sss_mode is not None
    # Untracked, the count stays 0 where a tracked window counts switches.
    counts = []
    for mode in (None, SlopeSignMode.FIRST_DIFF_SIGN):
        state = window_init(0, 1, mode, 0.0)
        for i in range(40):
            window_grow(state, float(i % 2))
        counts.append(state.sss_count)
    assert counts == [0, 38]


_SERIES = {
    "flat": [1e307] * 40,
    "ramp": [1e290 * (1 + i % 3) for i in range(200)],
    "alternating": [(1e300 if i % 2 else -1e300) * (1 + i % 5) for i in range(120)],
    "late": [float(i % 7) for i in range(300)] + [1e305] * 50,
}
_CONFIGS = {
    "dpu-d1": SegmentationConfig(degree=1, th_dpu=1e308),
    "dpu-d5": SegmentationConfig(degree=5, th_dpu=1e308),
    "dpu-d10": SegmentationConfig(degree=10, th_dpu=1e308),
    "alpha1-d3": SegmentationConfig(degree=3, th_sss=10**6),
    "first-diff-d0": SegmentationConfig(
        degree=0, th_sss=10**6, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN
    ),
    "first-diff-d7": SegmentationConfig(
        degree=7, th_sss=10**6, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN
    ),
    "both-d4": SegmentationConfig(
        degree=4, th_dpu=1e308, th_sss=10**6, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN
    ),
}
# The sample each run names when every sample ran the exact fit; None: no overflow.
_OVERFLOW_AT = {
    "flat": {"dpu-d1": 6, "dpu-d5": 5, "dpu-d10": 10, "alpha1-d3": 3, "first-diff-d0": 17,
             "first-diff-d7": 7, "both-d4": 4},
    "ramp": {"dpu-d1": None, "dpu-d5": None, "dpu-d10": 41, "alpha1-d3": None,
             "first-diff-d0": None, "first-diff-d7": 180, "both-d4": None},
    "alternating": {"dpu-d1": None, "dpu-d5": 31, "dpu-d10": 10, "alpha1-d3": None,
                    "first-diff-d0": None, "first-diff-d7": 11, "both-d4": 73},
    "late": {"dpu-d1": 305, "dpu-d5": 300, "dpu-d10": 300, "alpha1-d3": 300,
             "first-diff-d0": None, "first-diff-d7": 300, "both-d4": 300},
}


@pytest.mark.parametrize("config", list(_CONFIGS))
@pytest.mark.parametrize("series", list(_SERIES))
def test_an_overflowing_fit_raises_at_the_same_sample(series, config):
    at = _OVERFLOW_AT[series][config]
    if at is None:
        segment_series(_SERIES[series], _CONFIGS[config])
    else:
        with pytest.raises(InvalidDataError, match=rf"^window fit overflows at sample {at}$"):
            segment_series(_SERIES[series], _CONFIGS[config])
