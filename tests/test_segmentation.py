"""Tests for growing-window segmentation.

The reference segmenter below rebuilds the closure logic from scratch on top
of numpy's polynomial fitting so the production stream is checked against an
independent implementation, not against itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from fcpd import (
    ClosedBy,
    InsufficientDataError,
    InvalidConfigError,
    InvalidDataError,
    MAX_DEGREE,
    Segment,
    SegmentStream,
    Segmentation,
    SegmentationConfig,
    SlopeSignMode,
    TailPolicy,
    WindowState,
    build_basis,
    evaluate,
    fit,
    generate_cycle,
    segment_series,
    window_grow,
    window_init,
)


# ---------------------------------------------------------------------------
# Independent reference segmenter.  Fitted values come from
# numpy.polynomial.Polynomial.fit (the least-squares fit is unique, so any
# basis agrees on them) and the window slope from the simple linear-regression
# slope, which equals the degree-1 coefficient in the orthogonal basis.


def _sign(value: float, deadband: float) -> int:
    if value > deadband:
        return 1
    if value < -deadband:
        return -1
    return 0


def _ref_segment(series, config: SegmentationConfig) -> list[tuple[int, int, str]]:
    y = np.asarray(series, dtype=float)
    out: list[tuple[int, int, str]] = []
    start = 0
    window: list[float] = []
    sss = 0
    prev_sign = 0
    last: float | None = None
    for i, raw in enumerate(y):
        v = float(raw)
        window.append(v)
        count = len(window)
        if config.sss_mode is SlopeSignMode.FIRST_DIFF_SIGN and last is not None:
            s = _sign(v - last, config.sss_deadband)
            if s != 0:
                if prev_sign != 0 and s != prev_sign:
                    sss += 1
                prev_sign = s
        fitted_end: float | None = None
        if count >= config.degree + 1:
            x = np.arange(count, dtype=float)
            poly = np.polynomial.Polynomial.fit(x, window, config.degree)
            fitted_end = float(poly(float(count - 1)))
            if config.sss_mode is SlopeSignMode.ALPHA1_SIGN and config.degree >= 1:
                s = _sign(float(np.polyfit(x, window, 1)[0]), config.sss_deadband)
                if s != 0:
                    if prev_sign != 0 and s != prev_sign:
                        sss += 1
                    prev_sign = s
        reason: str | None = None
        if count >= config.effective_min_len:
            if (
                config.th_dpu is not None
                and fitted_end is not None
                and abs(fitted_end - v) > config.th_dpu
            ):
                reason = "DPU"
            if reason is None and config.th_sss is not None and sss > config.th_sss:
                reason = "SSS"
        last = v
        if reason is not None:
            out.append((start, i, reason))
            start = i + 1
            window = []
            sss = 0
            prev_sign = 0
            last = None
    if window and config.tail_policy is TailPolicy.EMIT_FLAGGED:
        out.append((start, y.size - 1, "END_OF_STREAM"))
    return out


# ---------------------------------------------------------------------------
# Deviation criterion.


def test_dpu_threshold_is_strict():
    # The degree-0 fit of (0, 2) is 1.0, so the deviation is exactly 1.0.
    at = segment_series([0.0, 2.0], SegmentationConfig(degree=0, th_dpu=1.0))
    assert [(s.start, s.end, s.closed_by) for s in at.segments] == [
        (0, 1, ClosedBy.END_OF_STREAM)
    ]
    below = segment_series([0.0, 2.0], SegmentationConfig(degree=0, th_dpu=0.999))
    assert [(s.start, s.end, s.closed_by) for s in below.segments] == [(0, 1, ClosedBy.DPU)]


@pytest.mark.parametrize("degree", range(MAX_DEGREE + 1))
def test_dpu_deviation_is_the_evaluated_fit_bit_for_bit(degree):
    # The deviation that closes a DPU segment is |fit - y| at its last sample,
    # and evaluate() on the segment's shape vector computes that fit with the
    # window's own arithmetic.
    rng = np.random.default_rng(60 + degree)
    y = np.cumsum(rng.normal(0.0, 1.0, 1200)) + rng.normal(0.0, 0.5, 1200)
    config = SegmentationConfig(degree=degree, th_dpu=1.5)
    closed = [s for s in segment_series(y, config).segments if s.closed_by is ClosedBy.DPU]
    assert len(closed) >= 10
    for seg in closed:
        state = window_init(seg.start, degree)
        for value in y[seg.start : seg.end + 1]:
            window_grow(state, float(value))
        n = seg.length - 1
        fitted = evaluate(seg.alpha, build_basis(n, degree), float(n))
        # Both are finite and >= 0, so == compares every bit.
        assert abs(fitted - float(y[seg.end])) == state.deviation
        assert state.deviation > config.th_dpu


@pytest.mark.parametrize(
    "config",
    [
        SegmentationConfig(degree=1, th_dpu=0.5),
        SegmentationConfig(degree=0, th_sss=1, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN),
        SegmentationConfig(degree=3, th_sss=1),
    ],
)
def test_overflowing_fit_is_a_data_error(config):
    # Each sample is finite, but the window's moments overflow.
    with pytest.raises(InvalidDataError, match=r"^window fit overflows at sample \d+$"):
        segment_series([1e307] * 40, config)


# ---------------------------------------------------------------------------
# Slope-sign-switch criterion.


def test_sss_alternating_first_differences():
    # Differences of (0, 1, 0, 1, 0) have signs +, -, +, -: three switches,
    # so th_sss=2 is first exceeded at the fifth sample.
    state = window_init(0, 0, SlopeSignMode.FIRST_DIFF_SIGN, 0.0)
    fired = []
    for v in (0.0, 1.0, 0.0, 1.0, 0.0):
        window_grow(state, v)
        fired.append(state.sss_count > 2)
    assert fired == [False, False, False, False, True]
    assert state.sss_count == 3


def test_sss_monotone_window_never_triggers():
    for mode in SlopeSignMode:
        state = window_init(0, 1, mode, 0.0)
        for v in range(12):
            window_grow(state, float(v))
            assert state.sss_count == 0


def test_sss_deadband_swallows_small_wobbles():
    # The middle step (+0.05) sits inside the deadband: no sign is recorded,
    # so the only switch is the final drop.
    state = window_init(0, 0, SlopeSignMode.FIRST_DIFF_SIGN, 0.1)
    for v in (0.0, 1.0, 1.05, 0.0):
        window_grow(state, v)
    assert state.sss_count == 1


def test_sinusoid_boundaries_sit_near_extrema():
    # Eight samples per period; extrema fall on x = 2 mod 4.  The deadband
    # must sit below the slope scale at a sign change (about 8e-3 here),
    # otherwise re-crossings are swallowed and the count stalls.
    x = np.arange(64)
    y = np.sin(2 * np.pi * x / 8.0)
    config = SegmentationConfig(
        degree=2, th_sss=1, sss_mode=SlopeSignMode.ALPHA1_SIGN, sss_deadband=0.0
    )
    cps = segment_series(y, config).change_points
    assert len(cps) >= 3
    extrema = [i for i in range(64) if i % 4 == 2]
    for cp in cps:
        assert min(abs(cp - e) for e in extrema) <= 2


# ---------------------------------------------------------------------------
# Whole-series behaviour.


def test_constant_series_is_one_tail_segment():
    config = SegmentationConfig(degree=2, th_dpu=0.5, th_sss=1)
    result = segment_series([3.25] * 30, config)
    assert result.change_points == ()
    (seg,) = result.segments
    assert (seg.start, seg.end, seg.closed_by) == (0, 29, ClosedBy.END_OF_STREAM)
    assert seg.length == 30


def test_long_quiet_stream_is_one_tail_segment():
    # Windows have no length cap: a valid stream that never trips a criterion
    # ends as a single tail, however long it is.
    series = np.full(100_500, 3.0)
    result = segment_series(series, SegmentationConfig(degree=0, th_dpu=0.5))
    (seg,) = result.segments
    assert (seg.start, seg.end, seg.closed_by) == (0, 100_499, ClosedBy.END_OF_STREAM)
    assert seg.alpha == fit(series, 0)


def test_step_series_closes_at_the_jump():
    y = [0.0] * 20 + [10.0] * 20
    config = SegmentationConfig(degree=2, th_dpu=0.05)
    result = segment_series(y, config)
    first = result.segments[0]
    assert first.closed_by is ClosedBy.DPU
    assert 19 <= first.end <= 22


def test_warm_up_defers_the_first_closure():
    y = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    base = dict(degree=2, th_sss=0, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN, sss_deadband=0.0)
    eager = segment_series(y, SegmentationConfig(**base))
    assert eager.change_points[0] == 2
    deferred = segment_series(y, SegmentationConfig(**base, min_segment_len=5))
    assert deferred.change_points[0] == 4


def test_stub_trigger_partitions_exactly():
    closes = {3: ClosedBy.DPU, 7: ClosedBy.SSS}

    def trigger(state, end):
        return closes.get(end)

    y = np.linspace(0.0, 5.0, 11) ** 2
    result = segment_series(y, SegmentationConfig(degree=2, th_dpu=100.0), trigger=trigger)
    spans = [(s.start, s.end, s.closed_by) for s in result.segments]
    assert spans == [
        (0, 3, ClosedBy.DPU),
        (4, 7, ClosedBy.SSS),
        (8, 10, ClosedBy.END_OF_STREAM),
    ]
    assert result.change_points == (3, 7)
    assert [s.index for s in result.segments] == [0, 1, 2]
    # Each stored shape vector is the plain batch fit of its own span, up to
    # the rounding difference between the incremental and direct summations.
    for seg in result.segments:
        batch = fit(y[seg.start : seg.end + 1], 2)
        assert (seg.alpha.window_len, seg.alpha.degree) == (batch.window_len, batch.degree)
        np.testing.assert_allclose(seg.alpha.alpha, batch.alpha, rtol=1e-9, atol=1e-12)


def test_trigger_bypasses_the_warm_up_guard():
    result = segment_series(
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        SegmentationConfig(degree=5, th_dpu=100.0),
        trigger=lambda state, end: ClosedBy.DPU if end == 0 else None,
    )
    first = result.segments[0]
    assert (first.start, first.end) == (0, 0)
    assert first.alpha is None  # one sample cannot carry a degree-5 fit


# ---------------------------------------------------------------------------
# Streaming equivalence and reference comparison.


def _series_corpus() -> list[np.ndarray]:
    rng = np.random.default_rng(20260815)
    corpus: list[np.ndarray] = []
    for _ in range(13):
        n = int(rng.integers(40, 150))
        corpus.append(rng.normal(0.0, 1.0, n))
        levels = np.repeat(rng.normal(0.0, 3.0, 4), n // 4 + 1)[:n]
        corpus.append(levels + rng.normal(0.0, 0.2, n))
        x = np.arange(n)
        corpus.append(np.sin(2 * np.pi * x / rng.integers(8, 40)) + rng.normal(0.0, 0.1, n))
        corpus.append(np.cumsum(rng.normal(0.0, 0.5, n)))
    return corpus[:50]


_CONFIGS = [
    SegmentationConfig(degree=0, th_dpu=0.8),
    SegmentationConfig(degree=1, th_dpu=0.5, th_sss=2, sss_deadband=0.0),
    SegmentationConfig(degree=2, th_dpu=1.5),
    SegmentationConfig(degree=2, th_sss=1, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN,
                       sss_deadband=0.1),
    SegmentationConfig(degree=3, th_dpu=0.4, tail_policy=TailPolicy.DROP),
    SegmentationConfig(degree=3, th_sss=0, sss_deadband=0.01),
    SegmentationConfig(degree=4, th_dpu=0.8, th_sss=1,
                       sss_mode=SlopeSignMode.FIRST_DIFF_SIGN, sss_deadband=0.0),
    SegmentationConfig(degree=4, th_sss=2, min_segment_len=9),
    SegmentationConfig(degree=1, th_dpu=0.3, min_segment_len=6,
                       tail_policy=TailPolicy.DROP),
    SegmentationConfig(degree=0, th_sss=1, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN,
                       sss_deadband=0.05),
]


def test_push_replay_matches_batch_everywhere():
    for series in _series_corpus():
        for config in _CONFIGS:
            if series.size < config.degree + 1:
                continue
            stream = SegmentStream(config)
            closed = [seg for v in series if (seg := stream.push(float(v))) is not None]
            tail = stream.finish()
            if tail is not None:
                closed.append(tail)
            batch = segment_series(series, config)
            assert Segmentation(segments=tuple(closed)) == batch
            assert stream.result() == batch


def test_matches_the_reference_segmenter():
    checked = 0
    for series in _series_corpus():
        for config in _CONFIGS:
            if series.size < config.degree + 1:
                continue
            got = [(s.start, s.end, s.closed_by.value) for s in
                   segment_series(series, config).segments]
            want = [(s, e, r if r != "END_OF_STREAM" else "END_OF_STREAM")
                    for s, e, r in _ref_segment(series, config)]
            want = [(s, e, {"DPU": "DPU", "SSS": "SSS",
                            "END_OF_STREAM": "END_OF_STREAM"}[r]) for s, e, r in want]
            got_names = [(s, e, {"DPU": "DPU", "SSS": "SSS", "emit": "END_OF_STREAM",
                                 "drop": "END_OF_STREAM"}.get(r, r)) for s, e, r in got]
            assert got_names == want, f"config={config}"
            checked += 1
    assert checked >= 400


def test_closed_segments_are_causal():
    # Re-running on the prefix that ends at a change point reproduces exactly
    # the segments that had closed by then: later samples cannot rewrite them.
    rng = np.random.default_rng(7)
    series = np.concatenate([rng.normal(m, 0.3, 25) for m in (0.0, 4.0, -2.0, 1.0)])
    config = SegmentationConfig(degree=2, th_dpu=0.9)
    full = segment_series(series, config)
    assert len(full.change_points) >= 2
    for cp in full.change_points:
        prefix = segment_series(series[: cp + 1], config)
        expect = tuple(s for s in full.segments if s.end <= cp)
        assert prefix.segments == expect


def test_larger_dpu_threshold_never_adds_segments():
    rng = np.random.default_rng(99)
    series = np.cumsum(rng.normal(0.0, 1.0, 300))
    counts = [
        len(segment_series(series, SegmentationConfig(degree=2, th_dpu=th)).segments)
        for th in (0.3, 0.6, 1.0, 2.0, 4.0)
    ]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]  # the sweep actually exercises both regimes


@pytest.mark.parametrize(
    "config",
    [
        SegmentationConfig(degree=5, th_dpu=0.5),
        SegmentationConfig(degree=7, th_dpu=0.5),
        SegmentationConfig(
            degree=3, th_sss=6, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN, sss_deadband=0.05
        ),
    ],
    ids=["dpu-d5", "dpu-d7", "first-diff-sss"],
)
def test_a_level_offset_moves_no_boundary(config):
    # The moments are kept about x = 0, so an offset of 1e6 costs about 1e-10
    # of absolute precision in the fit, far below th_dpu and the deadband.
    series = generate_cycle(n=3_000, seed=5)
    base = segment_series(series, config).segments
    assert len({s.closed_by for s in base}) == 2  # the criterion closes segments
    for offset in (1e3, 1e6):
        shifted = segment_series(series + offset, config).segments
        assert [(s.start, s.end, s.closed_by) for s in shifted] == [
            (s.start, s.end, s.closed_by) for s in base
        ]
        scale = float(np.abs(series).max()) + offset
        for got, want in zip(shifted, base):
            error = got.alpha.alpha - want.alpha.alpha
            error[0] -= offset
            assert float(np.abs(error).max()) <= 1e-12 * scale, (offset, got.index)


# ---------------------------------------------------------------------------
# Tail handling.


def test_drop_policy_discards_the_open_window():
    series = np.zeros(25)
    kept = segment_series(series, SegmentationConfig(degree=1, th_dpu=0.5))
    dropped = segment_series(
        series, SegmentationConfig(degree=1, th_dpu=0.5, tail_policy=TailPolicy.DROP)
    )
    assert len(kept.segments) == 1
    assert dropped.segments == ()


def test_short_tail_has_no_shape_vector():
    stream = SegmentStream(SegmentationConfig(degree=5, th_dpu=0.5))
    for v in (1.0, 2.0, 3.0, 4.0):
        assert stream.push(v) is None
    tail = stream.finish()
    assert tail is not None
    assert tail.alpha is None
    assert (tail.start, tail.end, tail.closed_by) == (0, 3, ClosedBy.END_OF_STREAM)


def test_the_window_fit_is_read_only():
    stream = SegmentStream(SegmentationConfig(degree=1, th_dpu=0.5))
    for v in (1.0, 2.0, 3.0):
        assert stream.push(v) is None
    with pytest.raises(ValueError):
        stream.state.alpha[0] = 99.0
    assert stream.finish().alpha.alpha.tolist() == [2.0, 1.0]


def test_a_segment_cannot_end_before_it_starts():
    with pytest.raises(InvalidConfigError, match="^segment end 4 precedes start 5$"):
        Segment(index=0, start=5, end=4, alpha=None, closed_by=ClosedBy.DPU)


def test_finish_is_idempotent_and_blocks_push():
    stream = SegmentStream(SegmentationConfig(degree=1, th_dpu=0.5))
    stream.push(1.0)
    assert stream.finish() is not None
    assert stream.finish() is None
    with pytest.raises(InvalidConfigError):
        stream.push(2.0)


def test_empty_stream_finishes_empty():
    stream = SegmentStream(SegmentationConfig(degree=1, th_dpu=0.5))
    assert stream.finish() is None
    assert stream.result() == Segmentation(segments=())


def test_stream_respects_start_index():
    stream = SegmentStream(SegmentationConfig(degree=1, th_dpu=0.5), start_index=100)
    for v in np.zeros(6):
        stream.push(float(v))
    (seg,) = stream.result().segments
    assert (seg.start, seg.end) == (100, 105)


# Acceptance criterion 5's configurations; three leave th_sss unset.
_CRITERION_5_CONFIGS = [
    SegmentationConfig(degree=1, th_dpu=0.5),
    SegmentationConfig(degree=2, th_dpu=0.8, th_sss=2, sss_deadband=0.0),
    SegmentationConfig(degree=3, th_sss=1, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN,
                       sss_deadband=0.05),
    SegmentationConfig(degree=0, th_dpu=1.2),
    SegmentationConfig(degree=4, th_dpu=0.6),
]


def _close_every_ninth(state, end):
    return ClosedBy.DPU if end % 9 == 8 else None


@pytest.mark.parametrize("config", _CRITERION_5_CONFIGS, ids=lambda c: f"degree{c.degree}")
@pytest.mark.parametrize("trigger", [None, _close_every_ninth], ids=["criteria", "trigger"])
def test_each_window_after_a_close_is_what_window_init_makes(config, trigger):
    # The stream checks its options with its first window only; every later
    # window must still equal a checked fresh one.
    mode = config.sss_mode if config.th_sss is not None or trigger is not None else None
    rng = np.random.default_rng(config.degree)
    stream = SegmentStream(config, trigger=trigger)
    closes = 0
    for value in np.cumsum(rng.normal(0.0, 0.7, 300)).tolist():
        segment = stream.push(value)
        if segment is not None:
            closes += 1
            assert stream.state == window_init(segment.end + 1, config.degree, mode,
                                               config.sss_deadband)
    assert closes >= 5


def test_a_window_state_given_its_first_four_fields_is_empty():
    state = WindowState(0, 3, None, 0.0)
    assert (state.moments, state._compensation) == ([0.0] * 4, [0.0] * 4)
    assert (state.count, state.alpha, state.deviation) == (0, None, None)
    assert state == window_init(0, 3, None, 0.0)


# ---------------------------------------------------------------------------
# Validation.


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(degree=-1, th_dpu=1.0),
        dict(degree=2.0, th_dpu=1.0),
        dict(degree=True, th_dpu=1.0),
        dict(degree=99, th_dpu=1.0),
        dict(degree=2),
        dict(degree=2, th_dpu=0.0),
        dict(degree=2, th_dpu=-1.0),
        dict(degree=2, th_dpu=float("nan")),
        dict(degree=2, th_dpu=float("inf")),
        dict(degree=2, th_sss=-1),
        dict(degree=2, th_sss=1.5),
        dict(degree=2, th_sss=True),
        dict(degree=2, th_sss=1, sss_deadband=-0.1),
        dict(degree=2, th_sss=1, sss_deadband=float("inf")),
        dict(degree=2, th_sss=1, sss_mode="alpha1"),
        dict(degree=2, th_dpu=1.0, min_segment_len=2),
        dict(degree=2, th_dpu=1.0, min_segment_len=3.0),
        dict(degree=2, th_dpu=1.0, tail_policy="drop"),
    ],
)
def test_config_rejects_invalid_parameters(kwargs):
    with pytest.raises(InvalidConfigError):
        SegmentationConfig(**kwargs)


def test_effective_min_len_floors_at_degree_plus_one():
    assert SegmentationConfig(degree=2, th_dpu=1.0).effective_min_len == 3
    assert SegmentationConfig(degree=0, th_dpu=1.0).effective_min_len == 2
    assert SegmentationConfig(degree=2, th_dpu=1.0, min_segment_len=5).effective_min_len == 5


def test_segment_series_needs_degree_plus_one_samples():
    with pytest.raises(InsufficientDataError):
        segment_series([1.0, 2.0, 3.0], SegmentationConfig(degree=5, th_dpu=1.0))


def test_stream_rejects_non_config():
    with pytest.raises(InvalidConfigError):
        SegmentStream({"degree": 2})
