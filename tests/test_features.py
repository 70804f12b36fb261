"""Tests for per-segment feature extraction and feature-name resolution."""

from __future__ import annotations

import re

import numpy as np
import pytest

from fcpd import (
    ClosedBy,
    InvalidConfigError,
    InvalidDataError,
    MissingFeatureError,
    Segment,
    SegmentationConfig,
    build_records,
    fit,
    resolve_feature_name,
    segment_series,
)


def _segment(index: int, start: int, values, degree: int = 2) -> Segment:
    end = start + len(values) - 1
    return Segment(
        index=index,
        start=start,
        end=end,
        alpha=fit(values, degree),
        closed_by=ClosedBy.DPU,
    )


def _constant_segments(means, length: int = 4, degree: int = 2) -> list[Segment]:
    out = []
    start = 0
    for i, m in enumerate(means):
        out.append(_segment(i, start, [float(m)] * length, degree))
        start += length
    return out


def _column(segments, key: str, **kwargs) -> list[float | None]:
    return [record[key] for record in build_records(segments, **kwargs)]


def test_sizes_of_the_stub_partition():
    closes = {3: ClosedBy.DPU, 7: ClosedBy.DPU}
    result = segment_series(
        np.arange(11.0),
        SegmentationConfig(degree=2, th_dpu=100.0),
        trigger=lambda state, end: closes.get(end),
    )
    assert _column(result, "size") == [4.0, 4.0, 3.0]
    assert _column(result, "var_size_1") == [None, 0.0, -0.25]


def test_size_base_within_epsilon_is_missing():
    segs = [_segment(i, 8 * i, [1.0] * (4 - i), degree=0) for i in range(3)]  # sizes 4, 3, 2
    assert _column(segs, "var_size_1", epsilon=3.5) == [None, -0.25, None]
    assert _column(segs, "var_size_1", epsilon=50.0) == [None, None, None]


def test_fits_of_different_degrees_are_rejected():
    segs = [_segment(0, 0, [1.0, 2.0, 3.0], degree=1), _segment(1, 3, [1.0, 2.0, 4.0])]
    with pytest.raises(InvalidDataError, match=re.escape("one fit degree, got [1, 2]")):
        build_records(segs)


def test_records_accept_a_segmentation_or_a_plain_sequence():
    segs = _constant_segments([1.0, 2.0])
    assert build_records(segs) == build_records(tuple(segs))


def test_mean_step_up_gives_half_variation():
    segs = _constant_segments([2.0, 3.0])
    assert _column(segs, "alpha_0") == [2.0, 3.0]
    variations = _column(segs, "var_alpha_0_1")
    assert variations[0] is None
    assert variations[1] == pytest.approx(0.5, abs=1e-12)


def test_constant_segments_have_zero_variation():
    variations = _column(_constant_segments([4.0, 4.0, 4.0]), "var_alpha_0_1")
    assert variations == [None, 0.0, 0.0]


def test_near_zero_base_is_missing():
    segs = _constant_segments([0.0, 5.0])
    assert _column(segs, "var_alpha_0_1") == [None, None]
    almost = _constant_segments([1e-10, 5.0])
    assert _column(almost, "var_alpha_0_1") == [None, None]
    fine = _constant_segments([1e-3, 5e-3])
    assert _column(fine, "var_alpha_0_1", epsilon=1e-4)[1] == pytest.approx(4.0)


def test_first_d_segments_are_missing():
    segs = _constant_segments([1.0, 2.0, 4.0, 8.0])
    variations = _column(segs, "var_alpha_0_2", d=2)
    assert variations[:2] == [None, None]
    assert variations[2] == pytest.approx(3.0)
    assert variations[3] == pytest.approx(3.0)


def test_tail_without_coefficients_propagates_missing():
    segs = _constant_segments([2.0, 3.0])
    tail = Segment(index=2, start=8, end=9, alpha=None, closed_by=ClosedBy.END_OF_STREAM)
    segs.append(tail)
    assert _column(segs, "alpha_0") == [2.0, 3.0, None]
    variations = _column(segs, "var_alpha_0_1")
    assert variations == [None, pytest.approx(0.5), None]
    records = build_records(segs)
    assert records[2]["alpha_0"] is None
    assert records[2]["size"] == 2.0


def test_variations_are_scale_invariant():
    rng = np.random.default_rng(3)
    windows = [rng.normal(5.0, 1.0, 8) for _ in range(4)]
    base = [_segment(i, 8 * i, w) for i, w in enumerate(windows)]
    scaled = [_segment(i, 8 * i, 7.5 * w) for i, w in enumerate(windows)]
    for k in range(3):
        got = _column(scaled, f"var_alpha_{k}_1")
        want = _column(base, f"var_alpha_{k}_1")
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g == pytest.approx(w, rel=1e-12)


def test_records_are_causal():
    segs = _constant_segments([1.0, 2.0, 3.0, 5.0, 8.0])
    full = build_records(segs)
    prefix = build_records(segs[:3])
    assert prefix == full[:3]


def test_record_keys_cover_all_feature_families():
    records = build_records(_constant_segments([1.0, 2.0], degree=2), d=1)
    assert set(records[0]) == {
        "alpha_0", "alpha_1", "alpha_2",
        "var_alpha_0_1", "var_alpha_1_1", "var_alpha_2_1",
        "size", "var_size_1",
    }
    deep = build_records(_constant_segments([1.0, 2.0], degree=2), d=2)
    assert "var_alpha_0_2" in deep[0]
    assert "var_size_2" in deep[0]


def test_alias_resolution():
    assert resolve_feature_name("average", degree=5) == "alpha_0"
    assert resolve_feature_name("slope", degree=5) == "alpha_1"
    assert resolve_feature_name("curvature", degree=5) == "alpha_2"
    assert resolve_feature_name("var_average", degree=5) == "var_alpha_0_1"
    assert resolve_feature_name("var_slope", degree=5, d=2) == "var_alpha_1_2"
    assert resolve_feature_name("size", degree=0) == "size"
    assert resolve_feature_name("var_size", degree=0, d=3) == "var_size_3"
    assert resolve_feature_name("alpha_4", degree=5) == "alpha_4"
    assert resolve_feature_name("var_alpha_2_1", degree=5) == "var_alpha_2_1"
    assert resolve_feature_name("var_size_1", degree=5) == "var_size_1"


_UNRESOLVABLE = [
    ("velocity", 5, 1, "unknown feature name 'velocity'"),
    ("alpha_6", 5, 1, "feature 'alpha_6' needs coefficient 6, fit degree is 5"),
    ("slope", 0, 1, "feature 'slope' needs coefficient 1, fit degree is 0"),
    ("curvature", 1, 1, "feature 'curvature' needs coefficient 2, fit degree is 1"),
    ("var_alpha_6_1", 5, 1, "feature 'var_alpha_6_1' needs coefficient 6, fit degree is 5"),
    ("var_alpha_1_2", 5, 1, "feature 'var_alpha_1_2' uses delay 2, this run materialized 1"),
    ("var_size_3", 5, 1, "feature 'var_size_3' uses delay 3, this run materialized 1"),
    ("alpha_-1", 5, 1, "unknown feature name 'alpha_-1'"),
    ("var_slope", 0, 2, "feature 'var_slope' needs coefficient 1, fit degree is 0"),
]


@pytest.mark.parametrize(
    "name, degree, d, message",
    _UNRESOLVABLE,
    ids=[f"{name}-{degree}-{d}" for name, degree, d, _ in _UNRESOLVABLE],
)
def test_unresolvable_names_raise(name, degree, d, message):
    with pytest.raises(MissingFeatureError, match=re.escape(message)):
        resolve_feature_name(name, degree=degree, d=d)


def test_parameter_validation():
    segs = _constant_segments([1.0, 2.0])
    for bad_d in (0, -1, True, 1.5):
        with pytest.raises(InvalidConfigError):
            build_records(segs, d=bad_d)
    with pytest.raises(InvalidConfigError):
        build_records(segs, epsilon=0.0)
