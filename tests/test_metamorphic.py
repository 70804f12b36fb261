"""Metamorphic invariants of segmentation and scoring.

These hold in exact arithmetic and, today, to the bit: scaling a series by a
power of two before ``--normalize`` leaves the query output unchanged, and
samples appended after a closed segment never change the segments closed
before it (the on-line property), and a stream started at index k closes
the same segments shifted by k.  Unlike golden files they do not pin any
particular rounding, so they carry over to a faster kernel that rounds
differently.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fcpd import (
    ClosedBy,
    SegmentationConfig,
    SegmentStream,
    SlopeSignMode,
    cli_io,
    segment_series,
)

RULES = Path(__file__).resolve().parents[1] / "queries" / "graded_variation.fcq"


def _series(seed: int, n: int) -> np.ndarray:
    """Noisy triangle-wave cycle on level shifts."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    level = np.cumsum(rng.normal(0.0, 1.0, n // 60 + 1))[(t // 60).astype(int)]
    cycle = np.abs((t / 12.0) % 2.0 - 1.0)
    return 10.0 * cycle + level + rng.normal(0.0, 0.5, n)


def _query_json(path: Path, criteria: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    argv = ["query", str(path), "--rules", str(RULES), "--normalize", "--format", "json", *criteria]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli_io.main(argv) == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("criteria", [
    ["--th-dpu", "0.9"],
    # A normalized series rarely moves alpha_1 past the default deadband.
    ["--th-sss", "2", "--sss-mode", "alpha1", "--sss-deadband", "0.001"],
])
def test_normalized_query_ignores_power_of_two_scaling(tmp_path, criteria):
    y = _series(11, 600)
    outputs = []
    for factor in (1.0, 8.0, 1.0 / 16.0):
        path = tmp_path / f"x{factor}" / "series.csv"
        path.parent.mkdir()
        path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in y * factor))
        outputs.append(_query_json(path, criteria))
    assert len(json.loads(outputs[0])["segments"]) > 3
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def _closed(segment) -> tuple:
    return (segment.start, segment.end, segment.closed_by, segment.alpha.alpha.tobytes())


@pytest.mark.parametrize("config", [
    SegmentationConfig(degree=5, th_dpu=1.0),
    SegmentationConfig(degree=5, th_sss=2, sss_mode=SlopeSignMode.ALPHA1_SIGN),
    SegmentationConfig(degree=4, th_dpu=2.0, th_sss=6, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN,
                       min_segment_len=8),
])
def test_appending_samples_keeps_the_closed_segments(config):
    y = _series(5, 900)
    full = segment_series(y, config).segments
    checked = 0
    for n in range(120, 900, 97):
        prefix = segment_series(y[:n], config).segments
        closed = [s for s in prefix if s.closed_by is not ClosedBy.END_OF_STREAM]
        assert [_closed(s) for s in closed] == [_closed(s) for s in full[:len(closed)]]
        checked += len(closed)
    assert checked >= 10


@pytest.mark.parametrize("config", [
    SegmentationConfig(degree=5, th_dpu=1.0),
    SegmentationConfig(degree=5, th_sss=2, sss_mode=SlopeSignMode.ALPHA1_SIGN),
    SegmentationConfig(degree=3, th_sss=6, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN,
                       min_segment_len=8),
])
def test_start_index_shifts_positions_only(config):
    y = _series(7, 900)
    base = [_closed(s) for s in segment_series(y, config).segments]
    assert sum(closed_by is not ClosedBy.END_OF_STREAM for _, _, closed_by, _ in base) >= 10
    for k in (1, 250, 10**9):
        stream = SegmentStream(config, start_index=k)
        for value in y:
            stream.push(float(value))
        shifted = [_closed(s) for s in stream.result().segments]
        assert [(start - k, end - k, *rest) for start, end, *rest in shifted] == base
