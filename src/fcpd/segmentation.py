"""On-line segmentation of a series into shape-homogeneous windows.

A window grows one sample at a time.  After each absorbed sample two closure
criteria are checked once the window reaches its minimum length:

* DPU: the absolute deviation between the window's fit and the newest
  sample exceeds th_dpu (shape_space.window_grow decides it as it absorbs
  the sample, running the full fit only when its O(K) screen cannot);
* SSS: the count of slope sign switches inside the window exceeds th_sss.

Either criterion closes the segment at the triggering sample; the next
segment starts at the following sample with a fresh window.  The criteria are
disjunctive; configure one or both thresholds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .errors import InsufficientDataError, InvalidConfigError, check_int, check_real
from .shape_space import (
    MAX_DEGREE,
    ShapeVector,
    SlopeSignMode,
    WindowState,
    check_slope_options,
    validate_series,
    window_grow,
    window_init,
)


class ClosedBy(enum.Enum):
    DPU = "DPU"
    SSS = "SSS"
    END_OF_STREAM = "END_OF_STREAM"


class TailPolicy(enum.Enum):
    """What to do with the unfinished window when the stream ends."""

    EMIT_FLAGGED = "emit"
    DROP = "drop"


@dataclass(frozen=True)
class SegmentationConfig:
    """Validated segmentation parameters.

    At least one of th_dpu / th_sss must be set.  min_segment_len defaults to
    max(2, degree + 1); criteria are only evaluated once the window holds that
    many samples.
    """

    degree: int = 5
    th_dpu: float | None = None
    th_sss: int | None = None
    sss_mode: SlopeSignMode = SlopeSignMode.ALPHA1_SIGN
    sss_deadband: float = 0.01
    min_segment_len: int | None = None
    tail_policy: TailPolicy = TailPolicy.EMIT_FLAGGED

    def __post_init__(self) -> None:
        check_int("degree", self.degree, 0, MAX_DEGREE)
        if self.th_dpu is None and self.th_sss is None:
            raise InvalidConfigError("at least one of th_dpu, th_sss must be set")
        if self.th_dpu is not None:
            check_real("th_dpu", self.th_dpu, 0)
        if self.th_sss is not None:
            check_int("th_sss", self.th_sss, 0)
        check_slope_options(self.sss_mode, self.sss_deadband)
        if self.min_segment_len is not None:
            check_int("min_segment_len", self.min_segment_len, max(2, self.degree + 1))
        if not isinstance(self.tail_policy, TailPolicy):
            raise InvalidConfigError(f"tail_policy must be a TailPolicy, got {self.tail_policy!r}")

    @property
    def effective_min_len(self) -> int:
        return self.min_segment_len if self.min_segment_len is not None else max(2, self.degree + 1)


@dataclass(frozen=True)
class Segment:
    """A closed window: inclusive sample range, its shape vector, and why it closed.

    alpha is None only for end-of-stream tails too short to fit (fewer than
    degree + 1 samples).
    """

    index: int
    start: int
    end: int
    alpha: ShapeVector | None
    closed_by: ClosedBy

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise InvalidConfigError(f"segment end {self.end} precedes start {self.start}")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Segmentation:
    """Ordered, contiguous, disjoint segments covering the consumed prefix."""

    segments: tuple[Segment, ...]

    @property
    def change_points(self) -> tuple[int, ...]:
        return tuple(s.end for s in self.segments[:-1])


# A trigger override receives (state, global_index) after each absorbed sample
# and returns a ClosedBy reason to force closure, or None.  Used to stub the
# standard criteria in tests; bypasses the minimum-length guard.
TriggerFn = Callable[[WindowState, int], ClosedBy | None]


class SegmentStream:
    """Streaming segmentation: feed samples one at a time with push()."""

    def __init__(
        self,
        config: SegmentationConfig,
        start_index: int = 0,
        trigger: TriggerFn | None = None,
    ) -> None:
        if not isinstance(config, SegmentationConfig):
            raise InvalidConfigError(f"config must be a SegmentationConfig, got {config!r}")
        self._config = config
        self._trigger = trigger
        self._segments: list[Segment] = []
        self._finished = False
        # Slope signs are only counted where something reads them.
        reads_slopes = config.th_sss is not None or trigger is not None
        sss_mode = config.sss_mode if reads_slopes else None
        # The criteria are checked on a push that finds this many samples or more.
        self._checked_from = config.effective_min_len - 1
        self._th_dpu, self._th_sss = config.th_dpu, config.th_sss
        self._state = window_init(start_index, config.degree, sss_mode, config.sss_deadband)

    @property
    def state(self) -> WindowState:
        return self._state

    def push(self, y: float) -> Segment | None:
        """Absorb one sample; returns the segment it closed, if any."""
        if self._finished:
            raise InvalidConfigError("stream already finished")
        state = self._state
        if self._trigger is not None:
            window_grow(state, y)
            reason = self._trigger(state, state.start_index + state.count - 1)
            if reason is None:
                return None
        elif state.count < self._checked_from:
            window_grow(state, y)
            return None
        # The minimum length is at least degree + 1, so the window has a fit.
        elif window_grow(state, y, self._th_dpu):
            reason = ClosedBy.DPU
        elif self._th_sss is not None and state.sss_count > self._th_sss:
            reason = ClosedBy.SSS
        else:
            return None
        segment = self._close(reason)
        # The options were checked with the first window; later ones reuse them.
        self._state = WindowState(segment.end + 1, state.degree, state.sss_mode, state.sss_deadband)
        return segment

    def finish(self) -> Segment | None:
        """Close the stream; emits or drops the unfinished tail per tail_policy."""
        if self._finished:
            return None
        self._finished = True
        if self._state.count == 0 or self._config.tail_policy is TailPolicy.DROP:
            return None
        return self._close(ClosedBy.END_OF_STREAM)

    def _close(self, reason: ClosedBy) -> Segment:
        """Record the current window as the next segment, closed for ``reason``."""
        state = self._state
        alpha = state.alpha
        if alpha is not None:
            alpha = ShapeVector(alpha=alpha, window_len=state.count - 1, degree=state.degree)
        segment = Segment(
            index=len(self._segments),
            start=state.start_index,
            end=state.start_index + state.count - 1,
            alpha=alpha,
            closed_by=reason,
        )
        self._segments.append(segment)
        return segment

    def result(self) -> Segmentation:
        """The segmentation so far; finishes the stream if still open."""
        if not self._finished:
            self.finish()
        return Segmentation(segments=tuple(self._segments))


def segment_series(
    series,
    config: SegmentationConfig,
    trigger: TriggerFn | None = None,
) -> Segmentation:
    """Segment a complete series; identical to replaying it through a SegmentStream.

    Unlike the stream, which ends such a series in one unfitted
    END_OF_STREAM segment, it raises InsufficientDataError when the series
    holds fewer than degree + 1 samples.
    """
    y = validate_series(series)
    if y.size < config.degree + 1:
        raise InsufficientDataError(
            f"degree {config.degree} needs at least {config.degree + 1} samples, got {y.size}"
        )
    stream = SegmentStream(config, start_index=0, trigger=trigger)
    for value in y.tolist():
        stream.push(value)
    return stream.result()
