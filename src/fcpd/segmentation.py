"""On-line segmentation of a series into shape-homogeneous windows.

A window grows one sample at a time.  After each absorbed sample the window's
coefficient vector is refreshed and two closure criteria are checked once the
window reaches its minimum length:

* DPU: the absolute deviation between the refreshed fit and the newest
  sample exceeds th_dpu;
* SSS: the count of slope sign switches inside the window exceeds th_sss.

Either criterion closes the segment at the triggering sample; the next
segment starts at the following sample with a fresh window.  The criteria are
disjunctive; configure one or both thresholds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import InsufficientDataError, InvalidConfigError
from .shape_space import (
    MAX_DEGREE,
    ShapeVector,
    SlopeSignMode,
    WindowState,
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
        if not isinstance(self.degree, int) or isinstance(self.degree, bool):
            raise InvalidConfigError(f"degree must be an integer, got {self.degree!r}")
        if self.degree < 0 or self.degree > MAX_DEGREE:
            raise InvalidConfigError(
                f"degree must be in 0..{MAX_DEGREE}, got {self.degree}"
            )
        if self.th_dpu is None and self.th_sss is None:
            raise InvalidConfigError("at least one of th_dpu, th_sss must be set")
        if self.th_dpu is not None:
            if not math.isfinite(self.th_dpu) or self.th_dpu <= 0:
                raise InvalidConfigError(f"th_dpu must be finite and > 0, got {self.th_dpu}")
        if self.th_sss is not None:
            if not isinstance(self.th_sss, int) or isinstance(self.th_sss, bool):
                raise InvalidConfigError(f"th_sss must be an integer, got {self.th_sss!r}")
            if self.th_sss < 0:
                raise InvalidConfigError(f"th_sss must be >= 0, got {self.th_sss}")
        if not isinstance(self.sss_mode, SlopeSignMode):
            raise InvalidConfigError(f"sss_mode must be a SlopeSignMode, got {self.sss_mode!r}")
        if not math.isfinite(self.sss_deadband) or self.sss_deadband < 0:
            raise InvalidConfigError(
                f"sss_deadband must be finite and >= 0, got {self.sss_deadband}"
            )
        floor = max(2, self.degree + 1)
        if self.min_segment_len is not None:
            if not isinstance(self.min_segment_len, int) or isinstance(self.min_segment_len, bool):
                raise InvalidConfigError(
                    f"min_segment_len must be an integer, got {self.min_segment_len!r}"
                )
            if self.min_segment_len < floor:
                raise InvalidConfigError(
                    f"min_segment_len must be >= {floor} for degree {self.degree}, "
                    f"got {self.min_segment_len}"
                )
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
        self._state = window_init(
            int(start_index), config.degree, config.sss_mode, config.sss_deadband
        )

    @property
    def config(self) -> SegmentationConfig:
        return self._config

    @property
    def state(self) -> WindowState:
        return self._state

    def push(self, y: float) -> Segment | None:
        """Absorb one sample; returns the segment it closed, if any."""
        if self._finished:
            raise InvalidConfigError("stream already finished")
        cfg = self._config
        state = self._state
        window_grow(state, y)

        reason: ClosedBy | None = None
        if self._trigger is not None:
            reason = self._trigger(state, state.start_index + state.count - 1)
        elif state.count >= cfg.effective_min_len:
            # The minimum length is at least degree + 1, so deviation is set.
            if cfg.th_dpu is not None and state.deviation > cfg.th_dpu:
                reason = ClosedBy.DPU
            elif cfg.th_sss is not None and state.sss_count > cfg.th_sss:
                reason = ClosedBy.SSS

        if reason is None:
            return None
        segment = self._close(reason)
        self._state = window_init(segment.end + 1, cfg.degree, cfg.sss_mode, cfg.sss_deadband)
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
        alpha = None
        if state.alpha is not None:
            alpha = ShapeVector(alpha=state.alpha, window_len=state.count - 1, degree=state.degree)
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
    """Segment a complete series; identical to replaying it through a SegmentStream."""
    y = validate_series(series)
    if y.size < config.degree + 1:
        raise InsufficientDataError(
            f"degree {config.degree} needs at least {config.degree + 1} samples, got {y.size}"
        )
    stream = SegmentStream(config, start_index=0, trigger=trigger)
    for value in y:
        stream.push(float(value))
    return stream.result()
