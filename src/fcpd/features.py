"""Per-segment query features.

Each segment contributes its fitted coefficients (alpha_0..alpha_K), its
sample count, and backward-looking relative variations at a configurable
segment delay d:

    var(t) = (value(t) - value(t - d)) / value(t - d)

attached to segment t.  A feature value of None means MISSING: the segment is
among the first d, the variation denominator is within ``epsilon`` of zero,
or the segment carries no coefficient vector (an end-of-stream tail shorter
than degree + 1).

Canonical feature names are ``alpha_k``, ``var_alpha_{k}_{d}``, ``size`` and
``var_size_{d}``.  Friendly aliases used by rule files (average, slope,
curvature, var_average, var_slope, var_curvature, size, var_size) resolve to
canonical names via resolve_feature_name().
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import InvalidConfigError, MissingFeatureError, check_int, check_real
from .segmentation import Segment, Segmentation

# Alias -> canonical name; {d} is the run's delay.
_ALIASES = {
    "average": "alpha_0",
    "slope": "alpha_1",
    "curvature": "alpha_2",
    "var_average": "var_alpha_0_{d}",
    "var_slope": "var_alpha_1_{d}",
    "var_curvature": "var_alpha_2_{d}",
    "size": "size",
    "var_size": "var_size_{d}",
}

# Groups: alpha_k order, var_alpha order and delay, var_size delay.
_CANONICAL_RE = re.compile(r"^(?:alpha_(\d+)|var_alpha_(\d+)_(\d+)|size|var_size_(\d+))$")


def _as_segments(segments) -> tuple[Segment, ...]:
    if isinstance(segments, Segmentation):
        return segments.segments
    return tuple(segments)


def _variations(
    values: Sequence[float | None], d: int, epsilon: float
) -> list[float | None]:
    out: list[float | None] = []
    for t, current in enumerate(values):
        if t < d:
            out.append(None)
            continue
        base = values[t - d]
        if current is None or base is None or abs(base) < epsilon:
            out.append(None)
            continue
        out.append((current - base) / base)
    return out


def coefficient_feature(segments, k: int) -> list[float | None]:
    """alpha_k of each segment; None for segments without a coefficient vector."""
    segs = _as_segments(segments)
    check_int("coefficient order", k, 0)
    degrees = [s.alpha.degree for s in segs if s.alpha is not None]
    if degrees and k > max(degrees):
        raise InvalidConfigError(
            f"coefficient order {k} out of range for degree {max(degrees)}"
        )
    return [None if s.alpha is None else float(s.alpha.alpha[k]) for s in segs]


def variation_feature(
    segments, k: int, d: int = 1, epsilon: float = 1e-9
) -> list[float | None]:
    """Relative change of alpha_k over a delay of d segments, attached to the later one."""
    check_int("delay", d, 1)
    check_real("epsilon", epsilon, 0)
    return _variations(coefficient_feature(segments, k), d, epsilon)


def size_features(segments, d: int = 1) -> tuple[list[float], list[float | None]]:
    """Segment sample counts and their relative variations at delay d."""
    check_int("delay", d, 1)
    sizes = [float(s.length) for s in _as_segments(segments)]
    return sizes, _variations(sizes, d, 1e-9)


def build_records(segments, d: int = 1, epsilon: float = 1e-9) -> list[dict[str, float | None]]:
    """One dict per segment, in order: every feature keyed by canonical name, None if MISSING."""
    check_int("delay", d, 1)
    check_real("epsilon", epsilon, 0)
    segs = _as_segments(segments)
    degrees = [s.alpha.degree for s in segs if s.alpha is not None]
    degree = max(degrees) if degrees else -1
    sizes, var_sizes = size_features(segs, d)
    columns: dict[str, list[float | None]] = {}
    for k in range(degree + 1):
        columns[f"alpha_{k}"] = coefficient_feature(segs, k)
    for k in range(degree + 1):
        columns[f"var_alpha_{k}_{d}"] = _variations(columns[f"alpha_{k}"], d, epsilon)
    columns["size"] = list(sizes)
    columns[f"var_size_{d}"] = var_sizes
    return [{name: column[i] for name, column in columns.items()} for i in range(len(segs))]


def resolve_feature_name(name: str, degree: int, d: int = 1) -> str:
    """Map a rule-file feature name to the canonical record key.

    Accepts friendly aliases (resolved against the run's delay ``d``) and
    canonical names as-is; raises MissingFeatureError when the name cannot
    exist for the given fit degree or materialized delay.
    """
    check_int("delay", d, 1)
    key = _ALIASES[name].format(d=d) if name in _ALIASES else name
    match = _CANONICAL_RE.match(key)
    if match is None:
        raise MissingFeatureError(f"unknown feature name {name!r}")
    alpha_k, var_k, var_d, size_d = match.groups()
    order = alpha_k or var_k
    if order is not None and int(order) > degree:
        raise MissingFeatureError(
            f"feature {name!r} needs coefficient {order}, fit degree is {degree}"
        )
    delay = var_d or size_d
    if delay is not None and int(delay) != d:
        raise MissingFeatureError(
            f"feature {name!r} uses delay {delay}, this run materialized {d}"
        )
    return key
