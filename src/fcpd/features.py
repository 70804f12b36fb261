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

from .errors import InvalidDataError, MissingFeatureError, check_int, check_real
from .segmentation import Segmentation

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


def _variations(values: list[float | None], d: int, epsilon: float) -> list[float | None]:
    # Attached to the later segment; the first d have no base.
    changes = [
        None if now is None or base is None or abs(base) < epsilon else (now - base) / base
        for base, now in zip(values, values[d:])
    ]
    return [None] * min(d, len(values)) + changes


def build_records(segments, d: int = 1, epsilon: float = 1e-9) -> list[dict[str, float | None]]:
    """One dict per segment, in order: every feature keyed by canonical name, None if MISSING.

    Raises InvalidDataError when the segments' fits differ in degree.
    """
    check_int("delay", d, 1)
    check_real("epsilon", epsilon, 0)
    segs = segments.segments if isinstance(segments, Segmentation) else tuple(segments)
    degrees = {s.alpha.degree for s in segs if s.alpha is not None}
    if len(degrees) > 1:
        raise InvalidDataError(f"segments must share one fit degree, got {sorted(degrees)}")
    degree = max(degrees, default=-1)
    alphas = [None if s.alpha is None else s.alpha.alpha.tolist() for s in segs]
    columns: dict[str, list[float | None]] = {}
    for k in range(degree + 1):
        columns[f"alpha_{k}"] = [None if alpha is None else alpha[k] for alpha in alphas]
    for k in range(degree + 1):
        columns[f"var_alpha_{k}_{d}"] = _variations(columns[f"alpha_{k}"], d, epsilon)
    columns["size"] = [float(s.length) for s in segs]
    columns[f"var_size_{d}"] = _variations(columns["size"], d, epsilon)
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
