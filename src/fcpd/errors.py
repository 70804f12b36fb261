"""Shared exception types for the fcpd library, and the checks of option values.

check_int and check_real hold the one rule for a valid integer option and a
valid real threshold; every entry point that takes one calls them.  as_floats
is the one conversion of input data to numbers.
"""

import math
from numbers import Integral, Real

import numpy as np


class FcpdError(Exception):
    """Base class for all fcpd errors."""


class InvalidConfigError(FcpdError):
    """A parameter or parameter combination violates a documented precondition."""


class InvalidDataError(FcpdError):
    """Input data is malformed: non-finite, empty, or the wrong layout."""


class InsufficientDataError(FcpdError):
    """Not enough samples for the requested operation."""


class MissingFeatureError(FcpdError):
    """A rule references a feature that no record can supply."""


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int, if it is a Python or numpy integer in lo..hi.

    A bool is not an integer here.  Raises InvalidConfigError naming ``name``.
    """
    if (
        isinstance(value, Integral)
        and not isinstance(value, bool)
        and value >= lo
        and (hi is None or value <= hi)
    ):
        return int(value)
    bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise InvalidConfigError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(name: str, value, lo: float, *, strict: bool = True) -> None:
    """Reject ``value`` unless it is a finite real number > lo (>= lo unless ``strict``).

    A bool is not a number here.  Raises InvalidConfigError naming ``name``.
    """
    try:
        finite = not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")
    if value <= lo if strict else value < lo:
        raise InvalidConfigError(f"{name} must be {'>' if strict else '>='} {lo}, got {value}")


def as_floats(what: str, values) -> np.ndarray:
    """``values`` as a float64 array of any shape.

    Raises InvalidDataError naming ``what`` when an entry is not a number, is
    an int too large for a float, or the nesting is ragged.
    """
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidDataError(f"{what} is not numeric: {exc}") from None
