"""Shape-space representation of growing sample windows.

A window of m equidistant samples, indexed locally as x = 0..m-1, is
summarized by the coefficient vector alpha of its least-squares expansion in
monic discrete Chebyshev polynomials.  alpha_0 is the window average, alpha_1
the fitted slope, alpha_2 the curvature, and so on up to the chosen degree K.

The polynomials satisfy the three-term recursion

    p_0(x) = 1
    p_{k+1}(x) = (x - N/2) * p_k(x) - b_k * p_{k-1}(x)
    b_k = k^2 ((N+1)^2 - k^2) / (4 (4k^2 - 1))

on the grid 0..N and are pairwise orthogonal under the discrete inner product
sum_{n=0}^{N} f(n) g(n).  Their squared norms have the closed form

    ||p_k||^2 = (k!)^4 / ((2k)! (2k+1)!) * prod_{i=-k}^{k} (N+1+i)

so a least-squares fit never solves a linear system: alpha_k is just
sum_n y_n p_k(n) / ||p_k||^2.

Windows can also grow one sample at a time.  A WindowState keeps the power
moments M_j = sum y_n n^j (j = 0..K) under compensated summation; absorbing a
sample costs O(K) moment updates plus an O(K^2) coefficient recombination,
independent of how long the window has grown.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, InvalidConfigError, InvalidDataError

MAX_DEGREE = 10


def validate_series(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array, rejecting empty and non-finite input."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDataError(f"series is not numeric: {exc}") from None
    if arr.ndim != 1:
        raise InvalidDataError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidDataError("series is empty")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise InvalidDataError(f"non-finite value at position {bad}")
    return arr


def _check_degree(degree: int) -> None:
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
        raise InvalidConfigError(f"degree must be an integer, got {degree!r}")
    if degree < 0:
        raise InvalidConfigError(f"degree must be >= 0, got {degree}")
    if degree > MAX_DEGREE:
        raise InvalidConfigError(f"degree {degree} exceeds the supported cap {MAX_DEGREE}")


def _recursion_offset(k: int, window_len: int) -> float:
    """b_k in the three-term recursion for the grid 0..window_len."""
    m = window_len + 1
    return k * k * (m * m - k * k) / (4.0 * (4 * k * k - 1))


def squared_norm(k: int, window_len: int) -> float:
    """Closed-form squared norm sum_{n=0}^{window_len} p_k(n)^2.

    ``k`` ranges over 0..min(window_len, MAX_DEGREE), as in build_basis.
    """
    return float(build_basis(window_len, k).sq_norms[k])


@dataclass(frozen=True)
class OrthoBasis:
    """Monic discrete Chebyshev basis on the grid 0..window_len, orders 0..degree.

    power_coeffs[k, j] is the coefficient of x^j in p_k (lower triangular,
    diagonal exactly 1).  sq_norms[k] is the closed-form squared norm.
    """

    window_len: int
    degree: int
    power_coeffs: np.ndarray
    sq_norms: np.ndarray

    def poly_values(self, x) -> np.ndarray:
        """Evaluate all basis polynomials at ``x`` via the stable recursion.

        Returns an array of shape (degree+1,) + shape(x).
        """
        xs = np.asarray(x, dtype=float)
        out = np.empty((self.degree + 1,) + xs.shape)
        out[0] = 1.0
        if self.degree >= 1:
            shifted = xs - self.window_len / 2.0
            out[1] = shifted
            for k in range(1, self.degree):
                b = _recursion_offset(k, self.window_len)
                out[k + 1] = shifted * out[k] - b * out[k - 1]
        return out


def build_basis(window_len: int, degree: int) -> OrthoBasis:
    """Construct the basis for the grid 0..window_len up to ``degree``."""
    _check_degree(degree)
    if not isinstance(window_len, (int, np.integer)) or isinstance(window_len, bool):
        raise InvalidConfigError(f"window_len must be an integer, got {window_len!r}")
    if window_len < 0:
        raise InvalidConfigError(f"window_len must be >= 0, got {window_len}")
    if degree > window_len:
        raise InvalidConfigError(
            f"degree {degree} needs at least {degree + 1} points, grid has {window_len + 1}"
        )
    n = int(window_len)
    k_max = int(degree)
    coeffs = np.zeros((k_max + 1, k_max + 1))
    coeffs[0, 0] = 1.0
    if k_max >= 1:
        coeffs[1, 0] = -n / 2.0
        coeffs[1, 1] = 1.0
    for k in range(1, k_max):
        b = _recursion_offset(k, n)
        # p_{k+1} = x*p_k - (N/2)*p_k - b_k*p_{k-1}, in power-coefficient form
        coeffs[k + 1, 1 : k + 2] = coeffs[k, : k + 1]
        coeffs[k + 1, : k + 1] -= (n / 2.0) * coeffs[k, : k + 1]
        coeffs[k + 1, :k] -= b * coeffs[k - 1, :k]
    norms = np.empty(k_max + 1)
    for k in range(k_max + 1):
        coeff = float(math.factorial(k)) ** 4 / float(
            math.factorial(2 * k) * math.factorial(2 * k + 1)
        )
        prod = 1.0
        for i in range(-k, k + 1):
            prod *= n + 1 + i
        norms[k] = coeff * prod
    coeffs.flags.writeable = False
    norms.flags.writeable = False
    return OrthoBasis(window_len=n, degree=k_max, power_coeffs=coeffs, sq_norms=norms)


@dataclass(frozen=True)
class ShapeVector:
    """Least-squares coefficients of one window in its orthogonal basis."""

    alpha: np.ndarray
    window_len: int
    degree: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.alpha, dtype=float)
        if arr.shape != (self.degree + 1,):
            raise InvalidConfigError(
                f"alpha must have {self.degree + 1} entries, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "alpha", arr)

    def __getitem__(self, k: int) -> float:
        return float(self.alpha[k])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShapeVector):
            return NotImplemented
        return (
            self.window_len == other.window_len
            and self.degree == other.degree
            and bool(np.array_equal(self.alpha, other.alpha))
        )

    @property
    def average(self) -> float:
        return float(self.alpha[0])

    @property
    def slope(self) -> float | None:
        return float(self.alpha[1]) if self.degree >= 1 else None

    @property
    def curvature(self) -> float | None:
        return float(self.alpha[2]) if self.degree >= 2 else None


def fit(window, degree: int) -> ShapeVector:
    """Least-squares shape vector of a complete window.

    The window must hold at least degree+1 finite samples; sample n is taken
    at local position x = n.
    """
    y = validate_series(window)
    _check_degree(degree)
    if y.size < degree + 1:
        raise InsufficientDataError(
            f"degree {degree} needs at least {degree + 1} samples, got {y.size}"
        )
    basis = build_basis(y.size - 1, degree)
    values = basis.poly_values(np.arange(y.size, dtype=float))
    alpha = values @ y / basis.sq_norms
    return ShapeVector(alpha=alpha, window_len=y.size - 1, degree=degree)


def evaluate(shape: ShapeVector, basis: OrthoBasis, x):
    """Evaluate the fitted polynomial sum_k alpha_k p_k at ``x``.

    ``basis`` must match the shape vector's grid and degree.  Scalar ``x``
    returns a float; array ``x`` returns an array.
    """
    if basis.window_len != shape.window_len or basis.degree != shape.degree:
        raise InvalidConfigError(
            "basis does not match shape vector: "
            f"grid {basis.window_len}/{shape.window_len}, "
            f"degree {basis.degree}/{shape.degree}"
        )
    values = basis.poly_values(x)
    result = np.tensordot(shape.alpha, values, axes=1)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(result)
    return result


class SlopeSignMode(enum.Enum):
    """How a growing window observes the sign of its local slope."""

    ALPHA1_SIGN = "alpha1"
    FIRST_DIFF_SIGN = "first-diff"


def _sign_with_deadband(value: float, deadband: float) -> int:
    if value > deadband:
        return 1
    if value < -deadband:
        return -1
    return 0


@dataclass
class WindowState:
    """Single-owner mutable state of one growing window.

    moments[j] tracks M_j = sum over absorbed samples of y * x^j (local x
    starting at 0), maintained with Kahan compensation.  current_alpha and
    current_basis are valid once count >= degree + 1.  prev_slope_sign is the
    last non-zero slope sign observed; values inside the deadband neither
    match nor break it.
    """

    start_index: int
    degree: int
    sss_mode: SlopeSignMode = SlopeSignMode.ALPHA1_SIGN
    sss_deadband: float = 0.01
    count: int = 0
    moments: list[float] = field(default_factory=list)
    last_value: float | None = None
    current_alpha: ShapeVector | None = None
    current_basis: OrthoBasis | None = None
    sss_count: int = 0
    prev_slope_sign: int = 0
    _compensation: list[float] = field(default_factory=list, repr=False)


def window_init(
    start_index: int,
    degree: int,
    sss_mode: SlopeSignMode = SlopeSignMode.ALPHA1_SIGN,
    sss_deadband: float = 0.01,
) -> WindowState:
    """Fresh empty window whose first absorbed sample sits at ``start_index``."""
    _check_degree(degree)
    if not isinstance(sss_mode, SlopeSignMode):
        raise InvalidConfigError(f"sss_mode must be a SlopeSignMode, got {sss_mode!r}")
    if not math.isfinite(sss_deadband) or sss_deadband < 0:
        raise InvalidConfigError(f"sss_deadband must be finite and >= 0, got {sss_deadband}")
    return WindowState(
        start_index=int(start_index),
        degree=int(degree),
        sss_mode=sss_mode,
        sss_deadband=float(sss_deadband),
        moments=[0.0] * (degree + 1),
        _compensation=[0.0] * (degree + 1),
    )


def _observe_slope(state: WindowState, slope: float) -> None:
    s = _sign_with_deadband(slope, state.sss_deadband)
    if s == 0:
        return
    if state.prev_slope_sign != 0 and s != state.prev_slope_sign:
        state.sss_count += 1
    state.prev_slope_sign = s


def window_grow(state: WindowState, y: float) -> WindowState:
    """Absorb one sample, refreshing moments, alpha, and slope-sign counters.

    Per-point cost is O(degree^2) and does not depend on how many samples the
    window already holds.
    """
    value = float(y)
    if not math.isfinite(value):
        raise InvalidDataError(f"non-finite sample {y!r}")
    x = float(state.count)
    xpow = 1.0
    for j in range(state.degree + 1):
        # Kahan update keeps the moments near-exact as the window grows.
        term = value * xpow - state._compensation[j]
        total = state.moments[j] + term
        state._compensation[j] = (total - state.moments[j]) - term
        state.moments[j] = total
        xpow *= x
    state.count += 1

    if state.sss_mode is SlopeSignMode.FIRST_DIFF_SIGN and state.last_value is not None:
        _observe_slope(state, value - state.last_value)

    if state.count >= state.degree + 1:
        basis = build_basis(state.count - 1, state.degree)
        alpha = np.empty(state.degree + 1)
        for k in range(state.degree + 1):
            acc = math.fsum(
                basis.power_coeffs[k, j] * state.moments[j] for j in range(k + 1)
            )
            alpha[k] = acc / basis.sq_norms[k]
        state.current_alpha = ShapeVector(
            alpha=alpha, window_len=state.count - 1, degree=state.degree
        )
        state.current_basis = basis
        if state.sss_mode is SlopeSignMode.ALPHA1_SIGN and state.degree >= 1:
            _observe_slope(state, float(alpha[1]))

    state.last_value = value
    return state
