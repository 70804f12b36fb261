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
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import InsufficientDataError, InvalidConfigError, InvalidDataError, check_int, check_real

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


# (k!)^4 / ((2k)! (2k+1)!), the constant factor of ||p_k||^2.
_NORM_FACTORS = tuple(
    float(math.factorial(k)) ** 4 / float(math.factorial(2 * k) * math.factorial(2 * k + 1))
    for k in range(MAX_DEGREE + 1)
)


def squared_norm(k: int, window_len: int) -> float:
    """Closed-form squared norm sum_{n=0}^{window_len} p_k(n)^2.

    ``k`` ranges over 0..min(window_len, MAX_DEGREE), as in build_basis.
    """
    return build_basis(window_len, k).norms[k]


@dataclass(frozen=True)
class OrthoBasis:
    """Monic discrete Chebyshev basis on the grid 0..window_len, orders 0..degree.

    Tuples of plain Python floats: rows[k][j] is the coefficient of x^j in
    p_k (j = 0..k, rows[k][k] exactly 1), norms[k] the closed-form squared
    norm and offsets[k] the recursion's b_k (k = 0..degree-1).  power_coeffs
    (the rows as a lower-triangular matrix) and sq_norms are read-only arrays
    built on first access.  build_basis may hand out the same instance more
    than once, so nothing in it can change.
    """

    window_len: int
    degree: int
    rows: tuple[tuple[float, ...], ...]
    norms: tuple[float, ...]
    offsets: tuple[float, ...]

    @cached_property
    def power_coeffs(self) -> np.ndarray:
        coeffs = np.zeros((self.degree + 1, self.degree + 1))
        for k, row in enumerate(self.rows):
            coeffs[k, : k + 1] = row
        coeffs.flags.writeable = False
        return coeffs

    @cached_property
    def sq_norms(self) -> np.ndarray:
        norms = np.array(self.norms)
        norms.flags.writeable = False
        return norms

    def poly_values(self, x) -> np.ndarray:
        """Evaluate all basis polynomials at ``x`` via the stable recursion.

        Returns an array of shape (degree+1,) + shape(x).
        """
        xs = np.asarray(x, dtype=float)
        out = np.empty((self.degree + 1,) + xs.shape)
        for k, values in enumerate(_recurse(xs, self.window_len, self.offsets)):
            out[k] = values
        return out


def _recurse(x, window_len: int, offsets):
    """Yield p_0(x), ..., p_K(x) on the grid 0..window_len, K = len(offsets)."""
    shifted = x - window_len / 2.0
    prev, cur = 0.0, 1.0
    yield cur
    for b in offsets:
        prev, cur = cur, shifted * cur - b * prev
        yield cur


def _fitted(alpha, x: float, window_len: int, offsets) -> float:
    """sum_k alpha_k p_k(x) in plain floats; NaN when fsum meets inf - inf or overflows."""
    try:
        return math.fsum(map(operator.mul, alpha, _recurse(x, window_len, offsets)))
    except (ValueError, OverflowError):
        return math.nan


# Bases are built in blocks of _BLOCK_LEN consecutive window lengths, one
# numpy pass per block, and the _BLOCKS_KEPT blocks used most recently are
# kept.  Every basis of a length below _BLOCK_LEN is kept for the life of the
# process; longer lengths get a fresh OrthoBasis on each call.
_BLOCK_LEN = 1024
_BLOCKS_KEPT = 3
# Up to this n + 1, k^2 (n+1)^2 fits in int64 for every k <= MAX_DEGREE;
# blocks reaching past it do their integer arithmetic in Python ints.
_INT64_LEN_CAP = math.isqrt((2**63 - 1) // MAX_DEGREE**2)


def _packed_layout(degree: int) -> operator.itemgetter:
    """Picks rows 0..degree, the norms and the offsets out of one packed basis."""
    rows = [slice(k * (k + 1) // 2, (k + 1) * (k + 2) // 2) for k in range(degree + 1)]
    end = rows[-1].stop
    return operator.itemgetter(
        *rows, slice(end, end + degree + 1), slice(end + degree + 1, end + 2 * degree + 1)
    )


_LAYOUTS = tuple(_packed_layout(degree) for degree in range(MAX_DEGREE + 1))


@lru_cache(maxsize=_BLOCKS_KEPT)
def _build_block(start: int, degree: int) -> np.ndarray:
    """Packed bases of the window lengths start..start+_BLOCK_LEN-1, one row each.

    Each row holds rows 0..degree, then the norms, then the offsets (see
    _LAYOUTS).  Every value is computed as a Python float would compute it
    for its own length, in the same order: integers are exact before their
    one conversion to float, and numpy's float64 + - * / round exactly as
    Python's do, so a row's bits do not depend on the block it came from.
    Lengths below ``degree`` are computed too and never handed out.
    """
    stop = start + _BLOCK_LEN
    if stop <= _INT64_LEN_CAP:
        n = np.arange(start, stop, dtype=np.int64)
    else:
        n = np.array(range(start, stop), dtype=object)
    half = n.astype(float) / 2.0
    mm = (n + 1) * (n + 1)
    # Python floats overflow to inf (and inf - inf to nan) without a word.
    with np.errstate(over="ignore", invalid="ignore"):
        # b_0..b_{K-1} of the three-term recursion.
        offsets = [
            (k * k * (mm - k * k)).astype(float) / (4.0 * (4 * k * k - 1)) for k in range(degree)
        ]
        # p_{k+1} = x*p_k - (N/2)*p_k - b_k*p_{k-1}, in power-coefficient form.
        prev, cur = [], [1.0]
        rows = [cur]
        for b in offsets:
            new = [low - half * c for low, c in zip([0.0, *cur], cur)]
            for j, p in enumerate(prev):
                new[j] -= b * p
            new.append(1.0)
            prev, cur = cur, new
            rows.append(cur)
        # ||p_k||^2: each product runs left to right from n+1-k, the order its bits depend on.
        points = {i: (n + (1 + i)).astype(float) for i in range(-degree, degree + 1)}
        norms = []
        for k, factor in enumerate(_NORM_FACTORS[: degree + 1]):
            prod = 1.0
            for i in range(-k, k + 1):
                prod = prod * points[i]
            norms.append(factor * prod)
    columns = [*(c for row in rows for c in row), *norms, *offsets]
    packed = np.stack(np.broadcast_arrays(*columns), axis=1)
    packed.flags.writeable = False
    return packed


def _unpack(row: np.ndarray, n: int, degree: int) -> OrthoBasis:
    parts = _LAYOUTS[degree](tuple(row.tolist()))
    return OrthoBasis(n, degree, parts[:-2], parts[-2], parts[-1])


@cache
def _short_basis(n: int, degree: int) -> OrthoBasis:
    return _unpack(_build_block(0, degree)[n], n, degree)


def build_basis(window_len: int, degree: int) -> OrthoBasis:
    """The basis for the grid 0..window_len up to ``degree``.

    Lengths below _BLOCK_LEN return a shared instance.  The caches behind it
    fill on first use, never at import.
    """
    k = check_int("degree", degree, 0, MAX_DEGREE)
    n = check_int("window_len", window_len, 0)
    if k > n:
        raise InvalidConfigError(f"degree {k} needs at least {k + 1} points, grid has {n + 1}")
    if n < _BLOCK_LEN:
        return _short_basis(n, k)
    start = n - n % _BLOCK_LEN
    return _unpack(_build_block(start, k)[n - start], n, k)


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
    degree = check_int("degree", degree, 0, MAX_DEGREE)
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
    returns a float, array ``x`` an array of its shape; each value takes the
    arithmetic of window_grow's fitted value, so both give the same bits.
    """
    if basis.window_len != shape.window_len or basis.degree != shape.degree:
        raise InvalidConfigError(
            "basis does not match shape vector: "
            f"grid {basis.window_len}/{shape.window_len}, "
            f"degree {basis.degree}/{shape.degree}"
        )
    alpha, n, offsets = shape.alpha.tolist(), basis.window_len, basis.offsets
    if np.ndim(x) == 0:
        return _fitted(alpha, float(x), n, offsets)
    xs = np.asarray(x, dtype=float)
    return np.array([_fitted(alpha, p, n, offsets) for p in xs.ravel().tolist()]).reshape(xs.shape)


class SlopeSignMode(enum.Enum):
    """How a growing window observes the sign of its local slope."""

    ALPHA1_SIGN = "alpha1"
    FIRST_DIFF_SIGN = "first-diff"


def check_slope_options(sss_mode, sss_deadband) -> None:
    """Reject a slope mode that is not a SlopeSignMode and a negative or non-finite deadband."""
    if not isinstance(sss_mode, SlopeSignMode):
        raise InvalidConfigError(f"sss_mode must be a SlopeSignMode, got {sss_mode!r}")
    check_real("sss_deadband", sss_deadband, 0, strict=False)


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
    starting at 0), maintained with Kahan compensation.  alpha and deviation,
    |fit - y| at the newest sample, are set once count >= degree + 1.
    prev_slope_sign is the last non-zero slope sign observed; values inside
    the deadband neither match nor break it.
    """

    start_index: int
    degree: int
    sss_mode: SlopeSignMode = SlopeSignMode.ALPHA1_SIGN
    sss_deadband: float = 0.01
    count: int = 0
    moments: list[float] = field(default_factory=list)
    last_value: float | None = None
    alpha: np.ndarray | None = None
    deviation: float | None = None
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
    degree = check_int("degree", degree, 0, MAX_DEGREE)
    check_slope_options(sss_mode, sss_deadband)
    return WindowState(
        start_index=check_int("start_index", start_index, 0),
        degree=degree,
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
    """Absorb one sample, refreshing moments, alpha, deviation and slope-sign counters.

    Per-point cost is O(degree^2) and does not depend on how many samples the
    window already holds.  Raises InvalidDataError when the fit or its
    deviation overflows.
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
        n = state.count - 1
        basis = build_basis(n, state.degree)
        # Python floats give numpy's products without its overflow warnings.
        try:
            alpha = [
                math.fsum(map(operator.mul, row, state.moments)) / norm
                for row, norm in zip(basis.rows, basis.norms)
            ]
            fitted = _fitted(alpha, float(n), n, basis.offsets)
        except (ValueError, OverflowError):  # fsum met inf - inf or overflowed
            fitted = math.nan
        # A non-finite coefficient makes its product with p_k(n) non-finite too.
        deviation = abs(fitted - value)
        if not math.isfinite(deviation):
            raise InvalidDataError(f"window fit overflows at sample {state.start_index + n}")
        state.alpha = np.array(alpha)
        state.deviation = deviation
        if state.sss_mode is SlopeSignMode.ALPHA1_SIGN and state.degree >= 1:
            _observe_slope(state, alpha[1])

    state.last_value = value
    return state
