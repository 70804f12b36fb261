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
sample costs O(K) moment updates, independent of how long the window has
grown.  The O(K^2) coefficient recombination runs only when something reads
the fit, and window_grow first tries a DPU threshold against an O(K)
screen of the fitted end point in the same pass.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidDataError,
    as_floats,
    check_int,
    check_real,
)

MAX_DEGREE = 10


def validate_series(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D float64 array, rejecting empty and non-finite input."""
    arr = as_floats("series", values)
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


@dataclass(frozen=True)
class OrthoBasis:
    """Monic discrete Chebyshev basis on the grid 0..window_len, orders 0..degree.

    Tuples of plain Python floats: rows[k][j] is the coefficient of x^j in
    p_k (j = 0..k, rows[k][k] exactly 1), norms[k] the closed-form squared
    norm and offsets[k] the recursion's b_k (k = 0..degree-1).  power_coeffs
    (the rows as a lower-triangular matrix) and sq_norms are read-only arrays
    built on first access.  build_basis unpacks a new instance from its
    block on each call; nothing in it can change.
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


# Bases and screen tables are built in blocks of _BLOCK_LEN consecutive window
# lengths, one numpy pass per block, and the _BLOCKS_KEPT blocks used most
# recently are kept (see _block).  Eight blocks hold every length of a window
# up to 8 192 samples, so a stream whose windows stay below that builds each
# block once, not once per window; at degree 10 they hold at most about 10.3 MB.
_BLOCK_LEN = 1024
_BLOCKS_KEPT = 8
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
def _block(start: int, degree: int) -> tuple[np.ndarray, tuple[tuple[float, ...], ...]]:
    """(packed bases, screen tables) of the window lengths start..start+_BLOCK_LEN-1.

    The one cache of this module: it keeps the _BLOCKS_KEPT blocks used most
    recently, over all degrees, and fills on first use, never at import.
    The screen tables are tuples of Python floats: window_grow converts no
    row, and no caller can change one.
    """
    stop = start + _BLOCK_LEN
    if stop <= _INT64_LEN_CAP:
        n = np.arange(start, stop, dtype=np.int64)
    else:
        n = np.array(range(start, stop), dtype=object)
    packed = _pack_bases(n, degree)
    return packed, _screen_table(n, degree, packed)


def _pack_bases(n: np.ndarray, degree: int) -> np.ndarray:
    """Packed bases of the window lengths ``n``, one row each.

    Each row holds rows 0..degree, then the norms, then the offsets (see
    _LAYOUTS).  Every value is computed as a Python float would compute it
    for its own length, in the same order: integers are exact before their
    one conversion to float, and numpy's float64 + - * / round exactly as
    Python's do, so a row's bits do not depend on the block it came from.
    Lengths below ``degree`` are computed too and never handed out.
    """
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


def build_basis(window_len: int, degree: int) -> OrthoBasis:
    """The basis for the grid 0..window_len up to ``degree``, unpacked from its block."""
    k = check_int("degree", degree, 0, MAX_DEGREE)
    # Past 2^53 the grid points are no longer exact floats.
    n = check_int("window_len", window_len, 0, 2**53)
    if k > n:
        raise InvalidConfigError(f"degree {k} needs at least {k + 1} points, grid has {n + 1}")
    start = n - n % _BLOCK_LEN
    parts = _LAYOUTS[k](tuple(_block(start, k)[0][n - start].tolist()))
    return OrthoBasis(n, k, parts[:-2], parts[-2], parts[-1])


# The screen's tables: per window length n, the end-point weights w_0..w_K,
# then the columns below (see _screen_table).
_FLOOR, _BOUND, _SCALE, _ROW1, _NORM1 = range(-5, 0)
# Y T (sum_j B_j + 1) below this proves the exact fit finite (see _screen_table).
_FINITE_BELOW = 2.0**1000
# The screen's relative margin, 64u with u = 2^-53 (see window_grow).
_SCREEN_ULPS = 2.0**-47
# Inflates the _BOUND and _SCALE columns past every rounding of the moments
# and of the tables themselves, each at most a few dozen u (see _screen_table).
_SLACK = 1.0 + 2.0**-30


def _screen_table(n: np.ndarray, degree: int, packed: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """Screen tables of the window lengths ``n``, one tuple of floats each.

    Built in one numpy pass from the packed rows r_kj, norms N_k and
    offsets.  p_k(n) at the end point comes from _recurse itself, so each
    is the exact path's own float p^_k.  With q_k = p^_k / N_k,
    a_j = sum_k |r_kj q_k| and B_j = (n+1)^(j+1) / (j+1), which is at least
    sum_{i<=n} i^j, so |M_j| <= (1 + gamma_{j+3}) Y B_j for a window whose
    samples are at most Y in magnitude (j roundings of y i^j, 2u of Kahan):

    * w_j = sum_k r_kj q_k, so sum_j w_j M_j is the fitted end point;
    * _FLOOR: 2^-1000 max(1, max_k |p^_k| max(1, 1/N_k)), the most that
      underflow in a product with a moment can shift either path's fit,
      times 2^68 (see window_grow); inf where _BOUND is, so the
      screen decides nothing there;
    * _BOUND: T (sum_j B_j + 1) _SLACK, with T = max(max_kj |r_kj|
      max(1, 1/N_k), max_j a_j) >= r_00 = 1, or inf where a table value is
      not finite or q_k or a product r_kj q_k underflows.  Y times it
      bounds T (sum_j |M_j| + |y|): if that is below 2^1000, every
      product, fsum, quotient and difference of the exact path stays below
      11 * 2^1000 (1 + 13u), far from the float limit 2^1024, so its fit
      and deviation are finite;
    * _SCALE: sum_j a_j B_j _SLACK, so Y times it bounds S = sum_j a_j |M_j|,
      the sum of every product alpha_k p^_k that the exact path sums;
    * _ROW1, _NORM1: r_10 and N_1, so alpha_1 = fsum(r_10 M_0, M_1) / N_1
      has the exact path's bits (r_11 is exactly 1).

    _SLACK, 1 + 2^-30, covers the roundings of M_j, of a_j, B_j and their
    sums and of the products with Y, fewer than 64u in all at K = 10.
    """
    *rows, norms, offsets = _LAYOUTS[degree](packed.T)
    x = n.astype(float)
    tiny = np.finfo(float).tiny
    w = np.zeros((degree + 1, x.size))
    a = np.zeros_like(w)
    with np.errstate(all="ignore"):
        p = np.broadcast_arrays(x, *_recurse(x, x, offsets))[1:]
        scale = np.maximum(1.0, 1.0 / norms)
        floor = 2.0**-1000 * np.maximum(1.0, np.max(np.abs(p) * scale, axis=0))
        bound = np.zeros_like(x)
        underflow = np.zeros(x.shape, dtype=bool)
        for k, (row, pk) in enumerate(zip(rows, p)):
            q = pk / norms[k]
            terms = row * q  # r_kj q_k, j = 0..k
            w[: k + 1] += terms
            a[: k + 1] += np.abs(terms)
            bound = np.maximum(bound, np.max(np.abs(row), axis=0) * scale[k])
            underflow |= (pk != 0) & (np.abs(q) < tiny)
            underflow |= np.any((row != 0) & (q != 0) & (np.abs(terms) < tiny), axis=0)
        bound = np.maximum(bound, np.max(a, axis=0))
        # B_j = (n+1)^(j+1) / (j+1), j = 0..K.
        powers = np.cumprod(np.broadcast_to(x + 1.0, w.shape), axis=0)
        power_sums = powers / np.arange(1.0, degree + 2.0)[:, None]
        certificate = bound * (np.sum(power_sums, axis=0) + 1.0) * _SLACK
        peak_scale = np.sum(a * power_sums, axis=0) * _SLACK
        uncertified = underflow | ~np.isfinite(certificate) | ~np.isfinite(floor)
        certificate[uncertified] = floor[uncertified] = np.inf
    row1, norm1 = (rows[1][0], norms[1]) if degree >= 1 else (np.nan, np.nan)
    columns = np.broadcast_arrays(*w, floor, certificate, peak_scale, row1, norm1)
    return tuple(map(tuple, np.stack(columns, axis=1).tolist()))


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShapeVector):
            return NotImplemented
        return (
            self.window_len == other.window_len
            and self.degree == other.degree
            and bool(np.array_equal(self.alpha, other.alpha))
        )


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
    A fitted sum that overflows reads NaN.  Positions that are not finite
    numbers raise InvalidDataError.
    """
    if basis.window_len != shape.window_len or basis.degree != shape.degree:
        raise InvalidConfigError(
            "basis does not match shape vector: "
            f"grid {basis.window_len}/{shape.window_len}, "
            f"degree {basis.degree}/{shape.degree}"
        )
    alpha, n, offsets = shape.alpha.tolist(), basis.window_len, basis.offsets
    xs = as_floats("x", x)
    if not np.all(np.isfinite(xs)):  # None becomes nan
        raise InvalidDataError("x must hold finite numbers")
    if xs.ndim == 0:
        return _fitted(alpha, float(xs), n, offsets)
    return np.array([_fitted(alpha, p, n, offsets) for p in xs.ravel().tolist()]).reshape(xs.shape)


class SlopeSignMode(enum.Enum):
    """How a growing window observes the sign of its local slope."""

    ALPHA1_SIGN = "alpha1"
    FIRST_DIFF_SIGN = "first-diff"


# The members as module globals: reading one off the class costs about 0.1 µs.
_ALPHA1_SIGN, _FIRST_DIFF_SIGN = SlopeSignMode.ALPHA1_SIGN, SlopeSignMode.FIRST_DIFF_SIGN


def check_slope_options(sss_mode, sss_deadband) -> None:
    """Reject a slope mode that is not a SlopeSignMode and a negative or non-finite deadband."""
    if not isinstance(sss_mode, SlopeSignMode):
        raise InvalidConfigError(f"sss_mode must be a SlopeSignMode, got {sss_mode!r}")
    check_real("sss_deadband", sss_deadband, 0, strict=False)


@dataclass
class WindowState:
    """Single-owner mutable state of one growing window.

    moments[j] tracks M_j = sum over absorbed samples of y * x^j (local x
    starting at 0), maintained with Kahan compensation, and peak the
    largest |y| absorbed, which bounds every |M_j| (see _screen_table).
    window_grow replaces the moments and _compensation lists, never edits them.
    The window keeps its current block of screen tables, which window_grow
    refreshes.  alpha and deviation, |fit - y| at the newest sample, are
    None until count >= degree + 1; then they are computed from the moments
    when read, once per count; alpha is read-only.  Given only its first
    four fields, a WindowState is a fresh empty window; window_init checks them.
    prev_slope_sign is the last non-zero slope sign observed; values inside
    the deadband neither match nor break it.  A window whose sss_mode is
    None counts no slope and leaves sss_count at 0.
    """

    start_index: int
    degree: int
    sss_mode: SlopeSignMode | None
    sss_deadband: float
    count: int = 0
    moments: list[float] = None  # degree + 1 zeros unless given
    last_value: float | None = None
    sss_count: int = 0
    prev_slope_sign: int = 0
    peak: float = 0.0
    _compensation: list[float] = field(default=None, repr=False)  # likewise
    # The screen tables of the lengths _table_start.._table_start+_BLOCK_LEN-1
    # (none before the first is read), set by window_grow.
    _table: tuple[tuple[float, ...], ...] | None = field(default=None, repr=False, compare=False)
    _table_start: int = field(default=-_BLOCK_LEN, repr=False, compare=False)
    # (count, alpha, deviation) of the last exact fit: a cache of the moments.
    _fit: tuple[int, np.ndarray, float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.moments is None:
            self.moments = [0.0] * (self.degree + 1)
        if self._compensation is None:
            self._compensation = [0.0] * (self.degree + 1)

    @property
    def alpha(self) -> np.ndarray | None:
        return None if self.count <= self.degree else _exact_fit(self)[1]

    @property
    def deviation(self) -> float | None:
        return None if self.count <= self.degree else _exact_fit(self)[2]


def window_init(
    start_index: int,
    degree: int,
    sss_mode: SlopeSignMode | None = SlopeSignMode.ALPHA1_SIGN,
    sss_deadband: float = 0.01,
) -> WindowState:
    """Fresh empty window whose first absorbed sample sits at ``start_index``.

    ``sss_mode=None`` counts no slope sign.
    """
    degree = check_int("degree", degree, 0, MAX_DEGREE)
    check_slope_options(SlopeSignMode.ALPHA1_SIGN if sss_mode is None else sss_mode, sss_deadband)
    start_index = check_int("start_index", start_index, 0)
    return WindowState(start_index, degree, sss_mode, float(sss_deadband))


def _observe_slope(state: WindowState, slope: float) -> None:
    if slope > state.sss_deadband:
        s = 1
    elif slope < -state.sss_deadband:
        s = -1
    else:
        return
    if state.prev_slope_sign == -s:
        state.sss_count += 1
    state.prev_slope_sign = s


def _exact_fit(state: WindowState) -> tuple[int, np.ndarray, float]:
    """(count, alpha, deviation) of the window as it stands, computed once per count.

    Raises InvalidDataError when the fit or its deviation overflows.
    """
    if state._fit is not None and state._fit[0] == state.count:
        return state._fit
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
    deviation = abs(fitted - state.last_value)
    if not math.isfinite(deviation):
        raise InvalidDataError(f"window fit overflows at sample {state.start_index + n}")
    alpha = np.array(alpha)
    alpha.flags.writeable = False
    state._fit = (state.count, alpha, deviation)
    return state._fit


# window_grow's body at one degree K: the moments m0..mK and their
# compensations c0..cK live in locals, the Kahan update is written out per j
# and F~ is summed left to right.  Only integers are formatted into it.
_GROW_SOURCE = """\
def grow(state, y, th_dpu):
    try:
        value = float(y)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise InvalidDataError(f"non-finite sample {{y!r}}")
    {moments} = state.moments
    {compensations} = state._compensation
    peak = state.peak
    if abs(value) > peak:
        state.peak = peak = abs(value)
    n = state.count
    x = float(n)
    xpow = 1.0
{kahan}    state.moments = [{moments}]
    state._compensation = [{compensations}]
    state.count = n + 1
    mode = state.sss_mode
    if mode is _FIRST_DIFF_SIGN and state.last_value is not None:
        _observe_slope(state, value - state.last_value)
    state.last_value = value
    if n < {degree}:
        return False
    i = n - state._table_start
    if i >= _BLOCK_LEN:
        state._table_start = start = n - n % _BLOCK_LEN
        state._table = _block(start, {degree})[1]
        i = n - start
    row = state._table[i]
    if not peak * row[{bound}] < _FINITE_BELOW:
        _exact_fit(state)
{alpha1}    if th_dpu is None:
        return False
    off = abs(0.0{dot} - value)
    if off + _SCREEN_ULPS * (peak * row[{scale}] + off) + row[{floor}] < th_dpu:
        return False
    return _exact_fit(state)[2] > th_dpu
"""
_KAHAN_STEP = """\
    term = value * xpow - c{j}
    total = m{j} + term
    c{j} = (total - m{j}) - term
    m{j} = total
"""
# The alpha1 slope observation, for degrees 1 and up.
_ALPHA1_STEP = """\
    if mode is _ALPHA1_SIGN:
        _observe_slope(state, math.fsum((row[{row1}] * m0, m1)) / row[{norm1}])
"""
# The compiled window_grow body of each degree, built on its first call.
_KERNELS: list = [None] * (MAX_DEGREE + 1)


def _grow_kernel(degree: int):
    """Compile, keep and return window_grow's body for ``degree`` (see _GROW_SOURCE)."""
    js = range(degree + 1)
    source = _GROW_SOURCE.format(
        degree=degree,
        moments="".join(f"m{j}, " for j in js),
        compensations="".join(f"c{j}, " for j in js),
        kahan="    xpow *= x\n".join(_KAHAN_STEP.format(j=j) for j in js),
        alpha1=_ALPHA1_STEP.format(row1=_ROW1, norm1=_NORM1) if degree >= 1 else "",
        dot="".join(f" + row[{j}] * m{j}" for j in js),
        bound=_BOUND, scale=_SCALE, floor=_FLOOR,
    )
    namespace: dict = {}
    exec(compile(source, f"<fcpd window_grow degree {degree}>", "exec"), globals(), namespace)
    _KERNELS[degree] = kernel = namespace["grow"]
    return kernel


def window_grow(state: WindowState, y: float, th_dpu: float | None = None) -> bool:
    """Absorb one sample and, given ``th_dpu``, answer state.deviation > th_dpu.

    Refreshes the moments, the peak and, if sss_mode is set, the slope signs
    in O(degree), however long the window.  The fit is left to the first
    read of alpha or deviation, unless the screen tables cannot certify that
    it stays finite: then it runs here, and raises InvalidDataError at this
    sample when the fit or its deviation overflows.  Returns False when
    ``th_dpu`` is None or the window holds fewer than degree + 1 samples.

    Given ``th_dpu``, the current length's table row (see _screen_table)
    gives F~ = sum_j w_j M_j, the bound Y scale with Y the window's peak
    |y|, and d~ = |F~ - y|.  The answer is False without the exact fit only
    when

        d~ + 2^-47 (Y scale + d~) + floor < th_dpu,

    and comes from the exact fit (and the exact comparison) otherwise.

    Why the margin holds, with u = 2^-53, gamma_m = m u / (1 - m u),
    Phi = sum_k p^_k sum_j r_kj M_j / N_k the fit in exact arithmetic on
    the same float moments, rows, norms and p^_k, and S = sum_j a_j |M_j|
    with the exact a_j = sum_k |r_kj p^_k / N_k|:

    * The exact path rounds each elementary term r_kj M_j p^_k / N_k at
      most five times (the product r_kj M_j, the coefficient fsum, the
      division by N_k, the product with p^_k, the fitted-value fsum), so
      |fit - Phi| <= gamma_5 S.
    * The screen rounds it at most 2K + 3 times (q_k, r_kj q_k, K additions
      into w_j, the product w_j M_j, K additions into F~), so
      |F~ - Phi| <= gamma_{2K+3} S.  F~ is summed left to right on
      every Python, so the same samples take the exact path on each.
    * The computed Y scale is at least S: |M_j| <= (1 + gamma_{j+3}) Y B_j,
      and the table's slack of 2^-30 outweighs that, the roundings of a_j,
      B_j and their sums, and the product with Y.
    * The two subtractions from y add u |fit - y| and u |F~ - y|.

    So deviation <= d~ + (2K + 8) u Y scale + 2u d~ to first order, at most
    28u Y scale + 2u d~ at K = 10.  The margin takes 64u for both terms,
    more than twice that.  Underflow in a product with a moment shifts
    either fit by at most 2^-1075 times max(1, |p^_k| max(1, 1/N_k)), in
    fewer than 128 places; floor is 2^68 times that.  Rounding in the test
    itself only shrinks the margin by a few u, inside the factor of two.  A
    NaN or an infinity anywhere fails the test and falls back to the exact
    path.
    """
    kernel = _KERNELS[state.degree] or _grow_kernel(state.degree)
    return kernel(state, y, th_dpu)
