"""Shape-space tests: basis construction, fitting, and incremental windows."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from fcpd import shape_space
from fcpd import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidDataError,
    MAX_DEGREE,
    SegmentationConfig,
    SegmentStream,
    ShapeVector,
    SlopeSignMode,
    build_basis,
    evaluate,
    fit,
    validate_series,
    window_grow,
    window_init,
)

REFERENCE_SERIES = [3.0, 5.0, 8.0, 6.0, 8.0, 9.0, 10.4, 12.0, 12.2]
REFERENCE_FITTED = [(3, 7.19), (4, 8.30), (5, 9.38), (6, 10.42), (7, 11.41), (8, 12.37)]


def gram_schmidt_exact(n: int, k_max: int) -> list[list[Fraction]]:
    """Monic orthogonal polynomials on the grid 0..n by exact Gram-Schmidt.

    Returns power coefficients, polys[k][j] = coefficient of x^j.
    """
    grid = [Fraction(x) for x in range(n + 1)]

    def ip(p, q):
        return sum(
            sum(c * x**j for j, c in enumerate(p)) * sum(c * x**j for j, c in enumerate(q))
            for x in grid
        )

    polys = [[Fraction(1)]]
    for k in range(1, k_max + 1):
        cand = [Fraction(0)] + polys[k - 1]  # x * p_{k-1}, still monic
        for p in polys:
            coef = ip(cand, p) / ip(p, p)
            cand = [c - coef * (p[j] if j < len(p) else 0) for j, c in enumerate(cand)]
        polys.append(cand)
    return polys


def test_basis_matches_exact_gram_schmidt():
    for n, k_max in [(4, 3), (8, 4), (12, 5), (25, 5)]:
        basis = build_basis(n, k_max)
        exact = gram_schmidt_exact(n, k_max)
        for k in range(k_max + 1):
            got = basis.power_coeffs[k, : k + 1]
            want = np.array([float(c) for c in exact[k]])
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-9 * scale


def test_squared_norm_matches_exact_inner_product():
    for n, k_max in [(4, 3), (10, 5), (20, 6)]:
        exact = gram_schmidt_exact(n, k_max)
        for k in range(k_max + 1):
            p = exact[k]
            want = float(sum(sum(c * Fraction(x) ** j for j, c in enumerate(p)) ** 2 for x in range(n + 1)))
            assert build_basis(n, k).norms[k] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "k,n,expected",
    [(0, 4, 5.0), (1, 2, 2.0), (1, 8, 60.0), (2, 2, 2.0 / 3.0)],
)
def test_squared_norm_goldens(k, n, expected):
    assert build_basis(n, k).norms[k] == pytest.approx(expected, rel=1e-12)


def test_squared_norm_rejects_orders_outside_the_basis():
    basis = build_basis(50, MAX_DEGREE)
    assert basis.norms[MAX_DEGREE] == basis.sq_norms[-1]
    for k, n in [(-1, 5), (3, 2), (MAX_DEGREE + 1, 50)]:
        with pytest.raises(InvalidConfigError):
            build_basis(n, k).norms[k]


def test_basis_orthogonality_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(7, 201))
        k_max = int(rng.integers(0, 8))
        basis = build_basis(n, k_max)
        values = basis.poly_values(np.arange(n + 1, dtype=float))
        gram = values @ values.T
        norms = np.sqrt(basis.sq_norms)
        rel = np.abs(gram) / np.outer(norms, norms)
        np.fill_diagonal(rel, 0.0)
        assert rel.max() <= 1e-6
        # Diagonal agrees with the closed-form norms.
        diag_rel = np.abs(np.diag(gram) - basis.sq_norms) / basis.sq_norms
        assert diag_rel.max() <= 1e-9


def test_basis_is_monic():
    for n, k_max in [(5, 5), (100, 7), (199, 7)]:
        basis = build_basis(n, k_max)
        for k in range(k_max + 1):
            assert basis.power_coeffs[k, k] == 1.0
            assert np.all(basis.power_coeffs[k, k + 1 :] == 0.0)


def _numpy_basis(n: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The earlier numpy construction of power_coeffs and sq_norms, kept as a bit reference."""
    coeffs = np.zeros((k_max + 1, k_max + 1))
    coeffs[0, 0] = 1.0
    if k_max >= 1:
        coeffs[1, 0] = -n / 2.0
        coeffs[1, 1] = 1.0
    for k in range(1, k_max):
        m = n + 1
        b = k * k * (m * m - k * k) / (4.0 * (4 * k * k - 1))
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
    return coeffs, norms


def test_basis_bits_match_the_numpy_construction():
    for k_max in range(MAX_DEGREE + 1):
        for n in [*range(k_max, 400), 4_999, 100_000, 250_000]:
            basis = build_basis(n, k_max)
            coeffs, norms = _numpy_basis(n, k_max)
            assert basis.power_coeffs.tobytes() == coeffs.tobytes(), (n, k_max)
            assert basis.sq_norms.tobytes() == norms.tobytes(), (n, k_max)


# (k!)^4 / ((2k)! (2k+1)!), the constant factor of ||p_k||^2.
_SCALAR_NORM_FACTORS = tuple(
    float(math.factorial(k)) ** 4 / float(math.factorial(2 * k) * math.factorial(2 * k + 1))
    for k in range(MAX_DEGREE + 1)
)


def _scalar_build_basis(n: int, k_max: int) -> tuple[list, list, list]:
    """The earlier one-length-at-a-time body of build_basis, kept as a bit reference.

    Python ints stay exact however long the grid, so this holds where a
    fixed-width integer would overflow.
    """
    half = n / 2.0
    mm = (n + 1) * (n + 1)
    offsets = [k * k * (mm - k * k) / (4.0 * (4 * k * k - 1)) for k in range(k_max)]
    prev, cur = [], [1.0]
    rows = [cur]
    for b in offsets:
        new = [low - half * c for low, c in zip([0.0, *cur], cur)]
        for j, p in enumerate(prev):
            new[j] -= b * p
        new.append(1.0)
        prev, cur = cur, new
        rows.append(cur)
    norms = [
        factor * math.prod(range(n + 1 - k, n + 2 + k), start=1.0)
        for k, factor in enumerate(_SCALAR_NORM_FACTORS[: k_max + 1])
    ]
    return rows, norms, offsets


def _basis_bytes(rows, norms, offsets) -> tuple[bytes, ...]:
    flat = [v for row in rows for v in row]
    return tuple(np.array(values, dtype=float).tobytes() for values in (flat, norms, offsets))


# From 10^9 on, k^2 ((n+1)^2 - k^2) no longer fits in int64.
_LARGE_LENGTHS = [10**7, 3 * 10**8, 10**9, 2**31, 4 * 10**9]


@pytest.mark.parametrize("k_max", range(MAX_DEGREE + 1))
def test_basis_bits_match_the_scalar_construction(k_max):
    # Lengths up to 3 000 cross the block edges at 1 024 and 2 048.
    for n in [*range(k_max, 3_001), *_LARGE_LENGTHS]:
        basis = build_basis(n, k_max)
        assert basis.window_len == n and basis.degree == k_max
        want = _basis_bytes(*_scalar_build_basis(n, k_max))
        assert _basis_bytes(basis.rows, basis.norms, basis.offsets) == want, (n, k_max)


def test_kept_blocks_are_bounded_and_short_bases_keep_the_scalar_bits():
    # Earlier tests may have filled the cache already; the bound holds either way.
    short = {n: build_basis(n, 6) for n in range(6, 1_024)}
    last = shape_space._BLOCKS_KEPT + 2
    for start in range(1, last + 1):
        build_basis(start * 1_024 + 3, 6)
        assert shape_space._block.cache_info().currsize <= shape_space._BLOCKS_KEPT
    before = shape_space._block.cache_info()
    build_basis(last * 1_024 + 4, 6)  # the block used last is still kept
    build_basis(100, 6)  # block 0 was evicted by the blocks walked since
    after = shape_space._block.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)
    for n, basis in short.items():
        want = _basis_bytes(*_scalar_build_basis(n, 6))
        assert _basis_bytes(basis.rows, basis.norms, basis.offsets) == want, n


def test_a_new_block_costs_one_miss_for_the_basis_and_the_screen():
    # Walking blocks 0..6 of degree 9 keeps them all in the cache, and block 7
    # (lengths 7 168..8 191) is new.
    state = window_init(0, 9, sss_mode=None)
    for _ in range(7 * 1_024):
        window_grow(state, 1.0)
    before = shape_space._block.cache_info()
    window_grow(state, 1.0)  # length 7 168 reads its screen row
    assert state.deviation < 1e-6  # the exact fit asks for the basis of 7 168
    build_basis(7_168 + 500, 9)
    after = shape_space._block.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 2)


def test_a_second_long_window_rebuilds_no_block():
    # A window of 4 500 samples walks blocks 0..4; all five stay kept, so the
    # next window of a long stream finds every block it reads.
    def grow_window():
        state = window_init(0, 7, sss_mode=None)
        for _ in range(4_500):
            window_grow(state, 1.0)

    grow_window()
    before = shape_space._block.cache_info().misses
    grow_window()
    assert shape_space._block.cache_info().misses == before


def test_threads_sharing_the_table_get_the_scalar_bits():
    want = {(n, k): _basis_bytes(*_scalar_build_basis(n, k)) for n in range(9, 6_000, 37) for k in (3, 9)}
    failures = []

    def work(seed: int) -> None:
        order = list(want)
        random.Random(seed).shuffle(order)
        try:
            for n, k in order:
                basis = build_basis(n, k)
                if _basis_bytes(basis.rows, basis.norms, basis.offsets) != want[n, k]:
                    failures.append((n, k))
        except Exception as exc:  # reported below, with the thread's inputs
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_a_basis_returned_twice_cannot_be_changed():
    for n in (100, 5_000):  # a first-block length and a longer one
        first, second = build_basis(n, 4), build_basis(n, 4)
        for basis in (first, second):
            for name in ("rows", "norms", "offsets"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(basis, name, ())
            for values in (basis.rows, basis.rows[2], basis.norms, basis.offsets):
                with pytest.raises(TypeError):
                    values[0] = 0.0
        want = _basis_bytes(*_scalar_build_basis(n, 4))
        assert _basis_bytes(second.rows, second.norms, second.offsets) == want
        assert build_basis(n, 4) == second


def test_a_warm_table_still_validates():
    # hash(5.0) == hash(5) and hash(True) == hash(1): a lookup placed before
    # validation would serve these from the table.
    for n in (5, 1, 5_000):
        build_basis(n, 1)
    for bad in (True, 5.0, -1, 5_000.0, np.float64(5.0)):
        with pytest.raises(InvalidConfigError):
            build_basis(bad, 1)
    for bad in (True, 1.0, -1):
        with pytest.raises(InvalidConfigError):
            build_basis(5, bad)
    build_basis(5, 5)
    with pytest.raises(InvalidConfigError):
        build_basis(4, 5)  # degree > window_len


def _segments(stream: SegmentStream) -> list[tuple]:
    return [
        (s.start, s.end, s.closed_by, None if s.alpha is None else s.alpha.alpha.tobytes())
        for s in stream.result().segments
    ]


def _pushed_alone(series: list[float], config: SegmentationConfig) -> list[tuple]:
    stream = SegmentStream(config)
    for value in series:
        stream.push(value)
    return _segments(stream)


def _level_shift_series(seed: int, n: int) -> list[float]:
    # Quiet noise with a few large level shifts: windows grow past 2 048.
    rng = np.random.default_rng(seed)
    levels = np.repeat(rng.uniform(-60.0, 60.0, size=4), n // 4 + 1)[:n]
    return (levels + rng.normal(size=n)).tolist()


@pytest.mark.parametrize(
    "degrees,lead",
    [((3, 8), 0), ((5, 5), 1_100)],
    ids=["two-degrees", "one-degree-two-blocks"],
)
def test_streams_sharing_the_table_match_streams_alone(degrees, lead):
    series = _level_shift_series(29, 9_000)
    configs = [SegmentationConfig(degree=k, th_dpu=8.0) for k in degrees]
    alone = [_pushed_alone(series, config) for config in configs]

    streams = [SegmentStream(config) for config in configs]
    fed = [0, 0]
    for value in series[:lead]:  # the second stream runs ahead by ``lead`` samples
        streams[1].push(value)
    fed[1] = lead
    blocks_seen = set()
    rng = np.random.default_rng(31)
    while fed[0] < len(series) or fed[1] < len(series):
        for i, stream in enumerate(streams):
            chunk = int(rng.integers(1, 400))
            for value in series[fed[i] : fed[i] + chunk]:
                stream.push(value)
            fed[i] = min(fed[i] + chunk, len(series))
        blocks_seen.add(tuple(stream.state.count // 1_024 for stream in streams))
    assert [_segments(stream) for stream in streams] == alone
    # Both windows were past the first block at once, in different blocks.
    assert any(min(pair) >= 1 and pair[0] != pair[1] for pair in blocks_seen)


def test_basis_holds_floats_and_read_only_arrays():
    basis = build_basis(250, MAX_DEGREE)
    assert [len(row) for row in basis.rows] == list(range(1, MAX_DEGREE + 2))
    assert len(basis.norms) == MAX_DEGREE + 1
    assert len(basis.offsets) == MAX_DEGREE
    values = [*(v for row in basis.rows for v in row), *basis.norms, *basis.offsets]
    assert all(type(v) is float for v in values)
    for array in (basis.power_coeffs, basis.sq_norms):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert basis.power_coeffs is basis.power_coeffs  # built once


def test_poly_values_match_power_coefficients():
    basis = build_basis(10, 4)
    x = np.linspace(-2.0, 12.0, 29)
    from_recursion = basis.poly_values(x)
    for k in range(5):
        from_powers = sum(basis.power_coeffs[k, j] * x**j for j in range(k + 1))
        assert np.abs(from_recursion[k] - from_powers).max() <= 1e-8 * max(1.0, np.abs(from_powers).max())


def test_fit_reference_window_golden():
    shape = fit(REFERENCE_SERIES, degree=2)
    assert shape.alpha[0] == pytest.approx(8.18, abs=0.01)
    assert shape.alpha[1] == pytest.approx(1.09, abs=0.01)
    assert shape.alpha[2] == pytest.approx(-0.02, abs=0.01)


def test_evaluate_reference_window_points():
    shape = fit(REFERENCE_SERIES, degree=2)
    basis = build_basis(len(REFERENCE_SERIES) - 1, 2)
    for x, expected in REFERENCE_FITTED:
        assert evaluate(shape, basis, float(x)) == pytest.approx(expected, abs=0.01)


def test_fit_constant_series():
    for k in range(4):
        shape = fit([7.5] * 10, degree=k)
        assert shape.alpha[0] == pytest.approx(7.5, abs=1e-12)
        assert np.abs(shape.alpha[1:]).max() <= 1e-12 if k else True


def test_fit_line():
    shape = fit([0.0, 1.0, 2.0, 3.0, 4.0], degree=1)
    assert shape.alpha[0] == pytest.approx(2.0, abs=1e-12)
    assert shape.alpha[1] == pytest.approx(1.0, abs=1e-12)


def test_alpha0_is_window_mean():
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.normal(size=int(rng.integers(4, 50)))
        shape = fit(y, degree=3)
        assert shape.alpha[0] == pytest.approx(float(y.mean()), abs=1e-12)


def test_fit_matches_lstsq_oracle():
    # The basis expansion and a plain Vandermonde least-squares fit must
    # describe the same polynomial: compare fitted values, not coefficients.
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = int(rng.integers(8, 120))
        k = int(rng.integers(1, 6))
        y = rng.normal(scale=3.0, size=m)
        x = np.arange(m, dtype=float)
        shape = fit(y, degree=k)
        basis = build_basis(m - 1, k)
        coeffs, *_ = np.linalg.lstsq(np.vander(x, k + 1, increasing=True), y, rcond=None)
        oracle = np.vander(x, k + 1, increasing=True) @ coeffs
        ours = evaluate(shape, basis, x)
        assert np.abs(ours - oracle).max() <= 1e-6 * max(1.0, np.abs(oracle).max())


def test_fit_projection_stability():
    # Fitting the fitted values reproduces the same coefficients.
    rng = np.random.default_rng(23)
    y = rng.normal(size=40)
    shape = fit(y, degree=4)
    basis = build_basis(39, 4)
    refit = fit(evaluate(shape, basis, np.arange(40.0)), degree=4)
    assert np.abs(refit.alpha - shape.alpha).max() <= 1e-8


def test_evaluate_scalar_and_array():
    shape = fit([1.0, 2.0, 4.0, 8.0], degree=2)
    basis = build_basis(3, 2)
    scalar = evaluate(shape, basis, 1.5)
    assert isinstance(scalar, float)
    arr = evaluate(shape, basis, np.array([1.5, 2.5]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(scalar)


def test_evaluate_reads_nan_when_the_fitted_sum_overflows():
    # At x = 2 on the grid 0..2, p_0 = p_1 = 1, so the sum is 1e308 + 1e308.
    shape = ShapeVector([1e308, 1e308], 2, 1)
    assert math.isnan(evaluate(shape, build_basis(2, 1), 2.0))


def test_evaluate_rejects_mismatched_basis():
    shape = fit([1.0, 2.0, 3.0, 4.0], degree=1)
    with pytest.raises(InvalidConfigError):
        evaluate(shape, build_basis(4, 1), 0.0)
    with pytest.raises(InvalidConfigError):
        evaluate(shape, build_basis(3, 2), 0.0)


def test_validate_series_errors():
    with pytest.raises(InvalidDataError):
        validate_series([])
    with pytest.raises(InvalidDataError):
        validate_series([[1.0, 2.0]])
    with pytest.raises(InvalidDataError, match="position 2"):
        validate_series([1.0, 2.0, float("nan")])
    with pytest.raises(InvalidDataError):
        validate_series(["a", "b"])


def test_fit_and_basis_errors():
    with pytest.raises(InsufficientDataError):
        fit([1.0, 2.0], degree=2)
    with pytest.raises(InvalidConfigError):
        fit([1.0, 2.0, 3.0], degree=-1)
    with pytest.raises(InvalidConfigError):
        fit(np.zeros(20), degree=MAX_DEGREE + 1)
    with pytest.raises(InvalidConfigError):
        build_basis(3, 5)  # degree needs a larger grid
    with pytest.raises(InvalidConfigError):
        build_basis(-1, 0)


def test_shape_vector_accessors():
    shape = ShapeVector(alpha=np.array([1.0, 2.0, 3.0]), window_len=9, degree=2)
    assert shape.alpha.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        shape.alpha[0] = 0.0  # frozen storage


def test_shape_vector_equality():
    a = ShapeVector(alpha=np.array([1.0, 2.0]), window_len=5, degree=1)
    b = ShapeVector(alpha=np.array([1.0, 2.0]), window_len=5, degree=1)
    c = ShapeVector(alpha=np.array([1.0, 2.5]), window_len=5, degree=1)
    assert a == b and a != c
    assert a != ShapeVector(alpha=np.array([1.0, 2.0]), window_len=6, degree=1)
    assert (a == object()) is False


def test_shape_vector_needs_one_coefficient_per_order():
    with pytest.raises(InvalidConfigError, match="alpha must have 3 entries, got shape"):
        ShapeVector(alpha=np.array([1.0, 2.0]), window_len=5, degree=2)


def test_window_grow_matches_batch_fit():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = int(rng.integers(10, 1001))
        k = int(rng.integers(0, 8))
        y = rng.normal(scale=2.0, size=m)
        state = window_init(0, degree=k)
        for i, value in enumerate(y):
            window_grow(state, float(value))
            if state.count >= k + 1:
                batch = fit(y[: i + 1], degree=k)
                scale = np.maximum(np.abs(batch.alpha), 1.0)
                assert np.abs(state.alpha - batch.alpha).max() <= 1e-6 * scale.max()


@pytest.mark.parametrize("k", range(MAX_DEGREE + 1))
def test_window_grow_deviation_matches_batch_fit(k):
    rng = np.random.default_rng(41 + k)
    y = rng.normal(scale=2.0, size=150)
    state = window_init(0, degree=k)
    for i, value in enumerate(y):
        window_grow(state, float(value))
        if state.count < k + 1:
            assert state.deviation is None
            continue
        batch = fit(y[: i + 1], degree=k)
        want = abs(evaluate(batch, build_basis(i, k), float(i)) - value)
        scale = max(1.0, float(np.abs(batch.alpha).max()))
        assert abs(state.deviation - want) <= 1e-6 * scale


def test_window_grow_moments_match_direct_sums():
    rng = np.random.default_rng(37)
    y = rng.normal(size=200)
    state = window_init(0, degree=4)
    for value in y:
        window_grow(state, float(value))
    x = np.arange(200.0)
    for j in range(5):
        direct = float(np.sum(y * x**j))
        assert state.moments[j] == pytest.approx(direct, rel=1e-12, abs=1e-9)


def test_window_grow_tracks_count_and_start():
    state = window_init(40, degree=2)
    assert state.count == 0 and state.alpha is None
    window_grow(state, 1.0)
    window_grow(state, 2.0)
    assert state.count == 2 and state.alpha is None  # below K+1
    window_grow(state, 3.0)
    assert state.alpha is not None
    assert state.start_index == 40


def test_windows_compare_by_their_samples_not_their_cached_fit():
    # The cached fit holds an array, which must not enter ==.
    a, b = window_init(0, degree=2), window_init(0, degree=2)
    for value in (1.0, 4.0, 2.0, 8.0):
        window_grow(a, value)
        window_grow(b, value)
    a.alpha, b.alpha  # noqa: B018 - caches each window's fit
    assert a == b
    window_grow(a, 1.0)
    window_grow(b, 2.0)
    a.alpha, b.alpha  # noqa: B018
    assert a != b


def test_window_grow_rejects_bad_input():
    state = window_init(0, degree=1)
    with pytest.raises(InvalidDataError):
        window_grow(state, float("inf"))
    with pytest.raises(InvalidConfigError):
        window_init(0, degree=MAX_DEGREE + 1)


@pytest.mark.parametrize("sample", ["abc", None, [1.0], 10**400])
def test_a_non_numeric_sample_raises_invalid_data(sample):
    stream = SegmentStream(SegmentationConfig(degree=1, th_dpu=1.0))
    stream.push(0.5)
    with pytest.raises(InvalidDataError, match=r"^non-finite sample "):
        stream.push(sample)
    with pytest.raises(InvalidDataError, match=r"^non-finite sample "):
        window_grow(window_init(0, degree=1), sample)


def test_first_diff_switch_counting():
    # Signs of consecutive differences: +, -, +, - gives three switches.
    state = window_init(0, degree=1, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN, sss_deadband=0.0)
    for value in (0.0, 1.0, 0.0, 1.0, 0.0):
        window_grow(state, value)
    assert state.sss_count == 3


def test_first_diff_deadband_neither_matches_nor_breaks():
    # A move inside the deadband is ignored: +1, +0.05, -1 is one switch,
    # and +1, +0.05, +1 is none.
    state = window_init(0, degree=1, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN, sss_deadband=0.1)
    for value in (0.0, 1.0, 1.05, 0.05):
        window_grow(state, value)
    assert state.sss_count == 1
    state = window_init(0, degree=1, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN, sss_deadband=0.1)
    for value in (0.0, 1.0, 1.05, 2.05):
        window_grow(state, value)
    assert state.sss_count == 0


def test_alpha1_switch_counting():
    # Rising then falling ramp: the fitted slope flips sign once.
    state = window_init(0, degree=1, sss_mode=SlopeSignMode.ALPHA1_SIGN, sss_deadband=0.01)
    for value in (0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0, -4.0):
        window_grow(state, value)
    assert state.sss_count == 1
    # Strictly monotone data never switches.
    state = window_init(0, degree=1, sss_mode=SlopeSignMode.ALPHA1_SIGN, sss_deadband=0.01)
    for value in range(12):
        window_grow(state, float(value))
    assert state.sss_count == 0
