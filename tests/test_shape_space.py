"""Shape-space tests: basis construction, fitting, and incremental windows."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from fcpd import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidDataError,
    MAX_DEGREE,
    ShapeVector,
    SlopeSignMode,
    build_basis,
    evaluate,
    fit,
    squared_norm,
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
            assert squared_norm(k, n) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "k,n,expected",
    [(0, 4, 5.0), (1, 2, 2.0), (1, 8, 60.0), (2, 2, 2.0 / 3.0)],
)
def test_squared_norm_goldens(k, n, expected):
    assert squared_norm(k, n) == pytest.approx(expected, rel=1e-12)


def test_squared_norm_rejects_orders_outside_the_basis():
    assert squared_norm(MAX_DEGREE, 50) == build_basis(50, MAX_DEGREE).sq_norms[-1]
    for k, n in [(-1, 5), (3, 2), (MAX_DEGREE + 1, 50)]:
        with pytest.raises(InvalidConfigError):
            squared_norm(k, n)


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
    assert shape[0] == 1.0 and shape[2] == 3.0
    assert shape.average == 1.0
    assert shape.slope == 2.0
    assert shape.curvature == 3.0
    assert ShapeVector(alpha=np.array([4.0]), window_len=9, degree=0).slope is None
    with pytest.raises(ValueError):
        shape.alpha[0] = 0.0  # frozen storage


def test_shape_vector_equality():
    a = ShapeVector(alpha=np.array([1.0, 2.0]), window_len=5, degree=1)
    b = ShapeVector(alpha=np.array([1.0, 2.0]), window_len=5, degree=1)
    c = ShapeVector(alpha=np.array([1.0, 2.5]), window_len=5, degree=1)
    assert a == b and a != c
    assert a != ShapeVector(alpha=np.array([1.0, 2.0]), window_len=6, degree=1)


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


def test_window_grow_rejects_bad_input():
    state = window_init(0, degree=1)
    with pytest.raises(InvalidDataError):
        window_grow(state, float("inf"))
    with pytest.raises(InvalidConfigError):
        window_init(0, degree=MAX_DEGREE + 1)


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
