"""The benchmark's oracle on small cases worked out by hand.

    python3 -m pytest perfbench/test_oracle.py
"""

import numpy as np
import pytest

import oracle

RULES = """
var x [0, 1] {
    lo: tri(-1, 0, 1)
    hi: tri(0, 1, 2)
}
var out [0, 1] {
    low: tri(-0.5, 0, 0.5)
    high: tri(0.5, 1, 1.5)
}
IF (x is lo), THEN (out is low)
IF (x is hi) and (x is not lo), THEN (out is high) weight 0.5
set resolution = 3
"""

VARIATION_RULES = """
var var_average [-2, 2] {
    down: tri(-4, -2, 0)
    up: tri(0, 2, 4)
}
var score [0, 1] {
    low: tri(-1, 0, 1)
    high: tri(0, 1, 2)
}
IF (var_average is up), THEN (score is high)
IF (var_average is down), THEN (score is low)
set resolution = 3
"""


def test_monic_basis_on_three_points():
    # p0 = 1, p1 = x - 1, p2 = (x - 1)^2 - 2/3 on x = 0, 1, 2.
    expected = [[1, 1, 1], [-1, 0, 1], [1 / 3, -2 / 3, 1 / 3]]
    assert np.allclose(oracle.monic_basis(3, 2), expected, atol=1e-12)
    assert np.allclose(oracle.monic_basis(4, 1)[1], [-1.5, -0.5, 0.5, 1.5], atol=1e-12)


def test_line_fit_deviation_and_slope():
    # mean 2, slope 20 / 10 = 2: the fit is 2 + 2 (x - 2).
    y = np.array([0.0, 0, 0, 0, 10])
    assert np.allclose(oracle.fitted_values(y, 1), [-2, 0, 2, 4, 6])
    assert oracle.end_deviation(y, 1) == pytest.approx(4.0)
    assert oracle.ols_slope(y) == pytest.approx(2.0)
    assert oracle.ols_slope(np.array([3.0, 1, 3])) == 0.0


def test_alpha_fit_problems():
    y = np.array([0.0, 0, 0, 0, 10])
    assert oracle.alpha_fit_problems(y, [2.0, 2.0], 1) == []
    assert oracle.alpha_fit_problems(y, [2.0, 1.9], 1)
    assert oracle.alpha_fit_problems(y, [2.5, 2.0], 1)
    assert oracle.alpha_fit_problems(y, None, 1)
    assert oracle.alpha_fit_problems(np.array([4.0]), None, 1) == []


def test_switch_counts_with_deadband():
    # Differences +1, -1, 0, +1: the zero neither matches nor breaks.
    assert oracle.switch_counts(np.array([0.0, 1, 0, 0, 1]), 0.01) == [0, 0, 1, 1, 2]
    assert oracle.switch_counts(np.array([0.0, 0.005, 0]), 0.01) == [0, 0, 0]


def test_sss_segments():
    # Switches reach 2 > 1 at sample 3; the second window never gets there.
    y = np.array([0.0, 1, 0, 1, 0, 1, 0])
    assert oracle.sss_segments(y, 1, 3, 0.01) == [(0, 3, "SSS"), (4, 6, "END_OF_STREAM")]


def test_segmentation_problems():
    y = np.array([0.0, 0, 0, 0, 10])
    crit = oracle.Criteria(degree=1, min_len=2, th_dpu=3.0)
    rng = np.random.default_rng(0)
    good = [{"start": 0, "end": 4, "closed_by": "DPU", "alpha": [2.0, 2.0]}]
    assert oracle.segmentation_problems(y, good, crit, rng) == []
    # Deviation 4 is not above 5.
    strict = oracle.Criteria(degree=1, min_len=2, th_dpu=5.0)
    assert oracle.segmentation_problems(y, good, strict, rng)
    # The flat prefix 0..3 deviates by 0.
    early = [{"start": 0, "end": 3, "closed_by": "DPU"}, {"start": 4, "end": 4, "closed_by": "END_OF_STREAM"}]
    assert oracle.segmentation_problems(y, early, crit, rng)
    gap = [{"start": 0, "end": 3, "closed_by": "END_OF_STREAM"}]
    assert oracle.segmentation_problems(y, gap, crit, rng)
    unclosed = [{"start": 0, "end": 1, "closed_by": "END_OF_STREAM"}] + early[1:]
    assert oracle.segmentation_problems(y, unclosed, crit, rng)
    assert oracle.tripped(y, crit) == "DPU"
    assert oracle.tripped(y[:4], crit) is None
    assert oracle.first_close(y, 0, crit) == 4


def test_mamdani_by_hand():
    rules = oracle.parse_rules(RULES)
    assert rules.referenced == ("x",)
    assert rules.resolution == 3
    # x = 0.25: lo 0.75, hi and not-lo 0.25, weight 0.5 -> clips 0.75 and 0.125
    # on the grid 0, 0.5, 1: aggregate [0.75, 0, 0.125], centroid 1/7.
    assert oracle.mamdani(rules, {"x": 0.25}) == (pytest.approx(1 / 7), False)
    # x = 5 is clamped to 1: only the second rule fires, at 0.5.
    assert oracle.mamdani(rules, {"x": 5.0}) == (pytest.approx(1.0), False)
    first_rule_only = RULES.split("IF (x is hi)")[0] + "set resolution = 3\n"
    assert oracle.mamdani(oracle.parse_rules(first_rule_only), {"x": 1.0}) == (0.5, True)


def test_expected_scores_by_hand():
    rules = oracle.parse_rules(VARIATION_RULES)
    y = np.array([1.0] * 6 + [2.0] * 6 + [1.0] * 6 + [7.0])
    bounds = [(0, 5), (6, 11), (12, 17), (18, 18)]
    got = oracle.expected_scores(y, bounds, rules, degree=1)
    # Variation +1: up 0.5 -> [0, 0.5, 0.5], centroid 0.75.
    # Variation -0.5: down 0.25 -> [0.25, 0.25, 0], centroid 0.25.
    assert got[0] == oracle.Expected(None, False, ("var_alpha_0_1",))
    assert got[1].score == pytest.approx(0.75)
    assert got[2].score == pytest.approx(0.25)
    assert got[3] == oracle.Expected(None, False, ("var_alpha_0_1",))

    reported = {
        "scored": [{"index": 1, "score": 0.75}, {"index": 2, "score": 0.25}],
        "skipped": {0: ("var_alpha_0_1",), 3: ("var_alpha_0_1",)},
    }
    assert oracle.query_problems(reported, got) == []
    assert oracle.query_problems({**reported, "scored": reported["scored"][::-1]}, got)
    assert oracle.query_problems({**reported, "skipped": {0: ("var_alpha_0_1",)}}, got)


def test_sensitivity_arithmetic():
    row = oracle.sensitivity([0.1, 0.9, 0.5, 0.3], 6)
    assert row.mean_upper == pytest.approx((0.9 + 0.5 + 0.3) / 3)
    assert row.mean_lower == pytest.approx(0.3)
    assert (row.upper_count, row.lower_count, row.segments) == (3, 3, 6)
    short = oracle.sensitivity([0.2, 0.4], 2)
    assert (short.mean_upper, short.mean_lower, short.upper_count) == (pytest.approx(0.3), pytest.approx(0.3), 2)
    # The MEAN row rounds half to even: 3.5 -> 4, 2.5 -> 2.
    assert oracle.mean_bounds([row, oracle.Bounds(0.0, 0.0, 1, 1, 7)]).segments == 6
    assert oracle.mean_bounds([oracle.Bounds(0, 0, 1, 1, 3), oracle.Bounds(0, 0, 1, 1, 4)]).segments == 4
    assert oracle.mean_bounds([oracle.Bounds(0, 0, 1, 1, 2), oracle.Bounds(0, 0, 1, 1, 3)]).segments == 2
    assert oracle.bounds_problems("x", row, row) == []
    assert oracle.bounds_problems("x", row, oracle.Bounds(0.5, 0.3, 3, 3, 5))
