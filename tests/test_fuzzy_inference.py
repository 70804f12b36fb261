"""Tests for the Mamdani inference engine.

The oracle below re-implements the whole pipeline with scalar Python math
(no numpy), so the production path is checked against an independent
computation.  Further down, the engine's earlier all-numpy bodies are kept
as references that the production path must match bit for bit.
"""

from __future__ import annotations

import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest

from fcpd import (
    And,
    Atom,
    FisConfig,
    InvalidConfigError,
    InvalidDataError,
    LinguisticVariable,
    MembershipFunction,
    MissingFeatureError,
    Or,
    Rule,
    gaussian,
    infer,
    mf_eval,
    s_shape,
    trapezoidal,
    triangular,
    z_shape,
)
from fcpd import fuzzy_inference
from fcpd.query_dsl import parse, to_fis

QUERIES = Path(__file__).resolve().parents[1] / "queries"


# ---------------------------------------------------------------------------
# Scalar oracle.


def _oracle_mf(mf: MembershipFunction, x: float) -> float:
    if mf.kind == "tri":
        a, b, c = mf.params
        if x < a or x > c:
            return 0.0
        left = 1.0 if b == a else (x - a) / (b - a)
        right = 1.0 if c == b else (c - x) / (c - b)
        return max(0.0, min(left, right, 1.0))
    if mf.kind == "trap":
        a, b, c, d = mf.params
        if x < a or x > d:
            return 0.0
        left = 1.0 if b == a else (x - a) / (b - a)
        right = 1.0 if d == c else (d - x) / (d - c)
        return max(0.0, min(left, right, 1.0))
    if mf.kind == "gauss":
        center, width = mf.params
        return math.exp(-((x - center) ** 2) / (2.0 * width * width))
    a, b = mf.params
    mid = (a + b) / 2.0
    span = b - a
    if x <= a:
        rise = 0.0
    elif x >= b:
        rise = 1.0
    elif x <= mid:
        rise = 2.0 * ((x - a) / span) ** 2
    else:
        rise = 1.0 - 2.0 * ((x - b) / span) ** 2
    return rise if mf.kind == "smf" else 1.0 - rise


def _oracle_expr(expr, variables, values) -> float:
    if isinstance(expr, Atom):
        var = variables[expr.variable]
        x = min(max(float(values[expr.variable]), var.lo), var.hi)
        degree = _oracle_mf(var.sets[expr.fuzzy_set], x)
        return 1.0 - degree if expr.negated else degree
    if isinstance(expr, And):
        return min(_oracle_expr(expr.left, variables, values),
                   _oracle_expr(expr.right, variables, values))
    return max(_oracle_expr(expr.left, variables, values),
               _oracle_expr(expr.right, variables, values))


def _oracle_infer(fis: FisConfig, values) -> tuple[float, bool]:
    variables = {v.name: v for v in fis.inputs}
    strengths = [r.weight * _oracle_expr(r.antecedent, variables, values) for r in fis.rules]
    lo, hi, res = fis.output.lo, fis.output.hi, fis.resolution
    num = 0.0
    den = 0.0
    for i in range(res):
        g = lo + (hi - lo) * i / (res - 1)
        mu = 0.0
        for rule, s in zip(fis.rules, strengths):
            mu = max(mu, min(s, _oracle_mf(fis.output.sets[rule.consequent_set], g)))
        num += g * mu
        den += mu
    if den <= 0.0:
        return (lo + hi) / 2.0, True
    return num / den, False


# ---------------------------------------------------------------------------
# Membership function shapes.


def test_triangular_golden_points():
    tri = triangular(0.0, 0.5, 1.0)
    for x, want in [(0.5, 1.0), (0.25, 0.5), (0.0, 0.0), (1.0, 0.0), (-0.1, 0.0), (1.1, 0.0)]:
        assert mf_eval(tri, x) == pytest.approx(want, abs=1e-12)


def test_trapezoidal_golden_points():
    trap = trapezoidal(0.0, 1.0, 2.0, 3.0)
    for x, want in [(0.5, 0.5), (1.0, 1.0), (1.5, 1.0), (2.5, 0.5), (3.5, 0.0)]:
        assert mf_eval(trap, x) == pytest.approx(want, abs=1e-12)


def test_gaussian_golden_points():
    g = gaussian(2.0, 1.0)
    assert mf_eval(g, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert mf_eval(g, 3.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert mf_eval(g, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_gaussian_squares_past_the_float_range():
    # (x - center)^2 overflows, or the squares of a subnormal width and
    # distance underflow to zero; the degree is still the Gaussian's.
    assert mf_eval(gaussian(-1e308, 0.25), -0.14) == 0.0
    assert mf_eval(gaussian(1e200, 1.0), -1e200) == 0.0
    assert mf_eval(gaussian(0.0, 5e-324), 5e-324) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert mf_eval(gaussian(0.0, 5e-324), 0.0) == 1.0


def test_spans_and_midpoints_past_the_float_range():
    # b - a or (a + b) / 2 overflows; the degree is still the set's, from
    # halved operands, and sets whose spans stay finite keep their bits.
    assert mf_eval(triangular(-1e308, 1e308, 1.5e308), 1e308) == 1.0
    assert mf_eval(s_shape(-1.7e308, 1.7e308), 1e307) == 0.5570934256055363
    assert mf_eval(z_shape(-1.7e308, 1.7e308), 1e307) == 0.4429065743944637
    assert mf_eval(s_shape(1e308, 1.5e308), 1.4e308) == 0.92
    assert mf_eval(trapezoidal(-1.7e308, -1e308, 1e308, 1.7e308), 1.5e308) == 0.28571428571428564
    assert triangular(0.0, 1.0, 1e308)._halved is None
    assert mf_eval(triangular(0.0, 1.0, 1e308), 5e-324) == 5e-324


def test_z_and_s_shapes_are_complementary_splines():
    z = z_shape(0.0, 1.0)
    s = s_shape(0.0, 1.0)
    golden = [(0.0, 1.0), (0.25, 0.875), (0.5, 0.5), (0.75, 0.125), (1.0, 0.0)]
    for x, want in golden:
        assert mf_eval(z, x) == pytest.approx(want, abs=1e-12)
        assert mf_eval(s, x) == pytest.approx(1.0 - want, abs=1e-12)
    xs = np.linspace(-0.5, 1.5, 101)
    np.testing.assert_allclose(mf_eval(z, xs) + mf_eval(s, xs), 1.0, atol=1e-12)


def test_vertical_edges_evaluate_cleanly():
    assert mf_eval(triangular(0.0, 0.0, 1.0), 0.0) == 1.0
    assert mf_eval(triangular(0.0, 1.0, 1.0), 1.0) == 1.0
    box = trapezoidal(0.0, 0.0, 1.0, 1.0)
    for x in (0.0, 0.5, 1.0):
        assert mf_eval(box, x) == 1.0
    assert mf_eval(box, 1.0001) == 0.0


def test_mf_eval_handles_arrays_and_scalars():
    tri = triangular(0.0, 1.0, 2.0)
    out = mf_eval(tri, np.array([0.5, 1.0, 1.5]))
    np.testing.assert_allclose(out, [0.5, 1.0, 0.5])
    assert isinstance(mf_eval(tri, 1.0), float)
    with pytest.raises(InvalidDataError):
        mf_eval(tri, float("nan"))


def test_membership_degrees_stay_in_unit_interval():
    rng = random.Random(42)
    mfs = []
    for _ in range(40):
        kind = rng.choice(["tri", "trap", "gauss", "zmf", "smf"])
        if kind == "tri":
            pts = sorted(rng.uniform(-5, 5) for _ in range(3))
            pts[2] = max(pts[2], pts[0] + 0.1)
            mfs.append(MembershipFunction("tri", tuple(pts)))
        elif kind == "trap":
            pts = sorted(rng.uniform(-5, 5) for _ in range(4))
            pts[3] = max(pts[3], pts[0] + 0.1)
            mfs.append(MembershipFunction("trap", tuple(pts)))
        elif kind == "gauss":
            mfs.append(gaussian(rng.uniform(-5, 5), rng.uniform(0.1, 3.0)))
        else:
            a = rng.uniform(-5, 4)
            mfs.append(MembershipFunction(kind, (a, a + rng.uniform(0.1, 3.0))))
    xs = np.linspace(-8, 8, 321)
    for mf in mfs:
        out = mf_eval(mf, xs)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("bell", (0.0, 1.0)),
        ("tri", (0.0, 1.0)),
        ("tri", (1.0, 0.0, 2.0)),
        ("tri", (1.0, 1.0, 1.0)),
        ("trap", (0.0, 1.0, 0.5, 2.0)),
        ("trap", (1.0, 1.0, 1.0, 1.0)),
        ("gauss", (0.0, 0.0)),
        ("gauss", (0.0, -1.0)),
        ("zmf", (1.0, 1.0)),
        ("smf", (2.0, 1.0)),
        ("tri", (0.0, float("nan"), 1.0)),
        ("tri", ("a", 1, 2)),
        ("tri", None),
        (["tri"], (0, 1, 2)),
    ],
)
def test_membership_rejects_bad_parameters(kind, params):
    with pytest.raises(InvalidConfigError):
        MembershipFunction(kind, params)


# ---------------------------------------------------------------------------
# Inference.


def _always_on() -> LinguisticVariable:
    return LinguisticVariable("x", 0.0, 1.0, {"on": trapezoidal(-1.0, -1.0, 2.0, 2.0)})


def _score_var() -> LinguisticVariable:
    return LinguisticVariable(
        "score",
        0.0,
        1.0,
        {
            "low": triangular(-0.4, 0.0, 0.4),
            "mid": triangular(0.25, 0.5, 0.75),
            "high": triangular(0.6, 1.0, 1.4),
        },
    )


def test_single_rule_centroid_is_the_set_center():
    fis = FisConfig(
        inputs=(_always_on(),),
        output=_score_var(),
        rules=(Rule(Atom("x", "on"), "score", "mid"),),
    )
    result = infer(fis, {"x": 0.3})
    assert result.degenerate is False
    assert result.firing_strengths == (1.0,)
    assert result.score == pytest.approx(0.5, abs=1e-12)


def test_no_fired_rule_degenerates_to_the_midpoint():
    var = LinguisticVariable("x", 0.0, 1.0, {"tiny": triangular(0.0, 0.1, 0.2)})
    fis = FisConfig(
        inputs=(var,),
        output=_score_var(),
        rules=(Rule(Atom("x", "tiny"), "score", "high"),),
    )
    result = infer(fis, {"x": 0.9})
    assert result.degenerate is True
    assert result.score == pytest.approx(0.5)
    assert result.firing_strengths == (0.0,)


def test_missing_or_non_finite_input_raises():
    fis = FisConfig(
        inputs=(_always_on(),),
        output=_score_var(),
        rules=(Rule(Atom("x", "on"), "score", "mid"),),
    )
    with pytest.raises(MissingFeatureError):
        infer(fis, {})
    for value in (float("nan"), "abc", [1.0], object(), 10**400):
        with pytest.raises(MissingFeatureError):
            infer(fis, {"x": value})


def test_values_are_clamped_to_the_domain():
    var = LinguisticVariable("x", 0.0, 1.0, {"high": s_shape(0.0, 1.0)})
    fis = FisConfig(
        inputs=(var,),
        output=_score_var(),
        rules=(Rule(Atom("x", "high"), "score", "high"),),
    )
    assert infer(fis, {"x": 100.0}) == infer(fis, {"x": 1.0})
    assert infer(fis, {"x": -100.0}) == infer(fis, {"x": 0.0})


def test_negation_and_connectives_follow_min_max():
    a = LinguisticVariable("a", 0.0, 1.0, {"s": s_shape(0.0, 1.0)})
    b = LinguisticVariable("b", 0.0, 1.0, {"s": s_shape(0.0, 1.0)})
    values = {"a": 0.3, "b": 0.8}
    da = mf_eval(a.sets["s"], 0.3)
    db = mf_eval(b.sets["s"], 0.8)
    cases = [
        (Atom("a", "s", negated=True), 1.0 - da),
        (And(Atom("a", "s"), Atom("b", "s")), min(da, db)),
        (Or(Atom("a", "s"), Atom("b", "s")), max(da, db)),
        (Or(And(Atom("a", "s"), Atom("b", "s")), Atom("a", "s", negated=True)),
         max(min(da, db), 1.0 - da)),
    ]
    for expr, want in cases:
        fis = FisConfig(
            inputs=(a, b),
            output=_score_var(),
            rules=(Rule(expr, "score", "mid"),),
        )
        assert infer(fis, values).firing_strengths[0] == pytest.approx(want, abs=1e-12)


def test_rule_weight_scales_the_firing_strength():
    fis = FisConfig(
        inputs=(_always_on(),),
        output=_score_var(),
        rules=(Rule(Atom("x", "on"), "score", "mid", weight=0.5),),
    )
    assert infer(fis, {"x": 0.5}).firing_strengths == (0.5,)


def test_heavier_high_rule_pulls_the_score_up():
    scores = []
    for w in (0.2, 0.6, 1.0):
        fis = FisConfig(
            inputs=(_always_on(),),
            output=_score_var(),
            rules=(
                Rule(Atom("x", "on"), "score", "low"),
                Rule(Atom("x", "on"), "score", "high", weight=w),
            ),
        )
        scores.append(infer(fis, {"x": 0.5}).score)
    assert scores[0] < scores[1] < scores[2]


def test_single_rule_score_is_monotone_in_the_input():
    var = LinguisticVariable("x", 0.0, 1.0, {"high": s_shape(0.0, 1.0)})
    fis = FisConfig(
        inputs=(var,),
        output=LinguisticVariable("score", 0.0, 1.0, {"high": s_shape(0.0, 1.0)}),
        rules=(Rule(Atom("x", "high"), "score", "high"),),
    )
    scores = [infer(fis, {"x": x}).score for x in np.linspace(0.05, 1.0, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))
    assert scores[-1] > scores[0]


def test_mirror_symmetric_system_reflects_scores():
    var = LinguisticVariable(
        "x", -1.0, 1.0, {"neg": z_shape(-0.3, 0.3), "pos": s_shape(-0.3, 0.3)}
    )
    out = LinguisticVariable(
        "score", 0.0, 1.0, {"low": triangular(-0.4, 0.0, 0.4), "high": triangular(0.6, 1.0, 1.4)}
    )
    fis = FisConfig(
        inputs=(var,),
        output=out,
        rules=(Rule(Atom("x", "neg"), "score", "low"), Rule(Atom("x", "pos"), "score", "high")),
    )
    for x in (0.05, 0.2, 0.5, 0.9):
        plus = infer(fis, {"x": x}).score
        minus = infer(fis, {"x": -x}).score
        assert plus + minus == pytest.approx(1.0, abs=1e-9)


def test_score_stays_inside_the_output_domain():
    rng = random.Random(7)
    for _ in range(50):
        fis, values = _random_system(rng)
        result = infer(fis, values)
        assert fis.output.lo <= result.score <= fis.output.hi


def test_finer_resolution_barely_moves_the_centroid():
    base = FisConfig(
        inputs=(_always_on(),),
        output=_score_var(),
        rules=(
            Rule(Atom("x", "on"), "score", "low", weight=0.7),
            Rule(Atom("x", "on"), "score", "high", weight=0.4),
        ),
    )
    fine = FisConfig(inputs=base.inputs, output=base.output, rules=base.rules, resolution=10001)
    assert abs(infer(base, {"x": 0.5}).score - infer(fine, {"x": 0.5}).score) < 1e-3


# ---------------------------------------------------------------------------
# Oracle comparison over random systems.


def _random_mf(rng: random.Random, lo: float, hi: float) -> MembershipFunction:
    kind = rng.choice(["tri", "trap", "gauss", "zmf", "smf"])
    span = hi - lo
    if kind == "tri":
        pts = sorted(rng.uniform(lo - span / 2, hi + span / 2) for _ in range(3))
        pts[2] = max(pts[2], pts[0] + 0.05 * span)
        return MembershipFunction("tri", tuple(pts))
    if kind == "trap":
        pts = sorted(rng.uniform(lo - span / 2, hi + span / 2) for _ in range(4))
        pts[3] = max(pts[3], pts[0] + 0.05 * span)
        return MembershipFunction("trap", tuple(pts))
    if kind == "gauss":
        return gaussian(rng.uniform(lo, hi), rng.uniform(0.05, 0.5) * span)
    a = rng.uniform(lo - span / 2, hi)
    return MembershipFunction(kind, (a, a + rng.uniform(0.05, 0.8) * span))


def _random_variable(rng: random.Random, name: str) -> LinguisticVariable:
    lo = rng.uniform(-3.0, 1.0)
    hi = lo + rng.uniform(0.5, 4.0)
    n_sets = rng.randint(3, 5)
    sets = {f"s{i}": _random_mf(rng, lo, hi) for i in range(n_sets)}
    return LinguisticVariable(name, lo, hi, sets)


def _random_expr(rng: random.Random, variables) -> object:
    def leaf():
        var = rng.choice(variables)
        return Atom(var.name, rng.choice(list(var.sets)), negated=rng.random() < 0.3)

    n_atoms = rng.randint(1, 3)
    expr = leaf()
    for _ in range(n_atoms - 1):
        expr = (And if rng.random() < 0.5 else Or)(expr, leaf())
    return expr


def _random_system(rng: random.Random) -> tuple[FisConfig, dict[str, float]]:
    inputs = (_random_variable(rng, "a"), _random_variable(rng, "b"))
    output = _random_variable(rng, "score")
    rules = tuple(
        Rule(
            _random_expr(rng, inputs),
            "score",
            rng.choice(list(output.sets)),
            weight=rng.uniform(0.05, 1.0),
        )
        for _ in range(rng.randint(1, 9))
    )
    values = {
        v.name: rng.uniform(v.lo - 1.0, v.hi + 1.0) for v in inputs
    }
    return FisConfig(inputs=inputs, output=output, rules=rules), values


def test_matches_the_scalar_oracle_on_random_systems():
    rng = random.Random(20260815)
    degenerates = 0
    for _ in range(200):
        fis, values = _random_system(rng)
        result = infer(fis, values)
        want_score, want_degenerate = _oracle_infer(fis, values)
        assert result.degenerate is want_degenerate
        assert result.score == pytest.approx(want_score, rel=1e-9, abs=1e-9)
        degenerates += want_degenerate
    assert degenerates < 100  # the corpus mostly exercises the non-trivial path


# ---------------------------------------------------------------------------
# Bit-for-bit against the numpy path.
#
# _numpy_mf_eval and _numpy_infer are the engine's earlier bodies, which sent
# every scalar through a 0-d numpy array and rebuilt the output grid on every
# call.  The plain-float scalar path and the cached grids must reproduce
# their results to the last bit, signed zeros included.


def _numpy_smf(x, a, b):
    mid = (a + b) / 2.0
    span = b - a
    rising = 2.0 * ((x - a) / span) ** 2
    settling = 1.0 - 2.0 * ((x - b) / span) ** 2
    out = np.where(x <= mid, rising, settling)
    out = np.where(x <= a, 0.0, out)
    out = np.where(x >= b, 1.0, out)
    return out


def _numpy_mf_eval(mf: MembershipFunction, x):
    xs = np.asarray(x, dtype=float)
    if xs.size and not np.all(np.isfinite(xs)):
        raise InvalidDataError("membership evaluation needs finite inputs")
    if mf.kind == "tri":
        a, b, c = mf.params
        left = np.ones_like(xs) if b == a else (xs - a) / (b - a)
        right = np.ones_like(xs) if c == b else (c - xs) / (c - b)
        out = np.minimum(left, right)
        out = np.where((xs < a) | (xs > c), 0.0, out)
    elif mf.kind == "trap":
        a, b, c, d = mf.params
        left = np.ones_like(xs) if b == a else (xs - a) / (b - a)
        right = np.ones_like(xs) if d == c else (d - xs) / (d - c)
        out = np.minimum(np.minimum(left, 1.0), right)
        out = np.where((xs < a) | (xs > d), 0.0, out)
    elif mf.kind == "gauss":
        center, width = mf.params
        out = np.exp(-((xs - center) ** 2) / (2.0 * width * width))
    elif mf.kind == "zmf":
        out = 1.0 - _numpy_smf(xs, *mf.params)
    else:
        out = _numpy_smf(xs, *mf.params)
    out = np.clip(out, 0.0, 1.0)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


def _numpy_expr(expr, variables, values) -> float:
    if isinstance(expr, Atom):
        var = variables[expr.variable]
        x = min(max(float(values[expr.variable]), var.lo), var.hi)
        degree = _numpy_mf_eval(var.sets[expr.fuzzy_set], x)
        return 1.0 - degree if expr.negated else degree
    pick = min if isinstance(expr, And) else max
    return pick(_numpy_expr(expr.left, variables, values), _numpy_expr(expr.right, variables, values))


def _numpy_infer(fis: FisConfig, values) -> tuple[float, bool, tuple[float, ...]]:
    variables = {v.name: v for v in fis.inputs}
    strengths = [r.weight * _numpy_expr(r.antecedent, variables, values) for r in fis.rules]
    grid = np.linspace(fis.output.lo, fis.output.hi, fis.resolution)
    aggregate = np.zeros_like(grid)
    for rule, strength in zip(fis.rules, strengths):
        clipped = np.minimum(strength, _numpy_mf_eval(fis.output.sets[rule.consequent_set], grid))
        np.maximum(aggregate, clipped, out=aggregate)
    mass = float(aggregate.sum())
    if mass <= 0.0:
        return (fis.output.lo + fis.output.hi) / 2.0, True, tuple(strengths)
    return float((grid * aggregate).sum() / mass), False, tuple(strengths)


def _bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _rule_file_systems() -> dict[str, FisConfig]:
    return {path.name: to_fis(parse(path.read_text())) for path in sorted(QUERIES.glob("*.fcq"))}


def _edge_sets() -> list[MembershipFunction]:
    """Vertical edges, trap shoulders and zero-touching parameters."""
    return [
        triangular(0.0, 0.0, 1.0),
        triangular(0.0, 1.0, 1.0),
        triangular(0.0, 1.0, 2.0),
        triangular(-1.0, -0.5, -0.0),
        trapezoidal(0.0, 0.0, 1.0, 1.0),
        trapezoidal(-2.0, -2.0, 0.0, 1.0),
        trapezoidal(-1.0, 0.0, 2.0, 2.0),
        trapezoidal(0.0, 0.25, 0.75, 1.0),
        trapezoidal(-0.5, 0.5, 0.5, 1.5),
        gaussian(0.0, 0.3),
        gaussian(-1.7, 2.5),
        z_shape(0.0, 1.0),
        s_shape(-1.0, 0.0),
        z_shape(-0.3, 0.9),
        s_shape(0.1, 1e-3 + 0.1),
    ]


def _probe_points(mf: MembershipFunction) -> list[float]:
    if mf.kind == "gauss":
        center, width = mf.params
        lo, hi = center - 4.0 * width, center + 4.0 * width
    else:
        span = mf.params[-1] - mf.params[0]
        lo, hi = mf.params[0] - span, mf.params[-1] + span
    points = [float(x) for x in np.linspace(lo, hi, 401)]
    for p in (*mf.params, (mf.params[0] + mf.params[-1]) / 2.0):
        points += [math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]
    return points + [0.0, -0.0, 5e-324, -5e-324]


def _membership_corpus() -> list[MembershipFunction]:
    mfs = _edge_sets()
    for fis in _rule_file_systems().values():
        for var in (*fis.inputs, fis.output):
            mfs += var.sets.values()
    return mfs


def test_scalar_membership_matches_the_numpy_path_bit_for_bit():
    mismatches = []
    kinds = set()
    for mf in _membership_corpus():
        kinds.add(mf.kind)
        for x in _probe_points(mf):
            got = mf_eval(mf, x)
            want = _numpy_mf_eval(mf, x)
            assert type(got) is float
            if _bits(got) != _bits(want):
                mismatches.append((mf, x, got, want))
            # numpy scalars and 0-d arrays take the same scalar path.
            assert _bits(mf_eval(mf, np.float64(x))) == _bits(mf_eval(mf, np.array(x))) == _bits(got)
    assert kinds == {"tri", "trap", "gauss", "zmf", "smf"}
    assert mismatches == []


def test_array_membership_matches_the_numpy_path_bit_for_bit():
    # An array takes the scalar path element by element.
    for mf in _membership_corpus():
        xs = np.array(_probe_points(mf))
        want = np.array([_numpy_mf_eval(mf, x) for x in xs.tolist()])
        assert mf_eval(mf, xs).tobytes() == want.tobytes()


def test_scalar_membership_rejects_non_finite_input():
    for x in (math.nan, math.inf, -math.inf, np.float64("nan"), np.array(math.inf)):
        with pytest.raises(InvalidDataError):
            mf_eval(triangular(0.0, 1.0, 2.0), x)


def test_membership_rejects_non_numeric_input():
    # As an array's None already did (numpy reads it as NaN).
    for x in (None, "high", object(), np.array([None, 1.0])):
        with pytest.raises(InvalidDataError):
            mf_eval(triangular(0.0, 1.0, 2.0), x)


def _assert_same_bits(fis: FisConfig, values):
    result = infer(fis, values)
    score, degenerate, strengths = _numpy_infer(fis, values)
    assert (_bits(result.score), result.degenerate) == (_bits(score), degenerate), values
    assert _bits(*result.firing_strengths) == _bits(*strengths), values
    return result


def _domain_records(rng: random.Random, inputs, n: int) -> list[dict[str, float]]:
    """Random in-domain and out-of-domain values, then every domain edge."""
    records = [
        {v.name: rng.uniform(v.lo - 0.5 * (v.hi - v.lo), v.hi + 0.5 * (v.hi - v.lo)) for v in inputs}
        for _ in range(n)
    ]
    for pick in (lambda v: v.lo, lambda v: v.hi, lambda v: v.lo - 1e9, lambda v: v.hi + 1e9,
                 lambda v: -0.0, lambda v: math.nextafter(v.hi, v.lo)):
        records.append({v.name: pick(v) for v in inputs})
    return records


def _set_parameter_records(inputs) -> list[dict[str, float]]:
    """Each input at every parameter of each of its sets, and one ulp either side."""
    records = []
    for var in inputs:
        others = {v.name: (v.lo + v.hi) / 2.0 for v in inputs}
        for mf in var.sets.values():
            for p in mf.params:
                for x in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)):
                    records.append({**others, var.name: x})
    return records


def test_infer_matches_the_numpy_path_on_every_rule_file():
    rng = random.Random(20261018)
    systems = _rule_file_systems()
    assert len(systems) == 6
    for fis in systems.values():
        for values in _domain_records(rng, fis.inputs, 150) + _set_parameter_records(fis.inputs):
            _assert_same_bits(fis, values)


def _hand_built_system(resolution: int) -> FisConfig:
    x = LinguisticVariable("x", -1.0, 1.0, {
        "neg": z_shape(-1.0, 0.0), "zero": triangular(-0.5, 0.0, 0.5),
        "pos": s_shape(0.0, 1.0), "edge": trapezoidal(0.5, 0.75, 1.0, 1.0),
    })
    y = LinguisticVariable("y", 0.0, 4.0, {
        "low": trapezoidal(0.0, 0.0, 1.0, 2.0), "mid": gaussian(2.0, 0.6),
        "high": triangular(2.0, 4.0, 4.0),
    })
    score = LinguisticVariable("score", -1.0, 3.0, {
        "down": trapezoidal(-1.0, -1.0, -0.5, 0.5), "flat": gaussian(1.0, 0.4),
        "up": triangular(1.5, 3.0, 3.0),
    })
    rules = (
        Rule(Atom("x", "neg"), "score", "down", weight=0.8),
        Rule(And(Atom("x", "zero"), Atom("y", "mid", negated=True)), "score", "flat", weight=0.5),
        Rule(Or(Atom("x", "pos"), Atom("y", "high")), "score", "up"),
        Rule(And(Atom("x", "edge"), Atom("y", "low", negated=True)), "score", "up", weight=0.25),
        Rule(Atom("y", "low"), "score", "flat", weight=0.3),
    )
    return FisConfig(inputs=(x, y), output=score, rules=rules, resolution=resolution)


@pytest.mark.parametrize("resolution", [2, 1001, 4097])
def test_infer_matches_the_numpy_path_on_a_hand_built_system(resolution):
    fis = _hand_built_system(resolution)
    rng = random.Random(resolution)
    records = _domain_records(rng, fis.inputs, 120) + _set_parameter_records(fis.inputs)
    mixed = 0
    for values in records:
        strengths = _assert_same_bits(fis, values).firing_strengths
        mixed += 0.0 in strengths and any(strengths)
    assert mixed > len(records) // 4  # rules at exactly zero next to rules that fire
    # A record that fires no rule at all falls back to the midpoint.
    quiet = FisConfig(fis.inputs, fis.output, fis.rules[2:3], resolution)
    result = _assert_same_bits(quiet, {"x": -1.0, "y": 0.0})
    assert result.firing_strengths == (0.0,) and result.degenerate


def test_output_grids_are_read_only_and_built_once(monkeypatch):
    fis = _hand_built_system(1001)
    infer(fis, {"x": 0.1, "y": 1.0})
    _, grid, consequents = fis._compiled
    assert consequents.shape == (len(fis.rules), fis.resolution)
    for array in (grid, *consequents):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5

    array_calls = []
    real = fuzzy_inference.mf_eval

    def spy(mf, x):
        if np.ndim(x) > 0:
            array_calls.append(mf)
        return real(mf, x)

    monkeypatch.setattr(fuzzy_inference, "mf_eval", spy)
    infer(fis, {"x": -0.4, "y": 3.5})
    assert array_calls == []
    infer(_hand_built_system(1001), {"x": -0.4, "y": 3.5})
    # One grid evaluation per distinct consequent set; rules share rows.
    distinct = {rule.consequent_set for rule in fis.rules}
    assert len(distinct) < len(fis.rules)
    assert sorted(array_calls, key=repr) == sorted((fis.output.sets[s] for s in distinct), key=repr)


# ---------------------------------------------------------------------------
# Configuration validation.


def test_variable_validation():
    with pytest.raises(InvalidConfigError):
        LinguisticVariable("", 0.0, 1.0, {"s": s_shape(0.0, 1.0)})
    with pytest.raises(InvalidConfigError):
        LinguisticVariable("x", 1.0, 0.0, {"s": s_shape(0.0, 1.0)})
    with pytest.raises(InvalidConfigError):
        LinguisticVariable("x", 0.0, 1.0, {})
    with pytest.raises(InvalidConfigError):
        LinguisticVariable("v", "a", 1, {"s": s_shape(0.0, 1.0)})


def test_rule_weight_validation():
    for w in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(InvalidConfigError):
            Rule(Atom("x", "on"), "score", "mid", weight=w)


def test_fis_validation():
    x = _always_on()
    score = _score_var()
    ok_rule = Rule(Atom("x", "on"), "score", "mid")
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x,), output=score, rules=())
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x,), output=score, rules=(ok_rule,), resolution=1)
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x,), output=score, rules=(ok_rule,), resolution=2.5)
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x, x), output=score, rules=(ok_rule,))
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x,), output=x, rules=(Rule(Atom("x", "on"), "x", "on"),))
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x,), output=score, rules=(Rule(Atom("y", "on"), "score", "mid"),))
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x,), output=score, rules=(Rule(Atom("x", "off"), "score", "mid"),))
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x,), output=score, rules=(Rule(Atom("x", "on"), "other", "mid"),))
    with pytest.raises(InvalidConfigError):
        FisConfig(inputs=(x,), output=score, rules=(Rule(Atom("x", "on"), "score", "absent"),))
    reads_output = Rule(Or(Atom("x", "on"), Atom("score", "mid")), "score", "mid")
    with pytest.raises(InvalidConfigError, match="^rule 2 reads the output variable 'score'$"):
        FisConfig(inputs=(x,), output=score, rules=(ok_rule, reads_output))


def test_referenced_inputs_keep_rule_order():
    a = LinguisticVariable("a", 0.0, 1.0, {"s": s_shape(0.0, 1.0)})
    b = LinguisticVariable("b", 0.0, 1.0, {"s": s_shape(0.0, 1.0)})
    fis = FisConfig(
        inputs=(a, b),
        output=_score_var(),
        rules=(
            Rule(Atom("b", "s"), "score", "mid"),
            Rule(And(Atom("a", "s"), Atom("b", "s")), "score", "mid"),
        ),
    )
    assert fis.input_variables_referenced() == ("b", "a")
