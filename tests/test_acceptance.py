"""Acceptance checks for the whole package.

Each criterion is exposed both as a pytest test and through a standalone
runner that prints one PASS/FAIL line per criterion:

    python3 tests/test_acceptance.py
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import numpy as np

from fcpd import (
    And,
    ArityError,
    Atom,
    ClosedBy,
    DslSyntaxError,
    DslValueError,
    DuplicateNameError,
    FisConfig,
    LinguisticVariable,
    MembershipFunction,
    Or,
    QueryDocument,
    Rule,
    RunConfig,
    SegmentationConfig,
    SegmentStream,
    Segmentation,
    SlopeSignMode,
    UnknownReferenceError,
    build_basis,
    change_point_offsets,
    evaluate,
    fit,
    gaussian,
    generate_cycle,
    infer,
    kmeans_points,
    parse,
    print_document,
    run_query,
    segment_series,
    sensitivity_bounds,
    window_grow,
    window_init,
)

QUERY_DIR = Path(__file__).resolve().parent.parent / "queries"


# ---------------------------------------------------------------------------
# 1. Golden fit of the nine-point reference window.


def criterion_1() -> None:
    series = [3.0, 5.0, 8.0, 6.0, 8.0, 9.0, 10.4, 12.0, 12.2]

    def run() -> tuple:
        shape = fit(series, degree=2)
        basis = build_basis(len(series) - 1, 2)
        return shape, evaluate(shape, basis, 8.0)

    run()  # warm-up outside the timed runs
    elapsed = min(_timed(run)[1] for _ in range(20))
    shape, fitted_end = run()
    expected = (8.18, 1.09, -0.02)
    for k, want in enumerate(expected):
        got = shape.alpha[k]
        assert abs(got - want) <= 0.01, f"alpha_{k}={got:.4f}, expected {want}±0.01"
    assert abs(fitted_end - 12.37) <= 0.01, f"p(8)={fitted_end:.4f}, expected 12.37±0.01"
    assert elapsed < 1e-3, f"fit+evaluate took {elapsed * 1e3:.3f} ms, budget 1 ms"


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# 2. Basis properties on random grids.


def criterion_2() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    for _ in range(100):
        k = int(rng.integers(0, 8))
        n = int(rng.integers(k, 201))
        basis = build_basis(n, k)
        values = basis.poly_values(np.arange(n + 1, dtype=float))
        gram = values @ values.T
        norms = np.sqrt(np.diag(gram))
        for i in range(k + 1):
            assert basis.power_coeffs[i, i] == 1.0, f"p_{i} is not monic on grid {n}"
            for j in range(i):
                residual = abs(gram[i, j]) / (norms[i] * norms[j])
                assert residual <= 1e-6, (
                    f"orthogonality residual {residual:.2e} at (k={i}, j={j}, N={n})"
                )
            direct = float(gram[i, i])
            assert abs(basis.sq_norms[i] - direct) <= 1e-9 * direct, (
                f"norm mismatch at k={i}, N={n}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"basis suite took {elapsed:.2f} s, budget 5 s"


# ---------------------------------------------------------------------------
# 3. Incremental updates match batch fits at every step.


def criterion_3() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    for _ in range(50):
        m = int(rng.integers(10, 1001))
        k = int(rng.integers(0, 8))
        y = rng.normal(scale=2.0, size=m)
        state = window_init(0, degree=k)
        for i, value in enumerate(y):
            window_grow(state, float(value))
            if state.count >= k + 1:
                batch = fit(y[: i + 1], degree=k)
                scale = max(1.0, float(np.abs(batch.alpha).max()))
                gap = float(np.abs(state.alpha - batch.alpha).max())
                assert gap <= 1e-6 * scale, (
                    f"incremental/batch gap {gap:.2e} at step {i} (len {m}, K {k})"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"equivalence suite took {elapsed:.2f} s, budget 30 s"


# ---------------------------------------------------------------------------
# 4. Per-point update cost does not grow with the window.


def criterion_4() -> None:
    values = np.random.default_rng(4).normal(size=10_050)
    # Build the first degree-5 block (bases and screen tables) first, so that
    # the first repetition times per-point cost rather than the block build.
    warm = window_init(0, degree=5)
    for v in values[:150]:
        window_grow(warm, float(v))
    ratios = []
    for _ in range(3):
        state = window_init(0, degree=5)
        for v in values[:50]:
            window_grow(state, float(v))
        _, t_small = _timed(lambda: [window_grow(state, float(v)) for v in values[50:150]])
        for v in values[150:9_950]:
            window_grow(state, float(v))
        _, t_large = _timed(lambda: [window_grow(state, float(v)) for v in values[9_950:]])
        ratios.append(t_large / t_small)
    best = min(ratios)
    assert best <= 2.0, f"per-point cost ratio {best:.2f} at length 10000 vs 100, budget 2.0"


# ---------------------------------------------------------------------------
# 5. Stubbed-criterion partition and streaming/batch agreement.


def criterion_5() -> None:
    closes = {3: ClosedBy.DPU, 7: ClosedBy.DPU}
    result = segment_series(
        np.arange(11.0),
        SegmentationConfig(degree=2, th_dpu=100.0),
        trigger=lambda state, end: closes.get(end),
    )
    spans = [(s.start, s.end) for s in result.segments]
    assert spans == [(0, 3), (4, 7), (8, 10)], f"stub partition produced {spans}"

    rng = np.random.default_rng(55)
    configs = [
        SegmentationConfig(degree=1, th_dpu=0.5),
        SegmentationConfig(degree=2, th_dpu=0.8, th_sss=2, sss_deadband=0.0),
        SegmentationConfig(degree=3, th_sss=1, sss_mode=SlopeSignMode.FIRST_DIFF_SIGN,
                           sss_deadband=0.05),
        SegmentationConfig(degree=0, th_dpu=1.2),
        SegmentationConfig(degree=4, th_dpu=0.6),
    ]
    for i in range(50):
        n = int(rng.integers(30, 200))
        y = np.cumsum(rng.normal(0.0, 0.7, n))
        config = configs[i % len(configs)]
        stream = SegmentStream(config)
        closed = [seg for v in y if (seg := stream.push(float(v))) is not None]
        tail = stream.finish()
        if tail is not None:
            closed.append(tail)
        assert Segmentation(segments=tuple(closed)) == segment_series(y, config), (
            f"push-replay diverged from batch on series {i}"
        )


# ---------------------------------------------------------------------------
# 6. Cycle experiment: anomalies outrank ordinary segments.


def criterion_6() -> None:
    start = time.perf_counter()
    series = generate_cycle(n=2000, period=200.0, seed=0)
    rules = (QUERY_DIR / "cycle_level.fcq").read_text()
    config = RunConfig(
        segmentation=SegmentationConfig(
            degree=5,
            th_sss=1,
            sss_mode=SlopeSignMode.FIRST_DIFF_SIGN,
            min_segment_len=8,
        ),
        normalize=True,
        rules_text=rules,
    )
    result = run_query(series, config)
    n_segments = len(result.segmentation.segments)
    assert 15 <= n_segments <= 60, f"segment count {n_segments} outside [15, 60]"

    def overlaps(segment) -> bool:
        return segment.start <= 600 and segment.end >= 500 or (
            segment.start <= 1600 and segment.end >= 1400
        )

    hot = [s.score for s in result.scored if overlaps(s.segment)]
    cold = [s.score for s in result.scored if not overlaps(s.segment)]
    assert hot and cold, "expected scored segments on both sides of the anomaly intervals"
    margin = sum(hot) / len(hot) - sum(cold) / len(cold)
    assert margin >= 0.2, f"anomaly score margin {margin:.3f} below 0.2"

    top5 = result.scored[:5]
    overlap_count = sum(overlaps(s.segment) for s in top5)
    assert overlap_count >= 4, f"only {overlap_count}/5 top segments overlap an anomaly"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"cycle experiment took {elapsed:.2f} s, budget 10 s"


# ---------------------------------------------------------------------------
# 7. Inference matches a brute-force discretized pipeline.


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
    mid, span = (a + b) / 2.0, b - a
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
    num = den = 0.0
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
    return LinguisticVariable(name, lo, hi, {f"s{i}": _random_mf(rng, lo, hi) for i in range(5)})


def _random_system(rng: random.Random) -> tuple[FisConfig, dict[str, float]]:
    inputs = (_random_variable(rng, "a"), _random_variable(rng, "b"))
    output = _random_variable(rng, "score")

    def leaf():
        var = rng.choice(inputs)
        return Atom(var.name, rng.choice(list(var.sets)), negated=rng.random() < 0.3)

    rules = []
    for _ in range(rng.randint(1, 9)):
        expr = leaf()
        for _ in range(rng.randint(0, 2)):
            expr = (And if rng.random() < 0.5 else Or)(expr, leaf())
        rules.append(Rule(expr, "score", rng.choice(list(output.sets)),
                          weight=rng.uniform(0.05, 1.0)))
    values = {v.name: rng.uniform(v.lo - 1.0, v.hi + 1.0) for v in inputs}
    return FisConfig(inputs=inputs, output=output, rules=tuple(rules)), values


def criterion_7() -> None:
    rng = random.Random(7)
    convergence_checked = 0
    for i in range(200):
        fis, values = _random_system(rng)
        result = infer(fis, values)
        want_score, want_degenerate = _oracle_infer(fis, values)
        assert result.degenerate is want_degenerate, f"degenerate flag differs on config {i}"
        gap = abs(result.score - want_score)
        tolerance = 1e-9 * max(1.0, abs(want_score))
        assert gap <= tolerance, f"oracle gap {gap:.2e} on config {i}"
        if not result.degenerate and convergence_checked < 20:
            fine = FisConfig(inputs=fis.inputs, output=fis.output, rules=fis.rules,
                             resolution=10_001)
            drift = abs(infer(fine, values).score - result.score)
            assert drift < 1e-3, f"resolution drift {drift:.2e} on config {i}"
            convergence_checked += 1
    assert convergence_checked == 20


# ---------------------------------------------------------------------------
# 8. Rule files round-trip; malformed input diagnostics.

# Shipped rule sets whose rules are also exercised one at a time (demo.fcq
# overlaps the others, so it is skipped to keep the slice count stable).
_SPLIT_SETS = (
    "cycle_level.fcq",
    "trend_watch.fcq",
    "slope_watch.fcq",
    "graded_variation.fcq",
    "coarse_variation.fcq",
)

_SCORE_VAR = "var score [0, 1] { low: tri(-0.4, 0, 0.4)  high: tri(0.6, 1, 1.4) }\n"

_MALFORMED: list[tuple[str, type, int, str]] = [
    ("var x [0, 1] {\n  low: tri(0, 0.5)\n}\n", ArityError, 2, "tri"),
    ("var x [0, 1] {\n  low: trap(0, 1, 2, 3, 4)\n}\n", ArityError, 2, "trap"),
    ("var x [0, 1] { a: gauss(1) }\n", ArityError, 1, "gauss"),
    ("var x [1, 0] { low: tri(0, 0.5, 1) }\n", DslValueError, 1, "1, 0"),
    ("var x [0, 1] { low: tri(1, 0.5, 0) }\n", DslValueError, 1, "tri"),
    ("var x [0, 1] { a: gauss(0, -1) }\n", DslValueError, 1, "gauss"),
    ("set defuzz = bisector\n", DslValueError, 1, "bisector"),
    ("set resolution = 10.5\n", DslValueError, 1, "10.5"),
    (_SCORE_VAR + "IF (score is low), THEN (score is low) weight 1.5\n",
     DslValueError, 2, "1.5"),
    (_SCORE_VAR + "var score [0, 1] { low: tri(0, 0.5, 1) }\n",
     DuplicateNameError, 2, "score"),
    ("var x [0, 1] {\n  a: tri(0, 0.5, 1)\n  a: smf(0, 1)\n}\n",
     DuplicateNameError, 3, "a:"),
    ("set resolution = 101\nset resolution = 101\n", DuplicateNameError, 2, "resolution"),
    ("set speed = 3\n", UnknownReferenceError, 1, "speed"),
    (_SCORE_VAR + "IF (ghost is low), THEN (score is low)\n",
     UnknownReferenceError, 2, "ghost"),
    (_SCORE_VAR + "IF (score is huge), THEN (score is low)\n",
     UnknownReferenceError, 2, "huge"),
    (_SCORE_VAR + "IF (score is low), THEN (score is huge)\n",
     UnknownReferenceError, 2, "huge"),
    (_SCORE_VAR + "IF (score is low) THEN (score is low)\n", DslSyntaxError, 2, "THEN"),
    (_SCORE_VAR + "IF score is low, THEN (score is low)\n", DslSyntaxError, 2, "score"),
    ("var x% [0, 1] { a: smf(0, 1) }\n", DslSyntaxError, 1, "%"),
    ("var x [0, 1] { a: bell(0, 1) }\n", DslSyntaxError, 1, "bell"),
]


def criterion_8() -> None:
    shipped = sorted(QUERY_DIR.glob("*.fcq"))
    assert len(shipped) >= 6, f"expected the shipped rule files, found {len(shipped)}"
    single_rule_docs = 0
    for path in shipped:
        doc = parse(path.read_text())
        assert parse(print_document(doc)) == doc, f"{path.name} does not round-trip"
        if path.name in _SPLIT_SETS:
            for rule in doc.rules:
                one = QueryDocument(variables=doc.variables, rules=(rule,),
                                    options=doc.options)
                assert parse(print_document(one)) == one, (
                    f"single-rule slice of {path.name} does not round-trip"
                )
                single_rule_docs += 1
    assert single_rule_docs == 22, f"expected 22 single-rule documents, got {single_rule_docs}"

    assert len(_MALFORMED) == 20
    for text, exc_type, line, marker in _MALFORMED:
        try:
            parse(text)
        except exc_type as err:
            col = text.splitlines()[line - 1].index(marker) + 1
            assert (err.line, err.col) == (line, col), (
                f"{exc_type.__name__} at {err.line}:{err.col}, expected {line}:{col}"
            )
        except Exception as err:  # noqa: BLE001 - report the category mismatch
            raise AssertionError(
                f"expected {exc_type.__name__}, got {type(err).__name__}: {err}"
            ) from err
        else:
            raise AssertionError(f"no error for malformed input {text!r}")


# ---------------------------------------------------------------------------
# 9. Boundary offset golden values.


def criterion_9() -> None:
    offsets = change_point_offsets([10, 20, 30], [13, 21, 32]).offsets
    assert offsets == (3.0, 1.0, 2.0), f"offsets {offsets}, expected (+3, +1, +2)"


# ---------------------------------------------------------------------------
# 10. Small two-cluster problems reach the exhaustive optimum.


def criterion_10() -> None:
    for seed in range(12):
        n = 3 + seed % 6
        pts = np.random.default_rng(seed).normal(0.0, 1.0, (n, 2))
        labels, _, inertia, _ = kmeans_points(pts, 2, seed=17, n_init=40)
        best = math.inf
        for mask in range(1, 2**n - 1):
            a = [i for i in range(n) if mask >> i & 1]
            b = [i for i in range(n) if not mask >> i & 1]
            ss = sum(float(np.sum((pts[g] - pts[g].mean(axis=0)) ** 2)) for g in (a, b))
            best = min(best, ss)
        assert inertia <= best + 1e-9 * max(1.0, best), (
            f"inertia {inertia:.6f} above the exhaustive optimum {best:.6f} (set {seed})"
        )
        again, _, _, _ = kmeans_points(pts, 2, seed=17, n_init=40)
        assert np.array_equal(labels, again), f"assignments changed across runs (set {seed})"


# ---------------------------------------------------------------------------
# 11. Sensitivity bound arithmetic.


def criterion_11() -> None:
    report = sensitivity_bounds([0.9, 0.8, 0.7, 0.1])
    assert abs(report.mean_upper - 0.8) <= 1e-9, f"mean_upper {report.mean_upper}"
    assert abs(report.mean_lower - 1.6 / 3.0) <= 1e-9, f"mean_lower {report.mean_lower}"


# ---------------------------------------------------------------------------
# pytest entry points


def test_criterion_01_golden_fit():
    criterion_1()


def test_criterion_02_basis_properties():
    criterion_2()


def test_criterion_03_incremental_equivalence():
    criterion_3()


def test_criterion_04_per_point_cost():
    criterion_4()


def test_criterion_05_partition_and_streaming():
    criterion_5()


def test_criterion_06_cycle_experiment():
    criterion_6()


def test_criterion_07_inference_oracle():
    criterion_7()


def test_criterion_08_rule_file_round_trip():
    criterion_8()


def test_criterion_09_offset_golden():
    criterion_9()


def test_criterion_10_small_cluster_optimum():
    criterion_10()


def test_criterion_11_sensitivity_arithmetic():
    criterion_11()


_CRITERIA = [
    (1, "golden fit of the reference window", criterion_1),
    (2, "basis orthogonality, monic leads, norm closed form", criterion_2),
    (3, "incremental fits equal batch fits", criterion_3),
    (4, "per-point update cost stays flat", criterion_4),
    (5, "stub partition and streaming/batch agreement", criterion_5),
    (6, "cycle experiment ranks anomalies first", criterion_6),
    (7, "inference matches the discretized oracle", criterion_7),
    (8, "rule files round-trip; diagnostics carry positions", criterion_8),
    (9, "boundary offsets golden values", criterion_9),
    (10, "small two-cluster problems hit the optimum", criterion_10),
    (11, "sensitivity bound arithmetic", criterion_11),
]


def main() -> int:
    failures = 0
    for number, label, fn in _CRITERIA:
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - any failure fails the criterion
            failures += 1
            print(f"FAIL criterion {number:2d}: {label} -- {exc}")
        else:
            elapsed = time.perf_counter() - start
            print(f"PASS criterion {number:2d}: {label} [{elapsed:.2f}s]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
