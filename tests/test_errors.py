"""One rule for integer options and real thresholds, at every entry point
that takes one (fcpd.errors.check_int and check_real), and one conversion of
input data to numbers (fcpd.errors.as_floats)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fcpd import (
    And,
    Atom,
    FcpdError,
    FisConfig,
    InvalidConfigError,
    InvalidDataError,
    LevelShift,
    NoiseBurst,
    QueryDocument,
    Rule,
    RunConfig,
    SegmentationConfig,
    SegmentStream,
    build_basis,
    build_records,
    change_point_offsets,
    evaluate,
    fit,
    generate_cycle,
    kmeans_points,
    mf_eval,
    parse,
    print_document,
    resolve_feature_name,
    segment_series,
    sensitivity_bounds,
    to_fis,
    triangular,
    validate_series,
    window_init,
)
from fcpd.cli_io import ingest

RULES = """
var average [-2, 2] { zero: gauss(0, 0.25) }
var score [0, 1] { high: tri(0.6, 1, 1.4) }
IF (average is zero), THEN (score is high)
"""
CONFIG = SegmentationConfig(degree=2, th_dpu=0.05)
SEGMENTS = segment_series(generate_cycle(n=400, period=50.0, anomalies=()), CONFIG)
POINTS = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
FIS = to_fis(parse(RULES))
SHAPE = SEGMENTS.segments[0].alpha

# (option name, entry point taking the value, a valid value, whether None means "unset")
INTEGER_OPTIONS = [
    ("degree", lambda v: build_basis(20, v), 2, False),
    ("window_len", lambda v: build_basis(v, 2), 5, False),
    ("degree", lambda v: fit(np.arange(10.0), v), 2, False),
    ("degree", lambda v: window_init(0, v), 2, False),
    ("start_index", lambda v: window_init(v, 2), 3, False),
    ("start_index", lambda v: SegmentStream(CONFIG, start_index=v), 3, False),
    ("degree", lambda v: SegmentationConfig(degree=v, th_dpu=1.0), 2, False),
    ("th_sss", lambda v: SegmentationConfig(degree=2, th_sss=v), 1, True),
    ("min_segment_len", lambda v: dataclasses.replace(CONFIG, min_segment_len=v), 4, True),
    ("delay", lambda v: [r[f"var_alpha_0_{v}"] for r in build_records(SEGMENTS, d=v)], 2, False),
    ("delay", lambda v: [r[f"var_size_{v}"] for r in build_records(SEGMENTS, d=v)], 2, False),
    ("delay", lambda v: build_records(SEGMENTS, d=v), 2, False),
    ("delay", lambda v: resolve_feature_name("var_average", 2, v), 2, False),
    ("k", lambda v: kmeans_points(POINTS, v, seed=0), 2, False),
    ("seed", lambda v: kmeans_points(POINTS, 2, seed=v), 7, False),
    ("n_init", lambda v: kmeans_points(POINTS, 2, seed=0, n_init=v), 2, False),
    ("segment_count", lambda v: sensitivity_bounds([0.1, 0.5, 0.9], segment_count=v), 5, True),
    ("n", lambda v: generate_cycle(n=v, anomalies=()), 50, False),
    ("seed", lambda v: generate_cycle(n=50, seed=v, anomalies=()), 7, False),
    ("anomaly start", lambda v: generate_cycle(n=50, anomalies=(NoiseBurst(v, 10),)), 3, False),
    ("anomaly end", lambda v: generate_cycle(n=50, anomalies=(LevelShift(2, v),)), 10, False),
    ("resolution", lambda v: dataclasses.replace(FIS, resolution=v), 101, False),
]

# The same columns.
REAL_THRESHOLDS = [
    ("th_dpu", lambda v: SegmentationConfig(degree=2, th_sss=1, th_dpu=v), 0.5, True),
    ("sss_deadband", lambda v: SegmentationConfig(2, th_sss=1, sss_deadband=v), 0.01, False),
    ("sss_deadband", lambda v: window_init(0, 2, sss_deadband=v), 0.0, False),
    (
        "epsilon",
        lambda v: [r["var_alpha_0_1"] for r in build_records(SEGMENTS, epsilon=v)],
        1e-9,
        False,
    ),
    ("epsilon", lambda v: build_records(SEGMENTS, epsilon=v), 1e-9, False),
    ("epsilon", lambda v: RunConfig(CONFIG, rules_text=RULES, epsilon=v).rules, 1e-9, False),
    ("period", lambda v: generate_cycle(n=50, period=v, anomalies=()), 20.0, False),
    ("rule weight", lambda v: Rule(Atom("average", "zero"), "score", "high", weight=v), 0.5, False),
]


def _ids(table):
    return [f"{row[0]}-{i}" for i, row in enumerate(table)]


@pytest.mark.parametrize("name, call, valid, optional", INTEGER_OPTIONS, ids=_ids(INTEGER_OPTIONS))
def test_integer_options_take_integers_only(name, call, valid, optional):
    call(valid)
    call(np.int64(valid))
    for bad in (True, 2.0, 1.5, "3", *(() if optional else (None,))):
        with pytest.raises(InvalidConfigError, match=f"^{name} must be an integer "):
            call(bad)


@pytest.mark.parametrize(
    "name, call, valid, optional", REAL_THRESHOLDS, ids=_ids(REAL_THRESHOLDS)
)
def test_real_thresholds_take_finite_numbers_only(name, call, valid, optional):
    call(valid)
    call(np.float64(valid))
    nonsense = ("1", True, float("nan"), float("inf"), -float("inf"), 10**400)
    for bad in (*nonsense, *(() if optional else (None,))):
        with pytest.raises(InvalidConfigError, match=f"^{name} must be a finite number, got "):
            call(bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_basis(20, 11), "degree must be an integer in 0..10, got 11"),
        (lambda: window_init(-1, 2), "start_index must be an integer >= 0, got -1"),
        (lambda: generate_cycle(n=50, seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda: kmeans_points(POINTS, 2, 0, n_init=0), "n_init must be an integer >= 1, got 0"),
        (lambda: kmeans_points(POINTS, 2, 0, n_init=-3), "n_init must be an integer >= 1, got -3"),
        (
            lambda: sensitivity_bounds([0.1, 0.5, 0.9], segment_count=2),
            "segment_count must be an integer >= 3, got 2",
        ),
        (
            lambda: sensitivity_bounds([0.1, 0.5, 0.9], segment_count=-4),
            "segment_count must be an integer >= 3, got -4",
        ),
        (lambda: SegmentationConfig(degree=2, th_dpu=0.0), "th_dpu must be > 0, got 0.0"),
        (lambda: window_init(0, 2, sss_deadband=-0.1), "sss_deadband must be >= 0, got -0.1"),
        (lambda: generate_cycle(n=50, period=-1), "period must be > 0, got -1"),
        (
            lambda: generate_cycle(n=5, period=5e-324, anomalies=()),
            "period 5e-324 is too short for 5 samples: 2 pi (n - 1) / period overflows",
        ),
        # 2^53 bytes: past any 64-bit host's address space, so no host allocates it.
        (lambda: generate_cycle(n=2**50, anomalies=()), f"cannot hold {2**50} samples in memory"),
        (
            lambda: generate_cycle(n=2**63, anomalies=()),
            f"n must be an integer in 1..{2**53}, got {2**63}",
        ),
        (
            lambda: build_basis(10**400, 2),
            f"window_len must be an integer in 0..{2**53}, got {10**400}",
        ),
        (
            lambda: generate_cycle(n=50, anomalies=(NoiseBurst(-1, 10),)),
            "anomaly start must be an integer >= 0, got -1",
        ),
        (
            lambda: Rule(Atom("average", "zero"), "score", "high", weight=0.0),
            "rule weight must be > 0, got 0.0",
        ),
        (
            lambda: Rule(Atom("average", "zero"), "score", "high", weight=1.5),
            "rule weight must be in (0, 1], got 1.5",
        ),
    ],
)
def test_bounds_are_named_in_the_message(call, message):
    with pytest.raises(InvalidConfigError) as info:
        call()
    assert str(info.value) == message



@pytest.mark.parametrize(
    "call",
    [
        lambda: validate_series([10**400]),
        lambda: sensitivity_bounds(["x"]),
        lambda: sensitivity_bounds([None]),
        lambda: sensitivity_bounds(3),
        lambda: change_point_offsets(["x"], [1]),
        lambda: kmeans_points([["a", "b"]], 1, 0),
        lambda: kmeans_points([[1, 2], [3]], 1, 0),
        lambda: mf_eval(triangular(0, 1, 2), 10**400),
        lambda: mf_eval(triangular(0, 1, 2), [[1, 2], [3]]),
        *(
            lambda x=x: evaluate(SHAPE, build_basis(SHAPE.window_len, SHAPE.degree), x)
            for x in ("x", None, object(), [[1, 2], [3]], 10**400)
        ),
    ],
    ids=["huge-int-series", "text-score", "none-score", "scalar-scores", "text-boundary",
         "text-points", "ragged-points", "huge-int-membership", "ragged-membership",
         "text-position", "none-position", "object-position", "ragged-positions",
         "huge-int-position"],
)
def test_input_data_that_is_not_numbers_is_a_data_error(call):
    with pytest.raises(InvalidDataError):
        call()


@pytest.mark.parametrize(
    "wrong_type, wrong_value",
    [
        (lambda: parse(None), lambda: parse("var x [1, 0] {}")),
        (lambda: ingest(object()), lambda: ingest("no-such-dir/series.csv")),
        (lambda: resolve_feature_name(None, 2, 1), lambda: resolve_feature_name("nope", 2, 1)),
    ],
    ids=["parse", "ingest", "resolve_feature_name"],
)
def test_a_wrong_type_is_a_type_error_and_a_wrong_value_an_fcpd_error(wrong_type, wrong_value):
    # An argument of the wrong type gets Python's own TypeError; a value of
    # the right type that fcpd cannot use gets an FcpdError subclass.
    with pytest.raises(TypeError):
        wrong_type()
    with pytest.raises(FcpdError):
        wrong_value()


BOGUS_RULE = Rule(And(Atom("average", "zero"), "average is zero"), "score", "high")
BOGUS_DOCUMENT = QueryDocument((*FIS.inputs, FIS.output), (BOGUS_RULE,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: FisConfig(FIS.inputs, FIS.output, (BOGUS_RULE,)),
        lambda: to_fis(BOGUS_DOCUMENT),
        lambda: print_document(BOGUS_DOCUMENT),
    ],
    ids=["FisConfig", "to_fis", "print_document"],
)
def test_an_antecedent_node_of_a_wrong_type_is_a_type_error(call):
    with pytest.raises(TypeError, match="^unknown antecedent node 'average is zero'$"):
        call()
