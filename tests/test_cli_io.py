"""Tests for CSV ingestion, normalization, the query pipeline, and the CLI."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fcpd import (
    DslSyntaxError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidDataError,
    MissingFeatureError,
    QueryError,
    RunConfig,
    SegmentationConfig,
    SlopeSignMode,
    cli_io,
    generate_cycle,
    ingest,
    main,
    normalize,
    run_query,
)

STEP_RULES = """\
var average [-1, 6] {
    low: zmf(0.5, 2)
    high: smf(2, 4)
}

var score [0, 1] {
    low: tri(-0.4, 0, 0.4)
    high: tri(0.6, 1, 1.4)
}

IF (average is high), THEN (score is high)
IF (average is low), THEN (score is low)
"""

VARIATION_RULES = """\
var var_average [-2, 2] {
    moving: smf(0.1, 1)
}

var score [0, 1] {
    high: tri(0.6, 1, 1.4)
}

IF (var_average is moving), THEN (score is high)
"""


def _step_series() -> list[float]:
    return [0.0] * 12 + [5.0] * 12 + [0.0] * 12


def _write_series(tmp_path, values, name="series.csv") -> str:
    path = tmp_path / name
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def _write_rules(tmp_path, text, name="rules.fcq") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Ingestion


def test_ingest_single_column():
    assert np.array_equal(ingest(io.StringIO("1\n2\n3\n")), [1.0, 2.0, 3.0])


def test_ingest_two_columns_with_header():
    assert np.array_equal(ingest(io.StringIO("t,y\n0,1.5\n1,2.5\n")), [1.5, 2.5])


def test_ingest_numeric_first_row_is_data():
    assert np.array_equal(ingest(io.StringIO("0,1\n1,2\n")), [1.0, 2.0])


def test_ingest_single_column_header():
    assert np.array_equal(ingest(io.StringIO("value\n7\n8\n")), [7.0, 8.0])


def test_ingest_tolerates_blank_lines_and_spaces():
    assert np.array_equal(ingest(io.StringIO("\n 0 , 1 \n\n1, 2\n\n")), [1.0, 2.0])


def test_ingest_from_path_and_stdin(tmp_path, monkeypatch):
    path = _write_series(tmp_path, [3.0, 4.0])
    assert np.array_equal(ingest(path), [3.0, 4.0])
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n4\n"))
    assert np.array_equal(ingest("-"), [3.0, 4.0])


@pytest.mark.parametrize("text, values", [
    ("\ufeff5.0\n1.0\n2.0\n3.0\n", [5.0, 1.0, 2.0, 3.0]),
    ("\ufeffvalue\n1.0\n2.0\n", [1.0, 2.0]),
    ("\ufefft,y\n0,1.5\n1,2.5\n", [1.5, 2.5]),
], ids=["no header", "header", "two-column header"])
def test_ingest_ignores_a_leading_byte_order_mark(tmp_path, monkeypatch, text, values):
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    for source in (str(path), io.StringIO(text), "-"):
        assert ingest(source).tolist() == values, source


# (input, test id, full message)
_MALFORMED = [
    ("0,1\n2,2\n", "line 2", "line 2: index 2 breaks the unit step after 0"),
    ("0.5,1\n", "line 1", "line 1: index '0.5' is not an integer"),
    ("1,2,3\n", "line 1", "line 1: expected 1 or 2 columns, got 3"),
    ("1\nfoo\n", "line 2", "line 2: value 'foo' is not a number"),
    ("0,1\n1\n", "line 2", "line 2: expected 2 columns, got 1"),
    ("1\ninf\n", "line 2", "line 2: value 'inf' is not finite"),
    ("", "no data rows", "no data rows found"),
    ("t,y\n", "no data rows", "no data rows found"),
    ("0,1\nx,2\n", "line 2", "line 2: index 'x' is not a number"),
    ("0,1\ninf,2\n", "line 2", "line 2: index 'inf' is not finite"),
]


@pytest.mark.parametrize(
    "text, message",
    [(text, message) for text, _, message in _MALFORMED],
    ids=[f"{text}-{case_id}" for text, case_id, _ in _MALFORMED],
)
def test_ingest_rejects_malformed_input(text, message):
    with pytest.raises(InvalidDataError, match=f"^{re.escape(message)}$"):
        ingest(io.StringIO(text))


def test_ingest_missing_file():
    with pytest.raises(InvalidDataError, match="cannot read"):
        ingest("/nonexistent/series.csv")


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_two_points():
    np.testing.assert_allclose(normalize([0.0, 2.0]), [-1.0, 1.0])


def test_normalize_output_moments_and_idempotence():
    series = np.random.default_rng(1).normal(3.0, 2.5, 200)
    out = normalize(series)
    assert abs(out.mean()) < 1e-12
    assert abs(out.var() - 1.0) < 1e-12
    np.testing.assert_allclose(normalize(out), out, atol=1e-9)


def test_normalize_rejects_flat_or_tiny_series():
    with pytest.raises(InvalidDataError):
        normalize([5.0, 5.0, 5.0])
    with pytest.raises(InsufficientDataError):
        normalize([5.0])


# Finite samples whose mean or variance overflows.
HUGE_ALTERNATING = [1e200, -1e200] * 20
HUGE_LEVEL = [1.7e308] * 20
NORMALIZE_OVERFLOW = "cannot normalize: the series' mean or variance overflows"


@pytest.mark.parametrize("series", [HUGE_ALTERNATING, HUGE_LEVEL], ids=["variance", "mean"])
def test_normalize_rejects_overflowing_moments(series):
    with pytest.raises(InvalidDataError, match=f"^{NORMALIZE_OVERFLOW}$"):
        normalize(series)


# ---------------------------------------------------------------------------
# Query pipeline


def _step_config(degree: int = 1, rules_text: str = STEP_RULES, **options) -> RunConfig:
    segmentation = SegmentationConfig(degree=degree, th_dpu=0.5)
    return RunConfig(segmentation=segmentation, rules_text=rules_text, **options)


def test_run_query_scores_sorted_by_score_then_index():
    result = run_query(_step_series(), _step_config())
    assert len(result.scored) >= 2
    keys = [(-s.score, s.segment.index) for s in result.scored]
    assert keys == sorted(keys)
    # The elevated plateau outranks the flat ones.  The jump sample itself
    # belongs to the segment it closed, so the plateau starts one later.
    assert result.scored[0].segment.start == 13
    assert result.scored[0].segment.alpha.alpha[0] > 2.0


def test_run_query_reports_every_segment_once():
    result = run_query(_step_series(), _step_config())
    scored = {s.segment.index for s in result.scored}
    skipped = {s.segment_index for s in result.skipped}
    assert scored | skipped == {s.index for s in result.segmentation.segments}
    assert scored & skipped == set()


def test_run_query_skips_variation_starved_segments():
    result = run_query([1.0] * 20, _step_config(rules_text=VARIATION_RULES, degree=2))
    assert result.scored == ()
    (skip,) = result.skipped
    assert skip.segment_index == 0
    assert skip.missing == ("var_alpha_0_1",)


def test_run_query_unknown_feature_fails_fast(monkeypatch):
    def no_segmenting(*args, **kwargs):
        pytest.fail("run_query segmented a series it should have rejected")

    monkeypatch.setattr("fcpd.cli_io.segment_series", no_segmenting)
    rules = STEP_RULES.replace("average", "velocity")
    with pytest.raises(MissingFeatureError, match="velocity"):
        run_query(_step_series(), _step_config(rules_text=rules))
    with pytest.raises(QueryError, match="line 1"):
        run_query(_step_series(), _step_config(rules_text="IF (score is, THEN\n"))
    with pytest.raises(InvalidConfigError, match="delay must be an integer >= 1, got 0"):
        run_query(_step_series(), _step_config(delay=0))
    with pytest.raises(InvalidConfigError, match="epsilon must be > 0, got 0.0"):
        run_query(_step_series(), _step_config(epsilon=0.0))


def test_run_query_needs_rules():
    with pytest.raises(InvalidConfigError):
        run_query(_step_series(), RunConfig(segmentation=SegmentationConfig(degree=1, th_dpu=0.5)))


def test_run_query_flags_degenerate_scores():
    # The set lies entirely above the domain, so clamped inputs can never
    # fire the rule and every score degenerates to the midpoint.
    rules = VARIATION_RULES.replace("smf(0.1, 1)", "smf(5, 6)")
    series = _step_series()
    result = run_query(series, _step_config(rules_text=rules, degree=2))
    assert result.scored  # variations exist from the second segment on
    assert all(s.degenerate for s in result.scored)
    assert all(s.score == pytest.approx(0.5) for s in result.scored)


def test_run_query_normalize_changes_the_scale():
    raw = run_query(_step_series(), _step_config())
    scaled = run_query(_step_series(), _step_config(normalize=True))
    assert raw.segmentation != scaled.segmentation or raw.scored != scaled.scored


# ---------------------------------------------------------------------------
# CLI: segment


def test_cli_segment_csv(tmp_path, capsys):
    path = _write_series(tmp_path, _step_series())
    code, out, err = _run(capsys, ["segment", path, "--degree", "1", "--th-dpu", "0.5"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "start", "end", "length", "closed_by", "alpha_0", "alpha_1"]
    assert len(rows) >= 3
    assert rows[1][:2] == ["0", "0"]
    assert float(rows[1][5]) == pytest.approx(0.0, abs=0.5)


def test_cli_segment_json_matches_csv_values(tmp_path, capsys):
    path = _write_series(tmp_path, _step_series())
    argv = [path, "--degree", "1", "--th-dpu", "0.5"]
    _, out_csv, _ = _run(capsys, ["segment"] + argv)
    _, out_json, _ = _run(capsys, ["segment"] + argv + ["--format", "json"])
    rows = list(csv.reader(io.StringIO(out_csv)))[1:]
    payload = json.loads(out_json)
    assert len(payload["segments"]) == len(rows)
    for row, seg in zip(rows, payload["segments"]):
        assert [int(row[0]), int(row[1]), int(row[2])] == [seg["index"], seg["start"], seg["end"]]
        assert row[4] == seg["closed_by"]
        if seg["alpha"] is not None:
            assert [float(v) for v in row[5:7]] == seg["alpha"]
    assert payload["change_points"] == [int(r[2]) for r in rows[:-1]]


def test_cli_segment_is_byte_deterministic(tmp_path, capsys):
    path = _write_series(tmp_path, np.random.default_rng(0).normal(0, 1, 60))
    argv = ["segment", path, "--degree", "2", "--th-dpu", "1.0"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_cli_segment_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{v}\n" for v in _step_series())))
    code, out, _ = _run(capsys, ["segment", "-", "--degree", "1", "--th-dpu", "0.5"])
    assert code == 0
    assert out.startswith("index,")


def test_cli_segment_plot_data(tmp_path, capsys):
    path = _write_series(tmp_path, _step_series())
    plot = tmp_path / "plot"
    code, _, _ = _run(
        capsys,
        ["segment", path, "--degree", "1", "--th-dpu", "0.5", "--plot-dir", str(plot)],
    )
    assert code == 0
    series_lines = (plot / "series.dat").read_text().splitlines()
    assert len(series_lines) == 36
    assert series_lines[0] == "0 0.0"
    boundaries = (plot / "boundaries.dat").read_text().split()
    assert len(boundaries) >= 2
    fit_lines = (plot / "fit.dat").read_text().splitlines()
    assert fit_lines  # every fitted segment contributes its local fit
    assert not (plot / "scores.dat").exists()


@pytest.mark.parametrize("suffix", ["", "/plots"], ids=["a file", "below a file"])
def test_cli_rejects_a_plot_dir_it_cannot_make(tmp_path, capsys, suffix):
    path = _write_series(tmp_path, _step_series())
    plot = path + suffix
    rules = _write_rules(tmp_path, STEP_RULES)
    for argv in (["segment", path], ["query", path, "--rules", rules]):
        code, out, err = _run(capsys, argv + ["--th-dpu", "0.5", "--plot-dir", plot])
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot use --plot-dir {plot}: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# CLI: query


def test_cli_query_csv_sorted_with_scores(tmp_path, capsys):
    series_path = _write_series(tmp_path, _step_series())
    rules_path = _write_rules(tmp_path, STEP_RULES)
    code, out, _ = _run(
        capsys,
        ["query", series_path, "--rules", rules_path, "--degree", "1", "--th-dpu", "0.5"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "score"
    scores = [float(r[-1]) for r in rows[1:]]
    assert scores == sorted(scores, reverse=True)
    assert scores[0] > 0.6


def test_cli_query_json_parity(tmp_path, capsys):
    series_path = _write_series(tmp_path, _step_series())
    rules_path = _write_rules(tmp_path, STEP_RULES)
    argv = ["query", series_path, "--rules", rules_path, "--degree", "1", "--th-dpu", "0.5"]
    _, out_csv, _ = _run(capsys, argv)
    _, out_json, _ = _run(capsys, argv + ["--format", "json"])
    rows = list(csv.reader(io.StringIO(out_csv)))[1:]
    payload = json.loads(out_json)
    assert [float(r[-1]) for r in rows] == [s["score"] for s in payload["segments"]]
    assert payload["skipped"] == []


def test_cli_query_empty_result_still_succeeds(tmp_path, capsys):
    series_path = _write_series(tmp_path, [1.0] * 20)
    rules_path = _write_rules(tmp_path, VARIATION_RULES)
    code, out, err = _run(
        capsys,
        ["query", series_path, "--rules", rules_path, "--degree", "2", "--th-dpu", "0.5"],
    )
    assert code == 0
    assert len(out.splitlines()) == 1  # header only
    assert "skipped segment 0" in err
    assert "var_alpha_0_1" in err


def test_cli_query_scores_sets_whose_span_overflows(tmp_path, capsys):
    # Both input sets span more than the float range; their degrees once
    # read 0 everywhere, and every score was the degenerate 0.5.
    rules = STEP_RULES.replace("[-1, 6]", "[-1e308, 1e308]").replace(
        "low: zmf(0.5, 2)\n    high: smf(2, 4)",
        "low: tri(-1.7e308, -1.6e308, 1e308)\n    high: tri(-1e308, 1e308, 1.5e308)",
    )
    series_path = _write_series(tmp_path, _step_series())
    rules_path = _write_rules(tmp_path, rules)
    code, out, err = _run(
        capsys,
        ["query", series_path, "--rules", rules_path, "--degree", "1", "--th-dpu", "0.5",
         "--format", "json"],
    )
    assert (code, err) == (0, "")
    segments = json.loads(out)["segments"]
    assert [(s["score"], s["degenerate"]) for s in segments] == [(0.5364668231996432, False)] * 3


def test_cli_query_plot_scores(tmp_path, capsys):
    series_path = _write_series(tmp_path, _step_series())
    rules_path = _write_rules(tmp_path, STEP_RULES)
    plot = tmp_path / "plot"
    code, _, _ = _run(
        capsys,
        ["query", series_path, "--rules", rules_path, "--degree", "1", "--th-dpu", "0.5",
         "--plot-dir", str(plot)],
    )
    assert code == 0
    lines = (plot / "scores.dat").read_text().splitlines()
    indices = [int(line.split()[0]) for line in lines]
    assert indices == sorted(indices)


# ---------------------------------------------------------------------------
# CLI: exit codes


def test_cli_exit_code_rules_error(tmp_path, capsys):
    series_path = _write_series(tmp_path, _step_series())
    rules_path = _write_rules(tmp_path, "IF (score is, THEN\n")
    code, _, err = _run(capsys, ["query", series_path, "--rules", rules_path, "--th-dpu", "1"])
    assert code == 4
    assert err.startswith("error: line 1")


@pytest.mark.parametrize(
    "domain, message",
    [
        ("[-1, 1e999]", "column 18: variable 'average' hi must be a finite number, got inf"),
        ("[-1e999, 6]", "column 14: variable 'average' lo must be a finite number, got -inf"),
    ],
)
def test_cli_exit_code_infinite_domain_bound(tmp_path, capsys, domain, message):
    series_path = _write_series(tmp_path, _step_series())
    rules_path = _write_rules(tmp_path, STEP_RULES.replace("[-1, 6]", domain))
    code, out, err = _run(capsys, ["query", series_path, "--rules", rules_path, "--th-dpu", "1"])
    assert (code, out, err) == (4, "", f"error: line 1, {message}\n")


def test_cli_exit_code_unknown_feature(tmp_path, capsys):
    series_path = _write_series(tmp_path, _step_series())
    rules_path = _write_rules(tmp_path, STEP_RULES.replace("average", "velocity"))
    code, _, err = _run(
        capsys,
        ["query", series_path, "--rules", rules_path, "--degree", "1", "--th-dpu", "0.5"],
    )
    assert code == 4
    assert "velocity" in err


def test_cli_exit_code_config_error(tmp_path, capsys):
    series_path = _write_series(tmp_path, _step_series())
    code, _, err = _run(capsys, ["segment", series_path, "--degree", "-2", "--th-dpu", "1"])
    assert code == 2
    assert err.startswith("error:")


def test_cli_exit_code_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1\nnot-a-number\n")
    code, _, err = _run(capsys, ["segment", str(bad), "--th-dpu", "1"])
    assert code == 3
    assert "line 2" in err


def test_cli_exit_code_missing_input(tmp_path, capsys):
    code, _, err = _run(capsys, ["segment", str(tmp_path / "absent.csv"), "--th-dpu", "1"])
    assert code == 3


def test_cli_normalize_flat_series_is_a_data_error(tmp_path, capsys):
    series_path = _write_series(tmp_path, [2.0] * 30)
    code, _, err = _run(capsys, ["segment", series_path, "--th-dpu", "1", "--normalize"])
    assert code == 3
    assert "zero-variance" in err


@pytest.mark.parametrize("command", ["segment", "query"])
def test_cli_normalize_overflow_is_a_data_error(tmp_path, capsys, command):
    series_path = _write_series(tmp_path, HUGE_ALTERNATING)
    argv = [command, series_path, "--degree", "0", "--th-dpu", "0.5", "--normalize"]
    if command == "query":
        argv += ["--rules", _write_rules(tmp_path, STEP_RULES)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == f"error: {NORMALIZE_OVERFLOW}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--length", "5", "--period", "5e-324", "--no-anomalies"],
            "period 5e-324 is too short for 5 samples: 2 pi (n - 1) / period overflows",
        ),
        # 2^53 bytes: past any 64-bit host's address space, so no host allocates it.
        (["--length", str(2**50)], f"cannot hold {2**50} samples in memory"),
    ],
)
def test_cli_generate_rejects_what_it_cannot_generate(capsys, argv, message):
    code, out, err = _run(capsys, ["generate", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# CLI: cluster


def test_cli_cluster_csv(tmp_path, capsys):
    series = [0.0] * 12 + [5.0] * 12 + [0.0] * 12 + [5.0] * 12
    series_path = _write_series(tmp_path, series)
    code, out, _ = _run(
        capsys,
        ["cluster", series_path, "--degree", "2", "--th-dpu", "0.5", "--clusters", "2"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "start", "end", "length", "alpha_1", "alpha_2",
                       "cluster", "representative"]
    body = rows[1:]
    assert len(body) >= 2
    clusters = {r[6] for r in body}
    assert clusters == {"0", "1"}
    for c in clusters:
        reps = [r for r in body if r[6] == c and r[7] == "1"]
        assert len(reps) == 1


def test_cli_cluster_too_many_clusters(tmp_path, capsys):
    series_path = _write_series(tmp_path, [1.0] * 20)
    code, _, err = _run(
        capsys, ["cluster", series_path, "--degree", "2", "--th-dpu", "0.5", "--clusters", "4"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags, env, message",
    [
        (["--clusters", "0"], None, "k must be an integer >= 1, got 0"),
        (["--seed", "-1"], None, "seed must be an integer >= 0, got -1"),
        ([], "-1", "seed must be an integer >= 0, got -1"),
        (["--degree", "1"], None, "--degree must be >= 2 for cluster, got 1"),
        (["--degree", "0"], None, "--degree must be >= 2 for cluster, got 0"),
    ],
)
def test_cli_cluster_checks_its_options_before_segmenting(
    tmp_path, capsys, monkeypatch, flags, env, message
):
    def unreachable(*args, **kwargs):
        raise AssertionError("segmented before the options were checked")

    monkeypatch.setattr("fcpd.cli_io.segment_series", unreachable)
    if env is not None:
        monkeypatch.setenv("FCPD_SEED", env)
    series_path = _write_series(tmp_path, [0.0] * 12 + [5.0] * 12)
    argv = ["cluster", series_path, "--degree", "2", "--th-dpu", "0.5", *flags]
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


def test_cli_cluster_overflow_is_a_data_error(tmp_path, capsys):
    series_path = _write_series(tmp_path, HUGE_ALTERNATING)
    code, out, err = _run(
        capsys, ["cluster", series_path, "--degree", "2", "--th-dpu", "0.5", "--clusters", "2"]
    )
    assert (code, out) == (3, "")
    assert err == "error: points too large to cluster: squared distances overflow\n"


# ---------------------------------------------------------------------------
# CLI: sensitivity


def test_cli_sensitivity_single_file(tmp_path, capsys):
    series_path = _write_series(tmp_path, _step_series())
    rules_path = _write_rules(tmp_path, STEP_RULES)
    code, out, _ = _run(
        capsys,
        ["sensitivity", series_path, "--rules", rules_path, "--degree", "1", "--th-dpu", "0.5"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["series", "mean_upper", "mean_lower"]
    assert rows[-1][0] == "MEAN"
    assert float(rows[1][1]) >= float(rows[1][2])


def test_cli_sensitivity_directory_is_ordered_and_deterministic(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(5)
    for name in ("b.csv", "a.csv", "c.csv"):
        _write_series(data, np.concatenate([rng.normal(m, 0.2, 10) for m in (0, 4, 0)]), name)
    rules_path = _write_rules(tmp_path, STEP_RULES)
    argv = ["sensitivity", str(data), "--rules", rules_path, "--degree", "1", "--th-dpu", "0.5"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(first)))
    assert [r[0] for r in rows[1:]] == ["a.csv", "b.csv", "c.csv", "MEAN"]
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_cli_sensitivity_unscorable_series_fails(tmp_path, capsys):
    series_path = _write_series(tmp_path, [1.0] * 20)
    rules_path = _write_rules(tmp_path, VARIATION_RULES)
    code, _, err = _run(
        capsys,
        ["sensitivity", series_path, "--rules", rules_path, "--degree", "2", "--th-dpu", "0.5"],
    )
    assert code == 3
    assert "no scorable segments" in err


# ---------------------------------------------------------------------------
# CLI: generate and offsets


def test_cli_generate_round_trips_exactly(tmp_path, capsys):
    code, out, _ = _run(capsys, ["generate", "--length", "64", "--period", "8",
                                 "--no-anomalies"])
    assert code == 0
    values = [float(line) for line in out.splitlines()]
    assert np.array_equal(values, generate_cycle(n=64, period=8.0, seed=0, anomalies=()))


def test_cli_generate_default_anomalies_need_room(capsys):
    code, _, err = _run(capsys, ["generate", "--length", "400"])
    assert code == 2
    assert "anomaly" in err


def test_cli_generate_seed_flag_and_env(capsys, monkeypatch):
    _, by_flag, _ = _run(capsys, ["generate", "--length", "32", "--period", "8",
                                  "--no-anomalies", "--seed", "123"])
    monkeypatch.setenv("FCPD_SEED", "123")
    _, by_env, _ = _run(capsys, ["generate", "--length", "32", "--period", "8",
                                 "--no-anomalies"])
    assert by_flag == by_env


def test_cli_invalid_seed_env_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FCPD_SEED", "not-a-seed")
    code, _, err = _run(capsys, ["generate", "--length", "32", "--no-anomalies"])
    assert code == 2
    assert "FCPD_SEED" in err


@pytest.mark.parametrize("command", ["segment", "query", "sensitivity"])
def test_cli_seed_env_is_ignored_where_nothing_is_random(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("FCPD_SEED", "not-a-seed")
    argv = [command, _write_series(tmp_path, _step_series()), "--degree", "1", "--th-dpu", "0.5"]
    if command != "segment":
        argv += ["--rules", _write_rules(tmp_path, STEP_RULES)]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert out
    assert err == ""


def test_cli_offsets_golden(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    cand = tmp_path / "cand.txt"
    ref.write_text("10\n20\n30\n")
    cand.write_text("13\n21\n32\n")
    code, out, err = _run(capsys, ["offsets", str(ref), str(cand)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["reference", "candidate", "offset"]
    assert [float(r[2]) for r in rows[1:]] == [3.0, 1.0, 2.0]
    assert err == ""

    cand.write_text("13\n21\n32\n99\n")
    code, out, err = _run(capsys, ["offsets", str(ref), str(cand)])
    assert code == 0
    assert "unmatched candidate boundary: 99.0" in err


def test_cli_offsets_json(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    cand = tmp_path / "cand.txt"
    ref.write_text("10\n20\n30\n")
    cand.write_text("13\n21\n32\n")
    code, out, _ = _run(capsys, ["offsets", str(ref), str(cand), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["offsets"] == [3.0, 1.0, 2.0]
    assert payload["unmatched_reference"] == []


def test_cli_flag_defaults_are_the_librarys():
    args = cli_io.build_parser().parse_args(["query", "x.csv", "--rules", "r.fcq", "--th-dpu", "1"])
    config = cli_io._run_config(args, rules_text="")
    assert config == RunConfig(SegmentationConfig(th_dpu=1.0), rules_text="")


@pytest.mark.parametrize("error, code", [
    (InvalidConfigError("boom"), 2),
    (InvalidDataError("boom"), 3),
    (InsufficientDataError("boom"), 3),
    (QueryError("boom", 1, 1), 4),
    (DslSyntaxError("boom", 1, 1), 4),
    (MissingFeatureError("boom"), 4),
])
def test_cli_exit_code_of_each_error_class(tmp_path, capsys, monkeypatch, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli_io, "_cmd_offsets", fail)
    assert _run(capsys, ["offsets", "ref.txt", "cand.txt"]) == (code, "", f"error: {error}\n")


def test_cli_offsets_ignores_a_leading_byte_order_mark(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    cand = tmp_path / "cand.txt"
    ref.write_text("\ufeff10\n20\n", encoding="utf-8")
    cand.write_text("\ufeff13\n21\n", encoding="utf-8")
    code, out, err = _run(capsys, ["offsets", str(ref), str(cand), "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["pairs"] == [[10.0, 13.0], [20.0, 21.0]]


def test_python_dash_m_fcpd_runs_the_cli(tmp_path):
    src = str(Path(cli_io.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-W", "error", "-m", "fcpd"]
    done = subprocess.run(argv + ["generate", "--length", "8", "--period", "4", "--no-anomalies"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    expected = generate_cycle(n=8, period=4.0, seed=0, anomalies=())
    assert [float(v) for v in done.stdout.split()] == expected.tolist()
    missing = str(tmp_path / "missing.txt")
    done = subprocess.run(argv + ["offsets", missing, missing], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 3
    assert done.stderr.startswith(f"error: cannot read {missing}: ")


def test_cli_unreadable_rules_and_boundary_files(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    series = _write_series(tmp_path, _step_series())
    code, out, err = _run(capsys, ["query", series, "--rules", missing, "--th-dpu", "0.5"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read rules file {missing}: ")
    ref = tmp_path / "ref.txt"
    ref.write_text("10\n")
    code, out, err = _run(capsys, ["offsets", missing, str(ref)])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read {missing}: ")


# ---------------------------------------------------------------------------
# CLI: files are read as UTF-8 whatever the locale; a byte that is not UTF-8
# reaches the parsers as a lone surrogate, as it does from stdin.


def _series_bytes(header: bytes) -> bytes:
    return header + "".join(f"{i},{v}\n" for i, v in enumerate(_step_series())).encode()


def test_cli_skips_a_header_that_is_not_utf8(tmp_path, capsys):
    latin1, plain = tmp_path / "latin1.csv", tmp_path / "plain.csv"
    latin1.write_bytes(_series_bytes(b"d\xeda,count\n"))
    plain.write_bytes(_series_bytes(b"dia,count\n"))
    argv = ["segment", "--th-dpu", "1", "--degree", "1"]
    expected = _run(capsys, argv + [str(plain)])
    assert expected[0] == 0
    assert _run(capsys, argv + [str(latin1)]) == expected


def test_cli_rejects_a_value_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_bytes(b"value\n1\n2\xe9\n3\n")
    code, out, err = _run(capsys, ["segment", str(path), "--th-dpu", "1", "--degree", "1"])
    assert (code, out, err) == (3, "", "error: line 3: value '2\\udce9' is not a number\n")


def test_cli_rules_with_a_byte_that_is_not_utf8(tmp_path, capsys):
    series = _write_series(tmp_path, _step_series())
    rules = tmp_path / "rules.fcq"
    argv = ["query", series, "--rules", str(rules), "--th-dpu", "1"]
    rules.write_bytes(STEP_RULES.encode())
    expected = _run(capsys, argv)
    assert expected[0] == 0
    rules.write_bytes(b"# caf\xe9\n" + STEP_RULES.encode())
    assert _run(capsys, argv) == expected
    rules.write_bytes(STEP_RULES.encode().replace(b"var average", b"var av\xe9rage"))
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (4, "", "error: line 1, column 7: unexpected character '\\udce9'\n")


def test_cli_rules_ignore_a_leading_byte_order_mark(tmp_path, capsys):
    series = _write_series(tmp_path, _step_series())
    rules = tmp_path / "rules.fcq"
    argv = ["query", series, "--rules", str(rules), "--th-dpu", "1"]
    rules.write_bytes(STEP_RULES.encode())
    expected = _run(capsys, argv)
    assert expected[0] == 0
    rules.write_bytes(b"\xef\xbb\xbf" + STEP_RULES.encode())
    assert _run(capsys, argv) == expected


def test_cli_rejects_a_boundary_that_is_not_utf8(tmp_path, capsys):
    ref, cand = tmp_path / "ref.txt", tmp_path / "cand.txt"
    ref.write_bytes(b"\xff3\n")
    cand.write_text("3\n")
    code, out, err = _run(capsys, ["offsets", str(ref), str(cand)])
    assert (code, out, err) == (3, "", "error: line 1: index '\\udcff3' is not a number\n")


def test_cli_file_io_does_not_depend_on_the_locale(tmp_path):
    # An ASCII locale without UTF-8 mode; -X warn_default_encoding and -W error
    # turn every read or write left to the locale's encoding into a failure.
    src = str(Path(cli_io.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "LC_ALL": "POSIX", "PYTHONUTF8": "0"}
    fcpd = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-m", "fcpd"]
    series, rules, plot = tmp_path / "series.csv", tmp_path / "rules.fcq", tmp_path / "plot"
    series.write_bytes(_series_bytes("\ufeffdía,count\n".encode()))
    rules.write_bytes(f"# café\n{STEP_RULES}".encode())
    for argv in (
        ["segment", str(series), "--th-dpu", "1", "--degree", "1", "--plot-dir", str(plot)],
        ["query", str(series), "--rules", str(rules), "--th-dpu", "1", "--degree", "1",
         "--plot-dir", str(plot)],
        ["offsets", str(plot / "boundaries.dat"), str(plot / "boundaries.dat")],
    ):
        done = subprocess.run(fcpd + argv, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), argv
    assert (plot / "boundaries.dat").read_text() == "12\n24\n"


@pytest.mark.parametrize("data, expected", [
    (b"\xef\xbb\xbf5.0\n1.0\n2.0\n3.0\n",
     (0, b"index,start,end,length,closed_by,alpha_0\n0,0,3,4,END_OF_STREAM,2.75\n", b"")),
    (b"value\n1\n2\xc3\xa9\n3\n",
     (3, b"", b"error: line 3: value '2\\xe9' is not a number\n")),
], ids=["byte-order mark", "UTF-8 value"])
def test_cli_stdin_reads_as_a_path_does_under_an_ascii_locale(tmp_path, data, expected):
    # Stdin is decoded as UTF-8, as files are, not by the locale. The ASCII
    # stderr shows the decoded \xe9 with a backslash escape.
    src = str(Path(cli_io.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "LC_ALL": "POSIX", "PYTHONUTF8": "0"}
    path = tmp_path / "series.csv"
    path.write_bytes(data)
    argv = [sys.executable, "-m", "fcpd", "segment", "--th-dpu", "100", "--degree", "0"]
    for source, stdin in ((str(path), None), ("-", data)):
        done = subprocess.run(argv + [source], input=stdin, env=env, capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == expected, source
