"""Command-line front end and file I/O for the segmentation/query pipeline.

Subcommands: segment, query, cluster, sensitivity, generate, offsets.
Series files are CSV with one value per line or ``t,value`` rows (optional
header; t must advance by exactly 1).  Exit codes: 0 success, 2 invalid
configuration, 3 malformed data, 4 rule-file errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .analysis_toolkit import (
    DEFAULT_ANOMALIES,
    aggregate_sensitivity,
    change_point_offsets,
    generate_cycle,
    kmeans_segments,
    sensitivity_bounds,
)
from .errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidDataError,
    MissingFeatureError,
    check_int,
    check_real,
)
from .features import build_records, resolve_feature_name
from .fuzzy_inference import FisConfig, infer
from .query_dsl import QueryError, parse, to_fis
from .segmentation import (
    Segment,
    Segmentation,
    SegmentationConfig,
    TailPolicy,
    segment_series,
)
from .shape_space import SlopeSignMode, build_basis, evaluate, validate_series

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RULES = 4
# The exit code of each error class a subcommand reports (the README's "Exit codes").
_EXIT_CODES = {
    InvalidConfigError: EXIT_CONFIG,
    InvalidDataError: EXIT_DATA,
    InsufficientDataError: EXIT_DATA,
    QueryError: EXIT_RULES,
    MissingFeatureError: EXIT_RULES,
}

# The coefficient orders that fcpd cluster groups segments by: slope and curvature.
_CLUSTER_PAIR = (1, 2)


# ---------------------------------------------------------------------------
# Ingestion and normalization


def _parse_number(text: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidDataError(f"line {lineno}: {what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise InvalidDataError(f"line {lineno}: {what} {text!r} is not finite")
    return value


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_text(source, error=InvalidDataError, label: str = "") -> str:
    """The text of an open file or a path, past one leading byte-order mark.  Bytes
    decode as UTF-8 with ``surrogateescape`` and universal newlines, whatever the locale."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        try:
            data = Path(source).read_bytes()
        except OSError as exc:
            raise error(f"cannot read {label}{source}: {exc}") from None
    if isinstance(data, bytes):
        data = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape").read()
    return data.removeprefix("\ufeff")


def _lines(text: str):
    """(line number, stripped line) of each non-blank line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def ingest(source) -> np.ndarray:
    """Read a series from a CSV path, an open file, or '-' (stdin).

    Accepts one value per line or ``t,value`` rows.  A non-numeric first row
    is treated as a header.  The t column must be strictly increasing
    integers advancing by exactly 1.  A leading byte-order mark is ignored.
    """
    if source == "-":
        if sys.stdin is None:  # the process was started with its standard input closed
            raise InvalidDataError("cannot read stdin: it is closed")
        source = getattr(sys.stdin, "buffer", sys.stdin)
    text = _read_text(source)
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in _lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) > 2:
            raise InvalidDataError(f"line {lineno}: expected 1 or 2 columns, got {len(parts)}")
        rows.append((lineno, parts))
    if rows and not all(_is_number(field_text) for field_text in rows[0][1]):
        rows = rows[1:]
    if not rows:
        raise InvalidDataError("no data rows found")
    width = len(rows[0][1])
    values = []
    t_previous: int | None = None
    for lineno, parts in rows:
        if len(parts) != width:
            raise InvalidDataError(
                f"line {lineno}: expected {width} columns, got {len(parts)}"
            )
        if width == 2:
            t = _parse_number(parts[0], lineno, "index")
            if not t.is_integer():
                raise InvalidDataError(f"line {lineno}: index {parts[0]!r} is not an integer")
            if t_previous is not None and t != t_previous + 1:
                raise InvalidDataError(
                    f"line {lineno}: index {int(t)} breaks the unit step after {t_previous}"
                )
            t_previous = int(t)
        values.append(_parse_number(parts[-1], lineno, "value"))
    return validate_series(values)


def normalize(series) -> np.ndarray:
    """Shift/scale to mean 0 and variance 1 (population variance, divisor N)."""
    y = validate_series(series)
    if y.size < 2:
        raise InsufficientDataError("normalization needs at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(y.mean())
        variance = float(((y - mean) ** 2).mean())
    if not math.isfinite(variance):  # an overflowed mean makes the variance NaN too
        raise InvalidDataError("cannot normalize: the series' mean or variance overflows")
    if variance == 0.0:
        raise InvalidDataError("cannot normalize a zero-variance series")
    return (y - mean) / math.sqrt(variance)


# ---------------------------------------------------------------------------
# Query pipeline


@dataclass(frozen=True)
class RunConfig:
    """One CLI run: segmentation parameters plus pipeline options."""

    segmentation: SegmentationConfig
    normalize: bool = False
    rules_text: str | None = None
    delay: int = 1
    epsilon: float = 1e-9

    @cached_property
    def rules(self) -> tuple[FisConfig, dict[str, str]]:
        """The inference system and the record key of each input it reads,
        with delay and epsilon checked; built once, on first use."""
        if self.rules_text is None:
            raise InvalidConfigError("run_query needs rules_text")
        fis = to_fis(parse(self.rules_text))
        key_map = {
            name: resolve_feature_name(name, self.segmentation.degree, self.delay)
            for name in fis.input_variables_referenced()
        }
        check_real("epsilon", self.epsilon, 0)
        return fis, key_map


@dataclass(frozen=True)
class ScoredSegment:
    segment: Segment
    score: float
    degenerate: bool


@dataclass(frozen=True)
class SkippedSegment:
    segment_index: int
    missing: tuple[str, ...]


@dataclass(frozen=True)
class QueryResult:
    """Scored segments (score descending, index ascending) plus skip report."""

    scored: tuple[ScoredSegment, ...]
    skipped: tuple[SkippedSegment, ...]
    segmentation: Segmentation


def run_query(series, config: RunConfig) -> QueryResult:
    """Segment a series, build features, and score every scorable segment.

    Segments whose referenced features are missing are skipped and reported,
    never scored.  Rule-file, feature-name, delay and epsilon errors, from
    ``config.rules``, are raised before the series is normalized or segmented.
    """
    fis, key_map = config.rules
    y = normalize(series) if config.normalize else series
    segmentation = segment_series(y, config.segmentation)
    records = build_records(segmentation, d=config.delay, epsilon=config.epsilon)
    scored: list[ScoredSegment] = []
    skipped: list[SkippedSegment] = []
    for segment, record in zip(segmentation.segments, records):
        missing = tuple(key for key in key_map.values() if record.get(key) is None)
        if missing:
            skipped.append(SkippedSegment(segment.index, missing))
            continue
        result = infer(fis, {name: record[key] for name, key in key_map.items()})
        scored.append(ScoredSegment(segment, result.score, result.degenerate))
    scored.sort(key=lambda s: (-s.score, s.segment.index))
    return QueryResult(tuple(scored), tuple(skipped), segmentation)


# ---------------------------------------------------------------------------
# Output helpers


SEGMENT_COLUMNS = ["index", "start", "end", "length", "closed_by"]


def _fmt(value: float) -> str:
    return repr(float(value))


def _segment_json(segment: Segment) -> dict:
    return {
        "index": segment.index,
        "start": segment.start,
        "end": segment.end,
        "length": segment.length,
        "closed_by": segment.closed_by.value,
        "alpha": None if segment.alpha is None else [float(a) for a in segment.alpha.alpha],
    }


def _segment_row(fields: dict, degree: int) -> list:
    return [fields[name] for name in SEGMENT_COLUMNS] + (fields["alpha"] or [None] * (degree + 1))


def _alpha_header(orders) -> list[str]:
    return [f"alpha_{k}" for k in orders]


def _cell(value) -> str:
    """One CSV cell: a float in full precision, a bool as 1/0, None blank."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _emit(
    fmt: str, payload: dict, header: list[str], rows: list[list], notes=()
) -> None:
    """Write the payload as JSON, or the header and rows as CSV to stdout.

    In CSV the notes (skipped, unmatched or excluded items) go to stderr, one
    per line; JSON carries the same items inside its payload.
    """
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    for note in notes:
        print(note, file=sys.stderr)


def _plot_dir(args) -> Path | None:
    """The ``--plot-dir`` directory, made before any series is read; None without the flag."""
    if not args.plot_dir:
        return None
    out = Path(args.plot_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidConfigError(f"cannot use --plot-dir {out}: {exc}") from None
    return out


def _write_plot_file(path: Path, lines) -> None:
    """Write one plot data file as UTF-8; one that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {path}: {exc}") from None


def _fit_lines(segmentation: Segmentation):
    for segment in segmentation.segments:
        if segment.alpha is None:
            continue
        basis = build_basis(segment.alpha.window_len, segment.alpha.degree)
        fitted = evaluate(segment.alpha, basis, np.arange(segment.length))
        for x, y in enumerate(fitted, start=segment.start):
            yield f"{x} {_fmt(y)}\n"


def _write_plot_data(
    out: Path,
    series: np.ndarray,
    segmentation: Segmentation,
    scores: dict[int, float] | None = None,
) -> None:
    """The ``--plot-dir`` files, written before any table so a failure leaves stdout empty."""
    _write_plot_file(out / "series.dat", (f"{x} {_fmt(y)}\n" for x, y in enumerate(series)))
    _write_plot_file(out / "boundaries.dat", (f"{cp}\n" for cp in segmentation.change_points))
    _write_plot_file(out / "fit.dat", _fit_lines(segmentation))
    if scores is not None:
        _write_plot_file(out / "scores.dat", (f"{i} {_fmt(scores[i])}\n" for i in sorted(scores)))


# ---------------------------------------------------------------------------
# Subcommands


def _load_series(args) -> np.ndarray:
    series = ingest(args.input)
    if args.normalize:
        series = normalize(series)
    return series


def _segmentation_from_args(args) -> SegmentationConfig:
    return SegmentationConfig(
        degree=args.degree,
        th_dpu=args.th_dpu,
        th_sss=args.th_sss,
        sss_mode=SlopeSignMode(args.sss_mode),
        sss_deadband=args.sss_deadband,
        min_segment_len=args.min_segment_len,
        tail_policy=TailPolicy(args.tail_policy),
    )


def _run_config(args, rules_text: str) -> RunConfig:
    return RunConfig(
        segmentation=_segmentation_from_args(args),
        normalize=args.normalize,
        rules_text=rules_text,
        delay=args.delay,
        epsilon=args.epsilon,
    )


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FCPD_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InvalidConfigError(f"FCPD_SEED must be an integer, got {env!r}") from None


def _cmd_segment(args) -> int:
    plot_dir = _plot_dir(args)
    series = _load_series(args)
    config = _segmentation_from_args(args)
    segmentation = segment_series(series, config)
    if plot_dir:
        _write_plot_data(plot_dir, series, segmentation)
    segments = [_segment_json(s) for s in segmentation.segments]
    _emit(
        args.format,
        {
            "segments": segments,
            "change_points": list(segmentation.change_points),
        },
        SEGMENT_COLUMNS + _alpha_header(range(config.degree + 1)),
        [_segment_row(s, config.degree) for s in segments],
    )
    return EXIT_OK


def _cmd_query(args) -> int:
    config = _run_config(args, _read_text(args.rules, InvalidConfigError, "rules file "))
    plot_dir = _plot_dir(args)
    series = ingest(args.input)
    result = run_query(series, config)
    if plot_dir:
        _write_plot_data(
            plot_dir,
            normalize(series) if args.normalize else series,
            result.segmentation,
            scores={s.segment.index: s.score for s in result.scored},
        )
    degree = config.segmentation.degree
    segments = [
        {**_segment_json(s.segment), "score": s.score, "degenerate": s.degenerate}
        for s in result.scored
    ]
    _emit(
        args.format,
        {
            "segments": segments,
            "skipped": [
                {"index": s.segment_index, "missing": list(s.missing)} for s in result.skipped
            ],
        },
        SEGMENT_COLUMNS + _alpha_header(range(degree + 1)) + ["score"],
        [_segment_row(s, degree) + [s["score"]] for s in segments],
        [
            f"skipped segment {s.segment_index}: missing {', '.join(s.missing)}"
            for s in result.skipped
        ],
    )
    return EXIT_OK


def _cmd_cluster(args) -> int:
    series = _load_series(args)
    # kmeans_segments checks these too, but only once the series is segmented.
    seed = check_int("seed", _resolve_seed(args), 0)
    k = check_int("k", args.clusters, 1)
    config = _segmentation_from_args(args)
    if config.degree < max(_CLUSTER_PAIR):
        raise InvalidConfigError(
            f"--degree must be >= {max(_CLUSTER_PAIR)} for cluster, got {config.degree}"
        )
    segmentation = segment_series(series, config)
    result = kmeans_segments(segmentation, k=k, seed=seed, feature_pair=_CLUSTER_PAIR)
    members = [
        (segmentation.segments[index], cluster, index in result.representatives)
        for index, cluster in zip(result.segment_indices, result.assignments)
    ]
    notes = []
    if result.excluded:
        notes.append(
            f"excluded segments without coefficients: "
            f"{', '.join(str(i) for i in result.excluded)}"
        )
    _emit(
        args.format,
        {
            "segments": [
                {
                    "index": s.index,
                    "start": s.start,
                    "end": s.end,
                    "cluster": cluster,
                    "representative": representative,
                }
                for s, cluster, representative in members
            ],
            "centroids": [[float(v) for v in row] for row in result.centroids],
            "representatives": list(result.representatives),
            "excluded": list(result.excluded),
            "inertia": result.inertia,
        },
        ["index", "start", "end", "length", *_alpha_header(_CLUSTER_PAIR),
         "cluster", "representative"],
        [
            [s.index, s.start, s.end, s.length, *(s.alpha.alpha[k] for k in _CLUSTER_PAIR),
             cluster, representative]
            for s, cluster, representative in members
        ],
        notes,
    )
    return EXIT_OK


def _sensitivity_one(path: Path, config: RunConfig):
    series = ingest(str(path))
    result = run_query(series, config)
    if not result.scored:
        raise InsufficientDataError(f"{path.name}: no scorable segments")
    report = sensitivity_bounds(
        [s.score for s in result.scored],
        segment_count=len(result.segmentation.segments),
    )
    return path.name, report


def _cmd_sensitivity(args) -> int:
    config = _run_config(args, _read_text(args.rules, InvalidConfigError, "rules file "))
    root = Path(args.input)
    if root.is_dir():
        files = sorted(p for p in root.iterdir() if p.is_file())
        if not files:
            raise InvalidDataError(f"directory {args.input} holds no series files")
    else:
        files = [root]
    results = [_sensitivity_one(p, config) for p in files]
    overall = aggregate_sensitivity([report for _, report in results])
    # Keys in CSV column order: each dict is also the file's CSV row.
    series = [
        {
            "name": name,
            "mean_upper": r.mean_upper,
            "mean_lower": r.mean_lower,
            "upper_count": r.upper_count,
            "lower_count": r.lower_count,
            "segments": r.segment_count,
        }
        for name, r in results
    ]
    _emit(
        args.format,
        {
            "series": series,
            "aggregate": {
                "mean_upper": overall.mean_upper,
                "mean_lower": overall.mean_lower,
                "mean_segments": overall.segment_count,
            },
        },
        ["series", "mean_upper", "mean_lower", "upper_count", "lower_count", "segments"],
        [list(row.values()) for row in series]
        + [["MEAN", overall.mean_upper, overall.mean_lower, None, None, overall.segment_count]],
    )
    return EXIT_OK


def _cmd_generate(args) -> int:
    anomalies = () if args.no_anomalies else DEFAULT_ANOMALIES
    series = generate_cycle(
        n=args.length, period=args.period, seed=_resolve_seed(args), anomalies=anomalies
    )
    for value in series:
        sys.stdout.write(f"{_fmt(value)}\n")
    return EXIT_OK


def _read_indices(path: str) -> list[float]:
    return [_parse_number(line, lineno, "index") for lineno, line in _lines(_read_text(path))]


def _cmd_offsets(args) -> int:
    result = change_point_offsets(_read_indices(args.reference), _read_indices(args.candidate))
    _emit(
        args.format,
        {
            "pairs": [[r, c] for r, c in result.pairs],
            "offsets": list(result.offsets),
            "unmatched_reference": list(result.unmatched_reference),
            "unmatched_candidate": list(result.unmatched_candidate),
        },
        ["reference", "candidate", "offset"],
        [[ref, cand, offset] for (ref, cand), offset in zip(result.pairs, result.offsets)],
        [f"unmatched reference boundary: {_fmt(ref)}" for ref in result.unmatched_reference]
        + [f"unmatched candidate boundary: {_fmt(cand)}" for cand in result.unmatched_candidate],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


# The flags' defaults are the library's own, read when a parser is built.
def _add_segmentation_flags(parser: argparse.ArgumentParser) -> None:
    add, config = parser.add_argument, SegmentationConfig
    add("--degree", type=int, default=config.degree, help="fit degree K (default %(default)s)")
    add("--th-dpu", type=float, default=None, help="deviation threshold")
    add("--th-sss", type=int, default=None, help="slope-sign-switch threshold")
    add("--sss-mode", choices=[m.value for m in SlopeSignMode], default=config.sss_mode.value,
        help="slope definition for sign switches (default %(default)s)")
    add("--sss-deadband", type=float, default=config.sss_deadband,
        help="slope deadband (default %(default)s)")
    add("--min-segment-len", type=int, default=None)
    add("--tail-policy", choices=[p.value for p in TailPolicy], default=config.tail_policy.value,
        help="emit or drop the unfinished tail segment (default %(default)s)")
    add("--normalize", action="store_true", help="normalize to mean 0 / variance 1 first")


def _add_rule_flags(parser: argparse.ArgumentParser) -> None:
    add, config = parser.add_argument, RunConfig
    add("--rules", required=True, help="rule file (.fcq)")
    add("--delay", type=int, default=config.delay, help="variation delay d (default %(default)s)")
    add("--epsilon", type=float, default=config.epsilon, help="variation denominator guard")


def _add_output_flags(parser: argparse.ArgumentParser, plot: bool = False) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    if plot:
        parser.add_argument("--plot-dir", default=None, help="write plot data files here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcpd",
        description="On-line change-point segmentation with fuzzy relevance queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_segment = sub.add_parser("segment", help="segment a series")
    p_segment.add_argument("input", help="series CSV path, or - for stdin")
    _add_segmentation_flags(p_segment)
    _add_output_flags(p_segment, plot=True)
    p_segment.set_defaults(func=_cmd_segment)

    p_query = sub.add_parser("query", help="segment and score against a rule file")
    p_query.add_argument("input", help="series CSV path, or - for stdin")
    _add_rule_flags(p_query)
    _add_segmentation_flags(p_query)
    _add_output_flags(p_query, plot=True)
    p_query.set_defaults(func=_cmd_query)

    p_cluster = sub.add_parser("cluster", help="k-means over segment slope/curvature")
    p_cluster.add_argument("input", help="series CSV path, or - for stdin")
    p_cluster.add_argument("--clusters", type=int, default=4)
    p_cluster.add_argument("--seed", type=int, default=None)
    _add_segmentation_flags(p_cluster)
    _add_output_flags(p_cluster)
    p_cluster.set_defaults(func=_cmd_cluster)

    p_sens = sub.add_parser("sensitivity", help="score bounds for a series file or directory")
    p_sens.add_argument("input", help="series CSV path or a directory of series files")
    _add_rule_flags(p_sens)
    _add_segmentation_flags(p_sens)
    _add_output_flags(p_sens)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_gen = sub.add_parser("generate", help="emit a seeded synthetic cyclic series")
    p_gen.add_argument("--length", type=int, default=2000)
    p_gen.add_argument("--period", type=float, default=200.0)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--no-anomalies", action="store_true")
    p_gen.set_defaults(func=_cmd_generate)

    p_off = sub.add_parser("offsets", help="pair reference and candidate boundary lists")
    p_off.add_argument("reference", help="file of boundary indices, one per line")
    p_off.add_argument("candidate", help="file of boundary indices, one per line")
    _add_output_flags(p_off)
    p_off.set_defaults(func=_cmd_offsets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
