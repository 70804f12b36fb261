#!/usr/bin/env python3
"""fcpd benchmark: three workloads, each checked against an independent oracle.

    python3 perfbench/run.py --workload crime_cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from ``src``.
Workloads (see README.md): ``crime_cli``, ``stream_online``,
``sensitivity_many``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates plain and traced rounds and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The load is one closed-loop client: each program process starts only after
the previous one has exited, so at most one runs at a time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from inputs import crime_series, district_counts, rng_for, sensor_stream

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
QUERIES = ROOT / "queries"
OUT = BENCH / "out"

CLI = [sys.executable, "-c", "import sys; from fcpd.cli_io import main; sys.exit(main())"]
IMPORT_TIME = [sys.executable, "-c",
               "import time; t = time.perf_counter(); import fcpd; print(repr(time.perf_counter() - t))"]
PROGRAM = [sys.executable, str(BENCH / "program.py")]
IMPORT_STARTS = 11
TIMEOUT_S = 120

# crime_cli: four daily series of 14 years, two rule files, csv/json alternating.
CRIME_SERIES = 4
CRIME_DAYS = 5114
CRIME_RULES = ("graded_variation", "trend_watch")
CRIME_CRIT = oracle.Criteria(degree=5, min_len=6, th_dpu=12.0)
# stream_online: one long quiet series, degree 7, threshold 8 sigma.
STREAM_N = 15_000
STREAM_GAP = (2000, 5000)
STREAM_CRIT = oracle.Criteria(degree=7, min_len=8, th_dpu=8.0)
# sensitivity_many: per-district weekly counts, SSS in first-diff mode.
DISTRICTS = 8
WEEKS = 800
SENS_CRIT = oracle.Criteria(degree=5, min_len=8, th_sss=1, deadband=0.01)
SENS_RULES = "graded_variation"
SEGMENT_CHECKS = 2  # files per run whose `fcpd segment` output is also checked


@dataclass
class Call:
    seconds: float
    code: int | None
    stdout: str
    stderr: str


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("FCPD_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def call(args: list[str], timeout: float = TIMEOUT_S) -> Call:
    """Run one program process to completion; its wall time includes start-up."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, env=program_env())
    except subprocess.TimeoutExpired as exc:
        return Call(time.perf_counter() - t0, None, "", f"timed out: {exc}")
    return Call(time.perf_counter() - t0, done.returncode, done.stdout, done.stderr)


def import_seconds() -> float:
    """Median time for a fresh interpreter to import fcpd, after one warm-up start."""
    call(IMPORT_TIME)
    times = []
    for _ in range(IMPORT_STARTS):
        done = call(IMPORT_TIME)
        if done.code != 0:
            raise SystemExit(f"error: cannot import fcpd from {SRC}: {done.stderr.strip()}")
        times.append(float(done.stdout))
    return statistics.median(times)


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)


def median(values) -> float:
    return float(statistics.median(values))


def write_series(path: Path, values: np.ndarray, header: str, indexed: bool) -> None:
    lines = [header]
    if indexed:
        lines += [f"{i},{int(v)}" for i, v in enumerate(values)]
    else:
        lines += [f"{int(v)}" for v in values]
    path.write_text("\n".join(lines) + "\n")


def read_trace(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Per-layer metrics from traces


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(traces: list[dict], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced processes; counts are per round.

    cli_io.emit_ms is derived: main()'s self time, its duration minus the
    part its child spans (ingest, run_query, sensitivity_bounds) cover.
    """
    spans: dict[str, list[float]] = {}
    emit: list[float] = []
    durations: dict[str, list[int]] = {}
    counts: dict[str, float] = {}
    for trace in traces:
        rows = trace["spans"]
        for sid, name, t0, t1, parent in rows:
            spans.setdefault(name, []).append(t1 - t0)
        for sid, name, t0, t1, parent in rows:
            if name == "cli_io.main":
                children = [(a, b) for _, _, a, b, p in rows if p == sid]
                emit.append(t1 - t0 - _union_ns(children))
        for name, values in trace["durations_ns"].items():
            durations.setdefault(name, []).extend(values)
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value

    m: dict[str, tuple[float, str]] = {}

    def ms(name, key):
        if key in spans:
            m[name] = (median(spans[key]) / 1e6, "ms")

    def us(name, key, source):
        if key in source:
            m[name] = (median(source[key]) / 1e3, "us")

    ms("cli_io.ingest_ms", "cli_io.ingest")
    ms("cli_io.run_query_ms", "cli_io.run_query")
    if emit:
        m["cli_io.emit_ms"] = (median(emit) / 1e6, "ms")
    ms("segmentation.segment_series_ms", "segmentation.segment_series")
    ms("features.build_records_ms", "features.build_records")
    ms("query_dsl.parse_ms", "query_dsl.parse")
    ms("query_dsl.to_fis_ms", "query_dsl.to_fis")
    us("fuzzy_inference.infer_us", "fuzzy_inference.infer", spans)
    us("analysis_toolkit.sensitivity_bounds_us", "analysis_toolkit.sensitivity_bounds", spans)
    us("shape_space.build_basis_us", "shape_space.build_basis", durations)
    us("segmentation.push_us", "segmentation.push", durations)
    if "segmentation.push" in durations:
        m["segmentation.push_p99_us"] = (
            float(np.percentile(durations["segmentation.push"], 99)) / 1e3, "us")
    samples = counts.get("segmentation.samples", 0)
    if samples:
        m["segmentation.us_per_sample"] = (
            sum(spans["segmentation.segment_series"]) / 1e3 / samples, "us")
        m["segmentation.samples"] = (samples / rounds, "count")
        segments = counts.get("segmentation.segments", 0)
        m["segmentation.segments"] = (segments / rounds, "count")
        m["segmentation.closed_dpu"] = (counts.get("segmentation.closed_dpu", 0) / rounds, "count")
        m["segmentation.closed_sss"] = (counts.get("segmentation.closed_sss", 0) / rounds, "count")
        m["segmentation.mean_segment_len"] = (samples / segments, "samples")
    if "features.build_records" in spans:
        records = counts.get("features.records", 0)
        m["features.records"] = (records / rounds, "count")
        m["fuzzy_inference.infer_calls"] = (
            len(spans.get("fuzzy_inference.infer", [])) / rounds, "count")
        m["fuzzy_inference.scored_share"] = (
            counts.get("fuzzy_inference.scored", 0) / max(1, records), "ratio")
        m["fuzzy_inference.degenerate"] = (
            counts.get("fuzzy_inference.degenerate", 0) / rounds, "count")
    return m


def probe_metrics(work: Path, values: np.ndarray, degree: int) -> dict[str, tuple[float, str]]:
    """window_grow at lengths 100 and 10 000, and a traced query on a prefix.

    The query probe covers layers a workload's own path does not reach; its
    figures fill only the per-layer metrics the path left unmeasured.
    """
    np.save(work / "probe.npy", values)
    write_series(work / "probe.csv", values[:1500], "value", indexed=False)
    trace_path = work / "probe-trace.json"
    done = call(PROGRAM + [
        "probe", "--input", str(work / "probe.npy"), "--degree", str(degree),
        "--trace", str(trace_path), "--query",
        "query", str(work / "probe.csv"), "--rules", str(QUERIES / f"{SENS_RULES}.fcq"),
        "--degree", "5", "--th-sss", "1", "--sss-mode", "first-diff", "--min-segment-len", "8",
    ])
    if done.code != 0:
        raise SystemExit(f"error: probe failed: {done.stderr.strip()}")
    trace = read_trace(trace_path)
    m = layer_metrics([trace], 1)
    for length, value in trace["window_grow_us"].items():
        m[f"shape_space.window_grow_us.{length}"] = (value, "us")
    return m


def per_layer(traces: list[dict], rounds: int, overhead_s: float, import_s: float,
              work: Path, values: np.ndarray, degree: int) -> dict[str, tuple[float, str]]:
    """The traced run's report: the workload's own layers, the probe for the rest."""
    path = layer_metrics(traces, rounds)
    path["trace.overhead_s"] = (overhead_s, "s")
    path["cli_io.import_s"] = (import_s, "s")
    return {**probe_metrics(work, values, degree), **path}


def end_to_end(setup_s: float, wall_s: float, op_p50_ms: float) -> dict[str, tuple[float, str]]:
    """The plain run's report; peak_rss_mb is added once every process has ended."""
    return {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"), "op_p50_ms": (op_p50_ms, "ms")}


# ---------------------------------------------------------------------------
# Output parsing


def parse_query(fmt: str, stdout: str, stderr: str) -> dict:
    """Scored segments in output order, and skipped index -> missing keys."""
    if fmt == "json":
        doc = json.loads(stdout)
        scored = [
            {k: s[k] for k in ("index", "start", "end", "closed_by", "alpha", "score", "degenerate")}
            for s in doc["segments"]
        ]
        skipped = {s["index"]: tuple(s["missing"]) for s in doc["skipped"]}
        return {"scored": scored, "skipped": skipped}
    rows = list(csv.reader(io.StringIO(stdout)))
    header = rows[0]
    alpha_cols = [i for i, h in enumerate(header) if h.startswith("alpha_")]
    scored = []
    for row in rows[1:]:
        scored.append({
            "index": int(row[0]), "start": int(row[1]), "end": int(row[2]),
            "closed_by": row[4],
            "alpha": [float(row[i]) for i in alpha_cols] if row[alpha_cols[0]] else None,
            "score": float(row[header.index("score")]),
        })
    skipped = {}
    for line in stderr.splitlines():
        match = re.fullmatch(r"skipped segment (\d+): missing (.*)", line)
        if match:
            skipped[int(match.group(1))] = tuple(match.group(2).split(", "))
    return {"scored": scored, "skipped": skipped}


def all_segments(y: np.ndarray, reported: dict, crit: oracle.Criteria) -> tuple[list[dict], list[str]]:
    """Every segment in index order, placing skipped ones between their neighbours.

    Skipped segments are reported without a range or closing reason.  One
    that is not followed by a scored segment ends where the oracle's own
    closing rule says; the reason is the criterion that trips at its end.
    """
    known = {s["index"]: s for s in reported["scored"]}
    indices = set(known) | set(reported["skipped"])
    count = len(known) + len(reported["skipped"])
    if indices != set(range(count)) or set(known) & set(reported["skipped"]):
        return [], [f"segment indices {sorted(indices)} are not 0..{count - 1} exactly once"]
    segments = []
    start = 0
    for i in range(count):
        if i in known:
            seg = known[i]
        else:
            end = known[i + 1]["start"] - 1 if i + 1 in known else oracle.first_close(y, start, crit)
            closes = end - start + 1 >= crit.min_len and oracle.tripped(y[start : end + 1], crit)
            reason = closes or "END_OF_STREAM"
            seg = {"start": start, "end": end, "closed_by": reason}
        segments.append(seg)
        start = seg["end"] + 1
    return segments, []


def parse_sensitivity(fmt: str, stdout: str) -> tuple[dict[str, oracle.Bounds], oracle.Bounds]:
    if fmt == "json":
        doc = json.loads(stdout)
        rows = {
            s["name"]: oracle.Bounds(s["mean_upper"], s["mean_lower"], s["upper_count"],
                                     s["lower_count"], s["segments"])
            for s in doc["series"]
        }
        agg = doc["aggregate"]
        return rows, oracle.Bounds(agg["mean_upper"], agg["mean_lower"], 0, 0, agg["mean_segments"])
    lines = list(csv.reader(io.StringIO(stdout)))[1:]
    rows = {
        r[0]: oracle.Bounds(float(r[1]), float(r[2]), int(r[3]), int(r[4]), int(r[5]))
        for r in lines[:-1]
    }
    last = lines[-1]
    if last[0] != "MEAN":
        raise ValueError("no MEAN row")
    return rows, oracle.Bounds(float(last[1]), float(last[2]), 0, 0, int(last[5]))


# ---------------------------------------------------------------------------
# Workloads


def crime_cli(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    """A fixed batch of `fcpd query` invocations, each in a fresh interpreter."""
    rng = rng_for("crime_cli", seed)
    series = [crime_series(rng, CRIME_DAYS).counts for _ in range(CRIME_SERIES)]
    paths = []
    for i, y in enumerate(series):
        paths.append(work / f"crime_{i}.csv")
        write_series(paths[-1], y, "day,count", indexed=True)
    batch = [(i, r, "csv" if (i + r) % 2 == 0 else "json")
             for i in range(CRIME_SERIES) for r in range(len(CRIME_RULES))]
    run = Run()
    setup_s = import_seconds()

    op_s: list[float] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    outputs: dict[tuple, None] = {}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and rounds % 2 == 1
        t_round = time.perf_counter()
        for i, r, fmt in batch:
            argv = ["query", str(paths[i]), "--rules", str(QUERIES / f"{CRIME_RULES[r]}.fcq"),
                    "--degree", str(CRIME_CRIT.degree), "--th-dpu", repr(CRIME_CRIT.th_dpu),
                    "--format", fmt]
            trace_path = work / f"trace-{rounds}-{i}-{r}.json"
            done = call(PROGRAM + ["cli", "--trace", str(trace_path), "--"] + argv
                        if traced else CLI + argv)
            run.attempted += 1
            if done.code != 0:
                run.failed += 1
                run.problems.append(f"query {i}/{CRIME_RULES[r]} exited {done.code}: {done.stderr[-300:]}")
                continue
            if traced:
                run.traces.append(read_trace(trace_path))
            else:
                op_s.append(done.seconds)
            outputs[(i, r, fmt, done.stdout, done.stderr)] = None
        walls[traced].append(time.perf_counter() - t_round)
        rounds += 1

    check_rng = rng_for("crime_cli-check", seed)
    parsed_rules = [oracle.parse_rules((QUERIES / f"{r}.fcq").read_text()) for r in CRIME_RULES]
    segmentation_checked: dict[tuple, list[str]] = {}
    for i, r, fmt, stdout, stderr in outputs:
        where = f"query {i}/{CRIME_RULES[r]}/{fmt}"
        try:
            reported = parse_query(fmt, stdout, stderr)
        except (ValueError, KeyError, IndexError) as exc:
            run.problems.append(f"{where}: unreadable output: {exc!r}")
            continue
        segments, problems = all_segments(series[i], reported, CRIME_CRIT)
        if not problems:
            key = (i, json.dumps(segments, sort_keys=True))
            if key not in segmentation_checked:
                segmentation_checked[key] = oracle.segmentation_problems(
                    series[i], segments, CRIME_CRIT, check_rng)
            problems = segmentation_checked[key]
        if not problems:
            bounds = [(s["start"], s["end"]) for s in segments]
            expected = oracle.expected_scores(series[i], bounds, parsed_rules[r], CRIME_CRIT.degree)
            problems = oracle.query_problems(reported, expected)
        run.problems += [f"{where}: {p}" for p in problems[:5]]

    if trace:
        run.metrics = per_layer(run.traces, len(walls[True]), median(walls[True]) - median(walls[False]),
                                setup_s, work, series[0], CRIME_CRIT.degree)
    else:
        run.metrics = end_to_end(setup_s, median(walls[False]), median(op_s) * 1e3)
    return run


def stream_online(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    """One SegmentStream fed one sample at a time, back to back."""
    rng = rng_for("stream_online", seed)
    stream = sensor_stream(rng, STREAM_N, STREAM_GAP, sigma=1.0)
    np.save(work / "stream.npy", stream.values)
    run = Run()
    setup_s = import_seconds()

    out_path = work / "stream-result.json"
    trace_path = work / "stream-trace.json"
    args = PROGRAM + ["stream", "--input", str(work / "stream.npy"), "--out", str(out_path),
                      "--seconds", repr(seconds), "--degree", str(STREAM_CRIT.degree),
                      "--th-dpu", repr(STREAM_CRIT.th_dpu)]
    if trace:
        args += ["--trace", str(trace_path)]
    done = call(args, timeout=seconds + TIMEOUT_S)
    if done.code != 0:
        run.attempted, run.failed = 1, 1
        run.problems.append(f"stream process exited {done.code}: {done.stderr[-300:]}")
        return run
    result = json.loads(out_path.read_text())
    run.attempted, run.failed = result["attempted"], result["failed"]

    if not result["rounds_equal"]:
        run.problems.append("rounds of the same stream segmented differently")
    if not result["stream_equals_batch"]:
        run.problems.append("push replay differs from segment_series")
    segments = result["segments"]
    run.problems += oracle.segmentation_problems(
        stream.values, segments, STREAM_CRIT, rng_for("stream_online-check", seed))[:5]
    ends = {s["end"] for s in segments[:-1]}
    missed = [s for s in stream.shifts if s not in ends]
    if missed:
        run.problems.append(f"no change point at level shifts {missed}")

    plain = median(result["plain_walls_s"])
    if trace:
        run.traces.append(read_trace(trace_path))
        run.metrics = per_layer(run.traces, 1, median(result["other_walls_s"]) - plain,
                                setup_s, work, stream.values, STREAM_CRIT.degree)
    else:
        run.metrics = end_to_end(setup_s + result["setup_s"], plain,
                                 median(result["push_p50_ns"]) / 1e6)
    return run


def sensitivity_many(seed: int, seconds: float, trace: bool, work: Path) -> Run:
    """One `fcpd sensitivity` invocation over a directory of short count series."""
    rng = rng_for("sensitivity_many", seed)
    series = district_counts(rng, DISTRICTS, WEEKS)
    folder = work / "districts"
    folder.mkdir()
    names = [f"district_{k:02d}.csv" for k in range(DISTRICTS)]
    for name, y in zip(names, series):
        write_series(folder / name, y, "count", indexed=False)
    rules_path = QUERIES / f"{SENS_RULES}.fcq"
    rules = oracle.parse_rules(rules_path.read_text())
    crit_args = ["--degree", str(SENS_CRIT.degree), "--th-sss", str(SENS_CRIT.th_sss),
                 "--sss-mode", "first-diff", "--min-segment-len", str(SENS_CRIT.min_len)]
    run = Run()
    setup_s = import_seconds()

    op_s: list[float] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    outputs: dict[tuple, None] = {}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and rounds % 2 == 1
        fmt = ("csv", "json")[(rounds // (2 if trace else 1)) % 2]
        argv = ["sensitivity", str(folder), "--rules", str(rules_path), *crit_args, "--format", fmt]
        trace_path = work / f"trace-{rounds}.json"
        done = call(PROGRAM + ["cli", "--trace", str(trace_path), "--"] + argv
                    if traced else CLI + argv)
        rounds += 1
        run.attempted += 1
        if done.code != 0:
            run.failed += 1
            run.problems.append(f"sensitivity exited {done.code}: {done.stderr[-300:]}")
            continue
        walls[traced].append(done.seconds)
        if traced:
            run.traces.append(read_trace(trace_path))
        else:
            op_s.append(done.seconds)
        outputs[(fmt, done.stdout)] = None

    want_rows = {}
    for name, y in zip(names, series):
        segs = oracle.sss_segments(y, SENS_CRIT.th_sss, SENS_CRIT.min_len, SENS_CRIT.deadband)
        expected = oracle.expected_scores(y, [(s, e) for s, e, _ in segs], rules, SENS_CRIT.degree)
        scores = [e.score for e in expected if e.score is not None]
        want_rows[name] = oracle.sensitivity(scores, len(segs))
    want_mean = oracle.mean_bounds(list(want_rows.values()))
    for fmt, stdout in outputs:
        try:
            rows, mean = parse_sensitivity(fmt, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            run.problems.append(f"sensitivity/{fmt}: unreadable output: {exc!r}")
            continue
        if list(rows) != names:
            run.problems.append(f"sensitivity/{fmt}: rows {list(rows)}, expected {names}")
            continue
        for name in names:
            run.problems += oracle.bounds_problems(f"{fmt} {name}", rows[name], want_rows[name])
        run.problems += oracle.bounds_problems(f"{fmt} MEAN", mean, want_mean, counts=False)

    # Outside the timed section: the segments behind the rows, for a seeded
    # choice of files, against the oracle's own slope-sign-switch boundaries.
    check_rng = rng_for("sensitivity_many-check", seed)
    for k in sorted(check_rng.choice(DISTRICTS, SEGMENT_CHECKS, replace=False)):
        done = call(CLI + ["segment", str(folder / names[k]), *crit_args, "--format", "json"])
        if done.code != 0:
            run.problems.append(f"segment {names[k]} exited {done.code}: {done.stderr[-300:]}")
            continue
        segments = json.loads(done.stdout)["segments"]
        y = series[k]
        run.problems += [f"{names[k]}: {p}" for p in oracle.segmentation_problems(
            y, segments, SENS_CRIT, check_rng)[:5]]
        want = oracle.sss_segments(y, SENS_CRIT.th_sss, SENS_CRIT.min_len, SENS_CRIT.deadband)
        got = [(s["start"], s["end"], s["closed_by"]) for s in segments]
        if got != want:
            run.problems.append(f"{names[k]}: segments differ from the oracle's boundaries")

    if trace:
        run.metrics = per_layer(run.traces, len(walls[True]), median(walls[True]) - median(walls[False]),
                                setup_s, work, series[0], SENS_CRIT.degree)
    else:
        run.metrics = end_to_end(setup_s, median(walls[False]), median(op_s) * 1e3)
    return run


WORKLOADS = {
    "crime_cli": crime_cli,
    "stream_online": stream_online,
    "sensitivity_many": sensitivity_many,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "fcpd" / "__init__.py", QUERIES / f"{SENS_RULES}.fcq") if not p.is_file()]
    if missing:
        print(f"error: not a source checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        run.metrics["peak_rss_mb"] = (rss, "MB")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.traces:
        with open(OUT / f"trace-{tag}.jsonl", "w") as fh:
            for request, trace in enumerate(run.traces):
                for sid, name, t0, t1, parent in trace["spans"]:
                    fh.write(json.dumps({"request": request, "id": sid, "name": name,
                                         "start_ns": t0, "end_ns": t1, "parent": parent}) + "\n")
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"workload {args.workload}: attempted {run.attempted}, failed {run.failed}")
    for name, (value, unit) in sorted(run.metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
