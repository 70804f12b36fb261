"""Program-side driver: the only benchmark file that imports fcpd.

Run by ``run.py`` as a child process, one at a time, with ``src`` on
PYTHONPATH:

    program.py cli --trace F -- ARGS...    run ``fcpd ARGS`` in-process, traced
    program.py stream --input X.npy ...    replay a series through SegmentStream.push
    program.py probe --input X.npy ... --query ARGS...   per-layer probes, traced

Tracing wraps the package's public functions from the outside: spans for
calls made a few times per run, and bare durations for the per-sample calls
(push, window_grow, build_basis).  Everything is kept in memory and written
to one JSON file when the process ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

# window_grow calls timed one by one at each probed window length.
PROBE_CALLS = 1000


class Tracer:
    """Spans (id, name, start_ns, end_ns, parent) and per-call durations."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.durations: dict[str, array] = {}
        self.counts: dict[str, float] = {}
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name, fn, inspect=None):
        """Wrap ``fn`` so that each call records a span.

        Calls from pool threads, which have no span open, are children of
        the root span.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self.root
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
            if inspect is not None:
                inspect(result)
            return result

        return traced

    def timed(self, name, fn):
        """Wrap a per-sample ``fn``: durations only, no span objects."""
        out = self.durations.setdefault(name, array("q"))
        clock = time.perf_counter_ns

        def timed_call(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            out.append(clock() - t0)
            return result

        return timed_call

    def run_root(self, name, fn, *args):
        sid = next(self._ids)
        self.root = sid
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, t0, t1, None))

    def dump(self, path: str, **extra) -> None:
        payload = {
            "spans": self.spans,
            "durations_ns": {k: list(v) for k, v in self.durations.items()},
            "counts": self.counts,
            **extra,
        }
        Path(path).write_text(json.dumps(payload))


def _on_segmentation(tracer: Tracer):
    def inspect(seg) -> None:
        tracer.count("segmentation.samples", sum(s.length for s in seg.segments))
        tracer.count("segmentation.segments", len(seg.segments))
        for s in seg.segments:
            tracer.count(f"segmentation.closed_{s.closed_by.value.lower()}", 1)

    return inspect


def _on_query(tracer: Tracer):
    def inspect(result) -> None:
        tracer.count("fuzzy_inference.scored", len(result.scored))
        tracer.count("fuzzy_inference.degenerate", sum(s.degenerate for s in result.scored))

    return inspect


class Patches:
    """Swap module attributes for traced wrappers, and put them back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def trace_segmentation(tracer: Tracer, patches: Patches) -> None:
    """Per-sample layers: SegmentStream.push, window_grow, build_basis."""
    from fcpd import segmentation, shape_space

    patches.set(segmentation.SegmentStream, "push",
                tracer.timed("segmentation.push", segmentation.SegmentStream.push))
    patches.set(segmentation, "window_grow",
                tracer.timed("shape_space.window_grow", segmentation.window_grow))
    patches.set(shape_space, "build_basis",
                tracer.timed("shape_space.build_basis", shape_space.build_basis))


def trace_pipeline(tracer: Tracer, patches: Patches) -> None:
    """Every layer the CLI calls, as looked up from cli_io at call time."""
    from fcpd import cli_io

    wrap = {
        "ingest": ("cli_io.ingest", None),
        "run_query": ("cli_io.run_query", _on_query(tracer)),
        "segment_series": ("segmentation.segment_series", _on_segmentation(tracer)),
        "build_records": ("features.build_records",
                          lambda r: tracer.count("features.records", len(r))),
        "parse": ("query_dsl.parse", None),
        "to_fis": ("query_dsl.to_fis", None),
        "infer": ("fuzzy_inference.infer", None),
        "sensitivity_bounds": ("analysis_toolkit.sensitivity_bounds", None),
    }
    for attr, (name, inspect) in wrap.items():
        patches.set(cli_io, attr, tracer.span(name, getattr(cli_io, attr), inspect))
    trace_segmentation(tracer, patches)


def cmd_cli(args) -> int:
    from fcpd import cli_io

    tracer = Tracer()
    patches = Patches()
    trace_pipeline(tracer, patches)
    try:
        code = tracer.run_root("cli_io.main", cli_io.main, args.argv)
    finally:
        sys.stdout.flush()
        tracer.dump(args.trace)
    return code


def cmd_stream(args) -> int:
    """Replay the series through SegmentStream.push in whole rounds.

    Rounds alternate: plain rounds give the round wall time; the others time
    each push on its own (or, with --trace, run with the per-sample layers
    traced).  After the deadline and outside all timing, the result of every
    round is compared with segment_series on the same series.
    """
    from fcpd import FcpdError, SegmentationConfig, SegmentStream, segment_series

    values = [float(v) for v in np.load(args.input)]
    t0 = time.perf_counter()
    config = SegmentationConfig(degree=args.degree, th_dpu=args.th_dpu)
    SegmentStream(config)
    setup_s = time.perf_counter() - t0

    tracer = Tracer()
    clock = time.perf_counter_ns
    plain_walls: list[float] = []
    other_walls: list[float] = []
    # One buffer reused by every timed round, so memory does not grow with
    # the number of rounds; each round contributes its median.
    latency = np.empty(len(values), dtype=np.int64)
    push_p50_ns: list[float] = []
    first = None
    rounds_equal = True
    failed = 0
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds < 2 or time.perf_counter() < deadline:
        plain = rounds % 2 == 0
        patches = Patches()
        if args.trace and not plain:
            trace_segmentation(tracer, patches)
        stream = SegmentStream(config)
        push = stream.push
        try:
            if plain or args.trace:
                t0 = clock()
                for v in values:
                    push(v)
                wall = clock() - t0
            else:
                t_start = clock()
                for i, v in enumerate(values):
                    t0 = clock()
                    push(v)
                    latency[i] = clock() - t0
                wall = clock() - t_start
                push_p50_ns.append(float(np.median(latency)))
            result = stream.result()
        except FcpdError as exc:
            print(f"round {rounds}: {exc}", file=sys.stderr)
            failed += len(values)
            result = None
            wall = None
        finally:
            patches.undo()
        if wall is not None:
            (plain_walls if plain else other_walls).append(wall / 1e9)
        if result is not None:
            if first is None:
                first = result
            elif result != first:
                rounds_equal = False
        rounds += 1

    batch_segment = segment_series
    if args.trace:
        batch_segment = tracer.span("segmentation.segment_series", segment_series,
                                    _on_segmentation(tracer))
    batch = batch_segment(values, config)

    segments = [] if first is None else [
        {
            "start": s.start,
            "end": s.end,
            "closed_by": s.closed_by.value,
            "alpha": None if s.alpha is None else [float(a) for a in s.alpha.alpha],
        }
        for s in first.segments
    ]
    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "attempted": rounds * len(values),
        "failed": failed,
        "plain_walls_s": plain_walls,
        "other_walls_s": other_walls,
        "push_p50_ns": push_p50_ns,
        "rounds_equal": rounds_equal,
        "stream_equals_batch": first is not None and first == batch,
        "segments": segments,
    }
    Path(args.out).write_text(json.dumps(out))
    if args.trace:
        tracer.dump(args.trace)
    return 0


def cmd_probe(args) -> int:
    """Per-layer probes on the workload's own series.

    window_grow is timed call by call at window lengths 100 and 10 000.  One
    traced run of the fcpd arguments given after --query, followed by
    sensitivity_bounds on its scores, measures the layers that the
    workload's own path does not reach.
    """
    from fcpd import cli_io, window_grow, window_init

    values = [float(v) for v in np.resize(np.load(args.input), 10_000 + PROBE_CALLS)]
    grow_us = {}
    for length in (100, 10_000):
        state = window_init(0, args.degree)
        for v in values[:length]:
            window_grow(state, v)
        samples = []
        for v in values[length : length + PROBE_CALLS]:
            t0 = time.perf_counter_ns()
            window_grow(state, v)
            samples.append(time.perf_counter_ns() - t0)
        grow_us[f"len{length}"] = sorted(samples)[len(samples) // 2] / 1e3

    tracer = Tracer()
    patches = Patches()
    trace_pipeline(tracer, patches)
    scores = []
    run_query = cli_io.run_query

    def keep_scores(series, config):
        result = run_query(series, config)
        scores.extend(s.score for s in result.scored)
        return result

    patches.set(cli_io, "run_query", keep_scores)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracer.run_root("cli_io.main", cli_io.main, args.query)
    cli_io.sensitivity_bounds(scores)
    patches.undo()
    tracer.dump(args.trace, window_grow_us=grow_us)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="program.py")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--trace", required=True)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_cli.set_defaults(func=cmd_cli)

    p_stream = sub.add_parser("stream")
    p_stream.add_argument("--input", required=True)
    p_stream.add_argument("--out", required=True)
    p_stream.add_argument("--seconds", type=float, required=True)
    p_stream.add_argument("--degree", type=int, required=True)
    p_stream.add_argument("--th-dpu", type=float, required=True)
    p_stream.add_argument("--trace", default=None)
    p_stream.set_defaults(func=cmd_stream)

    p_probe = sub.add_parser("probe")
    p_probe.add_argument("--input", required=True)
    p_probe.add_argument("--degree", type=int, required=True)
    p_probe.add_argument("--trace", required=True)
    p_probe.add_argument("--query", nargs=argparse.REMAINDER, required=True)
    p_probe.set_defaults(func=cmd_probe)

    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
