"""The module attributes that outside tracers wrap are the ones the CLI calls.

``perfbench/program.py`` times each layer by swapping a module attribute for
a wrapper, so it only sees a layer that the code looks up through that
attribute at call time.  This test wraps the same attributes with call
counters, runs ``fcpd query`` and ``fcpd sensitivity`` in-process on inputs
like the benchmark's, and requires every wrapper to have been called,
``parse`` and ``to_fis`` once per invocation, and ``infer`` once per scored
segment: scoring that goes around ``cli_io.infer`` would leave the
benchmark's per-record inference metrics empty.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fcpd import cli_io, segmentation, shape_space

RULES = Path(__file__).resolve().parents[1] / "queries" / "graded_variation.fcq"

HOOKS = [
    *((cli_io, name) for name in (
        "ingest", "run_query", "segment_series", "build_records",
        "parse", "to_fis", "infer", "sensitivity_bounds",
    )),
    (segmentation, "window_grow"),
    (shape_space, "build_basis"),
    (segmentation.SegmentStream, "push"),
]


def _counted(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _key(owner, name: str) -> str:
    return f"{owner.__name__}.{name}"


def _write_counts(path: Path, counts, indexed: bool) -> None:
    if indexed:
        lines = ["day,count", *(f"{t},{float(c)!r}" for t, c in enumerate(counts))]
    else:
        lines = ["count", *(repr(float(c)) for c in counts)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def calls(monkeypatch) -> Counter:
    counter: Counter = Counter()
    for owner, name in HOOKS:
        monkeypatch.setattr(owner, name, _counted(counter, _key(owner, name), getattr(owner, name)))
    return counter


def test_query_and_sensitivity_reach_every_wrapped_layer(calls, tmp_path, monkeypatch):
    scored: list[int] = []
    run_query = cli_io.run_query

    def counting_run_query(*args, **kwargs):
        result = run_query(*args, **kwargs)
        scored.append(len(result.scored))
        return result

    monkeypatch.setattr(cli_io, "run_query", counting_run_query)

    rng = np.random.default_rng(7)
    t = np.arange(400, dtype=float)
    # Daily counts with a weekly cycle and a level shift, as in crime_cli.
    daily = rng.poisson(40.0 * (1.0 + 0.15 * np.sin(2 * np.pi * t / 7.0)) * (1.0 + 0.4 * (t > 200)))
    _write_counts(tmp_path / "crime.csv", daily, indexed=True)
    # Weekly district counts, as in sensitivity_many.
    districts = tmp_path / "districts"
    districts.mkdir()
    for k in range(2):
        weekly = rng.poisson(8.0 * (1.0 + 0.3 * np.sin(2 * np.pi * t / 52.18 + k)))
        _write_counts(districts / f"district_{k:02d}.csv", weekly, indexed=False)

    runs = [
        ["query", str(tmp_path / "crime.csv"), "--rules", str(RULES),
         "--degree", "5", "--th-dpu", "12.0"],
        ["sensitivity", str(districts), "--rules", str(RULES), "--degree", "5",
         "--th-sss", "1", "--sss-mode", "first-diff", "--min-segment-len", "8"],
    ]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli_io.main(argv) == 0, err.getvalue()

    assert [_key(owner, name) for owner, name in HOOKS if calls[_key(owner, name)] == 0] == []
    # Every sample goes through push, which grows the window once.
    assert calls["fcpd.segmentation.window_grow"] == calls["SegmentStream.push"]
    # One run_query for the query plus one per district file, and one infer
    # call per scored segment; each invocation compiles its rules once.
    assert len(scored) == calls["fcpd.cli_io.run_query"] == 3
    assert calls["fcpd.cli_io.parse"] == calls["fcpd.cli_io.to_fis"] == len(runs)
    assert sum(scored) > 0
    assert calls["fcpd.cli_io.infer"] == sum(scored)
