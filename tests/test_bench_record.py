"""scripts/bench_record.py summarizes parent and change runs paired by seed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side: str, seed: int, value: float, trace: int = 0) -> dict:
    return {"side": side, "workload": "w", "seed": seed, "trace": trace,
            "metrics": {"op_p50_ms": value}}


def test_paired_ratios_are_taken_seed_by_seed(bench_record):
    parent = {1: 2.0, 2: 4.0, 3: 1.0, 4: 8.0, 5: 5.0}
    ratio = {1: 0.75, 2: 0.5, 3: 1.0, 4: 0.875, 5: 0.8}
    runs = [_run("parent", s, v) for s, v in parent.items()]
    runs += [_run("change", s, parent[s] * r) for s, r in ratio.items()]
    # A traced run and an unpaired seed take no part.
    runs += [_run("change", 1, 100.0, trace=1), _run("parent", 6, 1.0)]
    summary = bench_record.summarize(runs, {"op_p50_ms": "lower"}, {"op_p50_ms": 0.24})
    entry = summary["w"]["op_p50_ms"]
    assert summary["w"]["seeds"] == [1, 2, 3, 4, 5]
    # Ratios 0.5, 0.75, 0.8, 0.875, 1.0, where the sides' medians (2.0
    # over 4.0) read 0.5.
    assert entry["paired_ratio_median"] == 0.8
    assert entry["paired_ratio_q1"] == pytest.approx(0.625)
    assert entry["paired_ratio_q3"] == pytest.approx(0.9375)
    assert entry["change_over_parent"] == 0.5
    assert entry["change_better_pairs"] == "4/5"
    assert entry["verdict"] == "unresolved"


def test_one_pair_gives_its_ratio_thrice(bench_record):
    runs = [_run("parent", 1, 2.0), _run("change", 1, 1.5)]
    entry = bench_record.summarize(runs, {"op_p50_ms": "lower"}, {"op_p50_ms": 0.24})["w"]["op_p50_ms"]
    assert [entry[f"paired_ratio_{k}"] for k in ("q1", "median", "q3")] == [0.75] * 3
