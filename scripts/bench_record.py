"""Merge a parent's and a change's benchmark results into one BENCH_<n>.json.

    python scripts/bench_record.py --parent P/perfbench/out --change C/perfbench/out \
        --parent-rev REV --change-rev REV -o BENCH_<n>.json

Each directory holds the ``result-<workload>-seed<n>-trace<t>.json`` files
that ``perfbench/run.py`` wrote in one checkout.  The output keeps every run
with its side, seed and finishing time, the order in which the runs
finished, the Python, numpy and CPU details of the host (so run it on the
host that ran the benchmark), and, per workload and end-to-end metric, the
medians of both sides, the parent's quartiles, the pairs the change won, the
metric's bound from BENCHMARK.json and a verdict (see verdict()).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"result-(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def read_runs(side: str, out_dir: Path) -> list[dict]:
    runs = []
    for path in out_dir.iterdir():
        match = RESULT.fullmatch(path.name)
        if match is None:
            continue
        result = json.loads(path.read_text())
        runs.append({
            "side": side,
            "workload": match["workload"],
            "seed": int(match["seed"]),
            "trace": int(match["trace"]),
            "finished": datetime.fromtimestamp(path.stat().st_mtime, timezone.utc).isoformat(),
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        })
    return runs


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float, quartiles: list[float]) -> str:
    """How the change's runs of one metric compare with the parent's.

    ``better`` when every change run beats every parent run; else
    ``unresolved`` when the parent's quartile spread exceeds ``bound`` times
    its median, since a shift within the bound could not be told from noise;
    else ``worse`` when the change's median is worse than the parent's by more
    than ``bound`` of it; else ``within_bound``.
    """
    if max(change) < min(parent) if lower_is_better else min(change) > max(parent):
        return "better"
    parent_median = statistics.median(parent)
    if quartiles[2] - quartiles[0] > bound * parent_median:
        return "unresolved"
    loss = statistics.median(change) - parent_median
    if (loss if lower_is_better else -loss) > bound * parent_median:
        return "worse"
    return "within_bound"


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per workload and end-to-end metric, over untraced runs paired by seed."""
    summary: dict = {}
    untraced = [r for r in runs if r["trace"] == 0]
    for workload in sorted({r["workload"] for r in untraced}):
        sides = {side: {r["seed"]: r for r in untraced if r["workload"] == workload and r["side"] == side}
                 for side in ("parent", "change")}
        seeds = sorted(sides["parent"].keys() & sides["change"].keys())
        if not seeds:
            continue
        summary[workload] = {"seeds": seeds}
        for name, direction in better.items():
            pairs = [(sides["parent"][s]["metrics"].get(name), sides["change"][s]["metrics"].get(name))
                     for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
            quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
            summary[workload][name] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "change_over_parent": statistics.median(change) / statistics.median(parent),
                "parent_q1": quartiles[0],
                "parent_q3": quartiles[2],
                "change_better_pairs": f"{wins}/{len(pairs)}",
                "bound": bounds[name],
                "verdict": verdict(parent, change, direction == "lower", bounds[name], quartiles),
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's perfbench/out")
    parser.add_argument("--change", type=Path, required=True, help="the change's perfbench/out")
    parser.add_argument("--parent-rev", default=None, help="the parent's commit, recorded as given")
    parser.add_argument("--change-rev", default=None, help="the change's commit, recorded as given")
    parser.add_argument("--note", default=None, help="free text: run length, host load, ...")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)

    runs = read_runs("parent", args.parent) + read_runs("change", args.change)
    if not runs:
        parser.error("no result-*.json files in either directory")
    runs.sort(key=lambda r: r["finished"])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    record = {
        "parent_rev": args.parent_rev,
        "change_rev": args.change_rev,
        "note": args.note,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "order": [f"{r['side']} {r['workload']} seed{r['seed']} trace{r['trace']}" for r in runs],
        "summary": summarize(runs, better, bounds),
        "runs": runs,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
