"""Golden tests: byte-exact stdout, stderr and exit code of every fcpd subcommand.

Each case writes its own small seeded inputs into a fresh directory, runs
``fcpd.main`` in-process and compares stdout, stderr, the exit code and any
``--plot-dir`` files with those stored under ``tests/golden/<case>/``.

After an intended change of the output, regenerate the stored files with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fcpd import generate_cycle, main

GOLDEN = Path(__file__).parent / "golden"

# Scores the mean level and its change against the previous segment, so the
# first segment of every series lacks a feature and is skipped.
RULES = """\
var average [-2, 6] {
    low: zmf(0.5, 2)
    high: smf(2, 4)
}

var var_average [-2, 2] {
    steady: gauss(0, 0.3)
    moving: smf(0.1, 1)
}

var score [0, 1] {
    low: tri(-0.4, 0, 0.4)
    mid: tri(0.1, 0.5, 0.9)
    high: tri(0.6, 1, 1.4)
}

IF (average is high) and (var_average is moving), THEN (score is high)
IF (average is low) and (var_average is steady), THEN (score is low)
IF (var_average is not steady), THEN (score is mid) weight 0.8
"""


def _write_series(path: Path, values) -> None:
    path.write_text("".join(f"{float(v)!r}\n" for v in values))


def _steps(rng, levels, width: int, noise: float) -> np.ndarray:
    return np.concatenate([rng.normal(level, noise, width) for level in levels])


def write_inputs(work: Path) -> None:
    """The seeded inputs every case reads, written into ``work``."""
    rng = np.random.default_rng(20231218)
    _write_series(work / "steps.csv", _steps(rng, (0.0, 4.0, 1.0, 5.0, 0.5), 14, 0.3))
    # A trailing spike leaves an end-of-stream tail too short to fit, which
    # cluster reports as excluded.
    cyclic = generate_cycle(n=90, period=30.0, seed=4, anomalies=())
    _write_series(work / "cyclic.csv", np.append(cyclic, [9.0, -9.0]))
    many = work / "many"
    many.mkdir()
    for name in ("c.csv", "a.csv", "d.csv", "b.csv"):
        levels = rng.uniform(-1.0, 5.0, 4)
        _write_series(many / name, _steps(rng, levels, 12, 0.25))
    (work / "rules.fcq").write_text(RULES)
    (work / "reference.txt").write_text("10\n25\n40\n71\n")
    (work / "candidate.txt").write_text("12\n24\n43.5\n90\n55\n")
    (work / "sparse.txt").write_text("26\n68\n")


SEGMENT = ["--degree", "2", "--th-dpu", "1.0"]
QUERY = ["--rules", "{work}/rules.fcq", "--degree", "1", "--th-dpu", "1.2"]

CASES: dict[str, list[str]] = {
    "segment_csv": ["segment", "{work}/steps.csv", *SEGMENT, "--plot-dir", "{work}/plot"],
    "segment_json": ["segment", "{work}/steps.csv", *SEGMENT, "--format", "json"],
    "segment_sss_normalized": [
        "segment", "{work}/cyclic.csv", "--degree", "3", "--th-sss", "1",
        "--sss-mode", "first-diff", "--min-segment-len", "6", "--normalize",
        "--tail-policy", "drop",
    ],
    "segment_config_error": ["segment", "{work}/steps.csv", "--degree", "2"],
    # The last window holds 5 samples, too few for a degree-5 fit: blank alpha
    # cells in the table and no fitted values for it in fit.dat.
    "segment_unfitted_tail_csv": [
        "segment", "{work}/cyclic.csv", "--degree", "5", "--th-dpu", "0.3",
        "--plot-dir", "{work}/plot",
    ],
    "segment_unfitted_tail_json": [
        "segment", "{work}/cyclic.csv", "--degree", "5", "--th-dpu", "0.3",
        "--plot-dir", "{work}/plot", "--format", "json",
    ],
    # No window closes and the tail is dropped: a header and no rows.
    "segment_no_segments_csv": [
        "segment", "{work}/steps.csv", "--degree", "2", "--th-dpu", "1000",
        "--tail-policy", "drop",
    ],
    "query_csv": ["query", "{work}/steps.csv", *QUERY, "--plot-dir", "{work}/plot"],
    "query_json": ["query", "{work}/steps.csv", *QUERY, "--format", "json"],
    "query_normalized_csv": [
        "query", "{work}/steps.csv", *QUERY, "--normalize", "--delay", "2",
        "--plot-dir", "{work}/plot",
    ],
    "cluster_csv": [
        "cluster", "{work}/cyclic.csv", "--degree", "2", "--th-dpu", "0.3",
        "--clusters", "3", "--seed", "5",
    ],
    "cluster_json": [
        "cluster", "{work}/cyclic.csv", "--degree", "2", "--th-dpu", "0.3",
        "--clusters", "3", "--seed", "5", "--format", "json",
    ],
    "sensitivity_csv": ["sensitivity", "{work}/many", *QUERY],
    "sensitivity_json": ["sensitivity", "{work}/many", *QUERY, "--format", "json"],
    "sensitivity_one_file_csv": ["sensitivity", "{work}/steps.csv", *QUERY],
    "offsets_csv": ["offsets", "{work}/reference.txt", "{work}/candidate.txt"],
    "offsets_json": [
        "offsets", "{work}/reference.txt", "{work}/candidate.txt", "--format", "json",
    ],
    "offsets_unmatched_reference_csv": ["offsets", "{work}/reference.txt", "{work}/sparse.txt"],
    "generate_plain": [
        "generate", "--length", "48", "--period", "12", "--seed", "7", "--no-anomalies",
    ],
    "generate_anomalies": ["generate", "--length", "1601", "--period", "200", "--seed", "3"],
    "generate_too_short": ["generate", "--length", "400"],
}


def run_case(name: str, work: Path) -> dict[str, bytes]:
    """Run one case in ``work``; returns every output file by its stored name."""
    argv = [arg.replace("{work}", str(work)) for arg in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
        "exit_code": f"{code}\n".encode(),
    }
    plot = work / "plot"
    if plot.is_dir():
        for path in sorted(plot.iterdir()):
            files[f"plot/{path.name}"] = path.read_bytes()
    return files


def _stored(name: str) -> dict[str, bytes]:
    root = GOLDEN / name
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("FCPD_SEED", raising=False)
    write_inputs(tmp_path)
    actual = run_case(name, tmp_path)
    expected = _stored(name)
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], f"{name}/{key} differs from the golden file"


def regenerate() -> None:
    os.environ.pop("FCPD_SEED", None)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            write_inputs(work)
            for key, data in run_case(name, work).items():
                target = GOLDEN / name / key
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
        print(f"wrote {GOLDEN / name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
