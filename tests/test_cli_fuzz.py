"""A seeded fuzz of the command line, run in process.

Every subcommand is called with hostile option values, mutated series,
boundary and rule files, and degrees from -1 to 11.  Whatever the input,
``cli_io.main`` must end with one of its exit codes (0, or 2, 3 and 4 for
configuration, data and rule-file errors), print exactly one ``error:`` line
when it fails, and never let an exception or a warning escape.  The seed and
the value table are fixed, so a failure names the case that reproduces it.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import pytest

from fcpd.cli_io import main

QUERIES = Path(__file__).resolve().parents[1] / "queries"
RULE_TEXTS = [path.read_text() for path in sorted(QUERIES.glob("*.fcq"))]
VALUES = ["1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "x", "", "0", "-1", "1", "0.5",
          "3", "7", "1e999", "2.5", "-0.0", "40"]
DEGREES = [str(d) for d in range(-1, 12)]
RUNS = 400
SEED = 20260

# Per option, the values a careful user would pass; a run takes one from
# VALUES instead now and then.
SEGMENTATION = {
    "--degree": DEGREES,
    "--th-dpu": ["0.5", "1.5", "3"],
    "--th-sss": ["0", "1", "3"],
    "--sss-mode": ["alpha1", "first-diff"],
    "--sss-deadband": ["0", "0.01", "0.5"],
    "--min-segment-len": ["12", "30"],
    "--tail-policy": ["emit", "drop"],
    "--normalize": None,
}
RULE_FLAGS = {"--delay": ["1", "2", "3"], "--epsilon": ["1e-9", "0.001"]}
OUTPUT = {"--format": ["csv", "json"]}
HOSTILE = 0.15


def _series(rng: random.Random, n: int) -> list[str]:
    """n numbers with a level shift and noise; some replaced from the value table."""
    values = [repr(round((0.0 if i < n // 2 else 5.0) + rng.gauss(0.0, 1.0), 3)) for i in range(n)]
    if rng.random() < HOSTILE:
        values[rng.randrange(n)] = rng.choice(VALUES)
    return values


def _series_text(rng: random.Random) -> str:
    n = rng.choice([1, 3, 8, 40, 120, 120, 400])
    values = _series(rng, n)
    if rng.random() < 0.5:
        return "value\n" + "\n".join(values) + "\n"
    start = rng.choice([0, 0, 5, -3])
    days = [str(start + i) for i in range(n)]
    if rng.random() < HOSTILE:
        days[rng.randrange(n)] = rng.choice(VALUES)
    return "day,count\n" + "".join(f"{d},{v}\n" for d, v in zip(days, values))


def _rule_text(rng: random.Random) -> str:
    text = rng.choice(RULE_TEXTS)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        at = rng.randrange(len(text))
        kind = rng.randrange(5)
        if kind == 0:  # delete a span
            text = text[:at] + text[at + rng.randint(1, 12):]
        elif kind == 1:  # insert a value
            text = text[:at] + rng.choice(VALUES) + text[at:]
        elif kind == 2:  # insert punctuation
            text = text[:at] + rng.choice("(){}[],:-#\n ") + text[at:]
        elif kind == 3:  # replace the number that starts at or after `at`
            digit = next((i for i in range(at, len(text)) if text[i].isdigit()), None)
            if digit is not None:
                end = digit
                while end < len(text) and (text[end].isdigit() or text[end] == "."):
                    end += 1
                text = text[:digit] + rng.choice(VALUES) + text[end:]
        else:  # truncate
            text = text[:at]
    return text


def _indices_text(rng: random.Random) -> str:
    values = sorted(rng.sample(range(200), rng.randint(0, 6)))
    lines = [str(v) for v in values]
    if rng.random() < HOSTILE:
        lines.insert(rng.randint(0, len(lines)), rng.choice(VALUES))
    return "\n".join(lines) + ("\n" if lines else "")


def _options(rng: random.Random, table: dict[str, list[str] | None]) -> list[str]:
    """Some of the table's options, as --flag=value so that "-1" stays a value."""
    argv = []
    for flag, choices in table.items():
        if rng.random() < 0.4:
            if choices is None:
                argv.append(flag)
            else:
                value = rng.choice(VALUES if rng.random() < HOSTILE else choices)
                argv.append(f"{flag}={value}")
    return argv


def _argv(rng: random.Random, tmp: Path, case: int) -> list[str]:
    def write(name: str, text: str) -> str:
        path = tmp / f"{case}-{name}"
        path.write_text(text)
        return str(path)

    command = rng.choice(["segment", "query", "cluster", "sensitivity", "generate", "offsets"])
    if command == "generate":
        return ["generate", *_options(rng, {
            "--length": ["-1", "0", "1", "2", "7", "50"],
            "--period": ["0.5", "7", "200"],
            "--seed": ["0", "1", "-1", "7"],
            "--no-anomalies": None,
        })]
    if command == "offsets":
        return ["offsets", write("ref.txt", _indices_text(rng)),
                write("cand.txt", _indices_text(rng)), *_options(rng, OUTPUT)]
    if command == "sensitivity" and rng.random() < 0.5:
        folder = tmp / f"{case}-dir"
        folder.mkdir()
        for i in range(rng.randint(0, 3)):
            (folder / f"s{i}.csv").write_text(_series_text(rng))
        source = str(folder)
    else:
        source = write("series.csv", _series_text(rng))
    argv = [command, source, *_options(rng, SEGMENTATION), *_options(rng, OUTPUT)]
    # Most runs need a threshold to get past the configuration check.
    if not any(a.startswith(("--th-dpu", "--th-sss")) for a in argv) and rng.random() < 0.8:
        argv.append(f"--th-dpu={rng.choice(SEGMENTATION['--th-dpu'])}")
    if command in ("query", "sensitivity"):
        argv += ["--rules", write("rules.fcq", _rule_text(rng)), *_options(rng, RULE_FLAGS)]
    if command == "cluster":
        argv += _options(rng, {"--clusters": ["-1", "0", "1", "2", "5"], "--seed": ["0", "3"]})
    if command in ("segment", "query") and rng.random() < 0.2:
        argv.append(f"--plot-dir={tmp / f'{case}-plots'}")
    return argv


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_the_command_line_fails_only_with_its_own_exit_codes(tmp_path):
    rng = random.Random(SEED)
    seen = set()
    for case in range(RUNS):
        argv = _argv(rng, tmp_path, case)
        code, _, err = _call(argv)
        seen.add((argv[0], code))
        assert code in (0, 2, 3, 4), (case, argv, code, err)
        assert "Traceback" not in err, (case, argv, err)
        if code != 0:
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1, (case, argv, err)
    # The fuzz reaches every subcommand, and each one both succeeds and fails.
    for command in ("segment", "query", "cluster", "sensitivity", "generate", "offsets"):
        codes = {code for name, code in seen if name == command}
        assert 0 in codes and codes - {0}, (command, codes)


@pytest.mark.parametrize("degree", DEGREES)
def test_every_degree_ends_with_an_exit_code(tmp_path, degree):
    series = tmp_path / "series.csv"
    series.write_text("".join(f"{float(i % 7)}\n" for i in range(60)))
    code, out, err = _call(["segment", str(series), "--degree", degree, "--th-dpu", "1.5"])
    if 0 <= int(degree) <= 10:
        assert (code, err) == (0, "") and out
    else:
        assert code == 2 and err.count("error:") == 1, err
