"""Independent reference computations for checking the program's outputs.

Nothing here imports the program.  Segment fits use
``numpy.polynomial.Polynomial.fit``; the monic orthogonal basis the program
reports its coefficients in is rebuilt from a QR factorisation; slope signs,
segment boundaries, fuzzy scores and sensitivity bounds are recomputed from
their definitions.  Every check returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial, chebyshev

# Fitted values may differ from the reference fit by this share of the
# segment's value scale (max(1, max |y|)).
FIT_RTOL = 1e-6
SCORE_ATOL = 1e-7


# ---------------------------------------------------------------------------
# Fits


def fitted_values(y: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares polynomial fit of ``y`` at x = 0..m-1, evaluated on the grid."""
    x = np.arange(y.size, dtype=float)
    return Polynomial.fit(x, y, degree)(x)


def monic_basis(m: int, degree: int) -> np.ndarray:
    """Values of the monic polynomials orthogonal on x = 0..m-1, shape (degree+1, m).

    Gram-Schmidt on Chebyshev polynomials of u = 2x/(m-1) - 1 (a QR
    factorisation), then rescaled so that each polynomial is monic in x.
    """
    if m == 1:
        return np.ones((1, 1))
    u = np.linspace(-1.0, 1.0, m)
    q, r = np.linalg.qr(chebyshev.chebvander(u, degree))
    values = q * np.diag(r)
    # T_k(u) has leading coefficient 2^(k-1) in u, and u = (2 / (m-1)) x - 1.
    for k in range(1, degree + 1):
        values[:, k] /= 2.0 ** (k - 1) * (2.0 / (m - 1)) ** k
    return values.T


def alpha_fit_problems(y: np.ndarray, alpha, degree: int) -> list[str]:
    """The reported coefficients must describe the least-squares fit of ``y``."""
    problems = []
    if y.size < degree + 1:
        if alpha is not None:
            problems.append(f"{y.size} samples cannot carry a degree-{degree} fit")
        return problems
    if alpha is None or len(alpha) != degree + 1:
        return [f"expected {degree + 1} coefficients, got {alpha!r}"]
    scale = max(1.0, float(np.max(np.abs(y))))
    if abs(alpha[0] - float(np.mean(y))) > FIT_RTOL * scale:
        problems.append(f"alpha_0 {alpha[0]!r} is not the mean {float(np.mean(y))!r}")
    reported = np.asarray(alpha, dtype=float) @ monic_basis(y.size, degree)
    gap = float(np.max(np.abs(reported - fitted_values(y, degree))))
    if gap > FIT_RTOL * scale:
        problems.append(f"fitted values differ from the least-squares fit by {gap:.3g}")
    return problems


def end_deviation(y: np.ndarray, degree: int) -> float:
    """|fit - y| at the last sample, the fit taken over all of ``y``."""
    return abs(float(fitted_values(y, degree)[-1]) - float(y[-1]))


def ols_slope(y: np.ndarray) -> float:
    """alpha_1: the p_1 = x - (m-1)/2 coefficient is the least-squares slope."""
    centred = np.arange(y.size, dtype=float) - (y.size - 1) / 2.0
    return float(centred @ y / (centred @ centred)) if y.size > 1 else 0.0


# ---------------------------------------------------------------------------
# Slope-sign switches (first-difference mode)


def deadband_sign(value: float, deadband: float) -> int:
    if value > deadband:
        return 1
    if value < -deadband:
        return -1
    return 0


def switch_counts(window: np.ndarray, deadband: float) -> list[int]:
    """Sign switches of the first differences of every prefix of ``window``.

    Entry i counts switches in window[0..i].  A difference inside the
    deadband neither matches nor breaks the last non-zero sign.
    """
    counts = [0]
    last = 0
    switches = 0
    for a, b in zip(window[:-1], window[1:]):
        s = deadband_sign(float(b - a), deadband)
        if s != 0:
            if last != 0 and s != last:
                switches += 1
            last = s
        counts.append(switches)
    return counts


def sss_segments(
    y: np.ndarray, th_sss: int, min_len: int, deadband: float
) -> list[tuple[int, int, str]]:
    """Segment boundaries under the slope-sign-switch criterion alone.

    A window closes at the first sample, from its min_len-th on, where its
    switch count exceeds th_sss; the next window starts after it.
    """
    segments = []
    start = 0
    last = 0
    switches = 0
    for i in range(y.size):
        if i > start:
            s = deadband_sign(float(y[i] - y[i - 1]), deadband)
            if s != 0:
                if last != 0 and s != last:
                    switches += 1
                last = s
        if i - start + 1 >= min_len and switches > th_sss:
            segments.append((start, i, "SSS"))
            start, last, switches = i + 1, 0, 0
    if start < y.size:
        segments.append((start, y.size - 1, "END_OF_STREAM"))
    return segments


# ---------------------------------------------------------------------------
# Segmentation checks


@dataclass(frozen=True)
class Criteria:
    degree: int
    min_len: int
    th_dpu: float | None = None
    th_sss: int | None = None
    deadband: float = 0.01


def segmentation_problems(
    y: np.ndarray,
    segments: list[dict],
    crit: Criteria,
    rng: np.random.Generator,
    prefixes: int = 8,
) -> list[str]:
    """Check segments (dicts with start, end, closed_by and, if reported, alpha).

    Checks coverage, the fit of every segment, and the closing rule: a
    closed segment trips its criterion at its last sample, and neither its
    longest earlier prefix nor a seeded sample of ``prefixes`` others
    (min_len or longer) trips any.
    """
    problems = []
    expected_start = 0
    for i, seg in enumerate(segments):
        if seg["start"] != expected_start or seg["end"] < seg["start"]:
            problems.append(f"segment {seg['start']}..{seg['end']} breaks contiguity")
        if seg["closed_by"] == "END_OF_STREAM" and i != len(segments) - 1:
            problems.append(f"segment {seg['start']}..{seg['end']} never closed")
        expected_start = seg["end"] + 1
    if expected_start != y.size:
        problems.append(f"segments cover {expected_start} of {y.size} samples")
    if problems:
        return problems
    for seg in segments:
        window = y[seg["start"] : seg["end"] + 1]
        where = f"segment {seg['start']}..{seg['end']}"
        if "alpha" in seg:
            problems += [f"{where}: {p}" for p in alpha_fit_problems(window, seg["alpha"], crit.degree)]
        closed = seg["closed_by"]
        last = window.size if closed == "END_OF_STREAM" else window.size - 1
        if closed != "END_OF_STREAM":
            if window.size < crit.min_len:
                problems.append(f"{where}: closed before the minimum length")
                continue
            if not _trips(window, closed, crit, at_least=True):
                problems.append(f"{where}: {closed} criterion not exceeded at its end")
        lengths = np.arange(crit.min_len, last + 1)
        if lengths.size > prefixes + 1:
            sample = rng.choice(lengths[:-1], prefixes, replace=False)
            lengths = np.append(np.sort(sample), lengths[-1])
        for n in lengths:
            if _trips(window[:n], None, crit, at_least=False):
                problems.append(f"{where}: a criterion already trips at length {n}")
                break
    return problems


def tripped(window: np.ndarray, crit: Criteria) -> str | None:
    """The criterion that trips at the window's last sample; DPU is tested first."""
    for name in ("DPU", "SSS"):
        if _trips(window, name, crit, at_least=True):
            return name
    return None


def first_close(y: np.ndarray, start: int, crit: Criteria) -> int:
    """End of the segment starting at ``start``: its first tripping sample, or the last."""
    for end in range(start + crit.min_len - 1, y.size):
        if tripped(y[start : end + 1], crit):
            return end
    return y.size - 1


def _trips(window: np.ndarray, which: str | None, crit: Criteria, at_least: bool) -> bool:
    """Whether ``which`` criterion (or any, if None) trips at the window's end.

    ``at_least`` widens the DPU test by the fit tolerance; otherwise it is
    narrowed, so a deviation within rounding of the threshold counts either way.
    """
    if crit.th_dpu is not None and which in (None, "DPU"):
        slack = FIT_RTOL * max(1.0, float(np.max(np.abs(window))))
        if end_deviation(window, crit.degree) > crit.th_dpu + (-slack if at_least else slack):
            return True
    if crit.th_sss is not None and which in (None, "SSS"):
        if switch_counts(window, crit.deadband)[-1] > crit.th_sss:
            return True
    return False


# ---------------------------------------------------------------------------
# Rule files and Mamdani scoring


@dataclass(frozen=True)
class Variable:
    lo: float
    hi: float
    sets: dict


@dataclass(frozen=True)
class RuleSet:
    inputs: dict  # name -> Variable, in declaration order
    output: Variable
    rules: tuple  # (antecedent, output set name, weight)
    resolution: int
    referenced: tuple  # input names in order of first use in the rules


_TOKEN = re.compile(r"\s+|#[^\n]*|(-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z_]\w*|[()\[\]{},:=])")


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read rule text at offset {pos}")
        if m.group(1):
            out.append(m.group(1))
        pos = m.end()
    return out


def parse_rules(text: str) -> RuleSet:
    """Read the subset of the rule language the benchmark's rule files use."""
    toks = _tokens(text)
    pos = 0

    def take(expected=None):
        nonlocal pos
        tok = toks[pos]
        if expected is not None and tok.lower() != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    variables: dict[str, Variable] = {}
    rules = []
    resolution = 1001

    def term():
        take("(")
        if toks[pos + 1].lower() == "is":
            var = take()
            take("is")
            negated = toks[pos].lower() == "not"
            if negated:
                take()
            node = ("atom", var, take(), negated)
        else:
            node = disjunction()
        take(")")
        return node

    def conjunction():
        node = term()
        while pos < len(toks) and toks[pos].lower() == "and":
            take()
            node = ("and", node, term())
        return node

    def disjunction():
        node = conjunction()
        while pos < len(toks) and toks[pos].lower() == "or":
            take()
            node = ("or", node, conjunction())
        return node

    while pos < len(toks):
        word = take().lower()
        if word == "var":
            name = take()
            take("[")
            lo = float(take())
            take(",")
            hi = float(take())
            take("]")
            take("{")
            sets = {}
            while toks[pos] != "}":
                set_name = take()
                take(":")
                kind = take()
                take("(")
                params = [float(take())]
                while toks[pos] == ",":
                    take()
                    params.append(float(take()))
                take(")")
                if kind != "tri" or len(params) != 3:
                    raise ValueError(f"only tri(a, b, c) is supported, got {kind}")
                sets[set_name] = tuple(params)
            take("}")
            variables[name] = Variable(lo, hi, sets)
        elif word == "if":
            antecedent = disjunction()
            take(",")
            take("then")
            take("(")
            out_var = take()
            take("is")
            out_set = take()
            take(")")
            weight = 1.0
            if pos < len(toks) and toks[pos].lower() == "weight":
                take()
                weight = float(take())
            rules.append((antecedent, out_var, out_set, weight))
        elif word == "set":
            key = take()
            take("=")
            value = take()
            if key == "resolution":
                resolution = int(value)
        else:
            raise ValueError(f"unexpected {word!r}")

    out_names = {r[1] for r in rules}
    if len(out_names) != 1:
        raise ValueError(f"expected one output variable, got {sorted(out_names)}")
    (out_name,) = out_names
    referenced: list[str] = []

    def collect(node):
        if node[0] == "atom":
            if node[1] not in referenced:
                referenced.append(node[1])
        else:
            collect(node[1])
            collect(node[2])

    for rule in rules:
        collect(rule[0])
    return RuleSet(
        inputs={k: v for k, v in variables.items() if k != out_name},
        output=variables[out_name],
        rules=tuple((a, s, w) for a, _, s, w in rules),
        resolution=resolution,
        referenced=tuple(referenced),
    )


def tri(x, a: float, b: float, c: float):
    """Triangular membership: 0 outside [a, c], 1 at b, linear between."""
    x = np.asarray(x, dtype=float)
    up = np.ones_like(x) if b == a else (x - a) / (b - a)
    down = np.ones_like(x) if c == b else (c - x) / (c - b)
    return np.clip(np.where((x < a) | (x > c), 0.0, np.minimum(up, down)), 0.0, 1.0)


def mamdani(rules: RuleSet, inputs: dict) -> tuple[float, bool]:
    """Min/max/complement connectives, min implication, max aggregation, centroid.

    Inputs are clamped to their domains.  With no output mass the score is
    the domain midpoint and the result is flagged degenerate.
    """

    def strength(node) -> float:
        if node[0] == "atom":
            _, name, set_name, negated = node
            var = rules.inputs[name]
            x = min(max(float(inputs[name]), var.lo), var.hi)
            mu = float(tri(x, *var.sets[set_name]))
            return 1.0 - mu if negated else mu
        left, right = strength(node[1]), strength(node[2])
        return min(left, right) if node[0] == "and" else max(left, right)

    out = rules.output
    grid = out.lo + (out.hi - out.lo) * np.arange(rules.resolution) / (rules.resolution - 1)
    total = np.zeros_like(grid)
    for antecedent, set_name, weight in rules.rules:
        clip = weight * strength(antecedent)
        total = np.maximum(total, np.minimum(clip, tri(grid, *out.sets[set_name])))
    mass = float(total.sum())
    if mass <= 0.0:
        return (out.lo + out.hi) / 2.0, True
    return float((grid * total).sum()) / mass, False


# ---------------------------------------------------------------------------
# Features and expected query results

# Rule-file names the benchmark's rule files use, and the record key each
# stands for at segment delay 1.
FEATURE_KEYS = {"var_average": ("var_alpha_0_1", 0), "var_slope": ("var_alpha_1_1", 1)}


@dataclass(frozen=True)
class Expected:
    """What a query must report for one segment: a score, or its missing keys."""

    score: float | None
    degenerate: bool
    missing: tuple[str, ...]


def expected_scores(
    y: np.ndarray,
    bounds: list[tuple[int, int]],
    rules: RuleSet,
    degree: int,
    epsilon: float = 1e-9,
) -> list[Expected]:
    """Score every segment from coefficients fitted here, at segment delay 1.

    A relative variation is missing for the first segment, when the earlier
    coefficient is within ``epsilon`` of zero, and when either segment is
    too short to carry a fit.
    """
    coeffs = []
    for start, end in bounds:
        w = y[start : end + 1]
        coeffs.append(None if w.size < degree + 1 else (float(np.mean(w)), ols_slope(w)))
    out = []
    for t in range(len(bounds)):
        values = {}
        missing = []
        for name in rules.referenced:
            key, k = FEATURE_KEYS[name]
            here = coeffs[t]
            before = coeffs[t - 1] if t > 0 else None
            if here is None or before is None or abs(before[k]) < epsilon:
                missing.append(key)
            else:
                values[name] = (here[k] - before[k]) / before[k]
        if missing:
            out.append(Expected(None, False, tuple(missing)))
        else:
            out.append(Expected(*mamdani(rules, values), ()))
    return out


def query_problems(reported: dict, expected: list[Expected]) -> list[str]:
    """Compare one query's scored and skipped segments with the expected ones.

    ``reported`` holds ``scored`` (dicts with index and score, in output
    order) and ``skipped`` (index -> missing keys).
    """
    problems = []
    scored = reported["scored"]
    scores = [s["score"] for s in scored]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores are not in descending order")
    want_skipped = {i: e.missing for i, e in enumerate(expected) if e.score is None}
    if reported["skipped"] != want_skipped:
        problems.append(f"skipped {reported['skipped']}, expected {want_skipped}")
    for s in scored:
        e = expected[s["index"]] if s["index"] < len(expected) else None
        if e is None or e.score is None:
            problems.append(f"segment {s['index']} should not be scored")
        elif abs(s["score"] - e.score) > SCORE_ATOL:
            problems.append(f"segment {s['index']}: score {s['score']!r}, expected {e.score!r}")
        elif "degenerate" in s and s["degenerate"] != e.degenerate:
            problems.append(f"segment {s['index']}: degenerate flag {s['degenerate']}")
    if len(scored) != sum(e.score is not None for e in expected):
        problems.append(f"{len(scored)} segments scored, expected {sum(e.score is not None for e in expected)}")
    return problems


# ---------------------------------------------------------------------------
# Sensitivity bounds


@dataclass(frozen=True)
class Bounds:
    mean_upper: float
    mean_lower: float
    upper_count: int
    lower_count: int
    segments: float


def sensitivity(scores: list[float], segments: int, top_n: int = 3) -> Bounds:
    """Means of the top_n highest and top_n lowest scores of one series."""
    ranked = sorted(scores)
    upper = ranked[-top_n:]
    lower = ranked[:top_n]
    return Bounds(sum(upper) / len(upper), sum(lower) / len(lower), len(upper), len(lower), segments)


def mean_bounds(rows: list[Bounds]) -> Bounds:
    """The MEAN row: plain averages, with the segment count rounded half to even."""
    n = len(rows)
    return Bounds(
        sum(r.mean_upper for r in rows) / n,
        sum(r.mean_lower for r in rows) / n,
        max(r.upper_count for r in rows),
        max(r.lower_count for r in rows),
        round(sum(r.segments for r in rows) / n),
    )


def bounds_problems(name: str, got: Bounds, want: Bounds, counts: bool = True) -> list[str]:
    problems = []
    for field, tol in (("mean_upper", SCORE_ATOL), ("mean_lower", SCORE_ATOL)):
        if not math.isclose(getattr(got, field), getattr(want, field), abs_tol=tol, rel_tol=0):
            problems.append(f"{name}: {field} {getattr(got, field)!r}, expected {getattr(want, field)!r}")
    fields = ("upper_count", "lower_count", "segments") if counts else ("segments",)
    for field in fields:
        if getattr(got, field) != getattr(want, field):
            problems.append(f"{name}: {field} {getattr(got, field)!r}, expected {getattr(want, field)!r}")
    return problems
