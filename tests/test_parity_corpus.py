"""Parity corpus: every segmentation, to the bit, against stored digests.

A seeded corpus of series x configuration pairs covers degrees 0-10; DPU,
alpha1 SSS, first-diff SSS and both criteria; deadbands 0, 0.01 and 0.1;
level offsets 0, 1e3 and 1e6; noise, random walks, level shifts, a periodic
wave and integer counts; and windows longer than 2 048 samples.  Per pair,
``tests/golden/parity.json`` keeps two SHA-256 digests: one of the
``(start, end, closed_by)`` of every segment, one of the alpha bytes.  A
faster kernel that changes no output passes unedited; one that moves a
boundary, or a last bit of a coefficient, fails and names the pair.

The inputs come from ``random.Random.random()``, whose sequence Python
guarantees, and from + - * / only, so the digests depend on neither numpy's
generators nor the platform's libm.  After an intended output change,
regenerate the digests with

    PYTHONPATH=src python tests/test_parity_corpus.py

and name the change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from fcpd import ClosedBy, SegmentationConfig, SegmentStream, SlopeSignMode, segment_series

DIGESTS = Path(__file__).parent / "golden" / "parity.json"

KINDS = ("noise", "walk", "shifts", "wave", "counts")
MODES = ("dpu", "alpha1", "first-diff", "both")
DEADBANDS = (0.0, 0.01, 0.1)
OFFSETS = (0.0, 1e3, 1e6)
# Quiet noise at a threshold of 7 sigma: one window grows to the end.
LONG = ((3, 2600), (7, 3300), (10, 2200), (5, 4200))


def _normal(rng: random.Random) -> float:
    """Irwin-Hall approximation of N(0, 1): twelve uniforms, minus 6."""
    return sum(rng.random() for _ in range(12)) - 6.0


def _wave(t: int, period: int) -> float:
    """Bhaskara's rational approximation of sin(2 pi t / period), within 0.002."""
    phase = t % period
    sign = 1.0
    if 2 * phase >= period:
        phase -= period / 2.0
        sign = -1.0
    x = 180.0 * phase / (period / 2.0)  # degrees, 0..180
    return sign * 4.0 * x * (180.0 - x) / (40500.0 - x * (180.0 - x))


def series(kind: str, seed: int, n: int) -> list[float]:
    rng = random.Random(seed)
    if kind == "noise":
        return [_normal(rng) for _ in range(n)]
    if kind == "walk":
        level, out = 0.0, []
        for _ in range(n):
            level += _normal(rng)
            out.append(level)
        return out
    if kind == "shifts":
        level, out = 0.0, []
        for t in range(n):
            if t % 150 == 0:
                level = 40.0 * rng.random() - 20.0
            out.append(level + _normal(rng))
        return out
    if kind == "wave":
        return [3.0 * _wave(t, 48) + 0.2 * _normal(rng) for t in range(n)]
    # Integer counts on a weekly cycle: a sum of Bernoulli draws.
    return [float(sum(rng.random() < 0.3 + 0.1 * _wave(t, 7) for _ in range(12))) for t in range(n)]


def _config(degree: int, mode: str, deadband: float, scale: float) -> SegmentationConfig:
    th_dpu = None if mode in ("alpha1", "first-diff") else scale
    sss_mode = SlopeSignMode.FIRST_DIFF_SIGN if mode == "first-diff" else SlopeSignMode.ALPHA1_SIGN
    th_sss = None if mode == "dpu" else (4 if mode == "first-diff" else 1)
    if mode == "both":
        sss_mode = SlopeSignMode(("alpha1", "first-diff")[degree % 2])
        th_sss = 2 + degree % 3
    return SegmentationConfig(
        degree=degree, th_dpu=th_dpu, th_sss=th_sss, sss_mode=sss_mode, sss_deadband=deadband
    )


# DPU thresholds per kind, in the series' own units.  Counts take whole
# numbers, so a degree-0 or degree-1 deviation often equals one exactly.
_SCALES = {"noise": 2.5, "walk": 3.0, "shifts": 3.5, "wave": 0.6, "counts": 2.0}


def corpus() -> dict[str, tuple[list[float], SegmentationConfig]]:
    """Name -> (series, config), in a fixed order."""
    pairs = {}
    i = 0
    for degree in range(11):
        for kind in KINDS:
            for mode in MODES:
                deadband = DEADBANDS[i % 3]
                offset = OFFSETS[(i // 3) % 3]
                n = 300 + 97 * ((i * 7) % 11)
                values = [v + offset for v in series(kind, 1000 + i, n)]
                name = f"{kind}-d{degree}-{mode}-db{deadband:g}-off{offset:g}"
                pairs[name] = (values, _config(degree, mode, deadband, _SCALES[kind]))
                i += 1
    for j, (degree, n) in enumerate(LONG):
        offset = OFFSETS[j % 3]
        values = [v + offset for v in series("noise", 2000 + j, n)]
        config = SegmentationConfig(degree=degree, th_dpu=7.0)
        pairs[f"long-d{degree}-n{n}-off{offset:g}"] = (values, config)
    return pairs


def digests(values: list[float], config: SegmentationConfig) -> dict[str, str]:
    segments = segment_series(values, config).segments
    bounds = "".join(f"{s.start},{s.end},{s.closed_by.value}\n" for s in segments)
    alphas = b"".join(b"-" if s.alpha is None else s.alpha.alpha.tobytes() for s in segments)
    return {
        "boundaries": hashlib.sha256(bounds.encode()).hexdigest(),
        "alpha": hashlib.sha256(alphas).hexdigest(),
    }


CORPUS = corpus()


@cache
def stored() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def test_corpus_covers_what_it_promises():
    configs = [config for _, config in CORPUS.values()]
    assert {c.degree for c in configs} == set(range(11))
    assert {c.sss_deadband for c in configs} == set(DEADBANDS)
    assert any(c.th_dpu and c.th_sss is not None for c in configs)
    assert {name.rsplit("-off", 1)[1] for name in CORPUS} == {"0", "1000", "1e+06"}
    long = CORPUS["long-d7-n3300-off1000"]
    assert max(s.length for s in segment_series(*long).segments) > 2048
    closed = set()
    for values, config in list(CORPUS.values())[::7]:
        closed |= {s.closed_by for s in segment_series(values, config).segments}
    assert closed == set(ClosedBy)


def test_stored_digests_name_the_same_pairs():
    assert list(stored()) == list(CORPUS)


@pytest.mark.parametrize("name", list(CORPUS))
def test_segmentation_matches_its_stored_digests(name):
    assert digests(*CORPUS[name]) == stored()[name]


# (window start, sample) where the exact degree-1 deviation of
# counts-d1-dpu-db0-off0 equals its th_dpu of 2.  DPU closes only above the
# threshold, so none of these samples ends a segment; a faster deviation
# that rounds up at one of them would.
_DPU_TIES = ((65, 71), (219, 229), (290, 295), (363, 370), (381, 388), (408, 415), (612, 624),
             (659, 666))


def _exact_line_deviation(window: list[float]) -> Fraction:
    """|least-squares line at the last sample - that sample|, in rationals."""
    ys = [Fraction(y) for y in window]
    m = len(ys)
    x_mean, y_mean = Fraction(m - 1, 2), sum(ys) / m
    sxx = sum((x - x_mean) ** 2 for x in range(m))
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in enumerate(ys))
    return abs(y_mean + sxy / sxx * (m - 1 - x_mean) - ys[-1])


def test_dpu_ties_on_counts_do_not_close():
    values, config = CORPUS["counts-d1-dpu-db0-off0"]
    assert (config.degree, config.th_dpu, len(values)) == (1, 2.0, 1270)
    segments = segment_series(values, config).segments
    for start, end in _DPU_TIES:
        assert _exact_line_deviation(values[start : end + 1]) == 2
        assert any(s.start == start and s.end > end for s in segments), (start, end)
    stream = SegmentStream(config)
    for value in values[:625]:
        stream.push(value)
    assert (stream.state.start_index, stream.state.deviation) == (612, 2.0)


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps({name: digests(*pair) for name, pair in CORPUS.items()}, indent=1) + "\n"
    )
    print(f"wrote {len(CORPUS)} digest pairs to {DIGESTS}")
