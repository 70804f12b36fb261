"""Seeded synthetic inputs for the benchmark workloads.

Generated with numpy alone, never with the program's own generator, so a
change to the program cannot change what the benchmark feeds it.  The same
seed always gives the same inputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """One independent stream per (workload, seed) pair."""
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


@dataclass(frozen=True)
class CrimeSeries:
    counts: np.ndarray
    shift_at: int
    burst: tuple[int, int]


def crime_series(rng: np.random.Generator, days: int) -> CrimeSeries:
    """Daily counts: weekly and yearly cycles, one level shift, one noise burst."""
    t = np.arange(days, dtype=float)
    base = rng.uniform(30.0, 50.0)
    weekly = 1.0 + 0.15 * np.sin(2 * np.pi * t / 7.0 + rng.uniform(0, 2 * np.pi))
    yearly = 1.0 + 0.2 * np.sin(2 * np.pi * t / 365.25 + rng.uniform(0, 2 * np.pi))
    lam = base * weekly * yearly
    shift_at = int(rng.integers(days // 4, days // 2))
    lam[shift_at:] *= rng.uniform(1.3, 1.6)
    burst_start = int(rng.integers(days // 2 + 60, days - 120))
    burst = (burst_start, burst_start + 60)
    counts = rng.poisson(lam).astype(float)
    noise = rng.normal(0.0, 3.0 * np.sqrt(base), burst[1] - burst[0])
    counts[burst[0] : burst[1]] = np.maximum(
        0.0, np.round(counts[burst[0] : burst[1]] + noise)
    )
    return CrimeSeries(counts=counts, shift_at=shift_at, burst=burst)


@dataclass(frozen=True)
class SensorStream:
    values: np.ndarray
    shifts: tuple[int, ...]


def sensor_stream(
    rng: np.random.Generator, n: int, gap: tuple[int, int], sigma: float
) -> SensorStream:
    """A quiet level with slow drift and rare large level shifts.

    Shifts are 30 to 60 sigma, so the fit's deviation at the first shifted
    sample is far above any threshold set a few sigma above the noise.
    """
    shifts = []
    at = int(rng.integers(*gap))
    while at < n - gap[0]:
        shifts.append(at)
        at += int(rng.integers(*gap))
    level = np.zeros(n)
    for s in shifts:
        level[s:] += rng.choice([-1.0, 1.0]) * rng.uniform(30.0, 60.0) * sigma
    t = np.arange(n, dtype=float)
    drift = 2.0 * sigma * np.sin(2 * np.pi * t / 20000.0 + rng.uniform(0, 2 * np.pi))
    values = 20.0 + level + drift + rng.normal(0.0, sigma, n)
    return SensorStream(values=values, shifts=tuple(shifts))


def district_counts(rng: np.random.Generator, files: int, weeks: int) -> list[np.ndarray]:
    """Weekly counts per district: a yearly cycle around a low Poisson rate."""
    out = []
    t = np.arange(weeks, dtype=float)
    for _ in range(files):
        base = rng.uniform(4.0, 15.0)
        yearly = 1.0 + 0.3 * np.sin(2 * np.pi * t / 52.18 + rng.uniform(0, 2 * np.pi))
        out.append(rng.poisson(base * yearly).astype(float))
    return out
