"""Seedable Monte Carlo harness for minimum-triangle-area statistics.

Every estimate is a pure function of its parameters and a 64-bit master
seed: trial t draws from the stream (seed, t), and aggregation sums
per-trial values in trial order with exact (Shewchuk) summation, so
results are bit-identical for any worker count or scheduling.

Trials run in blocks: one ``uniform_block`` call draws the points of a
block of consecutive trials, about ``_BLOCK_ELEMENTS`` uniforms, and one
``min_twice_area_rows`` call keeps each row's minimum (below
``geometry._WINDOW_MIN_N`` points every triple of a chunk of rows in one
pass, the kernel sizing its own chunks of max(sqrt(B), B // (C(n, 2) +
C(n, 3))) rows and their triple slices of B // rows, B =
``_BLOCK_ELEMENTS``; from there on the windowed scan one row at a time).
Since every trial is its own row, no result depends on the block, chunk
or slice size.  A run keeps its areas in one
float64 array, 8 bytes a trial.

A grid trial is its sorted cell ids y*K + x, and a block of them one
int64 array, drawn in one ``word_block`` call (``_grid_cell_block``): the
first n words of each trial's stream, shifted as ``below(K * K)`` shifts
them, are its cells unless one is rejected (>= K^2) or repeated, and only
such rows rerun the scalar rejection loop.

The headline experiment sweeps n and fits the exponent of the mean
smallest triangle area, which scales like 1/n^3 for uniform random
points in the unit square.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import fsum, isfinite, log2
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    _BLOCK_ELEMENTS,
    GridArrangement,
    PointSet,
    UnitPoint,
    check_grid,
    min_area_triangle,
    min_twice_area_rows,
)
from .rng import derive_seed, stream_rng, uniform_block, word_block


def default_trial_schedule(n: int) -> int:
    """Trial count trading cost for precision: about 160000 sampled points
    per n (160000 // n trials), and at least 500 trials."""
    return max(500, 160000 // n)


def sample_unit_square(n: int, seed: int, stream_id: int) -> PointSet:
    """n independent uniform points; x then y per point, 53-bit uniforms."""
    if n < 1:
        raise ValueError("need at least one point")
    u = uniform_block(seed, stream_id, stream_id + 1, 2 * n)[0].tolist()
    return PointSet(tuple(UnitPoint(x, y) for x, y in zip(u[0::2], u[1::2])))


def _grid_cell_block(K: int, n: int, seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, n) int64 array; row r holds the sorted cells of a
    uniform arrangement of n pebbles on the K x K grid, drawn from stream
    (seed, start + r) by rejection: ``below(K * K)`` until n distinct cells,
    which is exchangeable and therefore uniform on the cell set.  The first
    n words of each stream, shifted to the top bits that ``below(K * K)``
    keeps, are that row's cells whenever all of them fall below K^2 and are
    distinct; any other row reruns the scalar loop."""
    check_grid(K, n)
    bits = (K * K - 1).bit_length()
    cells = (word_block(seed, start, stop, n) >> np.uint64(64 - bits)).astype(np.int64)
    cells.sort(axis=1)
    redraw = (cells >= K * K).any(axis=1) | (cells[:, 1:] == cells[:, :-1]).any(axis=1)
    for r in np.flatnonzero(redraw).tolist():
        rng = stream_rng(seed, start + r)
        row: set[int] = set()
        while len(row) < n:
            row.add(rng.below(K * K))
        cells[r] = sorted(row)
    return cells


def sample_grid_arrangement(K: int, n: int, seed: int, stream_id: int) -> GridArrangement:
    """Uniform over all C(K^2, n) arrangements: row 0 of the one-row block
    ``_grid_cell_block`` draws from stream (seed, stream_id)."""
    cells = _grid_cell_block(K, n, seed, stream_id, stream_id + 1)[0].tolist()
    return GridArrangement.from_cells(K, cells)


@dataclass(frozen=True)
class MuEstimate:
    """Monte Carlo estimate of the expected smallest triangle area."""

    n: int
    trials: int
    mean: float
    stderr: float
    ci95: tuple[float, float]
    seed: int
    zero_area_trials: int = 0  # degeneracy events, excluded from the mean


@dataclass(frozen=True)
class TailEstimate:
    """Empirical P(A < t) at one threshold."""

    n: int
    threshold: float
    trials: int
    fraction: float
    seed: int


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log2(mu) against log2(n)."""

    samples: tuple[tuple[int, float], ...]
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class DegeneracyStats:
    """Frequency of degenerate structure in random grid arrangements."""

    K: int
    n: int
    trials: int
    collinear_fraction: float
    shared_row_fraction: float
    seed: int


@dataclass(frozen=True)
class PointSetReport:
    """One point set measured against a random baseline for the same n."""

    n: int
    area: float
    scaled_area: float  # A * n^3, approximately n-invariant
    percentile: float
    baseline_trials: int
    baseline_seed: int


def _block_trials(n: int) -> int:
    """Trials per block at n points: the 2n uniforms of a trial fill about
    ``_BLOCK_ELEMENTS`` elements; ``min_twice_area_rows`` chunks the rows
    of a block to its own size."""
    return max(1, _BLOCK_ELEMENTS // (2 * n))


def _areas_chunk(n: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Smallest areas of trials start..stop-1: the uniforms of trial t are
    x, y per point from stream (seed, t), as in ``sample_unit_square``."""
    block = _block_trials(n)
    out = np.empty(stop - start)
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        u = uniform_block(seed, lo, hi, 2 * n)
        out[lo - start : hi - start] = min_twice_area_rows(u[:, 0::2], u[:, 1::2])
    out /= 2.0
    return out


def _workers(jobs: int, tasks: int) -> int:
    """min(jobs, tasks, CPU count), at least 1; the CPU count is read only
    when jobs and tasks both exceed 1."""
    if jobs <= 1 or tasks <= 1:
        return 1
    return min(jobs, tasks, os.cpu_count() or 1)


def ordered_map(fn: Callable, jobs: int, *args: Sequence) -> list:
    """``fn`` applied to the zipped ``args``, in task order, on
    ``_workers(jobs, tasks)`` worker processes; one worker runs every task
    in this process and imports no ``multiprocessing``."""
    workers = _workers(jobs, min(map(len, args)))
    if workers == 1:
        return list(map(fn, *args))
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *args))


def _trial_areas(n: int, trials: int, seed: int, jobs: int = 1) -> np.ndarray:
    """Per-trial smallest areas as float64, in trial order regardless of jobs."""
    if n < 3:
        raise ValueError("need at least 3 points for a triangle")
    chunks = _workers(jobs, trials // 4)  # one per worker, at least 4 trials each
    bounds = [trials * c // chunks for c in range(chunks + 1)]
    parts = ordered_map(_areas_chunk, jobs, [n] * chunks, [seed] * chunks, bounds[:-1], bounds[1:])
    return parts[0] if chunks == 1 else np.concatenate(parts)  # a lone chunk is not copied


def estimate_mu(n: int, trials: int, seed: int, jobs: int = 1) -> MuEstimate:
    """Mean smallest area over independent uniform point sets.

    Exact-zero areas (collinear triples, probability zero under uniform
    sampling) are counted separately as degeneracy events rather than
    folded into the mean.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    live = _trial_areas(n, trials, seed, jobs=jobs)
    zeros = trials - int(np.count_nonzero(live))
    if zeros:
        live = live[live != 0.0]
    if not live.size:
        return MuEstimate(n, trials, 0.0, 0.0, (0.0, 0.0), seed, zeros)
    if live.min() == live.max():
        mean, stderr = float(live[0]), 0.0
    else:
        vals = live.tolist()
        mean = fsum(vals) / len(vals)
        # squared as Python floats: ** 2 is libm pow, which rounds some
        # squares unlike numpy's v * v
        var = fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        stderr = (var / len(vals)) ** 0.5
    ci = (mean - 1.96 * stderr, mean + 1.96 * stderr)
    return MuEstimate(n, trials, mean, stderr, ci, seed, zeros)


def tail_probability(n: int, t: float, trials: int, seed: int, jobs: int = 1) -> TailEstimate:
    """Empirical fraction of trials with smallest area strictly below t."""
    if not isfinite(t):
        raise ValueError("threshold must be finite")
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    if trials < 1:
        raise ValueError("need at least one trial")
    vals = _trial_areas(n, trials, seed, jobs=jobs)
    frac = int(np.count_nonzero(vals < t)) / trials
    return TailEstimate(n, t, trials, frac, seed)


def fit_exponent(samples: Sequence[tuple[int, float]]) -> ScalingFit:
    """Ordinary least squares on (log2 n, log2 mu) pairs."""
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    if any(mu <= 0 for _, mu in samples):
        raise ValueError("all mu values must be positive")
    xs = [log2(n) for n, _ in samples]
    ys = [log2(mu) for _, mu in samples]
    m = len(xs)
    xbar = fsum(xs) / m
    ybar = fsum(ys) / m
    sxx = fsum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("samples must span more than one n")
    sxy = fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = fsum((y - ybar) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(tuple((int(n), float(mu)) for n, mu in samples), slope, intercept, r2)


def scan_mu(
    ns: Sequence[int],
    seed: int,
    trials_for: Optional[Callable[[int], int]] = None,
    jobs: int = 1,
) -> tuple[list[MuEstimate], Optional[ScalingFit]]:
    """Sweep n, estimate mu_n for each, and fit the scaling exponent.

    Each n gets an independent sub-seed derived from the master seed, so
    the sweep is reproducible as a whole and per point.  The fit is None
    when fewer than three n values are swept.
    """
    trials_for = trials_for or default_trial_schedule
    estimates = [estimate_mu(n, trials_for(n), derive_seed(seed, n), jobs=jobs) for n in ns]
    fit = fit_exponent([(e.n, e.mean) for e in estimates]) if len(estimates) >= 3 else None
    return estimates, fit


def degenerate_structure_stats(K: int, n: int, trials: int, seed: int) -> DegeneracyStats:
    """Monte Carlo frequency of collinear triples and shared rows in
    uniform random grid arrangements: in a block of sorted cell ids, two
    equal adjacent row ids or a zero smallest twice-area."""
    if trials < 1:
        raise ValueError("need at least one trial")
    coll = shared = 0
    block = _block_trials(max(n, 3))
    for lo in range(0, trials, block):
        ys, xs = np.divmod(_grid_cell_block(K, n, seed, lo, min(lo + block, trials)), K)
        shared += int(np.count_nonzero((ys[:, 1:] == ys[:, :-1]).any(axis=1)))
        if n >= 3:
            coll += int(np.count_nonzero(min_twice_area_rows(xs, ys) == 0))
    return DegeneracyStats(K, n, trials, coll / trials, shared / trials, seed)


@lru_cache(maxsize=8)
def baseline_areas(n: int, trials: int, seed: int) -> np.ndarray:
    """Sorted baseline distribution of A for uniform random n-point sets, a
    read-only float64 array; the last few (n, trials, seed) are cached for
    reproducible percentiles."""
    base = np.sort(_trial_areas(n, trials, seed))
    base.flags.writeable = False
    return base


def analyze_pointset(
    points: PointSet, baseline_seed: int, baseline_trials: int = 1000
) -> PointSetReport:
    """Measure one point set: A, the scale-free statistic A*n^3, and A's
    percentile within the random baseline for the same n.  Well-spread
    constructions land in the top percentiles; any collinear triple pins
    the percentile at zero."""
    n = points.n
    if n < 3:
        raise ValueError("n must be >= 3")
    if baseline_trials < 1:
        raise ValueError("need at least one baseline trial")
    area = min_area_triangle(points, mode="fast").area
    base = baseline_areas(n, baseline_trials, baseline_seed)
    below = int(np.searchsorted(base, area, side="left"))
    ties = int(np.searchsorted(base, area, side="right")) - below
    pct = (below + 0.5 * ties) / len(base)
    return PointSetReport(n, area, area * n**3, pct, baseline_trials, baseline_seed)
