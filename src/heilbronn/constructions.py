"""Deterministic extremal constructions and a small best-case optimizer.

These provide reference arrangements whose smallest triangle is provably
or empirically large: the quadratic-residue construction on prime grids
(no three points collinear, minimum area at least 1/(2p^2) under the
1/p cell normalization), and a seeded random-restart local search for the
best achievable minimum area at small n.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import isqrt

from .geometry import (
    GridArrangement,
    PointSet,
    UnitPoint,
    _min_triple_exhaustive,
    min_area_triangle,
    # unused here; perfbench/spans.py patches this name to count calls
    twice_signed_area,  # noqa: F401
)
from .rng import stream_rng

# local-search schedule (fixed for reproducibility)
_INITIAL_STEP = 0.25
_DECAY = 0.95
_STREAK = 20
_MIN_STEP = 1e-9


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality test."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def erdos_prime(p: int) -> GridArrangement:
    """Points (i, i^2 mod p) on a p x p grid, p prime.

    A line meets the parabola in at most two residues mod p, so no three
    of these points are collinear; every triangle then has twice-area >= 1.
    Note the construction's natural scale is the cell size 1/p (area bound
    1/(2p^2)), not the 1/(p-1) lattice normalization used elsewhere.
    The no-collinear property is re-verified on every call by an exact
    scan over all C(p, 3) triples.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    arr = GridArrangement.from_points(p, [(i, (i * i) % p) for i in range(p)])
    if p >= 3 and min_area_triangle(arr).twice_area == 0:
        raise AssertionError(f"collinear triple in residue construction p={p}")
    return arr


def erdos_area_lower_bound(p: int) -> float:
    """1/(2p^2): the guaranteed minimum area under the 1/p normalization."""
    return 1.0 / (2.0 * p * p)


@dataclass(frozen=True)
class OptimizerResult:
    points: PointSet
    value: float
    iterations: int
    seed: int


def _run_restart(n: int, seed: int, restart: int, steps: int) -> tuple[float, list[float], list[float], int]:
    rng = stream_rng(seed, restart)
    xs = []
    ys = []
    for _ in range(n):
        xs.append(rng.uniform())
        ys.append(rng.uniform())
    # the pure-Python reference scan: at n <= 16 it beats the vectorised
    # scan per call
    value = _min_triple_exhaustive(xs, ys)[3] / 2.0
    step = _INITIAL_STEP
    streak = 0
    it = 0
    for it in range(1, steps + 1):
        if step < _MIN_STEP:
            break
        i = rng.below(n)
        axis = rng.below(2)
        delta = (2.0 * rng.uniform() - 1.0) * step
        coords = xs if axis == 0 else ys
        old = coords[i]
        new = min(1.0, max(0.0, old + delta))
        coords[i] = new
        cand = _min_triple_exhaustive(xs, ys)[3] / 2.0
        if cand > value:
            value = cand
            streak = 0
        else:
            coords[i] = old
            streak += 1
            if streak >= _STREAK:
                step *= _DECAY
                streak = 0
    return value, xs, ys, it


def optimize_heilbronn(
    n: int, restarts: int = 16, steps: int = 4000, seed: int = 0, jobs: int = 1
) -> OptimizerResult:
    """Random-restart hill climbing on the minimum triangle area.

    Each restart perturbs one coordinate of one point at a time, accepting
    only strict improvements, with the step size decaying geometrically
    after every 20 consecutive rejections.  Deterministic per seed; ties
    between restarts resolve to the lowest restart index.  The reported
    value is re-verified with the exhaustive scan.
    """
    if not 3 <= n <= 16:
        raise ValueError("optimizer supports 3 <= n <= 16")
    if restarts < 1 or steps < 1:
        raise ValueError("restarts and steps must be positive")
    workers = min(jobs, os.cpu_count() or 1, restarts)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_run_restart, [n] * restarts, [seed] * restarts,
                                 range(restarts), [steps] * restarts))
    else:
        runs = [_run_restart(n, seed, r, steps) for r in range(restarts)]
    best_r = 0
    for r in range(1, restarts):
        if runs[r][0] > runs[best_r][0]:
            best_r = r
    value, xs, ys, _ = runs[best_r]
    iterations = sum(run[3] for run in runs)
    points = PointSet(tuple(UnitPoint(x, y) for x, y in zip(xs, ys)))
    verified = min_area_triangle(points, mode="exhaustive").area
    if verified != value:
        raise AssertionError("optimizer value failed post-hoc verification")
    return OptimizerResult(points, verified, iterations, seed)


def corners_plus_random(n: int, seed: int) -> PointSet:
    """The four unit-square corners plus n-4 seeded uniform points: a
    fixture whose minimum area is known to be at most 1/2."""
    if n < 4:
        raise ValueError("need n >= 4")
    pts = [UnitPoint(0.0, 0.0), UnitPoint(1.0, 0.0), UnitPoint(0.0, 1.0), UnitPoint(1.0, 1.0)]
    rng = stream_rng(seed, 0)
    for _ in range(n - 4):
        x = rng.uniform()
        y = rng.uniform()
        pts.append(UnitPoint(x, y))
    return PointSet(tuple(pts))
