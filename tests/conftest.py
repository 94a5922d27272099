"""Shared helpers: seeded generators for random and planted arrangements,
and the report digests of the golden tests."""

from __future__ import annotations

import concurrent.futures
import hashlib
import os

import pytest

from heilbronn.geometry import GridArrangement, GridPoint, min_area_triangle
from heilbronn.rng import stream_rng


def random_arrangement(K: int, n: int, seed: int, stream: int = 0) -> GridArrangement:
    rng = stream_rng(seed, stream)
    cells: set[int] = set()
    while len(cells) < n:
        cells.add(rng.below(K * K))
    return GridArrangement.from_cells(K, sorted(cells))


def distinct_row_arrangement(K: int, n: int, seed: int, stream: int = 0) -> GridArrangement:
    """Random arrangement with all pebbles on distinct rows."""
    rng = stream_rng(seed, stream)
    rows: set[int] = set()
    while len(rows) < n:
        rows.add(rng.below(K))
    pts = [(rng.below(K), y) for y in sorted(rows)]
    return GridArrangement.from_points(K, pts)


def _fill_random(pts: list[tuple[int, int]], K: int, n: int, rng) -> list[tuple[int, int]]:
    seen = set(pts)
    while len(pts) < n:
        c = rng.below(K * K)
        xy = (c % K, c // K)
        if xy not in seen:
            seen.add(xy)
            pts.append(xy)
    return pts


def planted_collinear(K: int, n: int, seed: int, stream: int = 0) -> GridArrangement:
    """Random arrangement containing three points on one line."""
    rng = stream_rng(seed, stream)
    while True:
        px, py = rng.below(K // 2), rng.below(K // 2)
        dx, dy = rng.below(4), rng.below(4)
        if (dx, dy) == (0, 0):
            continue
        t1 = 1 + rng.below(4)
        t2 = t1 + 1 + rng.below(4)
        q = (px + t1 * dx, py + t1 * dy)
        r = (px + t2 * dx, py + t2 * dy)
        if max(q[0], r[0], q[1], r[1]) < K:
            pts = _fill_random([(px, py), q, r], K, n, rng)
            return GridArrangement.from_points(K, pts)


def planted_shared_row(K: int, n: int, seed: int, stream: int = 0) -> GridArrangement:
    rng = stream_rng(seed, stream)
    y = rng.below(K)
    x1 = rng.below(K)
    while True:
        x2 = rng.below(K)
        if x2 != x1:
            break
    pts = _fill_random([(x1, y), (x2, y)], K, n, rng)
    return GridArrangement.from_points(K, pts)


def planted_small_triangle(
    K: int, n: int, seed: int, T: int = 1, stream: int = 0
) -> tuple[GridArrangement, tuple[int, int, int]]:
    """Arrangement with a planted triangle of twice-area exactly T; returns
    the triple's indices in the sorted arrangement."""
    rng = stream_rng(seed, stream)
    px, py = rng.below(K - 2 * T - 2), rng.below(K - 2 * T - 2)
    planted = [(px, py), (px + 1, py), (px, py + T)]  # cross = T exactly
    pts = _fill_random(list(planted), K, n, rng)
    a = GridArrangement.from_points(K, pts)
    idx = tuple(sorted(a.points.index(GridPoint(x, y)) for x, y in planted))
    return a, idx


def sha_lines(lines) -> str:
    """SHA-256 hex digest of ``lines`` joined by newlines."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report_line(points) -> str:
    """``i,j,k,twice_area`` of ``min_area_triangle(mode="fast")``, the
    twice-area as exact hex."""
    r = min_area_triangle(points, mode="fast")
    t = r.twice_area
    return f"{r.i},{r.j},{r.k},{t.hex() if isinstance(t, float) else hex(t)}"


@pytest.fixture(scope="session")
def acceptance_scan():
    """Criterion-1 scan, shared by the acceptance tests that need it."""
    from heilbronn.montecarlo import scan_mu

    return scan_mu([8, 16, 32, 64, 128], seed=42)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    every call inline, so no process is started."""

    def __init__(self, max_workers: int, created: list[int]):
        created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace ``concurrent.futures.ProcessPoolExecutor``, which
    ``montecarlo.ordered_map`` imports where it starts a pool, with
    ``_InlineExecutor`` on a machine that reports 4 CPUs; returns the list
    of ``max_workers`` values the code asked for."""
    created: list[int] = []
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def make(max_workers):
        return _InlineExecutor(max_workers, created)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    return created
