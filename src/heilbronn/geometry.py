"""Exact and floating-point planar geometry for minimum-area-triangle work.

Two coordinate modes exist side by side and never mix:

* grid mode -- integer coordinates on a K x K lattice.  All predicates are
  exact integer arithmetic; twice-areas are exact nonnegative integers.
* continuous mode -- float64 coordinates in the unit square.  Evaluation is
  deterministic IEEE-754 with a fixed operation order, so pure-Python and
  vectorized paths return bit-identical values.

There are two triple scans: ``_min_triple_exhaustive``, the pure-Python
reference (test oracle, ``mode="exhaustive"`` and the optimizer's final
re-verification), and ``_pivot_scan``, the one vectorised per-pivot scan
over one point set or a batch of them.  It has two reductions:
``min_twice_area_rows`` keeps each row's minimum (Monte Carlo trials), and
``min_area_triangle`` keeps the lexicographically first minimal triple of
a single set.

A grid point (i, j) maps to the unit-square point (i/(K-1), j/(K-1)); with
that convention a nondegenerate grid triangle has area at least
1/(2(K-1)^2) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

import numpy as np

MAX_GRID_SIDE = 1 << 30  # guarantees twice-areas fit in int64 intermediates

#: default tolerance on |twice signed area| for continuous collinearity
EPS_COLLINEAR = 1e-15


@dataclass(frozen=True, slots=True, order=True)
class GridPoint:
    """Integer lattice point; ordering is row-major (y, then x)."""

    # order=True compares (y, x): the row-major cell order used everywhere
    y: int
    x: int

    def __init__(self, x: int, y: int):
        object.__setattr__(self, "x", int(x))
        object.__setattr__(self, "y", int(y))

    def __repr__(self) -> str:
        return f"GridPoint({self.x}, {self.y})"


@dataclass(frozen=True, slots=True)
class UnitPoint:
    """Float64 point in the closed unit square."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"point ({self.x}, {self.y}) outside the unit square")


@dataclass(frozen=True)
class GridArrangement:
    """n distinct pebbles on a K x K grid, stored in row-major cell order."""

    K: int
    points: tuple[GridPoint, ...]

    def __post_init__(self):
        K = self.K
        if K < 2:
            raise ValueError("grid side K must be >= 2")
        if K > MAX_GRID_SIDE:
            raise ValueError(f"grid side K must be <= 2^30, got {K}")
        if len(self.points) > K * K:
            raise ValueError("more pebbles than grid cells")
        prev = None
        for p in self.points:
            if not (0 <= p.x < K and 0 <= p.y < K):
                raise ValueError(f"pebble {p} outside [0, {K-1}]^2")
            if prev is not None and (p.y, p.x) <= (prev.y, prev.x):
                raise ValueError("pebbles must be distinct and sorted row-major")
            prev = p

    @classmethod
    def from_points(cls, K: int, pts: Iterable[tuple[int, int]]) -> "GridArrangement":
        """Build from (x, y) pairs in any order; duplicates are rejected."""
        pts = [GridPoint(x, y) for x, y in pts]
        pts.sort()
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"duplicate pebble at ({a.x}, {a.y})")
        return cls(K, tuple(pts))

    @property
    def n(self) -> int:
        return len(self.points)

    def cells(self) -> tuple[int, ...]:
        """Row-major cell ids (y*K + x), strictly increasing."""
        return tuple(p.y * self.K + p.x for p in self.points)

    def rows(self) -> tuple[int, ...]:
        return tuple(p.y for p in self.points)

    def coords(self) -> np.ndarray:
        """(n, 2) int64 array of (x, y) coordinates."""
        return np.array([(p.x, p.y) for p in self.points], dtype=np.int64)

    def to_unit_points(self) -> "PointSet":
        """Embed into the unit square with spacing 1/(K-1)."""
        s = self.K - 1
        return PointSet(tuple(UnitPoint(p.x / s, p.y / s) for p in self.points))


@dataclass(frozen=True)
class PointSet:
    """Ordered collection of unit-square points (continuous mode)."""

    points: tuple[UnitPoint, ...]

    @classmethod
    def from_coords(cls, coords: Iterable[tuple[float, float]]) -> "PointSet":
        return cls(tuple(UnitPoint(float(x), float(y)) for x, y in coords))

    @property
    def n(self) -> int:
        return len(self.points)

    def coords(self) -> np.ndarray:
        """(n, 2) float64 array of (x, y) coordinates."""
        return np.array([(p.x, p.y) for p in self.points], dtype=np.float64)


@dataclass(frozen=True)
class TriangleReport:
    """Minimum-area triple: indices i < j < k, exact twice-area, unit area."""

    i: int
    j: int
    k: int
    twice_area: int | float
    area: float

    @property
    def indices(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)


def _xy(p) -> tuple:
    if isinstance(p, (GridPoint, UnitPoint)):
        return (p.x, p.y)
    x, y = p
    return (x, y)


def _check_mode(coords: Sequence[tuple]) -> bool:
    """True for grid (all-int) inputs, False for continuous (all-float)."""
    flat = [v for xy in coords for v in xy]
    if all(isinstance(v, int) for v in flat):
        return True
    if all(isinstance(v, float) for v in flat):
        return False
    raise ValueError("mixed-mode inputs: coordinates must be all int or all float")


def twice_signed_area(p, q, r):
    """Cross product (q - p) x (r - p): twice the signed triangle area.

    Exact integer in grid mode; deterministic float64 in continuous mode.
    Positive for a counterclockwise turn p -> q -> r.
    """
    (px, py), (qx, qy), (rx, ry) = _xy(p), _xy(q), _xy(r)
    _check_mode([(px, py), (qx, qy), (rx, ry)])
    return (qx - px) * (ry - py) - (qy - py) * (rx - px)


def collinear(p, q, r, eps: float = EPS_COLLINEAR) -> bool:
    """True iff p, q, r lie on one line.

    Grid mode tests twice_signed_area == 0 exactly; continuous mode tests
    |twice_signed_area| <= eps (default 1e-15).
    """
    t = twice_signed_area(p, q, r)
    if isinstance(t, int):
        return t == 0
    return abs(t) <= eps


def lattice_points_half_open(p, q) -> int:
    """Number of lattice points on the half-open segment [p, q).

    Equals gcd(|q.x - p.x|, |q.y - p.y|): the points are p + t*(q-p)/g for
    t = 0..g-1.  Grid mode only; p == q is rejected.
    """
    (px, py), (qx, qy) = _xy(p), _xy(q)
    if not all(isinstance(v, int) for v in (px, py, qx, qy)):
        raise ValueError("lattice point counting requires integer grid points")
    if (px, py) == (qx, qy):
        raise ValueError("segment endpoints must differ")
    return gcd(abs(qx - px), abs(qy - py))


def normalize_area(twice_area, K: int) -> float:
    """Map a grid twice-area to unit-square area: twice_area / (2(K-1)^2)."""
    if K < 2:
        raise ValueError("grid side K must be >= 2")
    return twice_area / (2 * (K - 1) ** 2)


@lru_cache(maxsize=4)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All C(n-1, 2) pairs (j, k), j < k, of xs[1:] in row-major order.

    Pivot i's pairs, those of xs[i+1:], are this table's tail from offset
    i*(n-2) - i*(i-1)//2; one table per n keeps the cache at O(n^2) memory.
    """
    return np.triu_indices(n - 1, 1)


def _min_triple_exhaustive(xs, ys) -> tuple[int, int, int, object]:
    """Reference scan over all C(n,3) triples; exact, lexicographic ties.

    The oracle of every other scan: ``_pivot_scan`` and the optimizer's
    twice-area table (``constructions._run_restart``) use its operand
    order, so their values match it bit for bit."""
    n = len(xs)
    best = None
    best_ijk = None
    for i in range(n - 2):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, n - 1):
            dxj, dyj = xs[j] - xi, ys[j] - yi
            for k in range(j + 1, n):
                t = dxj * (ys[k] - yi) - dyj * (xs[k] - xi)
                if t < 0:
                    t = -t
                if best is None or t < best:
                    best = t
                    best_ijk = (i, j, k)
    return best_ijk[0], best_ijk[1], best_ijk[2], best


def _pivot_scan(xs: np.ndarray, ys: np.ndarray):
    """The vectorised triple scan over float64 or int64 coordinate rows:
    one point set of shape (n,) or a batch of B sets of shape (B, n).

    For each pivot i, yields (i, jj, kk, cross): |cross| of every triple
    (i, 1+jj, 1+kk) of every row, a block of shape (..., C(n-i-1, 2))
    whose last axis runs over the pairs of points after i in row-major
    order.  The point differences are taken before the gather, which moves
    no bit: each pair reads the same two differences, with the operand
    order of ``_min_triple_exhaustive``.  Each block stays alive until the
    next one is built, which keeps the allocator from churning at large n.
    """
    n = xs.shape[-1]
    jt, kt = _pair_table(n)
    xs = np.ascontiguousarray(xs)
    ys = np.ascontiguousarray(ys)
    for i in range(n - 2):
        start = i * (n - 2) - i * (i - 1) // 2
        jj, kk = jt[start:], kt[start:]
        dx = xs[..., 1:] - xs[..., i, None]  # the i leading columns go unread
        dy = ys[..., 1:] - ys[..., i, None]
        cross = dx.take(jj, axis=-1) * dy.take(kk, axis=-1)
        cross -= dy.take(jj, axis=-1) * dx.take(kk, axis=-1)
        np.abs(cross, out=cross)
        yield i, jj, kk, cross


def min_twice_area_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Minimum |cross| over all triples of each row of (B, n) coordinates:
    ``_pivot_scan`` reduced per pivot by a row minimum."""
    if xs.shape[1] < 3:
        raise ValueError("need at least 3 points for a triangle")
    best = None
    for _, _, _, cross in _pivot_scan(xs, ys):
        row_min = cross.min(axis=1)
        best = row_min if best is None else np.minimum(best, row_min, out=best)
    return best


def min_area_triangle(points, mode: str = "fast") -> TriangleReport:
    """Smallest-area triangle over all C(n,3) triples of a point set.

    Accepts a PointSet (continuous) or GridArrangement (grid).  Both modes
    return the exact minimum; 'fast' runs ``_pivot_scan`` on the set as one
    row and is guaranteed (and tested) to match the 'exhaustive' reference,
    including the lexicographically-smallest-index tie-break.
    """
    if mode not in ("exhaustive", "fast"):
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(points, (GridArrangement, PointSet)):
        raise TypeError("expected PointSet or GridArrangement")
    if points.n < 3:
        raise ValueError("need at least 3 points for a triangle")
    grid = isinstance(points, GridArrangement)
    arr = points.coords()

    if mode == "exhaustive":
        # tolist gives Python ints for int64 and floats for float64
        i, j, k, t = _min_triple_exhaustive(arr[:, 0].tolist(), arr[:, 1].tolist())
    else:
        # first strict minimum over pivots, first argmin within a pivot:
        # the lexicographically smallest minimal triple
        t = None
        for p, jj, kk, cross in _pivot_scan(arr[:, 0], arr[:, 1]):
            pos = int(cross.argmin())
            if t is None or cross[pos] < t:
                t = cross[pos]
                i, j, k = p, 1 + int(jj[pos]), 1 + int(kk[pos])

    if grid:
        t = int(t)
        return TriangleReport(i, j, k, t, normalize_area(t, points.K))
    t = float(t)
    return TriangleReport(i, j, k, t, t / 2.0)

