"""Exact and floating-point planar geometry for minimum-area-triangle work.

Two coordinate modes exist side by side and never mix:

* grid mode -- integer coordinates on a K x K lattice.  All predicates are
  exact integer arithmetic; twice-areas are exact nonnegative integers.
* continuous mode -- float64 coordinates in the unit square.  Evaluation is
  deterministic IEEE-754 with a fixed operation order, so pure-Python and
  vectorized paths return bit-identical values.

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

    Pivot i's pairs of xs[i+1:] are this table's tail from offset
    i*(n-2) - i*(i-1)//2, shifted down by i; one table per n keeps the
    cache at O(n^2) memory.
    """
    return np.triu_indices(n - 1, 1)


def _min_triple_exhaustive(xs, ys) -> tuple[int, int, int, object]:
    """Reference scan over all C(n,3) triples; exact, lexicographic ties."""
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


def _min_triple_fast(xs: np.ndarray, ys: np.ndarray) -> tuple[int, int, int, object]:
    """Vectorized per-pivot scan; identical values and tie-breaks by
    construction (same formula, same operand order, row-major pair order)."""
    n = len(xs)
    jt, kt = _pair_table(n)
    tx, ty = xs[1:], ys[1:]
    best = None
    best_ijk = None
    for i in range(n - 2):
        start = i * (n - 2) - i * (i - 1) // 2
        jj, kk = jt[start:], kt[start:]
        cross = (tx[jj] - xs[i]) * (ty[kk] - ys[i]) - (ty[jj] - ys[i]) * (tx[kk] - xs[i])
        np.abs(cross, out=cross)
        pos = int(np.argmin(cross))
        v = cross[pos]
        if best is None or v < best:
            best = v
            best_ijk = (i, 1 + int(jj[pos]), 1 + int(kk[pos]))
    return best_ijk[0], best_ijk[1], best_ijk[2], best


def min_twice_area_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Minimum |cross| over all triples of each row of (B, n) coordinates.

    The batched form of ``_min_triple_fast`` for float64 or int64 rows: the
    same pivots, pair table and operand order, each pivot gathering its
    pairs for all B rows at once, so every row's minimum is bit-identical
    to the single-row scan.  Differences are taken before the gather;
    that moves no bit, because each pair reads the same two differences.
    """
    B, n = xs.shape
    if n < 3:
        raise ValueError("need at least 3 points for a triangle")
    jt, kt = _pair_table(n)
    xs = np.ascontiguousarray(xs)
    ys = np.ascontiguousarray(ys)
    best = None
    for i in range(n - 2):
        start = i * (n - 2) - i * (i - 1) // 2
        jj, kk = jt[start:] - i, kt[start:] - i
        dx = xs[:, i + 1:] - xs[:, i, None]
        dy = ys[:, i + 1:] - ys[:, i, None]
        cross = np.take(dx, jj, axis=1) * np.take(dy, kk, axis=1)
        cross -= np.take(dy, jj, axis=1) * np.take(dx, kk, axis=1)
        np.abs(cross, out=cross)
        row_min = cross.min(axis=1)
        best = row_min if best is None else np.minimum(best, row_min, out=best)
    return best


def min_area_triangle(points, mode: str = "fast") -> TriangleReport:
    """Smallest-area triangle over all C(n,3) triples of a point set.

    Accepts a PointSet (continuous) or GridArrangement (grid).  Both modes
    return the exact minimum; 'fast' uses a vectorized scan that is
    guaranteed (and tested) to match the 'exhaustive' reference, including
    the lexicographically-smallest-index tie-break.
    """
    if mode not in ("exhaustive", "fast"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(points, GridArrangement):
        grid = True
        n = points.n
        arr = points.coords()
        K = points.K
    elif isinstance(points, PointSet):
        grid = False
        n = points.n
        arr = points.coords()
    else:
        raise TypeError("expected PointSet or GridArrangement")
    if n < 3:
        raise ValueError("need at least 3 points for a triangle")

    if mode == "exhaustive":
        if grid:
            xs = [int(v) for v in arr[:, 0]]
            ys = [int(v) for v in arr[:, 1]]
        else:
            xs = [float(v) for v in arr[:, 0]]
            ys = [float(v) for v in arr[:, 1]]
        i, j, k, t = _min_triple_exhaustive(xs, ys)
    else:
        i, j, k, t = _min_triple_fast(arr[:, 0], arr[:, 1])

    if grid:
        t = int(t)
        return TriangleReport(i, j, k, t, normalize_area(t, K))
    t = float(t)
    return TriangleReport(i, j, k, t, t / 2.0)


def min_twice_area(points) -> int | float:
    """Convenience: the exact minimum twice-area (fast path)."""
    return min_area_triangle(points, mode="fast").twice_area
