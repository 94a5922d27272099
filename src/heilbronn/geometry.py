"""Exact and floating-point planar geometry for minimum-area-triangle work.

Two coordinate modes exist side by side and never mix:

* grid mode -- integer coordinates on a K x K lattice.  All predicates are
  exact integer arithmetic; twice-areas are exact nonnegative integers.
* continuous mode -- float64 coordinates in the unit square.  Evaluation is
  deterministic IEEE-754 with a fixed operation order, so pure-Python and
  vectorized paths return bit-identical values.

There are three triple scans, all exact and all returning the same bits:

* ``_min_triple_exhaustive``, the pure-Python reference (test oracle,
  ``mode="exhaustive"`` and the optimizer's final re-verification);
* the all-triples pass of ``min_twice_area_rows`` on rows of fewer than
  ``_WINDOW_MIN_N`` points: every triple of a chunk of rows at once, the
  chunk laid out trials-last and its triples read in slices, each from
  the differences of its own range of pairs (``_triple_table``);
* ``_window_scan``, which evaluates only the triples an angular window
  and a computed bound cannot rule out.  ``min_area_triangle(mode="fast")``
  uses it for every set, and ``min_twice_area_rows`` row by row from
  ``_WINDOW_MIN_N`` points on.

All three take the operands of ``_min_triple_exhaustive`` in its order.
The windowed scan returns the minimum of the same computed values.  For a
pivot i, let d_j = fl(p_j - p_i) (j > i) be the computed differences,
r_j = |d_j|, and the value of a pair (j, k) the computed
|fl(fl(dx_j dy_k) - fl(dy_j dx_k))|, the same for (k, j).

* **Bound.**  Sort the d_j by direction mod pi.  U is the least value
  over angularly adjacent pairs (the last with the first), taken over
  the pivots scanned so far and every candidate evaluated so far.  It is
  the value of a real triple, so the minimum is at most U.
* **Candidates.**  With rho^2 = max(U * n, 2^-1000), a vector is short
  when its computed r^2 <= rho^2 * (1 + 2^-20), and long otherwise.  A
  pair is a candidate when one of its vectors is short, or when both are
  long and their directions are within alpha = arcsin(1/n + gamma) + pad
  of each other mod pi.
* **Why every triple of value <= U is a candidate.**  Float coordinates
  of magnitude at most 2^399 give differences of at most 2^400, so no
  product overflows.  With gradual underflow a product rounds as
  fl(ab) = ab(1 + e) + h with |e| <= u = 2^-53 and |h| <= 2^-1075, and
  the difference of two floats rounds with relative error at most u (a
  subnormal difference is exact).  Since |dx_j dy_k| + |dy_j dx_k| <=
  r_j r_k (Cauchy-Schwarz), a value v <= U has
  |sin(angle)| <= v / ((1 - u) r_j r_k) + u + 2^-1074 / (r_j r_k).  Two
  long vectors have r_j r_k > rho^2, at least U * n and 2^-1000, so
  |sin(angle)| < 1/n + 2u + 2^-74 < 1/n + gamma with gamma = 3u.  The
  2^-20 margin covers the rounding of the computed r^2 and rho^2, which
  is relative up to an absolute term of about 3 * 2^-1075, far below
  2^-20 rho^2 once rho^2 >= 2^-1000.
* **Directions.**  pad = 1e-9 covers the rounding of the computed
  directions, of arcsin and of the sort keys.  A quotient dy/dx that
  underflows or overflows (to +-inf, when dx is subnormal or zero) gives
  a direction off by less than 2^-1022.  A sort key is
  direction + 8 * row, rows local to a chunk of
  min(max(1, B // w), w - 1) <= sqrt(B) pivots for B = ``_BLOCK_ELEMENTS``
  and w points after the chunk's first pivot (at most 127 at B = 2^14),
  so a key stays below 2^10 and rounds by less than 2^-43.
* **Inputs.**  int64 coordinates spanning less than 2^31 (every value exact)
  or floats of magnitude at most 2^399; ``_window_scan`` raises
  ``ValueError`` on any other set, and the all-triples pass trusts the range
  unchecked.  No caller leaves it: ``MAX_GRID_SIDE`` is 2^30, a ``PointSet``
  lies in the unit square, and Monte Carlo rows are uniforms or grid
  coordinates below 2^30.

The minimal triples have value <= U, so all of them are candidates, and
the smallest candidate (value, i, j, k) in lexicographic order is the
first minimum of |cross| over all C(n, 3) triples, ties and +0.0
included.  On sets whose nonzero
coordinates are at least 2^-347, as on every grid, a nonzero r^2 is at
least 2^-798 and a nonzero U at least 2^-850, so the floor 2^-1000 moves
no candidate: U * n exceeds it when U > 0, and at U = 0 only zero vectors
are short.  Uniform random points give about n^2 / 7 candidates
of the C(n, 3) triples; a set with many exactly collinear points, or whose
differences are all below 2^-500, can make every triple a candidate,
evaluated in slices of ``_BLOCK_ELEMENTS``, and a zero minimum ends the
scan.

A grid point (i, j) maps to the unit-square point (i/(K-1), j/(K-1)); with
that convention a nondegenerate grid triangle has area at least
1/(2(K-1)^2) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import asin, isqrt
from typing import Iterable, Sequence

import numpy as np

MAX_GRID_SIDE = 1 << 30  # guarantees twice-areas fit in int64 intermediates

#: elements per temporary array of a batched pass: a pivot chunk of
#: ``_window_scan``, a slice of its candidate pairs, a triple slice of a
#: row chunk of ``min_twice_area_rows``, and the uniforms of a block of
#: Monte Carlo trials (``montecarlo._block_trials``)
_BLOCK_ELEMENTS = 1 << 14
#: the rounding term of the window: 3 units of float64 roundoff, 3 * 2^-53
_GAMMA = 3 * 2.0**-53
#: angular slack for the rounding of the directions, arcsin and the sort keys
_PAD = 1e-9
#: rows of ``min_twice_area_rows`` with this many points take ``_window_scan``
#: one at a time; fewer take the all-triples pass a chunk of rows at once.
#: The measured break-even is near n = 77; 60 is kept (README).
_WINDOW_MIN_N = 60


def check_grid(K: int, n: int) -> None:
    """Reject a grid that has no arrangement of n pebbles, or a side past
    ``MAX_GRID_SIDE``, before any work that grows with K or n."""
    if not (2 <= K <= MAX_GRID_SIDE and 0 <= n <= K * K):
        raise ValueError(f"no arrangement of n={n} pebbles on a K={K} grid")


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
        check_grid(K, len(self.points))
        prev = None
        for p in self.points:
            if not (0 <= p.x < K and 0 <= p.y < K):
                raise ValueError(f"pebble {p} outside [0, {K-1}]^2")
            if prev is not None and (p.y, p.x) <= (prev.y, prev.x):
                if p == prev:
                    raise ValueError(f"duplicate pebble at ({p.x}, {p.y})")
                raise ValueError("pebbles must be distinct and sorted row-major")
            prev = p

    @classmethod
    def from_points(cls, K: int, pts: Iterable[tuple[int, int]]) -> "GridArrangement":
        """Build from (x, y) pairs in any order; duplicates are rejected."""
        return cls(K, tuple(sorted(GridPoint(x, y) for x, y in pts)))

    @classmethod
    def from_cells(cls, K: int, cells: Iterable[int]) -> "GridArrangement":
        """Build from increasing row-major cell ids (y*K + x); the inverse
        of ``cells``."""
        return cls(K, tuple(GridPoint(c % K, c // K) for c in cells))

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


def normalize_area(twice_area, K: int) -> float:
    """Map a grid twice-area to unit-square area: twice_area / (2(K-1)^2)."""
    if K < 2:
        raise ValueError("grid side K must be >= 2")
    return twice_area / (2 * (K - 1) ** 2)


@lru_cache(maxsize=4)
def _triple_table(n: int, block: int) -> tuple[int, tuple[tuple[np.ndarray, ...], ...]]:
    """(rows, slices): the chunk and slice plan of the all-triples pass at
    n points and a block of ``block`` elements.

    A chunk holds rows = max(isqrt(block), block // (C(n, 2) + C(n, 3)))
    trials, and its C(n, 3) triples i < j < k, in lexicographic order, are
    read in slices of block // rows.  A slice is (I, J, A, B): the range of
    the C(n, 2) pairs (I, J), I < J, in row-major order that its triples
    use, and for each triple the slice-local ids A of (i, j) and B of
    (i, k) in that range.

    Pair (i, j) precedes n - 1 - j triples, k = j + 1 .. n - 1, and the
    pairs of one i are consecutive, so (i, k) is pair (i, j) plus k - j,
    and a slice's range runs from its first (i, j) to its largest (i, k):
    fewer than its triples plus n pairs."""
    pi, pj = np.triu_indices(n, 1)
    runs = n - 1 - pj
    ta = np.repeat(np.arange(pi.size), runs)
    tb = ta + 1
    tb += np.arange(ta.size) - np.repeat(np.cumsum(runs) - runs, runs)
    rows = max(isqrt(block), block // (pi.size + ta.size))
    step = max(1, block // rows)
    slices = []
    for s in range(0, ta.size, step):
        a, b = ta[s : s + step], tb[s : s + step]
        lo, hi = int(a[0]), int(b.max()) + 1
        slices.append((pi[lo:hi], pj[lo:hi], a - lo, b - lo))
    return rows, tuple(slices)


def _min_triple_exhaustive(xs, ys) -> tuple[int, int, int, object]:
    """Reference scan over all C(n,3) triples; exact, lexicographic ties.

    The oracle of every other scan: the vectorised scans and the
    optimizer's twice-area table (``constructions._run_restart``) use its
    operand order, so their values match it bit for bit."""
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


def _window_exact(xs: np.ndarray, ys: np.ndarray) -> bool:
    """True for a set in the module docstring's range, where no product of
    two differences in ``_window_scan`` can wrap or overflow."""
    if xs.dtype.kind != "f":
        return all(int(v.max()) - int(v.min()) < 1 << 31 for v in (xs, ys))
    return bool(np.abs(np.stack((xs, ys))).max() <= 2.0**399)


def _runs(starts: np.ndarray, stops: np.ndarray):
    """Expand the runs ``range(starts[e], stops[e])`` into (owner e,
    position) arrays, in slices of about ``_BLOCK_ELEMENTS`` positions (a
    slice always takes at least one whole run)."""
    lengths = np.maximum(stops - starts, 0)
    ends = np.cumsum(lengths)
    e0, done = 0, 0
    total = int(ends[-1]) if ends.size else 0
    while done < total:
        e1 = max(e0 + 1, int(np.searchsorted(ends, done + _BLOCK_ELEMENTS, "right")))
        ln = lengths[e0:e1]
        stop = int(ends[e1 - 1])
        pos = np.arange(done, stop) + np.repeat(starts[e0:e1] - (ends[e0:e1] - ln), ln)
        yield np.repeat(np.arange(e0, e1), ln), pos
        e0, done = e1, stop


def _window_scan(xs: np.ndarray, ys: np.ndarray) -> tuple[int, int, int, object]:
    """Lexicographically first minimal triple (i, j, k, |cross|) of one
    float64 or int64 point set (``ValueError`` outside the module
    docstring's range), evaluating only the candidate triples of that
    docstring; bit-identical to |cross| over all C(n, 3) triples reduced
    to its first minimum.

    Pivots run in chunks of consecutive points, each a (c, w) block of
    differences of about ``_BLOCK_ELEMENTS`` elements (row r is pivot
    a + r, column q point a + 1 + q, valid for q >= r), with one running
    bound U that only decreases.  A chunk lists its valid points row by
    row in direction order (the "flat order"); a window pair is two flat
    positions whose keys, direction + 8 * row, differ by at most alpha."""
    if not _window_exact(xs, ys):
        raise ValueError("window scan needs int64 spanning < 2^31 or |float| <= 2^399")
    n = xs.shape[0]
    alpha = asin(1.0 / n + _GAMMA) + _PAD
    bound = best = None
    a = 0
    while a < n - 2:
        w = n - 1 - a
        c = min(max(1, _BLOCK_ELEMENTS // w), n - 2 - a)
        dx = xs[a + 1 :] - xs[a : a + c, None]
        dy = ys[a + 1 :] - ys[a : a + c, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            theta = np.divide(dy, dx)
        np.arctan(theta, out=theta)  # direction mod pi, in [-pi/2, pi/2]
        theta[np.isnan(theta)] = 0.0  # a repeated point; it is always short
        rows = np.arange(c)
        cols = np.arange(w)
        theta[cols < rows[:, None]] = np.inf
        m = w - rows
        flat = np.argsort(theta, axis=1)
        flat += rows[:, None] * w
        flat = flat[cols < m[:, None]]  # each row's valid points by direction
        first = np.cumsum(m) - m
        end = first + m
        theta = theta.ravel()[flat]
        dx = dx.ravel()[flat]
        dy = dy.ravel()[flat]

        def cross(p, q):
            t = dx[p] * dy[q]
            t -= dy[p] * dx[q]
            return np.abs(t, out=t)

        # U: the angularly adjacent pairs of each pivot, the last with the first
        adj = dx[:-1] * dy[1:]
        adj -= dy[:-1] * dx[1:]
        np.abs(adj, out=adj)
        adj[first[1:] - 1] = adj[first[1:]]  # no pair across two pivots
        adj = min(adj.min(), cross(first, end - 1).min())
        bound = adj if bound is None else min(bound, adj)

        # candidate pairs, evaluated in slices of about _BLOCK_ELEMENTS
        owners, partners, size = [], [], 0

        def flush():
            nonlocal best, owners, partners, size
            p, q = np.concatenate(owners), np.concatenate(partners)
            owners, partners, size = [], [], 0
            t = cross(p, q)
            tmin = t.min()
            if best is not None and tmin > best[0]:
                return
            at = np.flatnonzero(t == tmin)
            lo, hi = np.minimum(flat[p[at]], flat[q[at]]), np.maximum(flat[p[at]], flat[q[at]])
            x = int((lo * w + hi % w).argmin())  # lexicographic (row, j, k)
            r, qj, qk = int(lo[x]) // w, int(lo[x]) % w, int(hi[x]) % w
            cand = (tmin, a + r, a + 1 + qj, a + 1 + qk)
            if best is None or cand < best:
                best = cand

        def add(p, q):
            nonlocal size
            if size + p.size > _BLOCK_ELEMENTS and size:
                flush()
            owners.append(p)
            partners.append(q)
            size += p.size

        def live(p):
            # after a zero minimum only pivots up to its own can still win
            if best is None or best[0]:
                return p
            return p[: np.searchsorted(p, end[best[1] - a])]

        # a direction within alpha of -pi/2 also has partners across pi/2
        wp = np.flatnonzero(theta <= 2 * alpha - np.pi / 2)
        key = theta
        key += np.repeat(8.0 * rows, m)  # keys sorted across the whole chunk

        # window pairs, one offset s = q - p at a time: keys are sorted, so
        # an owner whose offset s falls outside its window is done
        p = np.flatnonzero(key[1:] <= key[:-1] + alpha)
        s = 1
        while p.size:
            add(p, p + s)
            s += 1
            p = live(p[: np.searchsorted(p, flat.size - s)])
            p = p[key[p + s] <= key[p] + alpha]
        # the pairs across pi/2, and each short point with the rest of its row
        wp = live(wp)
        wrap = np.maximum(np.searchsorted(key, key[wp] + (np.pi - alpha)), wp + 1)
        rho2 = max(float(bound) * n, 2.0**-1000) * (1 + 2.0**-20)
        sh = live(np.flatnonzero(dx * dx + dy * dy <= rho2))
        sh_row = flat[sh] // w
        starts = np.concatenate((wrap, first[sh_row], sh + 1))
        stops = np.concatenate((end[flat[wp] // w], sh, end[sh_row]))
        run_owner = np.concatenate((wp, sh, sh))
        for e, q in _runs(starts, stops):
            add(run_owner[e], q)
        if size:
            flush()
        if not best[0]:
            break  # no later pivot can beat or tie a zero minimum first
        bound = min(bound, best[0])
        a += c
    return best[1], best[2], best[3], best[0]


def min_twice_area_rows(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Minimum |cross| over all triples of each row of (B, n) coordinates:
    ``_window_scan`` row by row from ``_WINDOW_MIN_N`` points on, below it
    every triple of a chunk of rows in one pass.

    The pass lays a chunk out trials-last, (n, rows), so each gather
    copies a whole run of rows.  Per triple slice of ``_triple_table`` it
    takes the differences of the slice's pairs, then the cross of each
    triple (i, j, k) from the differences of its pairs (i, j) and (i, k),
    with the operands and order of ``_min_triple_exhaustive``.  xs and ys
    share one dtype, float64 or int64; the pass trusts the module
    docstring's range without a check, which per block would cost time on
    small rows.  A chunk holds max(sqrt(B), B // (C(n, 2) + C(n, 3)))
    rows and a slice B // rows triples, B = ``_BLOCK_ELEMENTS``, so no
    temporary grows much past one block at any n."""
    if xs.shape[1] < 3:
        raise ValueError("need at least 3 points for a triangle")
    if xs.dtype != ys.dtype:
        raise ValueError("xs and ys must share one dtype")
    if xs.shape[1] >= _WINDOW_MIN_N:
        return np.array([_window_scan(x, y)[3] for x, y in zip(xs, ys)], dtype=xs.dtype)
    rows, slices = _triple_table(xs.shape[1], _BLOCK_ELEMENTS)
    out = np.empty(xs.shape[0], dtype=xs.dtype)
    for r in range(0, xs.shape[0], rows):
        x = np.ascontiguousarray(xs[r : r + rows].T)
        y = np.ascontiguousarray(ys[r : r + rows].T)
        best = None
        for pi, pj, a, b in slices:
            dx = x.take(pj, axis=0)
            dx -= x.take(pi, axis=0)
            dy = y.take(pj, axis=0)
            dy -= y.take(pi, axis=0)
            cross = dx.take(a, axis=0)
            cross *= dy.take(b, axis=0)
            t = dy.take(a, axis=0)
            t *= dx.take(b, axis=0)
            cross -= t
            np.abs(cross, out=cross)
            row_min = cross.min(axis=0)
            best = row_min if best is None else np.minimum(best, row_min, out=best)
        out[r : r + rows] = best
    return out


def min_area_triangle(points, mode: str = "fast") -> TriangleReport:
    """Smallest-area triangle over all C(n,3) triples of a point set.

    Accepts a PointSet (continuous) or GridArrangement (grid).  Both modes
    return the exact minimum; 'fast' runs ``_window_scan`` on the set and
    is guaranteed (and tested) to match the 'exhaustive' reference,
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
        i, j, k, t = _window_scan(arr[:, 0], arr[:, 1])

    if grid:
        t = int(t)
        return TriangleReport(i, j, k, t, normalize_area(t, points.K))
    t = abs(float(t))  # the reference scan can report a zero cross product as -0.0
    return TriangleReport(i, j, k, t, t / 2.0)

