"""The windowed triple scan against the cubic per-pivot scan.

``_window_scan`` evaluates only the triples an angular window and the
running bound U cannot rule out (see the ``geometry`` docstring); its
(i, j, k, |cross|) must equal ``_pivot_first_min``'s bit for bit.  The
fuzz plants the inputs the argument has to survive: triples 1e-12 off a
line, repeated points, a tiny triangle whose U (the angularly adjacent
pairs) is far above the minimum, minima in the last pivot chunk, ties
across chunks, and a whole set on one line.
"""

import math
import tracemalloc

import numpy as np
import pytest

from heilbronn import geometry
from heilbronn.geometry import (
    _WINDOW_MIN_N,
    _pivot_first_min,
    _pivot_scan,
    _window_scan,
    min_twice_area_rows,
)
from heilbronn.rng import uniform_block


def _same(xs, ys):
    got, want = _window_scan(xs, ys), _pivot_first_min(xs, ys)
    assert got[:3] == want[:3]
    assert type(got[3]) is type(want[3])
    if isinstance(want[3], np.floating):
        assert got[3].hex() == want[3].hex()
    else:
        assert got[3] == want[3]
    return got


def _uniform(n, seed):
    u = uniform_block(seed, 0, 1, 2 * n)[0]
    return u[0::2].copy(), u[1::2].copy()


def _chunk_rows(w):
    """Pivots of the chunk whose first pivot has w points after it, as
    ``_window_scan`` cuts them."""
    return min(max(1, geometry._BLOCK_ELEMENTS // w), w - 1)


def _chunk_starts(n):
    """First pivot of each chunk."""
    starts, a = [], 0
    while a < n - 2:
        starts.append(a)
        a += _chunk_rows(n - 1 - a)
    return starts


def _adjacent_bound(xs, ys):
    """U over the whole set: the least |cross| of angularly adjacent pairs
    around every pivot (directions mod pi, the last with the first)."""
    best = np.inf
    for i in range(len(xs) - 2):
        dx, dy = xs[i + 1 :] - xs[i], ys[i + 1 :] - ys[i]
        o = np.argsort(np.arctan2(dy, dx) % np.pi)
        p, q = o, np.roll(o, -1)
        best = min(best, np.abs(dx[p] * dy[q] - dy[p] * dx[q]).min())
    return best


@pytest.mark.parametrize("n", [300, 417, 600])
def test_planted_near_collinear(n):
    # a third point 1e-12 off the line through two others, at spread indices
    rng = np.random.default_rng(n)
    xs, ys = _uniform(n, 70 + n)
    for i, j, k in ((5, n // 2, n - 7), (n - 40, n - 20, n - 3)):
        t = rng.uniform(0.2, 0.8)
        xs[k] = xs[i] + t * (xs[j] - xs[i])
        ys[k] = ys[i] + t * (ys[j] - ys[i]) + 1e-12
    _same(xs, ys)


@pytest.mark.parametrize("n", [300, 512])
def test_repeated_points(n):
    # zero vectors: every pair through a repeated point is 0
    xs, ys = _uniform(n, 80 + n)
    for src, dst in ((3, n - 2), (n // 2, n // 2 + 1), (10, 11)):
        xs[dst], ys[dst] = xs[src], ys[src]
    assert _same(xs, ys)[3] == 0.0


@pytest.mark.parametrize("n", [300, 450, 600])
def test_bound_far_above_the_minimum(n):
    # a right triangle with legs 1e-9 around one point: its two short edges
    # are 90 degrees apart, so no pivot sees them as adjacent, and U is
    # orders of magnitude above the planted minimum of about 1e-18
    xs, ys = _uniform(n, 90 + n)
    h = n // 3
    xs[h + 5], ys[h + 5] = xs[h] + 1e-9, ys[h]
    xs[h + 9], ys[h + 9] = xs[h], ys[h] + 1e-9
    i, j, k, t = _same(xs, ys)
    assert (i, j, k) == (h, h + 5, h + 9)
    assert _adjacent_bound(xs, ys) > 1e4 * t


def test_minimum_in_the_last_chunk():
    n = 600
    xs, ys = _uniform(n, 100)
    xs[n - 1] = (xs[n - 3] + xs[n - 2]) / 2
    ys[n - 1] = (ys[n - 3] + ys[n - 2]) / 2 + 1e-13
    i, j, k, _ = _same(xs, ys)
    assert (i, j, k) == (n - 3, n - 2, n - 1)
    assert len(_chunk_starts(n)) > 2 and i >= _chunk_starts(n)[-1]


def _planted_tie(n):
    """Two planted grid triangles of twice-area exactly 1, at pivots 2 and
    n - 3, among n random pebbles of the 2^20 grid."""
    K = 1 << 20
    rng = np.random.default_rng(7)
    cells = np.sort(rng.choice(K * K, n, replace=False))
    xs, ys = cells % K, cells // K
    for i in (2, n - 3):
        xs[i + 1], ys[i + 1] = xs[i] + 1, ys[i]
        xs[i + 2], ys[i + 2] = xs[i] + 3, ys[i] + 1
    return xs, ys


def _grid(K, n):
    rng = np.random.default_rng(K)
    cells = np.sort(rng.choice(K * K, n, replace=False))
    return cells % K, cells // K


def test_tie_across_chunks_keeps_the_first():
    # one planted triangle in the first pivot chunk and one in the last:
    # the first in lexicographic order wins
    n = 500
    i, j, k, t = _same(*_planted_tie(n))
    assert (i, j, k, t) == (2, 3, 4, 1)
    assert _chunk_starts(n)[-1] <= n - 3


@pytest.mark.parametrize("K", [23, 30, 64, 1 << 30])
def test_grids(K):
    # dense grids (many zero-area ties, U = 0) up to the largest side
    _same(*_grid(K, min(K * K - 10, 400)))


@pytest.mark.parametrize("elements", [1, 7, 999, 1 << 14])
def test_block_size_moves_no_bit(monkeypatch, elements):
    # chunks and slices never enter a result: one pivot per chunk and one
    # run per slice at 1 element, the default block at 2^14
    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
    _same(*_uniform(300, 11))
    assert _same(*_planted_tie(500)) == (2, 3, 4, 1)
    _same(*_grid(30, 400))


def test_the_largest_chunk_keeps_sort_keys_inside_the_pad():
    # the proof's pad covers the rounding of a sort key, direction + 8 * row,
    # while every key of the largest chunk stays below a power of two whose
    # half-ulp is far under _PAD; past B + 1 points a chunk is one pivot
    rows = max(_chunk_rows(w) for w in range(2, geometry._BLOCK_ELEMENTS + 2))
    key = 8 * (rows - 1) + math.pi / 2
    top = 2.0 ** math.frexp(key)[1]
    assert key < top and math.ulp(top) / 2 < geometry._PAD / 1000


@pytest.mark.parametrize(
    "line",
    [
        lambda t: (t / 512.0, t / 512.0),
        lambda t: (t / 512.0, 0.25 + t / 1536.0),
        lambda t: (np.full(t.size, 0.5), 1 - t / 512.0),
        lambda t: (t, 3 * t),
    ],
)
def test_points_on_one_line(line):
    # U = 0 and every pair of every pivot is a candidate; the scan stops
    # after the first zero, and memory stays within a few blocks
    xs, ys = line(np.arange(300))
    tracemalloc.start()
    got = _window_scan(xs, ys)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got[:3] == _pivot_first_min(xs, ys)[:3] and got[3] == 0
    # 24 arrays of one block of 8-byte elements: 3.1 MB; the window scan
    # peaks at 1.6-1.9 MB on these sets, the cubic scan at 1.4 MB
    assert peak < 24 * 8 * geometry._BLOCK_ELEMENTS


@pytest.mark.parametrize(
    "curve",
    [
        lambda t, rng: (t / 512.0, t / 512.0 + rng.uniform(-1e-9, 1e-9, t.size)),
        lambda t, rng: (np.cos(t / 153600.0), np.sin(t / 153600.0)),
    ],
)
def test_near_line_without_zero(curve):
    # every direction within alpha of every other and no zero minimum to
    # stop early: all C(300, 3) triples are candidates, in many slices
    xs, ys = curve(np.arange(300), np.random.default_rng(9))
    assert _same(xs, ys)[3] > 0


def test_inputs_outside_the_rounding_model_fall_back():
    # products of these differences underflow; the cubic scan answers
    xs, ys = _uniform(80, 3)
    xs *= 1e-300
    assert not geometry._window_exact(xs, ys)
    _same(xs, ys)
    big = np.array([0, 1 << 40, 3, 5, (1 << 40) + 7], dtype=np.int64)
    assert not geometry._window_exact(big, big[::-1].copy())
    _same(big, big[::-1].copy())


@pytest.mark.parametrize("n", [3, 4, 5, 8, 33, 64, 129])
def test_small_sets_match(n):
    for seed in range(20):
        _same(*_uniform(n, 200 + seed))


def test_rows_route_at_the_crossover(monkeypatch):
    calls = []
    real = geometry._window_scan

    def counted(xs, ys):
        calls.append(xs.shape[0])
        return real(xs, ys)

    monkeypatch.setattr(geometry, "_window_scan", counted)
    for n in (_WINDOW_MIN_N - 1, _WINDOW_MIN_N):
        u = uniform_block(5, 0, 3, 2 * n)
        xs, ys = u[:, 0::2], u[:, 1::2]
        want = None
        for _, _, _, cross in _pivot_scan(xs, ys):
            m = cross.min(axis=1)
            want = m if want is None else np.minimum(want, m)
        got = min_twice_area_rows(xs, ys)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert calls == [_WINDOW_MIN_N] * 3
