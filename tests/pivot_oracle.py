"""The cubic per-pivot scan: the tests' reference for the vectorised triple
scans of ``geometry``.

It evaluates every one of the C(n, 3) triples of a point set, or of each
row of a batch, with the operands and operation order of
``geometry._min_triple_exhaustive``, so its values match every exact scan
bit for bit.  It takes cubic time and a pair table of about 8 n^2 bytes,
which is why the library itself no longer runs it.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4)
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All C(n-1, 2) pairs (j, k), j < k, of xs[1:] in row-major order.

    Pivot i's pairs, those of xs[i+1:], are this table's tail from offset
    i*(n-2) - i*(i-1)//2; one table per n keeps the cache at O(n^2) memory.
    """
    return np.triu_indices(n - 1, 1)


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


def _pivot_first_min(xs: np.ndarray, ys: np.ndarray) -> tuple[int, int, int, object]:
    """``_pivot_scan`` of one point set reduced to its lexicographically
    first minimal triple: the first strict minimum over pivots, the first
    argmin within a pivot."""
    t = None
    for p, jj, kk, cross in _pivot_scan(xs, ys):
        pos = int(cross.argmin())
        if t is None or cross[pos] < t:
            t = cross[pos]
            i, j, k = p, 1 + int(jj[pos]), 1 + int(kk[pos])
    return i, j, k, t
