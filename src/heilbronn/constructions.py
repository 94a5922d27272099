"""Deterministic extremal constructions and a small best-case optimizer.

These provide reference arrangements whose smallest triangle is provably
or empirically large: the quadratic-residue construction on prime grids
(no three points collinear, minimum area at least 1/(2p^2) under the
1/p cell normalization), and a seeded random-restart local search for the
best achievable minimum area at small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import isqrt

from .geometry import (
    GridArrangement,
    PointSet,
    TriangleReport,
    UnitPoint,
    check_grid,
    min_area_triangle,
    # unused here; perfbench/spans.py patches this name to count calls
    twice_signed_area,  # noqa: F401
)
from .montecarlo import ordered_map
from .rng import stream_rng

# local-search schedule (fixed for reproducibility)
_INITIAL_STEP = 0.25
_DECAY = 0.95
_STREAK = 20
_MIN_STEP = 1e-9

# generator words a restart takes at once: three per move, for 256 moves
_WORDS = 3 * 256


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
    The no-collinear property is re-verified on every call by the exact
    window scan of ``min_area_triangle``, which evaluates only candidates.
    """
    return _erdos_checked(p)[0]


def _erdos_checked(p: int) -> tuple[GridArrangement, TriangleReport | None]:
    """``erdos_prime(p)`` and the minimal triangle its check scan found
    (None for p = 2, which has no triangle)."""
    if p >= 2:
        check_grid(p, p)  # a side past MAX_GRID_SIDE, before any trial division
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    arr = GridArrangement.from_points(p, [(i, (i * i) % p) for i in range(p)])
    if p < 3:
        return arr, None
    tri = min_area_triangle(arr)
    if tri.twice_area == 0:
        raise AssertionError(f"collinear triple in residue construction p={p}")
    return arr, tri


def erdos_area_lower_bound(p: int) -> float:
    """1/(2p^2): the guaranteed minimum area under the 1/p normalization."""
    return 1.0 / (2.0 * p * p)


@dataclass(frozen=True)
class OptimizerResult:
    """The best restart's points and minimum area, re-verified.

    ``iterations`` is the number of moves drawn, summed over the restarts:
    a restart that runs all ``steps`` counts ``steps``, and one whose step
    size falls below ``_MIN_STEP`` first counts its moves plus the step
    that found the size below the floor and drew nothing.
    """

    points: PointSet
    value: float
    iterations: int
    seed: int


@lru_cache(maxsize=None)
def _triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All triples a < b < c of range(n), in lexicographic order."""
    return tuple(combinations(range(n), 3))


@lru_cache(maxsize=None)
def _through(n: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """For each point i, the triples (pos, a, b, c) of ``_triples(n)`` that
    contain i, in order; pos is the triple's index there."""
    through = [[] for _ in range(n)]
    for pos, abc in enumerate(_triples(n)):
        for i in abc:
            through[i].append((pos, *abc))
    return tuple(map(tuple, through))


class _Restart:
    """The state of one restart (see ``_run_restart``): the points, the
    twice-area table ``tab``, ``value``, the minimal triples ``mins`` as
    ``(pos, a, b, c)``, their count ``minimal`` and their count ``cnt[i]``
    through each point i, the step-size schedule, and the generator's
    pending words ``words[k:]``.

    ``through[i]`` is this restart's own list of the ``_through(n)``
    triples of point i, in the order a move of i tries them: a triangle
    that rejects a move is swapped to the front, so the next move of i
    tries it first.  The cached ``_through(n)`` tuples are never mutated.
    """

    __slots__ = ("xs", "ys", "rng", "tab", "value", "mins", "minimal", "cnt", "through",
                 "step", "streak", "words", "k")

    def __init__(self, xs: list[float], ys: list[float], rng):
        self.xs = xs
        self.ys = ys
        self.rng = rng
        self.through = [list(row) for row in _through(len(xs))]
        tab = []
        for a, b, c in _triples(len(xs)):
            xa, ya = xs[a], ys[a]
            t = (xs[b] - xa) * (ys[c] - ya) - (ys[b] - ya) * (xs[c] - xa)
            if t < 0:
                t = -t
            tab.append(t)
        self.tab = tab
        self._recount()
        self.step = _INITIAL_STEP
        self.streak = 0
        self.words: list[int] = []
        self.k = 0

    def _recount(self) -> None:
        # min keeps the first of equal values, as the reference scan does
        tab = self.tab
        least = min(tab)
        value = least / 2.0
        cnt = [0] * len(self.xs)
        triples = _triples(len(self.xs))
        # halving is exact from 2**-1021 up, so there t / 2.0 == value holds
        # for t == least alone; ties, zeros and subnormals take the full scan
        if least >= 2.0**-1021 and tab.count(least) == 1:
            pos = tab.index(least)
            a, b, c = triples[pos]
            mins = [(pos, a, b, c)]
            cnt[a] = cnt[b] = cnt[c] = 1
        else:
            mins = []
            for pos, ((a, b, c), t) in enumerate(zip(triples, tab)):
                if t / 2.0 == value:
                    mins.append((pos, a, b, c))
                    cnt[a] += 1
                    cnt[b] += 1
                    cnt[c] += 1
        self.value = value
        self.mins = mins
        self.minimal = len(mins)
        self.cnt = cnt

    def run(self, limit: int) -> int:
        """Draw and try up to ``limit`` moves; the number made, fewer than
        ``limit`` only once the step size has fallen below ``_MIN_STEP``."""
        xs, ys, tab, through = self.xs, self.ys, self.tab, self.through
        n = len(xs)
        shift = 64 - (n - 1).bit_length()
        value, mins, minimal, cnt = self.value, self.mins, self.minimal, self.cnt
        step, streak = self.step, self.streak
        words, k = self.words, self.k
        end = len(words)
        take = self.rng.take
        for done in range(limit):
            if step < _MIN_STEP:
                break
            # i = rng.below(n): this mirrors below's top-bits rejection loop;
            # a refill leaves at least the two words a move reads after i
            while True:
                if k + 3 > end:
                    words = words[k:] + take(_WORDS)
                    k, end = 0, len(words)
                i = words[k] >> shift
                k += 1
                if i < n:
                    break
            k += 2  # the words of axis = rng.below(2) and u = rng.uniform()
            if cnt[i] == minimal:
                coords = ys if words[k - 2] >> 63 else xs
                delta = (2.0 * ((words[k - 1] >> 11) * 2.0**-53) - 1.0) * step
                old = coords[i]
                x = old + delta  # min(1.0, max(0.0, x)) without the calls
                coords[i] = 0.0 if x <= 0.0 else 1.0 if x >= 1.0 else x
                for _, a, b, c in mins:
                    xa, ya = xs[a], ys[a]
                    t = (xs[b] - xa) * (ys[c] - ya) - (ys[b] - ya) * (xs[c] - xa)
                    if t < 0:
                        t = -t
                    if t / 2.0 <= value:
                        break
                else:
                    new = []
                    row = through[i]
                    for pos, a, b, c in row:
                        xa, ya = xs[a], ys[a]
                        t = (xs[b] - xa) * (ys[c] - ya) - (ys[b] - ya) * (xs[c] - xa)
                        if t < 0:
                            t = -t
                        if t / 2.0 <= value:
                            j = len(new)  # the rejecting triangle's place in row
                            row[0], row[j] = row[j], row[0]
                            break
                        new.append((pos, t))
                    else:
                        for pos, t in new:
                            tab[pos] = t
                        self._recount()
                        value, mins, minimal, cnt = self.value, self.mins, self.minimal, self.cnt
                        streak = 0
                        continue
                coords[i] = old
            streak += 1
            if streak >= _STREAK:
                step *= _DECAY
                streak = 0
        else:
            done = limit
        self.step, self.streak = step, streak
        self.words, self.k = words, k
        return done


def _run_restart(n: int, seed: int, restart: int, steps: int) -> tuple[float, list[float], list[float], int]:
    """One seeded restart: (value, xs, ys, iterations).

    The restart keeps one twice-area table: each triple's |cross|, in the
    lexicographic triple order and with the operand order of the reference
    scan ``geometry._min_triple_exhaustive`` (whose ``if t < 0: t = -t``
    keeps a ``-0.0``), so the first minimum of the table is the scan's and
    ``value`` is that minimum halved.  It also keeps the minimal triples
    (``t / 2.0 == value``) and, for each point, how many of them contain it.

    A move of point i is accepted only if the new minimum exceeds
    ``value``, and triangles without i keep their areas.  So the move is
    rejected with no area computed when some minimal triangle avoids i.
    Otherwise the minimal triangles are evaluated first, and only if none
    has ``t / 2.0 <= value`` the C(n-1, 2) triangles through i, stopping at
    the first that does.  Those are tried in the restart's own order for i,
    in which the triangle that rejected the last such move of i comes first
    (a swap to the front).  The rejection rule does not depend on the order
    in which triangles are checked, and an accepted move has evaluated every
    triangle through i; only it writes the table and recounts the minimum.
    The recount takes a unique minimum of at least 2**-1021 by ``min``,
    ``count`` and ``index``: halving is exact there, so ``t / 2.0 == value``
    holds for that entry alone.  Ties, zeros and subnormal minima take the
    full ``t / 2.0 == value`` scan.

    The steps run in one loop (``_Restart.run``) that decodes the draws of
    ``below(n)``, ``below(2)`` and ``uniform()`` from the generator's words
    itself, taking them in chunks of at most ``_WORDS`` words through
    ``SplitMix64.take``, so memory does not grow with ``steps``; a move
    that is rejected unseen skips its two words undecoded.  Draws,
    decisions, values and iterations are those of a full rescan on every
    step.
    """
    rng = stream_rng(seed, restart)
    xs = []
    ys = []
    for _ in range(n):
        xs.append(rng.uniform())
        ys.append(rng.uniform())
    climb = _Restart(xs, ys, rng)
    done = climb.run(steps)
    # a stop at the step floor also counts the step that found the step
    # size below ``_MIN_STEP``
    return climb.value, xs, ys, done if done == steps else done + 1


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
    runs = ordered_map(_run_restart, jobs, [n] * restarts, [seed] * restarts, range(restarts),
                       [steps] * restarts)
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

