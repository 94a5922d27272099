import json
import math
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heilbronn import constructions
from heilbronn.cli import run
from heilbronn.constructions import (
    _DECAY,
    _INITIAL_STEP,
    _MIN_STEP,
    _STREAK,
    _WORDS,
    _Restart,
    _through,
    _triples,
    erdos_area_lower_bound,
    erdos_prime,
    is_prime,
    optimize_heilbronn,
)
from heilbronn.geometry import _min_triple_exhaustive, min_area_triangle
from heilbronn.rng import SplitMix64, stream_rng
from heilbronn.witnesses import find_collinear_triple

# Independent dense-grid oracle for n = 5: per-point exhaustive sweeps over a
# 200x200 lattice from 120 random starts, then shrinking coordinate-wise
# refinement of the top basins (run once; value frozen).
N5_ORACLE_VALUE = 0.1923161528


class TestErdosPrime:
    def test_p5_exact_points(self):
        a = erdos_prime(5)
        assert {(p.x, p.y) for p in a.points} == {(0, 0), (1, 1), (2, 4), (3, 4), (4, 1)}
        assert find_collinear_triple(a) is None

    def test_p3_exact_points(self):
        a = erdos_prime(3)
        assert {(p.x, p.y) for p in a.points} == {(0, 0), (1, 1), (2, 1)}
        assert find_collinear_triple(a) is None

    def test_p2_builds(self):
        a = erdos_prime(2)
        assert {(p.x, p.y) for p in a.points} == {(0, 0), (1, 1)}
        assert find_collinear_triple(a) is None

    @pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23])
    def test_no_collinear_and_unit_twice_area(self, p):
        a = erdos_prime(p)
        assert find_collinear_triple(a) is None
        rep = min_area_triangle(a, mode="exhaustive")
        assert rep.twice_area >= 1
        # under the 1/p cell normalization the area bound is 1/(2 p^2)
        assert rep.twice_area / (2 * p * p) >= erdos_area_lower_bound(p)

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            erdos_prime(9)

    def test_is_prime(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestOptimizer:
    def test_triangle_reaches_half(self):
        res = optimize_heilbronn(3, restarts=8, steps=3000, seed=42)
        assert res.value >= 0.4999

    def test_four_corners_optimum(self):
        res = optimize_heilbronn(4, restarts=8, steps=3000, seed=42)
        assert res.value >= 0.4999

    def test_never_exceeds_universal_cap(self):
        for n in (3, 5, 7):
            res = optimize_heilbronn(n, restarts=4, steps=800, seed=1)
            assert res.value <= 0.5

    def test_value_verified_exhaustively(self):
        res = optimize_heilbronn(6, restarts=4, steps=1200, seed=2)
        assert res.value == min_area_triangle(res.points, mode="exhaustive").area

    def test_monotone_in_restarts(self):
        # same per-restart seed schedule: more restarts can only help
        a = optimize_heilbronn(5, restarts=4, steps=1500, seed=3)
        b = optimize_heilbronn(5, restarts=8, steps=1500, seed=3)
        assert b.value >= a.value

    def test_n5_matches_dense_grid_oracle(self):
        res = optimize_heilbronn(5, restarts=24, steps=8000, seed=42)
        assert abs(res.value - N5_ORACLE_VALUE) <= 1e-3

    def test_deterministic(self):
        a = optimize_heilbronn(4, restarts=3, steps=500, seed=9)
        b = optimize_heilbronn(4, restarts=3, steps=500, seed=9)
        assert a == b

    def test_workers_clamped_to_restarts(self, inline_pool):
        parallel = optimize_heilbronn(4, restarts=2, steps=1, seed=9, jobs=1000)
        assert inline_pool == [2]
        assert parallel == optimize_heilbronn(4, restarts=2, steps=1, seed=9)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            optimize_heilbronn(2, seed=0)
        with pytest.raises(ValueError):
            optimize_heilbronn(17, seed=0)

    @pytest.mark.parametrize("restarts, steps", [(0, 10), (1, 0), (-2, 10)])
    def test_restarts_and_steps_validated(self, restarts, steps):
        with pytest.raises(ValueError, match="^restarts and steps must be positive$"):
            optimize_heilbronn(4, restarts=restarts, steps=steps, seed=0)

    @staticmethod
    def report_one_ulp_high(monkeypatch):
        # every restart, the best one included, reports a value one ulp
        # above the minimum of its own points
        real = constructions._run_restart

        def one_ulp_high(*args):
            value, *rest = real(*args)
            return (math.nextafter(value, 1), *rest)

        monkeypatch.setattr(constructions, "_run_restart", one_ulp_high)

    def test_post_hoc_check_refuses_an_unverified_value(self, monkeypatch):
        self.report_one_ulp_high(monkeypatch)
        with pytest.raises(AssertionError, match="post-hoc verification"):
            optimize_heilbronn(5, restarts=2, steps=10, seed=1)

    def test_post_hoc_check_failure_exits_2_without_traceback(self, monkeypatch, capsys):
        monkeypatch.delenv("HEILBRONN_JOBS", raising=False)  # one worker, in this process
        self.report_one_ulp_high(monkeypatch)
        assert run(["optimize", "--n", "5", "--seed", "1", "--restarts", "2", "--steps", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal check failed:")
        assert "Traceback" not in captured.err


def rescan_steps(xs, ys, rng):
    """The optimizer's step loop as it was before the twice-area table:
    one full reference scan per move.  Yields the points after each move."""
    value = _min_triple_exhaustive(xs, ys)[3] / 2.0
    step, streak = _INITIAL_STEP, 0
    while step >= _MIN_STEP:
        i = rng.below(len(xs))
        axis = rng.below(2)
        delta = (2.0 * rng.uniform() - 1.0) * step
        coords = xs if axis == 0 else ys
        old = coords[i]
        coords[i] = min(1.0, max(0.0, old + delta))
        cand = _min_triple_exhaustive(xs, ys)[3] / 2.0
        if cand > value:
            value, streak = cand, 0
        else:
            coords[i] = old
            streak += 1
            if streak >= _STREAK:
                step *= _DECAY
                streak = 0
        yield xs, ys


def assert_state_is_recount(climb):
    """The incremental state equals a full recount of the current points."""
    xs, ys = climb.xs, climb.ys
    tab = []
    for a, b, c in combinations(range(len(xs)), 3):
        t = (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (xs[c] - xs[a])
        tab.append(-t if t < 0 else t)
    value = _min_triple_exhaustive(xs, ys)[3] / 2.0
    minimal = [abc for abc, t in zip(combinations(range(len(xs)), 3), tab) if t / 2.0 == value]
    assert climb.value.hex() == value.hex()
    assert [t.hex() for t in climb.tab] == [t.hex() for t in tab]
    assert climb.minimal == len(minimal)
    assert climb.cnt == [sum(i in abc for abc in minimal) for i in range(len(xs))]


def drive(xs, ys, seed, steps):
    """Step a restart from (xs, ys) and the rescan loop from a copy in
    lockstep, checking the state and the points after every step."""
    climb = _Restart(list(xs), list(ys), stream_rng(seed, 0))
    reference = rescan_steps(list(xs), list(ys), stream_rng(seed, 0))
    assert_state_is_recount(climb)
    for _ in range(steps):
        advanced = climb.run(1) == 1
        want = next(reference, None)
        assert advanced == (want is not None)
        if not advanced:
            return
        assert [v.hex() for v in climb.xs + climb.ys] == [v.hex() for v in want[0] + want[1]]
        assert_state_is_recount(climb)


# Starts with three or more points on one edge of the square, so that several
# zero-area triples tie and a minimal triangle avoids most points.  In the
# first, triple (0, 1, 2) has twice-area 0.0 * -0.4 - 0.4 * 0.0 = -0.0, the
# first minimum, and triple (0, 2, 3) a later +0.0.
EDGE_STARTS = [
    ([0.0, 0.0, 0.0, 0.0, 0.6], [0.5, 0.9, 0.1, 0.3, 0.5]),
    ([0.0, 0.3, 0.7, 1.0, 0.2, 0.8], [1.0, 1.0, 1.0, 1.0, 0.3, 0.1]),
    ([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.001], [0.0, 0.2, 0.5, 0.8, 1.0, 0.0, 0.4, 0.999]),
    ([0.0, 0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5, 1.0]),
]

EDGE_VALUES = st.sampled_from([0.0, 1.0, 0.001, 0.999, 0.5])
COORD = st.one_of(EDGE_VALUES, st.floats(0.0, 1.0))


@st.composite
def starts(draw):
    n = draw(st.integers(3, 16))
    return draw(st.lists(COORD, min_size=n, max_size=n)), draw(st.lists(COORD, min_size=n, max_size=n))


class TestIncrementalStep:
    def test_edge_start_has_negative_zero_minimum(self):
        xs, ys = EDGE_STARTS[0]
        assert _Restart(list(xs), list(ys), stream_rng(0, 0)).value.hex() == "-0x0.0p+0"

    @pytest.mark.parametrize("start", range(len(EDGE_STARTS)))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_starts(self, start, seed):
        drive(*EDGE_STARTS[start], seed, 400)

    def test_runs_to_the_step_floor(self):
        xs, ys = EDGE_STARTS[0]
        climb = _Restart(list(xs), list(ys), stream_rng(3, 0))
        moves = 0
        while climb.run(1) == 1:
            moves += 1
        assert climb.step < _MIN_STEP and moves > 0
        assert_state_is_recount(climb)

    @settings(max_examples=40, deadline=None)
    @given(starts(), st.integers(0, 2**64 - 1))
    @example(EDGE_STARTS[1], 7)
    def test_fuzz(self, start, seed):
        drive(*start, seed, 150)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 16), st.integers(0, 2**64 - 1))
    def test_fuzz_uniform_starts(self, n, seed):
        rng = stream_rng(seed, 1)
        pts = [rng.uniform() for _ in range(2 * n)]
        drive(pts[0::2], pts[1::2], seed, 200)


class TestWordChunks:
    @pytest.mark.parametrize("n", [5, 7, 8, 16])
    def test_advance_steps_equal_one_run(self, n, monkeypatch):
        """600 moves take more than one chunk of words; n = 5 and 7 make
        ``below(n)`` reject words, so a retry can meet a chunk's end."""
        takes = []
        take = SplitMix64.take

        def counted(rng, k):
            takes.append(k)
            return take(rng, k)

        monkeypatch.setattr(SplitMix64, "take", counted)
        rng = stream_rng(11, n)
        pts = [rng.uniform() for _ in range(2 * n)]
        stepped = _Restart(pts[0::2], pts[1::2], stream_rng(5, n))
        for _ in range(600):
            assert stepped.run(1) == 1
        ran = _Restart(pts[0::2], pts[1::2], stream_rng(5, n))
        assert ran.run(600) == 600
        assert len(takes) >= 4  # both restarts refilled past their first chunk
        for climb in (stepped, ran):
            assert_state_is_recount(climb)
        assert [v.hex() for v in stepped.xs + stepped.ys] == [v.hex() for v in ran.xs + ran.ys]
        assert [t.hex() for t in stepped.tab] == [t.hex() for t in ran.tab]
        assert stepped.value.hex() == ran.value.hex()
        assert (stepped.step, stepped.streak) == (ran.step, ran.streak)

    def test_words_bounded_for_any_steps(self, monkeypatch):
        """A restart takes at most ``_WORDS`` words at once, however many
        steps it may run; this run stops at the step floor, as the golden
        20000-step run of n = 3 does."""
        take = SplitMix64.take

        def capped(rng, k):
            assert k <= _WORDS
            return take(rng, k)

        monkeypatch.setattr(SplitMix64, "take", capped)
        golden = json.loads((Path(__file__).parent / "data" / "optimizer_golden.json").read_text())
        want = golden["n=3,seed=0,steps=20000"]
        res = optimize_heilbronn(3, restarts=3, steps=10**12, seed=0)
        assert res.value.hex() == want["value"]
        assert [[p.x.hex(), p.y.hex()] for p in res.points.points] == want["points"]
        assert res.iterations == want["iterations"]


def recount_rule(tab, n):
    """The minimum and minimal triples of a twice-area table by the rule
    itself: value = min(tab) / 2.0, and t is minimal when t / 2.0 == value."""
    value = min(tab) / 2.0
    minimal = [pos for pos, t in enumerate(tab) if t / 2.0 == value]
    cnt = [sum(i in _triples(n)[pos] for pos in minimal) for i in range(n)]
    return value, minimal, cnt


TINY = 2.0**-1074  # the least subnormal
EXACT = 2.0**-1021  # from here up, halving is exact


class TestRecount:
    """``_Restart._recount`` on hand-set tables of n = 5 (10 triples)."""

    @pytest.mark.parametrize(
        "entries",
        [
            {3: 0.125},  # a unique normal minimum
            {2: 0.125, 7: 0.125},  # two equal minima
            {1: -0.0, 6: 0.0},  # a -0.0 first minimum, a later +0.0
            {0: 4 * TINY, 5: 3 * TINY},  # both halve to 2 * TINY
            {4: EXACT, 8: math.nextafter(EXACT, 1.0)},  # halves differ
            {4: math.nextafter(EXACT, 0.0), 8: EXACT},  # both halve to 2**-1022
            {9: EXACT},  # a unique minimum at the bound
            {0: TINY * 2**40, 9: 0.0},  # a subnormal, then a lone zero
        ],
    )
    def test_hand_set_tables(self, entries):
        climb = _Restart([0.1, 0.9, 0.3, 0.7, 0.5], [0.2, 0.4, 0.8, 0.6, 0.1], stream_rng(0, 0))
        climb.tab = [0.5] * 10
        for pos, t in entries.items():
            climb.tab[pos] = t
        climb._recount()
        value, minimal, cnt = recount_rule(climb.tab, 5)
        assert climb.value.hex() == value.hex()
        assert sorted(pos for pos, *_ in climb.mins) == minimal
        assert all((a, b, c) == _triples(5)[pos] for pos, a, b, c in climb.mins)
        assert climb.minimal == len(minimal)
        assert climb.cnt == cnt


class TestMoveOrder:
    def test_order_state_stays_per_restart(self):
        fresh = _through.__wrapped__(8)
        first = optimize_heilbronn(8, restarts=3, steps=2000, seed=9)
        second = optimize_heilbronn(8, restarts=3, steps=2000, seed=9)
        assert _through(8) == fresh
        assert first.value.hex() == second.value.hex()
        assert first.iterations == second.iterations
        assert [[p.x.hex(), p.y.hex()] for p in first.points.points] == [
            [p.x.hex(), p.y.hex()] for p in second.points.points
        ]

    @pytest.mark.parametrize("n", [5, 8, 16])
    def test_a_restart_reorders_its_own_lists(self, n):
        rng = stream_rng(13, n)
        pts = [rng.uniform() for _ in range(2 * n)]
        climb = _Restart(pts[0::2], pts[1::2], stream_rng(2, n))
        assert climb.run(800) == 800
        cached = _through(n)
        assert cached == _through.__wrapped__(n)
        assert all(type(row) is list for row in climb.through)
        assert [sorted(row) for row in climb.through] == [list(row) for row in cached]
        assert climb.through != [list(row) for row in cached]  # some rejection moved a triangle
        assert sum(map(len, climb.through)) == n * math.comb(n - 1, 2)
        assert_state_is_recount(climb)

