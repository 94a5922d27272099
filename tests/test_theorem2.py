import hashlib
import json
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, islice
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from heilbronn import witnesses
from heilbronn.coding import BitString, DecodeError, _comb_bits, nat_to_string, sd_prime
from heilbronn.geometry import MAX_GRID_SIDE, GridArrangement, min_area_triangle
from heilbronn.witnesses import (
    ForbiddingLineSet,
    _LOG2_E,
    _claim_rect_pairs,
    count_forbidding_lines,
    _crosses,
    _exclusion_runs,
    _line_table,
    _theorem2_widths,
    decode_witness,
    encode_theorem2,
    excluded_columns,
    forbidding_lines,
    intercept_spacings,
    split_row,
    upper_bound_formula,
)

from heilbronn.rng import stream_rng

from conftest import distinct_row_arrangement

K20 = 1 << 20
GOLDEN = json.loads((Path(__file__).parent / "data" / "theorem2_golden.json").read_text())


SPLIT_NS = (1, 2, 3, 5, 41, 200, 201)


def split_in_bottom_rect(n):
    """K = 1001 (S = 1000): the split pebble on row 500, inside the bottom
    rectangle; the n // 2 pebbles above it alternate between the bottom
    and the top rectangle; the rest lie on rows 0, 1, ..."""
    upper = [(401 + 37 * i % 200, 501 + i // 2 if i % 2 == 0 else 900 + i // 2) for i in range(n // 2)]
    lower = [(37 * i % 1001, i) for i in range(n - n // 2 - 1)]
    return GridArrangement.from_points(1001, [*lower, (450, 500), *upper])


class TestSplitRow:
    def test_balanced_halves(self):
        for n in SPLIT_NS:
            for t in range(20 if n == 200 else 4):
                a = distinct_row_arrangement(K20, n, seed=51, stream=t)
                s = split_row(a)
                assert sum(1 for p in a.points if p.y > s) == n // 2, n
                assert sum(1 for p in a.points if p.y == s) == 1, n

    @pytest.mark.parametrize("n", SPLIT_NS)
    def test_forbidding_lines_read_the_upper_half(self, n):
        # the split pebble lies in the bottom rectangle, so a half that
        # took it in would count it and pair it with the top pebbles
        a = split_in_bottom_rect(n)
        assert split_row(a) == 500
        upper = range((n + 1) // 2, n)
        f = forbidding_lines(a)
        assert (f.rect_top_count, f.rect_bottom_count) == (n // 2 // 2, n // 2 - n // 2 // 2)
        assert all(i in upper and j in upper for i, j in f.lines)
        assert count_forbidding_lines(a) == TestForbiddingLines.reference_count(a)

    def test_duplicate_rows_rejected(self):
        a = GridArrangement.from_points(8, [(0, 3), (5, 3), (1, 6), (2, 7)])
        with pytest.raises(ValueError, match="distinct rows"):
            split_row(a)

    @pytest.mark.parametrize("fn", [split_row, forbidding_lines, count_forbidding_lines])
    def test_empty_arrangement_rejected(self, fn):
        with pytest.raises(ValueError, match="^the arrangement has no pebbles$"):
            fn(GridArrangement(8, ()))


def one_per_rectangle_arrangement():
    """K = 101 (S = 100): one pebble in each Claim-style rectangle, one on
    the dividing row, one at the bottom."""
    return GridArrangement.from_points(
        101,
        [
            (50, 95),  # top rectangle: x in (40, 60], y >= 90
            (45, 55),  # bottom rectangle: y in [50, 60)
            (10, 30),  # dividing row pebble (2 above it)
            (80, 5),
        ],
    )


class TestForbiddingLines:
    def test_one_pair_gives_one_line(self):
        a = one_per_rectangle_arrangement()
        f = forbidding_lines(a)
        assert f.rect_top_count == 1
        assert f.rect_bottom_count == 1
        assert len(f.lines) == 1
        assert f.split_row == 30

    def test_line_count_is_rect_product(self):
        for t in range(30):
            a = distinct_row_arrangement(K20, 60, seed=52, stream=t)
            f = forbidding_lines(a)
            assert len(f.lines) == f.rect_top_count * f.rect_bottom_count

    def test_lines_distinct_when_no_collinear(self):
        for t in range(20):
            a = distinct_row_arrangement(K20, 200, seed=53, stream=t)
            if min_area_triangle(a, mode="fast").twice_area == 0:
                continue
            f = forbidding_lines(a)

            def normal(seg):
                (x1, y1), (x2, y2) = seg
                A, B = y2 - y1, x1 - x2
                C = -(A * x1 + B * y1)
                g = gcd(gcd(abs(A), abs(B)), abs(C)) or 1
                A, B, C = A // g, B // g, C // g
                if (A, B, C) < (0, 0, 0) or (A < 0) or (A == 0 and B < 0):
                    A, B, C = -A, -B, -C
                return (A, B, C)

            norms = {normal(s) for s in f.segments}
            assert len(norms) == len(f.segments)

    @staticmethod
    def reference_count(a):
        """Pairs of upper pebbles whose line meets row 0 and the split row
        inside the square, one exact intercept at a time."""
        split = split_row(a)
        up = [(p.x, p.y) for p in a.points if p.y > split]
        S = a.K - 1

        def inside(seg, row):
            (x1, y1), (x2, y2) = seg
            return 0 <= Fraction(x2 * (y1 - y2) + (row - y2) * (x1 - x2), y1 - y2) <= S

        return sum(inside(seg, 0) and inside(seg, split) for seg in combinations(up, 2))

    @pytest.mark.parametrize("K", range(3, 13))
    def test_count_matches_exact_intercepts_small(self, K):
        for n in sorted({2, 3, K // 2 + 1, K}):
            for t in range(4):
                a = distinct_row_arrangement(K, n, seed=K, stream=t)
                assert count_forbidding_lines(a) == self.reference_count(a)

    def test_count_matches_exact_intercepts_k20(self):
        a = distinct_row_arrangement(K20, 200, seed=54, stream=0)
        assert count_forbidding_lines(a) == self.reference_count(a)

    def test_count_matches_exact_intercepts_at_the_grid_maximum(self):
        # corner pebbles take c0 and row * d near (K - 1)^2 ~ 2^60, inside int64
        K = MAX_GRID_SIDE
        S = K - 1
        up = [(0, S), (S, S - 1), (S // 2, S - 2), (S, S // 2 + 2), (0, S // 2 + 1)]
        low = [(S // 2, S // 2), (S - 1, 3), (1, 2), (S, 1), (0, 0)]
        corners = GridArrangement.from_points(K, up + low)
        assert count_forbidding_lines(corners) == self.reference_count(corners) > 0
        a = distinct_row_arrangement(K, 200, seed=54)
        assert count_forbidding_lines(a) == self.reference_count(a)

    def test_crossing_rule_reads_both_rows(self):
        # a line through an upper pebble that meets row 0 inside the square
        # meets the split row inside too, so only lines ending below the
        # split show the split half of the rule
        segs = (((0, 0), (63, 20)), ((63, 0), (0, 20)), ((0, 40), (20, 30)), ((5, 40), (7, 2)))
        f = ForbiddingLineSet(64, 31, (), segs, 0, 0)
        assert _crosses(_line_table(f, ()), 31, 63).tolist() == [False, False, False, True]

    def test_definitional_count_at_least_certified(self):
        for t in range(10):
            a = distinct_row_arrangement(K20, 200, seed=54, stream=t)
            f = forbidding_lines(a)
            assert count_forbidding_lines(a) >= len(f.lines)

    def test_rectangle_occupancy_frequency(self):
        # pilot-frozen: the two rectangles together hold >= n/100 = 2 pebbles
        # in ~99.4% of random n=200 arrangements (each rectangle alone only
        # manages ~91%, so the combined count is the stable statistic)
        hits = 0
        trials = 300
        for t in range(trials):
            a = distinct_row_arrangement(K20, 200, seed=60, stream=t)
            f = forbidding_lines(a)
            hits += f.rect_top_count + f.rect_bottom_count >= 2
        assert hits / trials >= 0.97


class TestInterceptSpacings:
    def test_vertical_line_intercept_is_column(self):
        # two stacked pebbles: their line meets every row at the same column
        a = GridArrangement.from_points(
            101, [(50, 95), (50, 55), (45, 91), (7, 30), (80, 5), (33, 12)]
        )
        f = forbidding_lines(a)
        segs = [s for s in f.segments if s[0][0] == s[1][0] == 50]
        assert segs
        w = intercept_spacings(f, 5)
        assert Fraction(50, 100) in w.intercepts

    def test_two_lines_no_window(self):
        a = GridArrangement.from_points(
            101,
            [(50, 95), (48, 91), (45, 55), (10, 30), (20, 20), (80, 5)],
        )
        f = forbidding_lines(a)
        assert len(f.lines) == 2
        w = intercept_spacings(f, 5)
        assert w.window is None and w.D is None
        assert len(w.spacings) == 1

    def test_exact_rational_intercepts(self):
        a = one_per_rectangle_arrangement()
        f = forbidding_lines(a)
        w = intercept_spacings(f, 0)
        # line through (50,95) and (45,55): x(0) = 45 - 55*(5/40) = 305/8 cols
        assert w.intercepts == (Fraction(305, 8) / 100,)

    def test_window_with_B(self):
        for t in range(40):
            a = distinct_row_arrangement(K20, 200, seed=55, stream=t)
            f = forbidding_lines(a)
            if len(f.lines) < 6:
                continue
            rows = sorted(p.y for p in a.points if p.y <= f.split_row)
            t_min = int(min_area_triangle(a, mode="fast").twice_area)
            area = Fraction(t_min, 2 * (K20 - 1) ** 2)
            w = intercept_spacings(f, rows[0], min_area=area)
            assert w.D == sum(w.window)
            assert w.B == min(4 * area, w.D)
            assert all(isinstance(v, Fraction) for v in w.intercepts)
            return
        pytest.fail("no trial produced six forbidding lines")

    def test_row_must_be_lower_half(self):
        f = forbidding_lines(one_per_rectangle_arrangement())
        with pytest.raises(ValueError, match="lower half"):
            intercept_spacings(f, 95)

    def test_empty_lines_rejected(self):
        f = ForbiddingLineSet(101, 30, (), (), 0, 0)
        with pytest.raises(ValueError, match="empty"):
            intercept_spacings(f, 5)

    @pytest.mark.parametrize("K, seg, row, match", [
        (64, ((3, 40), (5, 40)), 5, "horizontal"),
        (64, ((3, 400), (5, 2)), 5, "segment coordinate"),
        (64, ((3, 40), (5, 2)), -5, "row is outside"),
        (MAX_GRID_SIDE + 1, ((3, 40), (5, 2)), 5, "grid side"),
    ])
    def test_refuses_what_the_exclusions_refuse(self, K, seg, row, match):
        f = ForbiddingLineSet(K, 31, (), (seg,), 0, 0)
        with pytest.raises(ValueError, match=match):
            intercept_spacings(f, row)

    def test_window_scaling_monte_carlo(self):
        # pilot-frozen: min over 500 trials of D * n^(3 - eps/5), eps = 0.5,
        # was ~4.0e4; the statistic stays far from zero
        n = 200
        worst = None
        for t in range(100):
            a = distinct_row_arrangement(K20, n, seed=77, stream=t)
            f = forbidding_lines(a)
            if len(f.lines) < 6:
                continue
            rows = sorted(p.y for p in a.points if p.y <= f.split_row)
            w = intercept_spacings(f, rows[0])
            scaled = float(w.D) * n ** (3 - 0.5 / 5)
            worst = scaled if worst is None else min(worst, scaled)
        assert worst is not None and worst > 1.0


class TestExcludedColumns:
    def make_vertical_fls(self, K, col):
        seg = ((col, K - 2), (col, K - 3))
        return ForbiddingLineSet(K, (K - 1) // 2, ((0, 1),), (seg,), 1, 1)

    def test_intercept_on_column_small_radius(self):
        K = 101
        f = self.make_vertical_fls(K, 50)
        # radius T/(K-1) < 1 column: only the hit column is excluded
        assert excluded_columns(10, f, 1) == {50}

    def test_five_columns(self):
        # intercept at x=0.5 (column 50 of S=100) with 2A = 2.5/(K-1)
        K = 101
        f = self.make_vertical_fls(K, 50)
        assert excluded_columns(10, f, 250) == {48, 49, 50, 51, 52}

    def test_zero_lines_empty(self):
        f = ForbiddingLineSet(101, 30, (), (), 0, 0)
        assert excluded_columns(10, f, 1000) == set()

    def test_zero_tmin_empty(self):
        f = self.make_vertical_fls(101, 50)
        assert excluded_columns(10, f, 0) == set()

    def test_exclusion_validity_random(self):
        # with the true minimum twice-area, no lower pebble sits in its own
        # row's excluded set
        for t in range(25):
            a = distinct_row_arrangement(1024, 40, seed=56, stream=t)
            f = forbidding_lines(a)
            t_min = int(min_area_triangle(a, mode="fast").twice_area)
            for p in a.points:
                if p.y <= f.split_row:
                    assert p.x not in excluded_columns(p.y, f, t_min)


class TestTheorem2Codec:
    def test_crafted_k8_round_trip(self):
        a = GridArrangement.from_points(8, [(1, 0), (5, 2), (2, 5), (6, 7)])
        rep = encode_theorem2(a)
        assert decode_witness("theorem2", rep.payload, 8, 4) == a

    def test_zero_forbidding_lines_raw_ranks(self):
        # upper pebbles outside the middle strip: no lines, ranks are raw columns
        a = GridArrangement.from_points(101, [(0, 95), (100, 91), (7, 30), (80, 5)])
        f = forbidding_lines(a)
        assert len(f.lines) == 0
        rep = encode_theorem2(a)
        assert decode_witness("theorem2", rep.payload, 101, 4) == a

    def test_random_round_trips(self):
        for t in range(60):
            a = distinct_row_arrangement(1024, 8, seed=57, stream=t)
            rep = encode_theorem2(a)
            assert decode_witness("theorem2", rep.payload, 1024, 8) == a

    def test_odd_n_rejected(self):
        a = GridArrangement.from_points(8, [(1, 0), (5, 2), (2, 5)])
        with pytest.raises(ValueError, match="even"):
            encode_theorem2(a)

    def test_duplicate_rows_rejected(self):
        a = GridArrangement.from_points(8, [(1, 0), (5, 0), (2, 5), (6, 7)])
        with pytest.raises(ValueError, match="distinct rows"):
            encode_theorem2(a)

    def test_truncation_errors(self):
        a = distinct_row_arrangement(1024, 8, seed=58)
        payload = encode_theorem2(a).payload
        for cut in (0, 10, len(payload) // 2, len(payload) - 1):
            with pytest.raises(DecodeError):
                decode_witness("theorem2", payload[:cut], 1024, 8)
        with pytest.raises(DecodeError):
            decode_witness("theorem2", payload + BitString("1"), 1024, 8)

    def test_savings_mostly_negative_at_scale(self):
        # the raw upper half costs more than ranking saves at these sizes
        a = distinct_row_arrangement(K20, 200, seed=59)
        rep = encode_theorem2(a)
        assert decode_witness("theorem2", rep.payload, K20, 200) == a
        assert rep.savings < 0


class TestUpperBoundFormula:
    def test_worked_value(self):
        v = upper_bound_formula(1, 10, C1=1e-4, slack=0.0)
        assert v == pytest.approx(24.26, abs=0.01)
        assert v > 0.5  # vacuous at this n: documents why bands are fitted

    def test_cubic_scaling(self):
        a, b = upper_bound_formula(2, 10), upper_bound_formula(2, 20)
        assert a / b == pytest.approx(8.0, rel=1e-12)

    def test_monotone_in_delta(self):
        vals = [upper_bound_formula(d, 50) for d in range(1, 10)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_log2_e_is_correctly_rounded(self):
        with localcontext() as ctx:
            ctx.prec = 60
            reference = float(1 / Decimal(2).ln())
        assert _LOG2_E.hex() == reference.hex() == "0x1.71547652b82fep+0"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            upper_bound_formula(0, 10)
        with pytest.raises(ValueError):
            upper_bound_formula(1, 2)
        with pytest.raises(ValueError):
            upper_bound_formula(1, 10, C1=0)
        with pytest.raises(ValueError):
            upper_bound_formula(1, 10, slack=-1)


def _excluded_set_oracle(row, f, T_min):
    """Every column strictly within T_min / (K - 1) columns of a stored
    line's exact intercept, tested one column at a time."""
    K = f.K
    radius = Fraction(T_min, K - 1)
    out = set()
    for (x1, y1), (x2, y2) in f.segments:
        xi = Fraction(x2 * (y1 - y2) + (row - y2) * (x1 - x2), y1 - y2)
        out.update(c for c in range(K) if abs(c - xi) < radius)
    return out


class TestExclusionIntervals:
    def test_intervals_match_the_set_oracle(self):
        # every grid side 3..12, random segments crossing the split row,
        # every row below it and radii from 0 past the whole row
        rng = stream_rng(103, 0)
        for K in range(3, 13):
            split = (K - 1) // 2
            for _ in range(6):
                segs = []
                for _ in range(1 + rng.below(4)):
                    seg = ((rng.below(K), split + 1 + rng.below(K - split - 1)), (rng.below(K), rng.below(split + 1)))
                    segs.append(seg if rng.below(2) else seg[::-1])
                f = ForbiddingLineSet(K, split, (), tuple(segs), 0, 0)
                for row in range(split + 1):
                    for T_min in (0, 1, 1 + rng.below(2 * K), (K - 1) ** 2):
                        spans = _exclusion_runs([row], f, T_min)[0]
                        want = _excluded_set_oracle(row, f, T_min)
                        assert excluded_columns(row, f, T_min) == want
                        assert {c for lo, hi in spans for c in range(lo, hi + 1)} == want
                        # sorted, disjoint and not adjacent: merged
                        assert all(lo <= hi for lo, hi in spans)
                        assert all(b[0] > a[1] + 1 for a, b in zip(spans, spans[1:]))
                # every row in one call
                rows = list(range(K))
                want = [sorted(_excluded_set_oracle(row, f, K)) for row in rows]
                got = list(_exclusion_runs(rows, f, K))
                assert [[c for lo, hi in spans for c in range(lo, hi + 1)] for spans in got] == want

    def test_payloads_match_the_golden(self):
        # digests of encode_theorem2 payload hex recorded before the
        # exclusions became intervals; every round trip still decodes
        for label, want in GOLDEN.items():
            K, n, seed, stream = (int(v.split("=")[1]) for v in label.split(","))
            a = distinct_row_arrangement(K, n, seed, stream)
            payload = encode_theorem2(a).payload
            assert hashlib.sha256(payload.to_hex().encode()).hexdigest() == want, label
            assert decode_witness("theorem2", payload, K, n) == a

    def test_hostile_header_fails_fast(self):
        # a header claiming the largest twice-area excludes every column of
        # every lower row; the decoder must refuse without listing them
        K, n = K20, 200
        payload = encode_theorem2(distinct_row_arrangement(K, n, seed=62)).payload
        header_w = _theorem2_widths(K)[0]
        hostile = BitString.from_int((K - 1) ** 2, header_w) + payload[header_w:]
        t0 = time.perf_counter()
        with pytest.raises(DecodeError, match="out of range"):
            decode_witness("theorem2", hostile, K, n)
        assert time.perf_counter() - t0 < 0.1


def _reference_intervals(row, f, T_min):
    """Merged excluded intervals of one row in Python integers: each line's
    num/den +- T_min/S over the common denominator den * S."""
    S = f.K - 1
    spans = []
    for (x1, y1), (x2, y2) in f.segments:
        num, den = x2 * (y1 - y2) + (row - y2) * (x1 - x2), y1 - y2
        if den < 0:
            num, den = -num, -den
        lo = max(0, (num * S - T_min * den) // (den * S) + 1)
        hi = min(S, -((-num * S - T_min * den) // (den * S)) - 1)
        if lo <= hi:
            spans.append((lo, hi))
    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _corner_lines(K, rng):
    """Segments through the grid corners, vertical and nearly horizontal
    ones, and random ones crossing the middle row."""
    S = K - 1
    split = S // 2
    segs = [((0, S), (S, 0)), ((S, S), (0, 0)), ((0, S), (0, 0)), ((S, S), (S, 0)),
            ((0, S), (S, S - 1)), ((S, 1), (0, 0)), ((S, split + 1), (0, split)), ((0, S), (1, 0))]
    for _ in range(8):
        segs.append(((rng.below(K), split + 1 + rng.below(S - split)), (rng.below(K), rng.below(split + 1))))
    return ForbiddingLineSet(K, split, (), tuple(segs), 0, 0)


class TestExclusionRuns:
    @pytest.mark.parametrize("K", [K20, MAX_GRID_SIDE - 7, MAX_GRID_SIDE])
    def test_runs_match_the_exact_reference(self, K):
        # the a/b split against the direct quotients over den * S
        rng = stream_rng(111, K % 1000)
        f = _corner_lines(K, rng)
        S = K - 1
        rows = [0, 1, 2, f.split_row - 1, f.split_row, f.split_row + 1, S - 1, S]
        rows += [rng.below(K) for _ in range(8)]
        # T_min from S << 62 on takes t1 at its cap of 2^62
        for T_min in (0, 1, S, S + 1, 1 + rng.below(S * S), S * S - 1, S * S, S << 62, 2**100):
            want = [_reference_intervals(row, f, T_min) for row in rows]
            assert list(_exclusion_runs(rows, f, T_min)) == want
        assert list(_exclusion_runs(rows, f, S * S)) == [[(0, S)]] * len(rows)

    def test_no_lines_and_errors(self):
        f = ForbiddingLineSet(64, 31, (), (), 0, 0)
        assert list(_exclusion_runs([0, 5, 31], f, 1000)) == [[], [], []]
        with pytest.raises(ValueError, match="nonnegative"):
            excluded_columns(0, f, -1)

    @pytest.mark.parametrize("f, rows, T_min", [
        *((_corner_lines(K, stream_rng(111, K % 1000)), None, T_min)
          for K in (K20, MAX_GRID_SIDE - 7, MAX_GRID_SIDE) for T_min in (0, 1, K - 1, K, (K - 1) ** 2)),
        # a run ends at column 63 of row 1 and the next starts at column 0
        # of row 2: adjacent cells, two runs
        *((ForbiddingLineSet(64, 2, (), (((63, 1), (0, 2)),), 0, 0), [1, 2], T_min) for T_min in (63, 189)),
    ])
    def test_field_runs_count_each_rows_cells(self, f, rows, T_min):
        K = f.K
        if rows is None:
            rows = [0, 1, f.split_row - 1, f.split_row, K - 2, K - 1]
        lo, hi, excl, base = witnesses._field_runs(rows, f, T_min)
        want = [[(lo_ + i * K, hi_ + i * K) for lo_, hi_ in _reference_intervals(row, f, T_min)]
                for i, row in enumerate(rows)]
        assert list(zip(lo.tolist(), hi.tolist())) == [run for runs in want for run in runs]
        assert excl.tolist() == [sum(h - l + 1 for l, h in zip(lo[:j], hi[:j])) for j in range(lo.size + 1)]
        assert base[0] == 0 and len(base) == len(rows) + 1
        assert np.diff(base).tolist() == [K - sum(h - l + 1 for l, h in runs) for runs in want]

    @pytest.mark.parametrize("K, seg, rows, match", [
        (64, ((3, 40), (5, 2)), [0, 64], "row is outside"),
        (64, ((3, 40), (5, 2)), [-1, 5], "row is outside"),
        (64, ((3, 64), (5, 2)), [5], "segment coordinate"),
        (64, ((-1, 40), (5, 2)), [5], "segment coordinate"),
        (64, ((3, 40), (5, 2**70)), [5], "segment coordinate"),
        (64, ((3, 40), (5, 40)), [5], "horizontal"),
        (MAX_GRID_SIDE + 1, ((3, 40), (5, 2)), [5], "grid side"),
    ])
    def test_inputs_past_the_int64_range_are_refused(self, K, seg, rows, match):
        f = ForbiddingLineSet(K, 31, (), (seg,), 0, 0)
        with pytest.raises(ValueError, match=match):
            list(_exclusion_runs(rows, f, 1000))


def claim_heavy_arrangement(K, n, seed, diagonal=False):
    """Distinct rows; the upper half split between the top and the bottom
    Claim rectangle, so it holds (n/4)^2 forbidding lines for n divisible
    by 4; the lower half on random rows below the bottom rectangle, or with
    ``diagonal`` on rows 0, 1, ... at column = row, so that T_min = 0."""
    rng = stream_rng(seed, K % 997)
    S = K - 1
    x_lo, x_hi = 2 * S // 5 + 1, 3 * S // 5  # the middle fifth (2/5, 3/5]
    top = range(-(-9 * S // 10), K)  # [9/10, 1]
    bottom = range(-(-S // 2), (6 * S - 1) // 10 + 1)  # [1/2, 3/5)

    def rows(span, count):
        out = set()
        while len(out) < count:
            out.add(span[rng.below(len(span))])
        return out

    up = n // 2
    pts = [(x_lo + rng.below(x_hi - x_lo + 1), y) for y in rows(top, up // 2) | rows(bottom, up - up // 2)]
    if diagonal:
        pts += [(y, y) for y in range(n - up)]
    else:
        pts += [(rng.below(K), y) for y in rows(range(bottom.start), n - up)]
    return GridArrangement.from_points(K, pts)


def zero_line_arrangement(K, n, seed):
    """Distinct rows, every upper pebble left of the middle fifth."""
    a = distinct_row_arrangement(K, n, seed)
    S = K - 1
    return GridArrangement.from_points(K, [(p.x % (2 * S // 5 + 1) if i >= n // 2 else p.x, p.y)
                                           for i, p in enumerate(a.points)])


def _lower_field(a):
    """(T_min, forbidding lines, lower pebbles top down, bits before the
    lower field) of a's theorem-2 witness."""
    K, n = a.K, a.n
    T_min = int(min_area_triangle(a, mode="fast").twice_area)
    upper = a.points[: n // 2 - 1 : -1]
    f = _claim_rect_pairs(list(enumerate(upper)), K, split_row(a))
    header_w, col_w = _theorem2_widths(K)
    return T_min, f, a.points[n // 2 - 1 :: -1], header_w + _comb_bits(K, n) + col_w * (n // 2)


def _ranks_by_runs(lower, f, T_min):
    """Each lower pebble's rank by the loop over ``_exclusion_runs`` that
    the encoder ran before the array pass."""
    ranks = []
    for p, spans in zip(lower, _exclusion_runs([p.y for p in lower], f, T_min)):
        rank = p.x
        for lo, hi in spans:
            if lo > p.x:
                break
            if p.x <= hi:
                raise ValueError(
                    f"internal consistency failure: pebble column {p.x} on row {p.y} "
                    "is inside its own excluded set"
                )
            rank -= hi - lo + 1
        ranks.append(rank)
    return ranks


def _column_by_runs(rank, spans):
    """The column of a rank by the decoder's loop before the array pass."""
    col = rank
    for lo, hi in spans:
        if lo > col:
            break
        col += hi - lo + 1
    return col


ARRAY_PASS_CASES = [(kind, K, n) for K, n in ((64, 12), (K20, 200), (MAX_GRID_SIDE, 40))
                    for kind in ("random", "claim_heavy", "zero_line", "zero_tmin")]


def _array_pass_arrangements(kind, K, n):
    """The arrangements of ``kind`` from seed 131 on whose T_min is
    positive, or, for "zero_tmin", all of them."""
    for seed in range(131, 231):
        if kind == "random":
            a = distinct_row_arrangement(K, n, seed)
        elif kind == "zero_line":
            a = zero_line_arrangement(K, n, seed)
        else:
            a = claim_heavy_arrangement(K, n, seed, diagonal=kind == "zero_tmin")
        if kind == "zero_tmin" or min_area_triangle(a, mode="fast").twice_area > 0:
            yield a


class TestLowerFieldArrays:
    @pytest.mark.parametrize("kind, K, n", ARRAY_PASS_CASES)
    def test_ranks_and_columns_match_the_run_lists(self, kind, K, n):
        excluded = 0
        cases = list(islice(_array_pass_arrangements(kind, K, n), 3))
        assert len(cases) == 3
        for seed, a in enumerate(cases):
            T_min, f, lower, fixed = _lower_field(a)
            if kind == "claim_heavy":
                assert len(f.lines) == (n // 4) ** 2
            if kind == "zero_line":
                assert not f.lines
            assert (T_min == 0) == (kind == "zero_tmin")
            # the encoder's lower ranks are the loop's
            payload = encode_theorem2(a).payload
            ranks = _ranks_by_runs(lower, f, T_min)
            assert payload[fixed:] == BitString.join(sd_prime(nat_to_string(r)) for r in ranks)
            assert decode_witness("theorem2", payload, K, n) == a
            # the decoder maps every rank as the loop did: in each row the
            # first and the last allowed rank, one at random, and the ranks
            # of the allowed columns on either side of each run, in turn
            # (at most 16 of them in a row with more)
            runs = _exclusion_runs([p.y for p in lower], f, T_min)
            allowed = [K - sum(hi - lo + 1 for lo, hi in spans) for spans in runs]
            excluded += sum(K - c for c in allowed)
            rng = stream_rng(seed, 7)
            picks = []
            for c, spans in zip(allowed, runs):
                below = [lo - sum(h - l + 1 for l, h in spans[:k]) for k, (lo, _) in enumerate(spans)]
                picks.append(sorted({0, c - 1, rng.below(c)} | {r for b in below for r in (b - 1, b) if 0 <= r < c}))
            for pick in range(min(16, max(map(len, picks)))):
                chosen = [ranks[(i + pick) % len(ranks)] for i, ranks in enumerate(picks)]
                bits = payload[:fixed] + BitString.join(sd_prime(nat_to_string(r)) for r in chosen)
                got = decode_witness("theorem2", bits, K, n).points[: n // 2][::-1]
                assert [(p.x, p.y) for p in got] == [
                    (_column_by_runs(r, spans), p.y) for r, spans, p in zip(chosen, runs, lower)]
            # one rank past a row's allowed columns
            i = len(lower) // 2
            chosen = ranks[:i] + [allowed[i]] + ranks[i + 1 :]
            bits = payload[:fixed] + BitString.join(sd_prime(nat_to_string(r)) for r in chosen)
            want = rf"^rank {allowed[i]} out of range for {allowed[i]} allowed positions$"
            with pytest.raises(DecodeError, match=want):
                decode_witness("theorem2", bits, K, n)
        if kind == "claim_heavy":
            assert excluded > 0
        elif kind != "random":
            assert excluded == 0

    @pytest.mark.parametrize("hits", [(3, 5, 8), (8,), (0, 9), (9,)])
    def test_pebble_inside_its_own_exclusions_is_named(self, monkeypatch, hits):
        # exclusions that cover the columns of the lower pebbles at ``hits``
        # (top down), one run each: ending at, around and starting at the
        # column; the error names the first of them from the top down
        a = claim_heavy_arrangement(K20, 20, 140)
        T_min, f, lower, _ = _lower_field(a)
        shapes = ((-2, 0), (0, 0), (0, 3), (-1, 1))

        def runs(rows, f, T_min):
            # the same runs as lower-field cells, column x of row i at i K + x
            assert list(rows) == [p.y for p in lower]
            spans = [(i * f.K + lower[i].x + shapes[k % 4][0], i * f.K + lower[i].x + shapes[k % 4][1])
                     for k, i in enumerate(hits)]
            lo, hi = (np.array(v, dtype=np.int64) for v in zip(*spans))
            excl = np.concatenate(([0], np.cumsum(hi - lo + 1)))
            cut = np.arange(len(rows) + 1) * f.K
            return lo, hi, excl, cut - excl[np.searchsorted(lo, cut)]

        monkeypatch.setattr(witnesses, "_field_runs", runs)
        p = lower[hits[0]]
        want = rf"^internal consistency failure: pebble column {p.x} on row {p.y} is inside its own excluded set$"
        with pytest.raises(ValueError, match=want):
            _ranks_by_runs(lower, f, T_min)
        with pytest.raises(ValueError, match=want):
            encode_theorem2(a)
