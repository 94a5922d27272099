"""Brute-force oracles for the closed-form codec arithmetic.

These re-derive, by literal enumeration, the quantities the codecs compute
arithmetically: the small-triangle candidate ordering, the position of a
collinear witness's third pebble on line(P, Q), excluded-column sets, and
combination ranks.  Any drift between the closed forms and the definitions
shows up here first.  Where enumeration is out of reach (combinations of
range(2^48)), the reference is the per-element bisection that ranking used
before the combinadic walk.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, perm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heilbronn import coding
from heilbronn.coding import BitString, DecodeError, ceil_log2, rank_combination, unrank_combination
from heilbronn.geometry import GridArrangement, GridPoint
from heilbronn.rng import stream_rng
from heilbronn.witnesses import (
    ForbiddingLineSet,
    _line_table,
    _triangle_candidate_index,
    _triangle_candidate_point,
    decode_witness,
    encode_collinear_witness,
    excluded_columns,
)


def enumerate_candidates_brute(P, Q, max_k):
    """All lattice points X with cross(P,Q,X) = +-k*g for k = 1..max_k and
    projection on PQ in [P, Q), listed by (k, sign + first, position)."""
    q1, q2 = Q.x - P.x, Q.y - P.y
    g = gcd(abs(q1), abs(q2))
    qq = q1 * q1 + q2 * q2
    # search box generously around P..Q
    span = max(abs(q1), abs(q2)) + max_k * (abs(q1) + abs(q2) + 2) + 2
    found = []
    for x in range(P.x - span, P.x + span + 1):
        for y in range(P.y - span, P.y + span + 1):
            r1, r2 = x - P.x, y - P.y
            v = q2 * r1 - q1 * r2
            if v == 0 or abs(v) % g or abs(v) // g > max_k:
                continue
            s = r1 * q1 + r2 * q2  # projection numerator; window is [0, qq)
            if 0 <= s < qq:
                # position along the line = s ordered ascending
                found.append((abs(v) // g, 0 if v > 0 else 1, s, GridPoint(x, y)))
    found.sort(key=lambda t: t[:3])
    return [t[3] for t in found]


def check_candidates(P, Q, max_k=3):
    cands = enumerate_candidates_brute(P, Q, max_k)
    g = gcd(Q.x - P.x, Q.y - P.y)
    assert len(cands) == 2 * g * max_k  # g per (level, sign)
    for idx, X in enumerate(cands):
        assert _triangle_candidate_index(P, Q, X) == idx
        assert _triangle_candidate_point(P, Q, idx) == X


class TestCandidateEnumerationOracle:
    def test_closed_form_matches_brute_force(self):
        rng = stream_rng(101, 0)
        checked = 0
        while checked < 12:
            px, py = rng.below(10) + 6, rng.below(10) + 6
            dx, dy = rng.below(7) - 3, rng.below(7) - 3
            if (dx, dy) == (0, 0):
                continue
            check_candidates(GridPoint(px, py), GridPoint(px + dx, py + dy))
            checked += 1

    # axis-parallel sides: the modular inverse meets q1 = 0 and |q1 / g| = 1
    @pytest.mark.parametrize("dx, dy", [(1, 0), (-1, 0), (0, 1), (0, -1), (3, 0), (-3, 0), (0, 2), (0, -2)])
    def test_axis_parallel_sides(self, dx, dy):
        check_candidates(GridPoint(7, 9), GridPoint(7 + dx, 9 + dy))

    def test_worked_example_ordering(self):
        # P=(0,0), Q=(3,0): levels are horizontal lines y = -k (plus) and
        # y = +k (minus sign of the form), window x in [0, 3)
        P, Q = GridPoint(0, 0), GridPoint(3, 0)
        cands = enumerate_candidates_brute(P, Q, 1)
        assert [(c.x, c.y) for c in cands] == [
            (0, -1), (1, -1), (2, -1),  # form value +3
            (0, 1), (1, 1), (2, 1),     # form value -3
        ]
        assert _triangle_candidate_index(P, Q, GridPoint(1, 1)) == 4


def line_points_brute(P, Q, K):
    """Grid points of [0, K-1]^2 on line(P, Q) other than P and Q, in
    lexicographic (x, y) order, which is their order along the line's
    lexicographically positive direction."""
    return [
        GridPoint(x, y)
        for x in range(K)
        for y in range(K)
        if (Q.x - P.x) * (y - P.y) == (Q.y - P.y) * (x - P.x) and GridPoint(x, y) not in (P, Q)
    ]


def _side(P, Q, X):
    """Where X lies along the line relative to P and Q."""
    lo, hi = sorted(((P.x, P.y), (Q.x, Q.y)))
    return "before" if (X.x, X.y) < lo else "after" if (X.x, X.y) > hi else "between"


class TestCollinearLinePositionOracle:
    def test_encoder_index_and_decoder_point_match_brute_force(self):
        rng = stream_rng(104, 0)
        enc_cases, dec_cases = Counter(), Counter()
        while sum(dec_cases.values()) < 600:
            K = 3 + rng.below(10)
            P = GridPoint(rng.below(K), rng.below(K))
            Q = GridPoint(rng.below(K), rng.below(K))
            line = line_points_brute(P, Q, K)
            if P == Q or not line:
                continue
            # decoder: every position on the line, P and Q as the
            # sub-arrangement's pair
            a2 = GridArrangement.from_points(K, [(P.x, P.y), (Q.x, Q.y)])
            sub_rank = rank_combination(a2.cells(), K * K)
            sub_bits = BitString.from_int(sub_rank, ceil_log2(comb(K * K, 2)))
            width = ceil_log2(len(line))
            for pos, X in enumerate(line):
                got = decode_witness("collinear", sub_bits + BitString.from_int(pos, width), K, 3)
                assert got == GridArrangement.from_points(K, [(P.x, P.y), (Q.x, Q.y), (X.x, X.y)])
                dec_cases[_side(P, Q, X)] += 1
            if len(line) < 1 << width:
                with pytest.raises(DecodeError):
                    decode_witness("collinear", sub_bits + BitString.from_int(len(line), width), K, 3)
            # encoder: R is the row-major last pebble of {P, Q, X}, P and
            # Q the other two in row-major order
            for X in line:
                a = GridArrangement.from_points(K, [(P.x, P.y), (Q.x, Q.y), (X.x, X.y)])
                p, q, r = a.points
                want = line_points_brute(p, q, K)
                w = ceil_log2(len(want))
                payload = encode_collinear_witness(a).payload
                assert payload[len(payload) - w :].to_int() == want.index(r)
                enc_cases[_side(p, q, r)] += 1
                enc_cases["axis-parallel"] += p.x == q.x or p.y == q.y
                enc_cases["flipped"] += q.x < p.x  # direction q - p has dx < 0
        assert set(dec_cases) == {"before", "between", "after"}
        # the encoder's R is the last of its triple in row-major order, so
        # it lies beyond P and Q on the line, never between them
        assert enc_cases["before"] and enc_cases["after"] and not enc_cases["between"]
        assert enc_cases["axis-parallel"] and enc_cases["flipped"]


class TestExcludedColumnsOracle:
    def test_full_row_scan_matches(self):
        rng = stream_rng(102, 0)
        K = 64
        for trial in range(25):
            # two random upper segments with distinct rows
            segs = []
            for _ in range(2):
                x1, x2 = rng.below(K), rng.below(K)
                y1 = 40 + rng.below(20)
                y2 = 33 + rng.below(6)
                # either endpoint first, so the intercept's denominator
                # y1 - y2 takes both signs
                seg = ((x1, y1), (x2, y2))
                segs.append(seg if rng.below(2) else seg[::-1])
            f = ForbiddingLineSet(K, 32, ((0, 1), (2, 3)), tuple(segs), 1, 2)
            row = rng.below(32)
            xis = [Fraction(x2 * (y1 - y2) + (row - y2) * (x1 - x2), y1 - y2) for (x1, y1), (x2, y2) in segs]
            c0, d, den = _line_table(f, (row,))
            assert (den > 0).all() and [Fraction(v, q) for v, q in zip((c0 + row * d).tolist(), den.tolist())] == xis
            for T_min in (0, 1 + rng.below(120)):
                got = excluded_columns(row, f, T_min)
                # oracle: test every column against every line's exact intercept
                radius = Fraction(T_min, K - 1)
                want = set()
                for xi in xis:
                    for c in range(K):
                        if abs(c - xi) < radius:
                            want.add(c)
                assert got == want


class TestPairRankOracle:
    def test_exhaustive_bijection(self):
        for m in range(2, 12):
            pairs = list(combinations(range(m), 2))
            assert len(pairs) == comb(m, 2)
            for rank, (i, j) in enumerate(pairs):
                assert rank_combination((i, j), m) == rank
                assert unrank_combination(rank, 2, m) == (i, j)


def rank_by_prefixes(cells, m):
    """Lexicographic rank as the count of combinations below, prefix by prefix."""
    k = len(cells)
    rank, prev = 0, -1
    for i, c in enumerate(cells):
        rem = k - i
        rank += comb(m - prev - 1, rem) - comb(m - c, rem)
        prev = c
    return rank


def unrank_by_comb_walk(rank, k, m):
    """The greedy walk on binomials: with u = C(m, k) - 1 - rank, each
    element is m - 1 - x for the largest x with C(x, r) <= u, r = k, ..., 1."""
    u, x, out = comb(m, k) - 1 - rank, m, []
    for r in range(k, 0, -1):
        x -= 1
        while comb(x, r) > u:
            x -= 1
        u -= comb(x, r)
        out.append(m - 1 - x)
    return tuple(out)


def unrank_by_bisection(rank, k, m):
    """Each element by bisection over the count of combinations below it."""
    out, prev = [], -1
    for i in range(k):
        rem = k - i
        base = comb(m - prev - 1, rem)
        lo, hi = prev + 1, m - rem
        while lo < hi:
            mid = (lo + hi) // 2
            if base - comb(m - mid - 1, rem) > rank:
                hi = mid
            else:
                lo = mid + 1
        rank -= base - comb(m - lo, rem)
        out.append(lo)
        prev = lo
    return tuple(out)


@st.composite
def ranked_combinations(draw):
    m = draw(st.integers(min_value=0, max_value=1 << 48))
    k = draw(st.integers(min_value=0, max_value=min(m, 64)))
    return m, k, draw(st.integers(min_value=0, max_value=comb(m, k) - 1))


class TestCombinationRankOracle:
    def test_exhaustive_all_k(self):
        for m in range(13):
            for k in range(m + 1):
                for rank, cells in enumerate(combinations(range(m), k)):
                    assert rank_combination(cells, m) == rank
                    assert unrank_combination(rank, k, m) == cells

    @settings(max_examples=200, deadline=None)
    @given(ranked_combinations())
    def test_walk_matches_bisection(self, case):
        m, k, rank = case
        cells = unrank_combination(rank, k, m)
        assert cells == unrank_by_bisection(rank, k, m)
        assert rank_combination(cells, m) == rank == rank_by_prefixes(cells, m)

    # past m ~ 2^50 the float estimate misses and an estimate re-anchored
    # on the exact value finishes the element; 2^1100 is past the float
    # range, where the walk's bisection fallback does
    @pytest.mark.parametrize(
        "m,k",
        [(1000, 999), (1000, 990), (1000, 500), (1 << 20, 200), (1 << 54, 40), (1 << 56, 40),
         (1 << 64, 12), (1 << 1100, 3)],
    )
    def test_extreme_ranks_match_bisection(self, m, k):
        total = comb(m, k)
        for rank in (0, 1, 2, total // 3, total // 2, 5 * total // 7, total - 2, total - 1):
            cells = unrank_combination(rank, k, m)
            assert cells == unrank_by_bisection(rank, k, m)
            assert rank_combination(cells, m) == rank == rank_by_prefixes(cells, m)

    @pytest.mark.parametrize("m,k", [(1 << 54, 40), (1 << 64, 12), (1 << 64, 40)])
    def test_large_m_costs_at_most_two_perms_per_element(self, monkeypatch, m, k):
        # the re-anchored estimate keeps large m off the bisection: besides
        # perm(m, k), at most two exact falling factorials per element
        calls = []

        def counted(x, r):
            calls.append(x)
            return perm(x, r)

        monkeypatch.setattr(coding, "perm", counted)
        total = comb(m, k)
        for rank in (1, 2, total // 3, total // 2, 5 * total // 7, total - 2):
            calls.clear()
            cells = unrank_combination(rank, k, m)
            assert len(calls) <= 1 + 2 * k
            assert cells == unrank_by_bisection(rank, k, m)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_perm_floor_bisections_match_the_comb_walk(self, monkeypatch, steps):
        # with at most one ratio step, _perm_floor ends in its bisections:
        # below its start (perm(x, r) > V) with 0 steps, also above it with
        # 1; the perm calls at a bisection midpoint show that they ran
        monkeypatch.setattr(coding, "_STEPS", steps)
        midpoints = Counter()

        def counted(x, r):
            frame = sys._getframe(1)
            if frame.f_code is coding._perm_floor.__code__ and frame.f_locals.get("mid") == x:
                midpoints["below" if frame.f_locals["c"] > frame.f_locals["V"] else "above"] += 1
            return perm(x, r)

        monkeypatch.setattr(coding, "perm", counted)
        rng = Random(1107 + steps)
        for _ in range(100):
            m = rng.randrange(1, 2001)
            k = rng.randrange(min(m, 40) + 1)
            total = comb(m, k)
            for rank in {0, total - 1, rng.randrange(total), rng.randrange(total)}:
                cells = unrank_combination(rank, k, m)
                assert cells == unrank_by_comb_walk(rank, k, m)
                assert rank_combination(cells, m) == rank
        for _ in range(100):
            m = rng.randrange(1, 1 << 60) + 1
            k = rng.randrange(1, 41)
            rank = rng.randrange(comb(m, k))
            assert rank_combination(unrank_combination(rank, k, m), m) == rank
        assert midpoints["below"] > 0 and (steps == 0 or midpoints["above"] > 0), midpoints

    def test_errors_unchanged(self):
        with pytest.raises(ValueError, match=r"rank 6 out of range for C\(4, 2\)"):
            unrank_combination(6, 2, 4)
        with pytest.raises(ValueError, match=r"rank -1 out of range"):
            unrank_combination(-1, 2, 4)
        for cells in [(1, 1), (2, 1), (0, 4), (-1, 2)]:
            with pytest.raises(ValueError, match="strictly increasing within range"):
                rank_combination(cells, 4)
