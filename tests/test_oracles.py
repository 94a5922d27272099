"""Brute-force oracles for the closed-form codec arithmetic.

These re-derive, by literal enumeration, the quantities the codecs compute
arithmetically: the small-triangle candidate ordering, excluded-column
sets, and pair ranks.  Any drift between the closed forms and the
definitions shows up here first.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from heilbronn.coding import rank_combination, unrank_combination
from heilbronn.geometry import GridPoint
from heilbronn.rng import stream_rng
from heilbronn.witnesses import (
    ForbiddingLineSet,
    _triangle_candidate_index,
    _triangle_candidate_point,
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


class TestCandidateEnumerationOracle:
    def test_closed_form_matches_brute_force(self):
        rng = stream_rng(101, 0)
        checked = 0
        while checked < 12:
            px, py = rng.below(10) + 6, rng.below(10) + 6
            dx, dy = rng.below(7) - 3, rng.below(7) - 3
            if (dx, dy) == (0, 0):
                continue
            P = GridPoint(px, py)
            Q = GridPoint(px + dx, py + dy)
            max_k = 3
            cands = enumerate_candidates_brute(P, Q, max_k)
            g = gcd(abs(dx), abs(dy))
            assert len(cands) == 2 * g * max_k  # g per (level, sign)
            for idx, X in enumerate(cands):
                assert _triangle_candidate_index(P, Q, X) == idx
                assert _triangle_candidate_point(P, Q, idx) == X
            checked += 1

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
                segs.append(((x1, y1), (x2, y2)))
            f = ForbiddingLineSet(K, 32, ((0, 1), (2, 3)), tuple(segs), 1, 2)
            T_min = 1 + rng.below(120)
            row = rng.below(32)
            got = excluded_columns(row, f, T_min, K)
            # oracle: test every column against every line's exact intercept
            radius = Fraction(T_min, K - 1)
            want = set()
            for (x1, y1), (x2, y2) in segs:
                xi = Fraction(x2 * (y1 - y2) + (row - y2) * (x1 - x2), y1 - y2)
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
