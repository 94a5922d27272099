"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from itertools import combinations
from math import comb

import pytest

from heilbronn.coding import DecodeError, baseline_length, ceil_log2
from heilbronn.constructions import erdos_prime, optimize_heilbronn
from heilbronn.geometry import GridArrangement, GridPoint, min_area_triangle
from heilbronn.coding import rank_arrangement, unrank_arrangement
from heilbronn.montecarlo import (
    degenerate_structure_stats,
    tail_probability,
    _trial_areas,
)
from heilbronn.rng import derive_seed
from heilbronn.witnesses import (
    _exclusion_runs,
    count_forbidding_lines,
    decode_witness,
    encode_collinear_witness,
    encode_rowline_witness,
    encode_small_triangle_witness,
    encode_theorem2,
    find_collinear_triple,
    find_shared_row_pair,
    forbidding_lines,
)

from conftest import (
    distinct_row_arrangement,
    planted_collinear,
    planted_shared_row,
    planted_small_triangle,
    random_arrangement,
)

K20 = 1 << 20


def _report(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestCriterion1Scaling:
    def test_slope_and_fit(self, acceptance_scan):
        estimates, fit = acceptance_scan
        ok = -3.3 <= fit.slope <= -2.7 and fit.r_squared >= 0.98
        _report(1, ok, f"slope={fit.slope:.4f} (band [-3.3, -2.7]), r2={fit.r_squared:.5f} (>= 0.98)")


class TestCriterion2ConstantBand:
    def test_within_factor_two_of_geometric_mean(self, acceptance_scan):
        estimates, _ = acceptance_scan
        scaled = [e.mean * e.n**3 for e in estimates]
        gm = 1.0
        for v in scaled:
            gm *= v
        gm **= 1.0 / len(scaled)
        ratios = [v / gm for v in scaled]
        ok = all(0.5 <= r <= 2.0 for r in ratios)
        _report(2, ok, f"mu*n^3 ratios to geometric mean: {[f'{r:.3f}' for r in ratios]}")


class TestCriterion3Tail:
    def test_quartile_and_exact_bounds(self):
        n = 32
        pilot = sorted(_trial_areas(n, 2000, seed=derive_seed(1003, 0)))
        t = pilot[len(pilot) // 4]  # empirical 25th percentile
        est = tail_probability(n, t, trials=5000, seed=derive_seed(1003, 1))
        exact_one = tail_probability(n, 1.0, trials=500, seed=derive_seed(1003, 2)).fraction
        exact_zero = tail_probability(n, 0.0, trials=500, seed=derive_seed(1003, 2)).fraction
        ok = abs(est.fraction - 0.25) <= 0.03 and exact_one == 1.0 and exact_zero == 0.0
        _report(3, ok, f"P(A<t25)={est.fraction:.4f} (0.25 +/- 0.03), "
                       f"P(A<1)={exact_one}, P(A<0)={exact_zero}")


class TestCriterion4Erdos:
    def test_primes_non_collinear_unit_area(self):
        t0 = time.perf_counter()
        worst = None
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            a = erdos_prime(p)  # re-verifies no-collinear exhaustively
            assert find_collinear_triple(a) is None
            if p >= 3:
                t_min = int(min_area_triangle(a, mode="exhaustive").twice_area)
                assert t_min >= 1
                worst = t_min if worst is None else min(worst, t_min)
        elapsed = time.perf_counter() - t0
        ok = worst >= 1 and elapsed < 1.0
        _report(4, ok, f"all primes collinear-free, min twice-area >= {worst}, {elapsed:.2f}s < 1s")


class TestCriterion5CodecExactness:
    def test_rank_witness_round_trips(self):
        t0 = time.perf_counter()
        # exhaustive bijection at K=3, n=1..4
        for n in range(1, 5):
            for rank, cells in enumerate(combinations(range(9), n)):
                a = unrank_arrangement(rank, 3, n)
                assert a.cells() == cells
                assert rank_arrangement(a).value == rank
        # 1000 random round trips at K=1024, n=8
        for t in range(1000):
            a = random_arrangement(1024, 8, seed=1005, stream=t)
            assert unrank_arrangement(rank_arrangement(a), 1024, 8) == a
        # 200 planted round trips per witness codec
        for t in range(200):
            a = planted_collinear(1024, 8, seed=1006, stream=t)
            assert decode_witness("collinear", encode_collinear_witness(a).payload, 1024, 8) == a
            a = planted_shared_row(1024, 8, seed=1007, stream=t)
            assert decode_witness("rowline", encode_rowline_witness(a).payload, 1024, 8) == a
            a, triple = planted_small_triangle(1024, 8, seed=1008, stream=t)
            rep = encode_small_triangle_witness(a, triple)
            assert decode_witness("small_triangle", rep.payload, 1024, 8) == a
            a = distinct_row_arrangement(1024, 8, seed=1009, stream=t)
            assert decode_witness("theorem2", encode_theorem2(a).payload, 1024, 8) == a
        # truncation always errors
        cases = [
            ("collinear", encode_collinear_witness(planted_collinear(1024, 8, seed=1010))),
            ("rowline", encode_rowline_witness(planted_shared_row(1024, 8, seed=1011))),
            ("small_triangle",
             encode_small_triangle_witness(*planted_small_triangle(1024, 8, seed=1012))),
            ("theorem2", encode_theorem2(distinct_row_arrangement(1024, 8, seed=1013))),
        ]
        for kind, rep in cases:
            for cut in range(0, len(rep.payload), max(1, len(rep.payload) // 7)):
                with pytest.raises(DecodeError):
                    decode_witness(kind, rep.payload[:cut], 1024, 8)
        elapsed = time.perf_counter() - t0
        ok = elapsed < 60.0
        _report(5, ok, f"bijections, 4x200 planted round trips, truncation errors; "
                       f"{elapsed:.1f}s < 60s")


class TestCriterion6WitnessSavings:
    def test_exact_bit_accounting(self):
        # oracle: exact big-integer binomial log arithmetic, worst-case widths
        base = baseline_length(K20, 8)
        collinear_bound = base - (ceil_log2(comb(K20 * K20, 7)) + ceil_log2(comb(7, 2)) + 20)
        assert collinear_bound >= 4
        a = planted_collinear(K20, 8, seed=1014)
        col = encode_collinear_witness(a)
        assert decode_witness("collinear", col.payload, K20, 8) == a

        b, triple = planted_small_triangle(K20, 8, seed=1015, T=1)
        tri = encode_small_triangle_witness(b, triple)
        assert decode_witness("small_triangle", tri.payload, K20, 8) == b
        ok = col.savings >= 4 and tri.savings >= 5
        _report(6, ok, f"collinear savings {col.savings} >= 4 (worst-case bound "
                       f"{collinear_bound}), unit-triangle savings {tri.savings} >= 5")


class TestCriterion7SavingsRarity:
    def test_exhaustive_savings_rarity(self):
        t0 = time.perf_counter()
        K, n = 4, 3
        m = comb(K * K, n)
        histograms = {"collinear": [], "rowline": [], "small_triangle": [], "theorem2": []}
        for cells in combinations(range(K * K), n):
            a = GridArrangement(K, tuple(GridPoint(c % K, c // K) for c in cells))
            if find_collinear_triple(a) is not None:
                histograms["collinear"].append(encode_collinear_witness(a).savings)
            if find_shared_row_pair(a) is not None:
                histograms["rowline"].append(encode_rowline_witness(a).savings)
            if min_area_triangle(a, mode="exhaustive").twice_area > 0:
                histograms["small_triangle"].append(encode_small_triangle_witness(a).savings)
            # theorem2 requires even n: inapplicable over this domain
        worst = {}
        ok = True
        for kind, savings in histograms.items():
            if not savings:
                continue
            for delta in range(0, max(savings) + 1 if savings else 1):
                count = sum(1 for s in savings if s >= delta)
                if count > m / 2**delta:
                    ok = False
                    worst[kind] = (delta, count)
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 10.0
        detail = ", ".join(
            f"{kind}: {len(v)} encodable, max savings {max(v)}" for kind, v in histograms.items() if v
        )
        _report(7, ok, f"counts within m/2^delta for all delta ({detail}); "
                       f"{elapsed:.1f}s < 10s" + (f"; violations {worst}" if worst else ""))


class TestCriterion8DegenerateRarity:
    def test_rarity_and_enumeration_anchor(self):
        big = degenerate_structure_stats(K20, 16, trials=2000, seed=1016)
        anchor = degenerate_structure_stats(2, 2, trials=10000, seed=1017)
        ok = (
            big.collinear_fraction <= 0.02
            and big.shared_row_fraction <= 0.02
            and abs(anchor.shared_row_fraction - 1 / 3) <= 0.02
        )
        _report(8, ok, f"K=2^20 n=16: collinear {big.collinear_fraction:.4f} <= 0.02, "
                       f"shared-row {big.shared_row_fraction:.4f} <= 0.02; "
                       f"K=2 anchor {anchor.shared_row_fraction:.4f} = 1/3 +/- 0.02")


class TestCriterion9Theorem2Machinery:
    def test_forbidding_lines_exclusions_round_trips(self):
        n = 200
        trials = 500
        count_ok = 0
        eligible = 0
        round_trips = 0
        exclusion_violations = 0
        savings = []
        for t in range(trials):
            a = random_arrangement(K20, n, seed=1018, stream=t)
            if len(set(a.rows())) < n:
                continue  # ineligible: duplicate rows (counts as a count failure)
            eligible += 1
            if count_forbidding_lines(a) >= n * n / 10_000:
                count_ok += 1
            f = forbidding_lines(a)
            t_min = int(min_area_triangle(a, mode="fast").twice_area)
            # distinct rows: one pass over every row at or below the split
            lower = [p for p in a.points if p.y <= f.split_row]
            for p, spans in zip(lower, _exclusion_runs([p.y for p in lower], f, t_min)):
                if any(lo <= p.x <= hi for lo, hi in spans):
                    exclusion_violations += 1
            rep = encode_theorem2(a)
            if decode_witness("theorem2", rep.payload, K20, n) == a:
                round_trips += 1
            savings.append(rep.savings)
        # rarity consistency: compressing by >= d bits must stay rarer than 2^-d
        rarity_ok = all(
            sum(1 for s in savings if s >= d) / len(savings) <= 2.0**-d
            for d in range(1, 16)
        )
        ok = (
            count_ok / trials >= 0.95
            and exclusion_violations == 0
            and round_trips == eligible
            and rarity_ok
        )
        _report(9, ok, f"line count >= n^2/10^4 in {count_ok}/{trials} trials (>= 95%), "
                       f"{exclusion_violations} exclusion violations, "
                       f"round trips {round_trips}/{eligible} eligible, "
                       f"savings rarity ok={rarity_ok} (max savings {max(savings)})")


class TestCriterion10Optimizer:
    def test_anchors_and_monotonicity(self):
        t0 = time.perf_counter()
        v3 = optimize_heilbronn(3, restarts=8, steps=3000, seed=42).value
        v4 = optimize_heilbronn(4, restarts=8, steps=3000, seed=42).value
        sweep = {
            n: optimize_heilbronn(n, restarts=12, steps=4000, seed=42).value
            for n in range(4, 11)
        }
        mono = all(sweep[n] >= sweep[n + 1] for n in range(4, 10))
        elapsed = time.perf_counter() - t0
        ok = v3 >= 0.4999 and v4 >= 0.4999 and mono and elapsed <= 300.0
        _report(10, ok, f"v3={v3:.5f}, v4={v4:.5f} (>= 0.4999), "
                        f"sweep nonincreasing={mono}, {elapsed:.0f}s <= 300s")
