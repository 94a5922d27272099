import os
import subprocess
import sys
from math import fsum, log2
from pathlib import Path

import numpy as np
import pytest

from heilbronn import montecarlo
from heilbronn.constructions import erdos_prime
from heilbronn.geometry import PointSet, min_area_triangle
from heilbronn.montecarlo import (
    analyze_pointset,
    baseline_areas,
    degenerate_structure_stats,
    estimate_mu,
    fit_exponent,
    sample_grid_arrangement,
    sample_unit_square,
    scan_mu,
    tail_probability,
)


class TestSampleUnitSquare:
    def test_deterministic_per_stream(self):
        a = sample_unit_square(16, seed=1, stream_id=9)
        b = sample_unit_square(16, seed=1, stream_id=9)
        assert a == b

    def test_streams_differ(self):
        a = sample_unit_square(16, seed=1, stream_id=0)
        b = sample_unit_square(16, seed=1, stream_id=1)
        assert a != b

    def test_coordinate_mean(self):
        ps = sample_unit_square(100000, seed=2, stream_id=0)
        coords = [c for p in ps.points for c in (p.x, p.y)]
        assert abs(fsum(coords) / len(coords) - 0.5) < 0.005

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_unit_square(0, seed=1, stream_id=0)


class TestSampleGridArrangement:
    def test_full_grid_unique(self):
        a = sample_grid_arrangement(2, 4, seed=3, stream_id=0)
        assert a.cells() == (0, 1, 2, 3)

    def test_uniform_over_six(self):
        counts = {}
        for t in range(6000):
            a = sample_grid_arrangement(2, 2, seed=4, stream_id=t)
            counts[a.cells()] = counts.get(a.cells(), 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / 6000 - 1 / 6) < 0.02

    def test_deterministic(self):
        a = sample_grid_arrangement(64, 5, seed=5, stream_id=7)
        b = sample_grid_arrangement(64, 5, seed=5, stream_id=7)
        assert a == b

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            sample_grid_arrangement(2, 5, seed=1, stream_id=0)


class TestEstimateMu:
    def test_injected_sampler_degenerate(self, monkeypatch):
        fixed = PointSet.from_coords([(0, 0), (1, 0), (0, 1), (0.25, 0.75)])
        want = min_area_triangle(fixed).area
        monkeypatch.setattr(montecarlo, "_trial_areas",
                            lambda n, trials, seed, jobs=1: np.full(trials, want))
        est = estimate_mu(4, trials=50, seed=0)
        assert est.mean == want
        assert est.stderr == 0.0
        assert est.ci95 == (want, want)

    def test_zero_areas_are_degeneracy_events(self, monkeypatch):
        degenerate = PointSet.from_coords([(0, 0), (0.5, 0.5), (1, 1), (0.9, 0.1)])
        good = PointSet.from_coords([(0, 0), (1, 0), (0, 1), (1, 1)])
        areas = [min_area_triangle(degenerate if t % 2 else good).area for t in range(10)]
        monkeypatch.setattr(montecarlo, "_trial_areas",
                            lambda n, trials, seed, jobs=1: np.array(areas[:trials]))
        est = estimate_mu(4, trials=10, seed=0)
        assert est.zero_area_trials == 5
        assert est.mean == 0.5  # zeros excluded from the mean

    def test_doubling_trials_consistent(self):
        e1 = estimate_mu(8, trials=400, seed=6)
        e2 = estimate_mu(8, trials=800, seed=6)
        assert abs(e2.mean - e1.mean) < 4 * e1.stderr

    def test_ci_contains_mean(self):
        e = estimate_mu(8, trials=100, seed=7)
        assert e.ci95[0] <= e.mean <= e.ci95[1]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            estimate_mu(2, trials=10, seed=0)
        with pytest.raises(ValueError):
            estimate_mu(8, trials=1, seed=0)

    def test_worker_count_bit_identical(self):
        serial = estimate_mu(8, trials=64, seed=8, jobs=1)
        parallel = estimate_mu(8, trials=64, seed=8, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("jobs, trials, workers", [
        (1000, 4000, [4]),  # clamped to the CPU count
        (1000, 9, [2]),     # clamped to chunks of at least 4 trials
        (3, 7, []),         # one chunk: serial, no pool
    ])
    def test_workers_clamped(self, inline_pool, jobs, trials, workers):
        parallel = estimate_mu(8, trials=trials, seed=8, jobs=jobs)
        assert inline_pool == workers
        assert parallel == estimate_mu(8, trials=trials, seed=8)

    def test_chunks_never_outnumber_workers(self, inline_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        chunks = []
        real = montecarlo._areas_chunk

        def counted(*args):
            chunks.append(args)
            return real(*args)

        monkeypatch.setattr(montecarlo, "_areas_chunk", counted)
        want = (estimate_mu(16, 400, 5), tail_probability(16, 1e-3, 400, 5))
        for jobs in (2, 1000):
            chunks.clear()
            got = (estimate_mu(16, 400, 5, jobs=jobs), tail_probability(16, 1e-3, 400, 5, jobs=jobs))
            assert got == want
            assert len(chunks) == 4  # two chunks per run
        assert inline_pool == [2] * 4

    def test_serial_runs_read_no_cpu_count(self, monkeypatch):
        def refuse():
            raise AssertionError("a serial run read the CPU count")

        monkeypatch.setattr(os, "cpu_count", refuse)
        estimate_mu(8, trials=64, seed=8)
        tail_probability(8, 1e-3, 7, 8, jobs=1000)  # one chunk of 7 trials
        assert montecarlo.ordered_map(abs, 1000, [-3]) == [3]
        assert montecarlo.ordered_map(abs, 1, [-3, -4]) == [3, 4]

    def test_import_loads_no_process_pool(self):
        # the pool is imported where one starts, so a serial run pays no
        # multiprocessing import
        src = str(Path(montecarlo.__file__).parents[1])
        code = "import sys, heilbronn; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "[]\n"


class TestFitExponent:
    def test_synthetic_cube_law(self):
        fit = fit_exponent([(8, 8**-3), (16, 16**-3), (32, 32**-3)])
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_factor_lands_in_intercept(self):
        fit = fit_exponent([(n, 7.0 * n**-3) for n in (8, 16, 32, 64)])
        assert fit.slope == pytest.approx(-3.0, abs=1e-9)
        assert fit.intercept == pytest.approx(log2(7.0), abs=1e-9)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            fit_exponent([(8, 1e-3), (16, 0.0), (32, 1e-5)])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_exponent([(8, 1e-3), (16, 1e-4)])

    def test_rejects_a_single_n(self):
        with pytest.raises(ValueError, match="^samples must span more than one n$"):
            fit_exponent([(8, 1e-3), (8, 2e-3), (8, 3e-3)])


class TestTailProbability:
    def test_zero_threshold(self):
        est = tail_probability(8, 0.0, trials=300, seed=9)
        assert est.fraction == 0.0

    def test_unit_threshold(self):
        est = tail_probability(8, 1.0, trials=300, seed=9)
        assert est.fraction == 1.0

    def test_median_self_consistency(self):
        # estimate the median from one seed, re-measure on another
        from heilbronn.montecarlo import _trial_areas

        pilot = sorted(_trial_areas(16, 1500, seed=10))
        median = pilot[len(pilot) // 2]
        est = tail_probability(16, median, trials=3000, seed=11)
        assert abs(est.fraction - 0.5) < 0.03

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            tail_probability(8, -0.1, trials=10, seed=0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_threshold(self, t):
        with pytest.raises(ValueError, match="threshold must be finite"):
            tail_probability(8, t, trials=10, seed=0)

    @pytest.mark.parametrize("n, trials", [(8, 0), (2, 10)])
    def test_rejects_no_trials_or_triangles(self, n, trials):
        with pytest.raises(ValueError):
            tail_probability(n, 0.1, trials=trials, seed=0)


class TestDegenerateStats:
    def test_shared_row_anchor_k2(self):
        # exact enumeration: 2 of the 6 arrangements share a row
        st = degenerate_structure_stats(2, 2, trials=10000, seed=12)
        assert abs(st.shared_row_fraction - 1 / 3) < 0.02
        assert st.collinear_fraction == 0.0  # no triples at n=2

    def test_frequencies_nonincreasing_in_K(self):
        trials = 800
        stats = [
            degenerate_structure_stats(K, 16, trials=trials, seed=13)
            for K in (1 << 8, 1 << 12, 1 << 16)
        ]
        for a, b in zip(stats, stats[1:]):
            assert a.shared_row_fraction >= b.shared_row_fraction
            assert a.collinear_fraction >= b.collinear_fraction

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="^need at least one trial$"):
            degenerate_structure_stats(8, 4, 0, 1)


class TestScaledMeanBand:
    def test_n8_scaled_mean_in_pilot_band(self, acceptance_scan):
        # pilot-frozen band for mean * n^3 at n=8 with the full trial schedule
        estimates, _ = acceptance_scan
        e8 = next(e for e in estimates if e.n == 8)
        assert e8.trials == 20000
        assert 0.05 <= e8.mean * 8**3 <= 5.0


class TestScaleFreeStatistic:
    def test_ks_distance_small(self):
        from heilbronn.montecarlo import _trial_areas

        xs = sorted(v * 32**3 for v in _trial_areas(32, 2000, seed=14))
        ys = sorted(v * 64**3 for v in _trial_areas(64, 2000, seed=15))
        # two-sample KS distance
        i = j = 0
        d = 0.0
        while i < len(xs) and j < len(ys):
            if xs[i] <= ys[j]:
                i += 1
            else:
                j += 1
            d = max(d, abs(i / len(xs) - j / len(ys)))
        assert d < 0.1

    def test_mu_decreasing_in_n(self):
        ests, _ = scan_mu([8, 16, 32], seed=16, trials_for=lambda n: 600)
        assert ests[0].mean > ests[1].mean > ests[2].mean


class TestTailExpectationConsistency:
    def test_cdf_integral_matches_mean(self):
        from heilbronn.montecarlo import _trial_areas

        vals = _trial_areas(16, 1200, seed=17)
        est = estimate_mu(16, 1200, seed=17)
        # integral of (1 - F_hat) over [0, max] equals the sample mean exactly
        integral = fsum(vals) / len(vals)
        assert abs(integral - est.mean) <= 3 * max(est.stderr, 1e-12)


class TestAnalyzePointset:
    def test_collinear_set_bottom(self):
        ps = PointSet.from_coords([(0, 0), (0.5, 0.5), (1, 1), (0.2, 0.8)])
        rep = analyze_pointset(ps, baseline_seed=18, baseline_trials=300)
        assert rep.area == 0.0
        assert rep.percentile == 0.0

    def test_rejects_two_points(self):
        with pytest.raises(ValueError, match="^n must be >= 3$"):
            analyze_pointset(PointSet.from_coords([(0, 0), (1, 1)]), baseline_seed=1)

    def test_percentile_roughly_uniform(self):
        # KS of percentiles of random sets against the uniform distribution
        n, m = 16, 150
        pts = [sample_unit_square(n, seed=19, stream_id=t) for t in range(m)]
        pcts = sorted(
            analyze_pointset(p, baseline_seed=20, baseline_trials=800).percentile for p in pts
        )
        d = max(max(abs((i + 1) / m - p), abs(p - i / m)) for i, p in enumerate(pcts))
        assert d < 1.5 / m**0.5  # generous KS band

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_no_baseline_trials(self, trials):
        ps = PointSet.from_coords([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(ValueError, match="baseline trial"):
            analyze_pointset(ps, baseline_seed=1, baseline_trials=trials)

    def test_well_spread_construction_high_percentile(self):
        grid = erdos_prime(23)
        ps = PointSet.from_coords([(p.x / 23, p.y / 23) for p in grid.points])
        rep = analyze_pointset(ps, baseline_seed=21, baseline_trials=600)
        assert rep.percentile > 0.9

    def test_baseline_cached(self):
        a = baseline_areas(8, 50, seed=22)
        b = baseline_areas(8, 50, seed=22)
        assert a is b
