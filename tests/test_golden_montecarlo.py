"""Golden Monte Carlo outputs, recorded before trials were drawn in blocks.

``data/montecarlo_golden.json`` holds the float64 hex of seeded estimates
as the per-trial path (one ``PointSet`` and one ``min_area_triangle`` per
trial) produced them.  Every value must still match bit for bit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from heilbronn.montecarlo import (
    baseline_areas,
    degenerate_structure_stats,
    fit_exponent,
    scan_mu,
    tail_probability,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "montecarlo_golden.json").read_text())


@pytest.fixture(scope="module")
def golden_scan(acceptance_scan):
    """scan_mu([3, 4, 8, 16, 32, 64, 128], seed=42).  Each n of a scan is
    estimated on its own sub-seed, so n = 8..128 are taken from the shared
    criterion-1 scan (the same call at seed 42) and only n = 3, 4 are run."""
    small, _ = scan_mu([3, 4], seed=42)
    rest, _ = acceptance_scan
    return small + rest


def test_scan_mu_bit_identical(golden_scan):
    got = {
        str(e.n): {
            "trials": e.trials,
            "mean": e.mean.hex(),
            "stderr": e.stderr.hex(),
            "zero_area_trials": e.zero_area_trials,
        }
        for e in golden_scan
    }
    assert got == GOLDEN["scan_mu"]


def test_scan_fit_bit_identical(golden_scan):
    fit = fit_exponent([(e.n, e.mean) for e in golden_scan])
    got = {"slope": fit.slope.hex(), "intercept": fit.intercept.hex(), "r_squared": fit.r_squared.hex()}
    assert got == GOLDEN["scan_mu_fit"]


@pytest.mark.parametrize("K, n, trials, seed", [(2**20, 16, 150, 1), (8, 10, 300, 1), (256, 16, 800, 13)])
def test_degenerate_stats_bit_identical(K, n, trials, seed):
    st = degenerate_structure_stats(K, n, trials, seed)
    label = f"K={'2^20' if K == 2**20 else K},n={n},trials={trials},seed={seed}"
    want = GOLDEN["degenerate"][label]
    assert st.collinear_fraction.hex() == want["collinear_fraction"]
    assert st.shared_row_fraction.hex() == want["shared_row_fraction"]


def test_tail_probability_bit_identical():
    est = tail_probability(16, 2.0**-13, trials=3000, seed=11)
    assert est.fraction.hex() == GOLDEN["tail_probability"]["n=16,threshold=2^-13,trials=3000,seed=11"]


def test_baseline_areas_bit_identical():
    base = baseline_areas(8, 1000, 20)
    digest = hashlib.sha256(",".join(v.hex() for v in base).encode()).hexdigest()
    assert digest == GOLDEN["baseline_areas"]["n=8,trials=1000,seed=20"]
