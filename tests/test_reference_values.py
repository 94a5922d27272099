"""Statistics against values derived from mathematics, not from the code:
the grid's shared-row fraction exactly and its collinear fraction by a
bound, the mean smallest area of uniform points against its n -> infinity
limit, and the optimizer against proved Heilbronn numbers."""

from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import numpy as np
import pytest

from heilbronn.constructions import optimize_heilbronn
from heilbronn.montecarlo import degenerate_structure_stats, estimate_mu

CASES = [(16, 6), (64, 16), (256, 24)]
TRIALS = 20_000
SEED = 12345  # used by no other test
Z_MAX = 4.0  # a true claim fails with probability about 6e-5 per case


@pytest.fixture(scope="module")
def stats():
    """One sample per case, shared by both tests."""
    return {(K, n): degenerate_structure_stats(K, n, TRIALS, SEED) for K, n in CASES}


def collinear_triples(K: int) -> int:
    """N(K), the number of collinear triples of cells of the K x K grid.

    A collinear triple is fixed by its two outer points P and Q, with
    Q - P = (dx, dy) taken up to sign (dx > 0, or dx = 0 and dy > 0), and
    its middle point, one of the gcd(dx, |dy|) - 1 lattice points strictly
    inside segment PQ.  The segment fits in (K - dx)(K - |dy|) places, so
    N(K) = sum of (gcd(dx, |dy|) - 1)(K - dx)(K - |dy|) over those vectors.
    """
    dx, dy = np.meshgrid(np.arange(K), np.arange(-K + 1, K), indexing="ij")
    keep = (dx > 0) | (dy > 0)
    dx, dy = dx[keep], np.abs(dy[keep])
    return int(((np.gcd(dx, dy) - 1) * (K - dx) * (K - dy)).sum())


def test_collinear_triple_count_matches_brute_force():
    for K in range(2, 7):
        cells = [(x, y) for y in range(K) for x in range(K)]
        brute = sum((q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])
                    for p, q, r in combinations(cells, 3))
        assert collinear_triples(K) == brute
    assert collinear_triples(4) == 44  # 4 rows and 4 columns of 4, 12 on diagonals


@pytest.mark.parametrize("K, n", CASES)
def test_shared_row_fraction_matches_exact_value(stats, K, n):
    """An arrangement is a uniform n-subset of the K^2 cells.  It has no
    shared row exactly when its n rows are distinct: C(K, n) choices of
    rows, each with K columns, so P(shared row) = 1 - C(K, n) K^n / C(K^2, n).
    The observed fraction is a binomial mean of TRIALS draws; it must lie
    within Z_MAX standard errors sqrt(p (1 - p) / TRIALS) of p."""
    p = 1 - comb(K, n) * K**n / comb(K * K, n)
    z = (stats[K, n].shared_row_fraction - p) / sqrt(p * (1 - p) / TRIALS)
    assert abs(z) <= Z_MAX


@pytest.mark.parametrize("K, n", CASES)
def test_collinear_fraction_within_markov_bound(stats, K, n):
    """Each of the C(n, 3) triples of a uniform n-subset is a uniform
    3-subset of the cells, collinear with probability N(K) / C(K^2, 3), so
    the expected number of collinear triples is E = C(n, 3) N(K) / C(K^2, 3).
    By Markov's inequality P(some triple is collinear) = p <= E.  The
    observed fraction exceeds p by at most Z_MAX standard errors
    sqrt(p (1 - p) / TRIALS), and p (1 - p) <= q (1 - q) for q = min(E, 1/2)."""
    E = comb(n, 3) * collinear_triples(K) / comb(K * K, 3)
    q = min(E, 0.5)
    assert stats[K, n].collinear_fraction <= E + Z_MAX * sqrt(q * (1 - q) / TRIALS)


def test_scaled_mean_smallest_area_near_its_limit():
    """For n uniform points in the unit square, n^3 A tends to Exp(rate 2),
    so n^3 mu_n -> 1/2 (Grimmett & Janson, "On smallest triangles", 2003;
    the constant is derived in ROADMAP item 10).  At finite n the mean sits
    above the limit by about 2.3/n (measured over n = 16 ... 256), so the
    centre is at most c = 1/2 + 2.3/64 = 0.536 at n = 64.  The limit law has
    sd = mean, and the measured sd/mean stayed within 1.07, so one standard
    error of 2000 trials is at most s = 1.1 c / sqrt(2000) = 0.0132.  The
    band is [1/2 - 4 s, c + 4 s] = [0.447, 0.589]: it allows any excess in
    [0, 2.3/n] and four standard errors on either side."""
    n, trials = 64, 2000
    c = 0.5 + 2.3 / n
    s = 1.1 * c / sqrt(trials)
    scaled = n**3 * estimate_mu(n, trials, seed=280064).mean  # seed used by no other test
    assert 0.5 - 4 * s <= scaled <= c + 4 * s


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimizer_never_beats_proved_heilbronn_numbers(seed):
    """No n points of the unit square have every triangle larger than the
    Heilbronn number H_n, and H_5 = sqrt(3)/9, H_6 = 1/8 are proved (as
    surveyed by Comellas & Yebra, 2002).  A reported value is an exact
    binary fraction, so value <= sqrt(3)/9 is checked exactly as
    81 value^2 <= 3."""
    five = Fraction(optimize_heilbronn(5, 12, 4000, seed).value)
    assert 81 * five**2 <= 3
    assert Fraction(optimize_heilbronn(6, 12, 4000, seed).value) <= Fraction(1, 8)
