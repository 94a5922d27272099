import pytest

from heilbronn.constructions import (
    corners_plus_random,
    erdos_area_lower_bound,
    erdos_prime,
    is_prime,
    optimize_heilbronn,
)
from heilbronn.geometry import min_area_triangle
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


class TestCornersPlusRandom:
    def test_exact_corners(self):
        ps = corners_plus_random(4, seed=0)
        assert {(p.x, p.y) for p in ps.points} == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert min_area_triangle(ps).area == 0.5

    def test_extra_point_cannot_increase(self):
        assert min_area_triangle(corners_plus_random(5, seed=1)).area <= 0.5

    def test_deterministic(self):
        assert corners_plus_random(7, seed=2) == corners_plus_random(7, seed=2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            corners_plus_random(3, seed=0)
