from itertools import combinations

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from heilbronn.geometry import (
    GridArrangement,
    GridPoint,
    PointSet,
    UnitPoint,
    min_area_triangle,
    normalize_area,
    twice_signed_area,
)
from heilbronn.montecarlo import sample_unit_square

from conftest import random_arrangement

coord = st.integers(min_value=-50, max_value=50)
point = st.tuples(coord, coord)


def shoelace_twice(p, q, r):
    # independent oracle: shoelace formula
    return p[0] * (q[1] - r[1]) + q[0] * (r[1] - p[1]) + r[0] * (p[1] - q[1])


class TestTwiceSignedArea:
    def test_unit_right_triangle(self):
        assert twice_signed_area((0, 0), (1, 0), (0, 1)) == 1

    def test_collinear_is_zero(self):
        assert twice_signed_area((0, 0), (2, 1), (4, 2)) == 0

    def test_hand_determinant(self):
        # 6*3 - 4*1 = 14, cross-checked by the shoelace oracle
        assert shoelace_twice((0, 0), (6, 4), (1, 3)) == 14
        assert twice_signed_area((0, 0), (6, 4), (1, 3)) == 14

    @given(point, point, point)
    def test_matches_shoelace_oracle(self, p, q, r):
        assert twice_signed_area(p, q, r) == shoelace_twice(p, q, r)

    @given(point, point, point)
    def test_antisymmetry_and_rotation(self, p, q, r):
        t = twice_signed_area(p, q, r)
        assert twice_signed_area(p, r, q) == -t
        assert twice_signed_area(q, r, p) == t
        assert twice_signed_area(r, p, q) == t

    @given(point, point, point, coord, coord)
    def test_translation_invariance(self, p, q, r, a, b):
        sh = lambda u: (u[0] + a, u[1] + b)
        assert twice_signed_area(sh(p), sh(q), sh(r)) == twice_signed_area(p, q, r)

    def test_rejects_mixed_mode(self):
        with pytest.raises(ValueError, match="mixed-mode"):
            twice_signed_area((0, 0), (1.0, 0.5), (0, 1))

    def test_float_mode(self):
        assert twice_signed_area((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == 1.0


class TestNormalizeArea:
    def test_examples(self):
        assert normalize_area(1, 2) == 0.5
        assert normalize_area(1, 101) == 1 / 20000
        assert normalize_area(14, 8) == pytest.approx(1 / 7, abs=0)

    def test_rejects_small_K(self):
        with pytest.raises(ValueError):
            normalize_area(1, 1)


class TestMinAreaTriangle:
    def test_four_corners(self):
        ps = PointSet.from_coords([(0, 0), (1, 0), (0, 1), (1, 1)])
        rep = min_area_triangle(ps, mode="exhaustive")
        assert rep.area == 0.5
        assert rep.indices == (0, 1, 2)
        fast = min_area_triangle(ps, mode="fast")
        assert (fast.indices, fast.area) == (rep.indices, rep.area)

    def test_collinear_triple_gives_zero(self):
        ps = PointSet.from_coords([(0, 0), (0.25, 0.25), (0.5, 0.5), (0.9, 0.1)])
        assert min_area_triangle(ps).area == 0.0

    @pytest.mark.parametrize("mode", ["fast", "exhaustive"])
    def test_zero_area_is_positive_zero(self, mode):
        # the reference scan's first minimal cross product here is -0.0
        ps = PointSet.from_coords([(0.5, 0.5), (0.5, 0.9), (0.5, 0.1), (0.2, 0.3)])
        rep = min_area_triangle(ps, mode=mode)
        assert rep.twice_area.hex() == rep.area.hex() == "0x0.0p+0"

    def test_seeded_32_points_match_exhaustive_oracle(self):
        ps = sample_unit_square(32, seed=7, stream_id=0)
        ex = min_area_triangle(ps, mode="exhaustive")
        fa = min_area_triangle(ps, mode="fast")
        assert fa.twice_area == ex.twice_area
        assert fa.indices == ex.indices

    @pytest.mark.parametrize("n", [3, 5, 9, 17, 33, 64])
    def test_fast_equals_exhaustive_continuous(self, n):
        ps = sample_unit_square(n, seed=n, stream_id=1)
        ex = min_area_triangle(ps, mode="exhaustive")
        fa = min_area_triangle(ps, mode="fast")
        assert (fa.i, fa.j, fa.k, fa.twice_area) == (ex.i, ex.j, ex.k, ex.twice_area)

    @pytest.mark.parametrize("K,n,seed", [(8, 6, 1), (64, 12, 2), (1 << 20, 24, 3)])
    def test_fast_equals_exhaustive_grid(self, K, n, seed):
        a = random_arrangement(K, n, seed)
        ex = min_area_triangle(a, mode="exhaustive")
        fa = min_area_triangle(a, mode="fast")
        assert (fa.i, fa.j, fa.k, fa.twice_area) == (ex.i, ex.j, ex.k, ex.twice_area)
        assert fa.area == fa.twice_area / (2 * (K - 1) ** 2)

    def test_tie_break_on_lattice(self):
        # every cell of a 3x3 grid: masses of equal-area and zero-area triples
        a = GridArrangement.from_points(3, [(x, y) for x in range(3) for y in range(3)])
        ex = min_area_triangle(a, mode="exhaustive")
        fa = min_area_triangle(a, mode="fast")
        assert ex.twice_area == 0
        assert fa.indices == ex.indices == (0, 1, 2)

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            min_area_triangle(PointSet.from_coords([(0, 0), (1, 1)]))

    def test_rejects_bad_mode(self):
        ps = PointSet.from_coords([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ValueError):
            min_area_triangle(ps, mode="quick")

    def test_rejects_a_plain_list(self):
        with pytest.raises(TypeError, match="^expected PointSet or GridArrangement$"):
            min_area_triangle([(0, 0), (1, 0), (0, 1)])


# heavy-tie inputs for the tie-break fuzz: dense small grids, and float sets
# over a few repeated coordinates (some not exactly representable, so ties
# also arise from rounding); float sets keep their drawn order
grid_tie_sets = st.integers(3, 6).flatmap(
    lambda K: st.lists(
        st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)),
        min_size=3, max_size=min(K * K, 14), unique=True,
    ).map(lambda pts: GridArrangement.from_points(K, pts))
)
TIE_VALUES = (0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.75, 0.9, 1.0)
float_tie_sets = st.lists(st.sampled_from(TIE_VALUES), min_size=2, max_size=5, unique=True).flatmap(
    lambda vals: st.lists(
        st.tuples(st.sampled_from(vals), st.sampled_from(vals)), min_size=3, max_size=14
    ).map(PointSet.from_coords)
)

# minima first attained at pivot 2, with several tied pairs in that pivot
LATE_TIES = [
    GridArrangement.from_points(6, [(4, 0), (0, 1), (2, 4), (3, 4), (4, 4), (5, 4)]),  # zero, 3 pairs
    GridArrangement.from_points(6, [(0, 0), (3, 2), (0, 3), (2, 4), (3, 4), (5, 5)]),  # 1, 3 pairs
    PointSet.from_coords([(1 / 3, 0.5), (0.7, 0.25), (0.5, 0.1), (0.7, 0.1), (1 / 3, 0.1), (0.25, 0.1)]),
    PointSet.from_coords([(0.5, 0.25), (0.2, 0.9), (0.75, 0.2), (0.75, 0.25), (0.9, 0.9), (0.9, 0.75)]),
]


def tied_pairs_at_winning_pivot(points, rep) -> int:
    """Pairs (j, k) after pivot rep.i whose triangle with it ties the minimum."""
    pts = points.points
    return sum(
        abs(twice_signed_area(pts[rep.i], pts[j], pts[k])) == rep.twice_area
        for j, k in combinations(range(rep.i + 1, len(pts)), 2)
    )


class TestTieBreakFuzz:
    @pytest.mark.parametrize("points", LATE_TIES)
    def test_examples_reach_late_tied_minima(self, points):
        rep = min_area_triangle(points, mode="exhaustive")
        assert rep.i == 2
        assert tied_pairs_at_winning_pivot(points, rep) >= 2

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(grid_tie_sets, float_tie_sets))
    @example(LATE_TIES[0])
    @example(LATE_TIES[1])
    @example(LATE_TIES[2])
    @example(LATE_TIES[3])
    def test_fast_equals_exhaustive_under_ties(self, points):
        ex = min_area_triangle(points, mode="exhaustive")
        fa = min_area_triangle(points, mode="fast")
        assert (fa.i, fa.j, fa.k, fa.twice_area) == (ex.i, ex.j, ex.k, ex.twice_area)
        assert type(fa.twice_area) is type(ex.twice_area)
        # steer the search toward later winning pivots with more tied pairs
        target(float(ex.i), label="winning pivot")
        target(float(tied_pairs_at_winning_pivot(points, ex)), label="tied pairs")


class TestDomainTypes:
    def test_grid_arrangement_validates(self):
        with pytest.raises(ValueError):
            GridArrangement.from_points(4, [(0, 0), (0, 0)])
        with pytest.raises(ValueError):
            GridArrangement.from_points(4, [(0, 0), (4, 1)])
        with pytest.raises(ValueError):
            GridArrangement(4, (GridPoint(1, 1), GridPoint(0, 0)))  # unsorted
        with pytest.raises(ValueError):
            GridArrangement.from_points(1, [(0, 0)])

    def test_duplicate_and_unsorted_pebbles(self):
        p = GridPoint(2, 1)
        with pytest.raises(ValueError, match=r"^duplicate pebble at \(2, 1\)$"):
            GridArrangement(4, (p, p))
        with pytest.raises(ValueError, match="^pebbles must be distinct and sorted row-major$"):
            GridArrangement(4, (GridPoint(1, 1), GridPoint(0, 0)))

    @pytest.mark.parametrize("K, n, seed", [(2, 4, 0), (5, 9, 1), (16, 40, 2), (2**20, 200, 3)])
    def test_from_cells_inverts_cells(self, K, n, seed):
        for stream in range(5):
            drawn = random_arrangement(K, n, seed, stream)
            # built by sorting points, not from cell ids
            transposed = GridArrangement.from_points(K, [(p.y, p.x) for p in drawn.points])
            for a in (drawn, transposed):
                assert GridArrangement.from_cells(a.K, a.cells()) == a

    @pytest.mark.parametrize("K, n", [(1, 0), (2**30 + 1, 1), (2, 5)])
    def test_bad_grid_reports_check_grid_message(self, K, n):
        points = tuple(GridPoint(c % K, c // K) for c in range(n))
        with pytest.raises(ValueError, match=f"^no arrangement of n={n} pebbles on a K={K} grid$"):
            GridArrangement(K, points)

    def test_unit_point_validates(self):
        with pytest.raises(ValueError):
            UnitPoint(1.5, 0.0)

    def test_cells_are_row_major(self):
        a = GridArrangement.from_points(4, [(2, 1), (0, 0), (3, 3)])
        assert a.cells() == (0, 6, 15)
