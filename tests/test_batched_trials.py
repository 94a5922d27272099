"""The batched Monte Carlo path against its scalar references, bit for bit:
``uniform_block`` against ``stream_rng(...).uniform()``, the row kernel
``min_twice_area_rows`` against ``_min_triple_exhaustive``, and the
estimates against one ``min_area_triangle`` per sampled point set or grid
arrangement, across block boundaries, block sizes and worker counts."""

import tracemalloc
import warnings
from math import comb, fsum

import numpy as np
import pytest

from heilbronn import montecarlo
from heilbronn.geometry import (
    _BLOCK_ELEMENTS,
    _min_triple_exhaustive,
    _triple_table,
    min_area_triangle,
    min_twice_area_rows,
)
from heilbronn.montecarlo import (
    MuEstimate,
    _block_trials,
    _trial_areas,
    degenerate_structure_stats,
    estimate_mu,
    sample_grid_arrangement,
    sample_unit_square,
    tail_probability,
)
from heilbronn.rng import derive_seed, stream_rng, uniform_block
from pivot_oracle import _pivot_scan

SEEDS = [0, 2**64 - 1, derive_seed(2024, 7)]


class TestUniformBlock:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", [0, 1000, 2**62 + 3, 2**63 - 3])
    def test_rows_match_scalar_streams(self, seed, start):
        n = 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails
            for width in range(1, 2 * n + 1):
                block = uniform_block(seed, start, start + 4, width)
                assert block.shape == (4, width) and block.dtype == np.float64
                for r in range(4):
                    rng = stream_rng(seed, start + r)
                    assert block[r].tolist() == [rng.uniform() for _ in range(width)]

    def test_sample_unit_square_is_one_row(self):
        seed = SEEDS[2]
        for stream in (0, 5, 2**63):
            rng = stream_rng(seed, stream)
            want = [(rng.uniform(), rng.uniform()) for _ in range(12)]
            ps = sample_unit_square(12, seed, stream)
            assert [(p.x, p.y) for p in ps.points] == want

    def test_empty_block(self):
        assert uniform_block(1, 5, 5, 3).shape == (0, 3)


def _exhaustive_rows(xs, ys, cast):
    return [_min_triple_exhaustive([cast(v) for v in x], [cast(v) for v in y])[3]
            for x, y in zip(xs, ys)]


class TestRowKernel:
    @pytest.mark.parametrize("n", [3, 4, 8, 13])
    def test_float_rows_match_exhaustive(self, n):
        for B in (1, 3, _block_trials(n) + 1):
            u = uniform_block(n, 0, B, 2 * n)
            xs, ys = u[:, 0::2], u[:, 1::2]
            got = min_twice_area_rows(xs, ys)
            assert got.dtype == np.float64
            assert got.tolist() == _exhaustive_rows(xs, ys, float)

    @pytest.mark.parametrize("n, K", [(5, 3), (8, 4), (12, 6)])
    def test_heavy_tie_grid_rows_match_exhaustive(self, n, K):
        for B in (1, 3, _block_trials(n) + 1):
            cells = [sample_grid_arrangement(K, n, 11, t).cells() for t in range(B)]
            ys, xs = np.divmod(np.array(cells, dtype=np.int64), K)
            got = min_twice_area_rows(xs, ys)
            assert got.dtype == np.int64
            want = _exhaustive_rows(xs, ys, int)
            assert got.tolist() == want
            assert 0 in want  # the grid is small enough for collinear rows

    def test_rejects_fewer_than_three_points(self):
        with pytest.raises(ValueError):
            min_twice_area_rows(np.zeros((2, 2)), np.zeros((2, 2)))


def _pivot_rows(xs, ys):
    """Row minima of the batched ``_pivot_scan``, reduced per pivot."""
    best = None
    for _, _, _, cross in _pivot_scan(xs, ys):
        m = cross.min(axis=1)
        best = m if best is None else np.minimum(best, m)
    return best


def _chunk_rows(n):
    return max(1, _BLOCK_ELEMENTS // comb(n, 3))


class TestTriplePass:
    """The all-triples pass of ``min_twice_area_rows`` below the window
    crossover, across its row chunks and, from n = 48 on, where C(n, 3)
    passes ``_BLOCK_ELEMENTS``, its triple slices."""

    NS = [3, 4, 8, 16, 46, 47, 48, 59]

    @staticmethod
    def _row_counts(n):
        c = _chunk_rows(n)
        return sorted({1, c - 1, c + 1, 2 * c + 3})

    def test_slices_start_at_n_48(self):
        assert comb(47, 3) <= _BLOCK_ELEMENTS < comb(48, 3)

    @pytest.mark.parametrize("n", NS)
    def test_float_rows_match_both_references(self, n):
        for B in self._row_counts(n):
            u = uniform_block(derive_seed(31, n), 0, B, 2 * n)
            xs, ys = u[:, 0::2], u[:, 1::2]
            got = min_twice_area_rows(xs, ys)
            assert got.dtype == np.float64 and got.shape == (B,)
            assert got.tolist() == _exhaustive_rows(xs, ys, float)
            if B:
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in _pivot_rows(xs, ys).tolist()]

    @pytest.mark.parametrize("n, K", [(3, 3), (4, 3), (8, 4), (16, 6), (47, 9), (48, 9), (59, 10)])
    def test_heavy_tie_grid_rows_match_both_references(self, n, K):
        for B in self._row_counts(n):
            ys, xs = np.divmod(montecarlo._grid_cell_block(K, n, 13, 0, B), K)
            got = min_twice_area_rows(xs, ys)
            assert got.dtype == np.int64
            want = _exhaustive_rows(xs, ys, int)
            assert got.tolist() == want
            if B:
                assert got.tolist() == _pivot_rows(xs, ys).tolist()
        assert 0 in want  # the grid is small enough for collinear rows

    @pytest.mark.parametrize("n", [8, 48])
    def test_mixed_dtypes_match_pivot_scan(self, n):
        # int64 x with float64 y: the differences cast where the products did
        B = _chunk_rows(n) + 1
        xs = np.divmod(montecarlo._grid_cell_block(2**20, n, 3, 0, B), 2**20)[1]
        ys = uniform_block(3, 0, B, n)
        got = min_twice_area_rows(xs, ys)
        assert got.dtype == np.float64
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in _pivot_rows(xs, ys).tolist()]

    @pytest.mark.parametrize("n", [8, 16, 48])
    def test_zero_minimum_is_positive_zero(self, n):
        # three points of each row on one horizontal line, the middle one
        # first: the exhaustive scan computes (-0.5 * 0) - (0 * 0.25) = -0.0
        B = _chunk_rows(n) + 1
        u = uniform_block(derive_seed(37, n), 0, B, 2 * n)
        xs, ys = u[:, 0::2].copy(), u[:, 1::2].copy()
        xs[:, :3] = [0.5, 0.0, 0.75]
        ys[:, :3] = 0.3
        got = min_twice_area_rows(xs, ys)
        assert [v.hex() for v in got.tolist()] == ["0x0.0p+0"] * B
        assert [v.hex() for v in _pivot_rows(xs, ys).tolist()] == ["0x0.0p+0"] * B
        ref = _min_triple_exhaustive(xs[0].tolist(), ys[0].tolist())
        assert ref[:3] == (0, 1, 2) and ref[3].hex() == "-0x0.0p+0"

    @pytest.mark.parametrize("n, B", [(16, 512), (59, 8)])
    def test_temporaries_stay_near_the_block(self, n, B):
        u = uniform_block(5, 0, B, 2 * n)
        xs, ys = u[:, 0::2], u[:, 1::2]
        min_twice_area_rows(xs[:1], ys[:1])  # the cached table is not a temporary
        tracemalloc.start()
        try:
            min_twice_area_rows(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about three float64 blocks live at once (the cross, the second
        # product, one gather) and the chunk's pair differences; one pass
        # over all 512 rows, or one row's triples unsliced, would not fit
        assert peak < 5 * 8 * _BLOCK_ELEMENTS

    def test_triple_table_pairs_and_size(self):
        for n in (3, 4, 7):
            pi, pj, ta, tb = _triple_table(n)
            triples = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
            pairs = list(zip(pi.tolist(), pj.tolist()))
            assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]
            assert [(pairs[a], pairs[b]) for a, b in zip(ta.tolist(), tb.tolist())] == [
                ((i, j), (i, k)) for i, j, k in triples]
        assert sum(a.nbytes for a in _triple_table(59)) < 1 << 20


def _per_trial(n, trials, seed):
    return [min_area_triangle(sample_unit_square(n, seed, t)).area for t in range(trials)]


def _per_trial_mu(n, trials, seed):
    """estimate_mu reduced over a list of per-trial areas in Python."""
    live = [v for v in _per_trial(n, trials, seed) if v != 0.0]
    mean = fsum(live) / len(live)
    stderr = (fsum((v - mean) ** 2 for v in live) / (len(live) - 1) / len(live)) ** 0.5
    ci = (mean - 1.96 * stderr, mean + 1.96 * stderr)
    return MuEstimate(n, trials, mean, stderr, ci, seed, trials - len(live))


def _per_trial_recount(K, n, trials, seed):
    """(collinear, shared-row) fractions from one arrangement per trial."""
    coll = shared = 0
    for t in range(trials):
        a = sample_grid_arrangement(K, n, seed, t)
        shared += len(set(a.rows())) < n
        coll += min_area_triangle(a, mode="exhaustive").twice_area == 0
    return coll / trials, shared / trials


def _count_redraws(monkeypatch) -> list[int]:
    """Patch ``montecarlo._grid_cells`` to record the stream of every row
    that a grid block redraws with the scalar loop."""
    streams = []
    scalar = montecarlo._grid_cells

    def counted(K, n, seed, stream_id):
        streams.append(stream_id)
        return scalar(K, n, seed, stream_id)

    monkeypatch.setattr(montecarlo, "_grid_cells", counted)
    return streams


class TestGridBlock:
    # (K, n, whether some of the 60 rows must be redrawn): small grids
    # reject words >= K^2 or repeat cells, up to the full grid n = K^2;
    # at K = 2^20 and 2^30 a row of 16 words is taken as drawn
    GRIDS = [(2, 0, False), (2, 1, False), (2, 3, True), (2, 4, True), (3, 2, True),
             (3, 5, True), (3, 9, True), (5, 3, True), (5, 12, True), (5, 25, True),
             (1000, 16, True), (1000, 40, True), (2**20, 16, False), (2**30, 16, False)]

    @pytest.mark.parametrize("K,n,redraws", GRIDS)
    def test_rows_are_the_scalar_draws(self, monkeypatch, K, n, redraws):
        seed = derive_seed(9, K)
        want = [montecarlo._grid_cells(K, n, seed, t) for t in range(40, 100)]
        redrawn = _count_redraws(monkeypatch)
        block = montecarlo._grid_cell_block(K, n, seed, 40, 100)
        assert block.dtype == np.int64 and block.shape == (60, n)
        assert block.tolist() == want
        assert bool(redrawn) == redraws
        assert set(redrawn) <= set(range(40, 100))

    @pytest.mark.parametrize("K,n", [(1, 0), (2**30 + 1, 3), (3, 10), (4, -1)])
    def test_rejects_what_grid_cells_rejects(self, K, n):
        with pytest.raises(ValueError, match="no arrangement"):
            montecarlo._grid_cell_block(K, n, 0, 0, 4)
        with pytest.raises(ValueError, match="no arrangement"):
            degenerate_structure_stats(K, n, 4, 0)


class TestBlockIndependence:
    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_trials_straddling_a_block(self, n):
        block = _block_trials(n)
        seed = derive_seed(5, n)
        for trials in (block - 1, block, block + 1):
            assert _trial_areas(n, trials, seed).tolist() == _per_trial(n, trials, seed)
        assert estimate_mu(n, block + 1, seed) == _per_trial_mu(n, block + 1, seed)

    def test_trial_areas_is_one_float64_array(self, inline_pool):
        trials = 2 * _block_trials(8) + 5
        for jobs in (1, 3):
            vals = _trial_areas(8, trials, 4, jobs=jobs)
            assert isinstance(vals, np.ndarray)
            assert vals.dtype == np.float64 and vals.shape == (trials,)
        assert inline_pool == [3]

    def test_serial_run_keeps_one_area_array(self):
        # the README's 8 bytes a trial: a lone chunk is returned as is, and
        # a copy of it (16 bytes a trial) fails the bound
        trials = 400_000
        tracemalloc.start()
        try:
            _trial_areas(3, trials, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * trials

    @pytest.mark.parametrize("elements", [1, 50, 999])
    def test_block_size_moves_no_bit(self, monkeypatch, elements):
        n, trials, seed = 8, 300, 17
        want = (estimate_mu(n, trials, seed), tail_probability(n, 2e-3, trials, seed),
                degenerate_structure_stats(6, 9, trials, seed))
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", elements)
        got = (estimate_mu(n, trials, seed), tail_probability(n, 2e-3, trials, seed),
               degenerate_structure_stats(6, 9, trials, seed))
        assert got == want

    @pytest.mark.parametrize("K,n", [(8, 10), (3, 5)])
    def test_degenerate_stats_match_per_trial_recount(self, monkeypatch, K, n):
        trials = _block_trials(n) + 2
        want = _per_trial_recount(K, n, trials, 3)
        redrawn = _count_redraws(monkeypatch)
        st = degenerate_structure_stats(K, n, trials, 3)
        assert (st.collinear_fraction, st.shared_row_fraction) == want
        assert 0 < st.collinear_fraction < 1
        assert redrawn  # some rows were rejected or repeated a cell

    def test_degenerate_stats_build_no_arrangement(self, monkeypatch):
        K, n = 16, 8
        trials = _block_trials(n) + 2
        want = _per_trial_recount(K, n, trials, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("a grid trial built an arrangement")

        monkeypatch.setattr(montecarlo, "GridArrangement", refuse)
        monkeypatch.setattr(montecarlo, "sample_grid_arrangement", refuse)
        st = degenerate_structure_stats(K, n, trials, 5)
        assert (st.collinear_fraction, st.shared_row_fraction) == want
        assert 0 < st.collinear_fraction < 1 and 0 < st.shared_row_fraction < 1

    def test_jobs_move_no_bit(self, inline_pool):
        n = 8
        trials = 2 * _block_trials(n) + 5  # chunk bounds fall inside blocks
        serial = (estimate_mu(n, trials, 4), tail_probability(n, 1e-3, trials, 4))
        parallel = (estimate_mu(n, trials, 4, jobs=3), tail_probability(n, 1e-3, trials, 4, jobs=3))
        assert inline_pool == [3, 3]
        assert parallel == serial
