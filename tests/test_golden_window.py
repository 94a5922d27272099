"""Golden outputs at large n, recorded before ``min_area_triangle`` and
``min_twice_area_rows`` moved large sets onto the windowed triple scan.

``data/window_golden.json`` holds SHA-256 digests of the
``(i, j, k, twice_area)`` reports of ``min_area_triangle(mode="fast")``
over n = 512 continuous sets and grid arrangements (from a dense K = 23
grid full of zero-area ties up to K = 2^30), and of the float64 / int64
row minima of ``min_twice_area_rows`` on both sides of its crossover.
Every digest must still match.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from heilbronn.geometry import min_twice_area_rows
from heilbronn.montecarlo import _grid_cell_block, sample_unit_square
from heilbronn.rng import uniform_block

from conftest import random_arrangement, report_line, sha_lines

GOLDEN = json.loads((Path(__file__).parent / "data" / "window_golden.json").read_text())

GRID_SIDES = (23, 40, 1000, 1 << 20, 1 << 30)
ROW_NS = (48, 63, 64, 65, 96, 128, 200, 256)


def continuous_digest() -> str:
    """sample_unit_square(512, 10, s) for streams 0..2."""
    return sha_lines(report_line(sample_unit_square(512, 10, s)) for s in range(3))


def grid_digest() -> str:
    """random_arrangement(K, 512, 11, 0) for each K of GRID_SIDES."""
    return sha_lines(report_line(random_arrangement(K, 512, 11)) for K in GRID_SIDES)


def float_rows_digest() -> str:
    """Row minima of 3 trials of uniform_block(12, 0, 3, 2n) per n."""
    lines = []
    for n in ROW_NS:
        u = uniform_block(12, 0, 3, 2 * n)
        lines += [v.hex() for v in min_twice_area_rows(u[:, 0::2], u[:, 1::2]).tolist()]
    return sha_lines(lines)


def grid_rows_digest() -> str:
    """Row minima of 3 grid trials (``_grid_cell_block``) per n, on a
    grid dense enough for zero minima (K = 24) and a sparse one."""
    lines = []
    for K in (24, 1 << 20):
        for n in ROW_NS:
            ys, xs = np.divmod(_grid_cell_block(K, n, 13, 0, 3), K)
            lines += [hex(v) for v in min_twice_area_rows(xs, ys).tolist()]
    return sha_lines(lines)


DIGESTS = {
    "continuous_n512": continuous_digest,
    "grid_n512": grid_digest,
    "float_rows": float_rows_digest,
    "grid_rows": grid_rows_digest,
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bit_identical(name):
    assert DIGESTS[name]() == GOLDEN[name]
