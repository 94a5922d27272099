"""Golden smallest-triangle outputs, recorded before ``min_area_triangle``
moved onto the batched per-pivot scan.

``data/triangle_golden.json`` holds SHA-256 digests of the
``(i, j, k, twice_area)`` reports of ``min_area_triangle(mode="fast")``
over seeded continuous sets and grid arrangements (heavy-tie small grids
and K = 2^20, n = 200), and of the payload hex of the two codecs that
consume the triple indices.  Every digest must still match.
"""

import hashlib
import json
from pathlib import Path

import pytest

from heilbronn.montecarlo import sample_unit_square
from heilbronn.witnesses import encode_collinear_witness, encode_small_triangle_witness

from conftest import planted_collinear, planted_small_triangle, random_arrangement, report_line, sha_lines

GOLDEN = json.loads((Path(__file__).parent / "data" / "triangle_golden.json").read_text())

K20 = 1 << 20


def continuous_digest() -> str:
    """sample_unit_square(n, 7, s) for n = 3..64, streams 0..4."""
    return sha_lines(report_line(sample_unit_square(n, 7, s)) for n in range(3, 65) for s in range(5))


def small_grid_digest() -> str:
    """random_arrangement(K, n, 5, s) for K = 3..8, n = 3..min(K^2, 20),
    streams 0..5: dense grids with many tied (often zero) minima."""
    return sha_lines(
        report_line(random_arrangement(K, n, 5, s))
        for K in range(3, 9)
        for n in range(3, min(K * K, 20) + 1)
        for s in range(6)
    )


def large_grid_digest() -> str:
    """random_arrangement(2^20, 200, 3, s) for streams 0..3."""
    return sha_lines(report_line(random_arrangement(K20, 200, 3, s)) for s in range(4))


def _payload_sha(encode, a) -> str:
    return hashlib.sha256(encode(a).payload.to_hex().encode()).hexdigest()


def _collinear_cases():
    yield from (
        (f"planted,K=2^20,n=200,seed=4,stream={s}", planted_collinear(K20, 200, 4, s)) for s in range(3)
    )
    yield from ((f"random,K=10,n=9,seed=4,stream={s}", random_arrangement(10, 9, 4, s)) for s in range(6))


def _small_triangle_cases():
    yield from (
        (f"random,K=2^20,n=200,seed=4,stream={s}", random_arrangement(K20, 200, 4, s)) for s in range(3)
    )
    yield from (
        (f"planted,K=2^20,n=200,seed=4,stream={s}", planted_small_triangle(K20, 200, 4, stream=s)[0])
        for s in range(2)
    )
    yield from ((f"random,K=64,n=12,seed=4,stream={s}", random_arrangement(64, 12, 4, s)) for s in range(4))


_WITNESS_CASES = {
    "collinear": (encode_collinear_witness, _collinear_cases),
    "small_triangle": (encode_small_triangle_witness, _small_triangle_cases),
}


def witness_digests(kind: str) -> dict:
    encode, cases = _WITNESS_CASES[kind]
    return {label: _payload_sha(encode, a) for label, a in cases()}


def test_continuous_reports_bit_identical():
    assert continuous_digest() == GOLDEN["continuous"]


def test_small_grid_reports_bit_identical():
    assert small_grid_digest() == GOLDEN["small_grid"]


def test_large_grid_reports_bit_identical():
    assert large_grid_digest() == GOLDEN["large_grid"]


@pytest.mark.parametrize("kind", ["collinear", "small_triangle"])
def test_witness_payloads_bit_identical(kind):
    assert witness_digests(kind) == GOLDEN["witnesses"][kind]
