"""Golden combination ranks, recorded while ``unrank_combination`` still
bisected every element.

``data/rank_golden.json`` holds, for each (m, k) below, the SHA-256 of the
combinations that ``unrank_combination`` returns for ranks 0, N - 1 and
five seeded random ranks, N = C(m, k).  The cases cover every k at m <= 12,
the dense regime (1000, 990) and (1000, 999), the middle (1000, 500), the
theorem-2 row sets C(2^20, 200) and the witness sub-ranks C(2^40, 199) and
C(2^40, 2).  Every digest must still match, and ``rank_combination`` must
map each combination back to its rank.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden_rank.py``
only when a change of the ranking order is intended.
"""

import json
from math import comb
from pathlib import Path

import pytest

from heilbronn.coding import rank_combination, unrank_combination
from heilbronn.rng import stream_rng

from conftest import sha_lines

GOLDEN_PATH = Path(__file__).parent / "data" / "rank_golden.json"

SEED = 6

CASES = [(m, k) for m in range(13) for k in range(m + 1)] + [
    (1000, 990),
    (1000, 999),
    (1000, 500),
    (1 << 20, 200),
    (1 << 40, 199),
    (1 << 40, 2),
]


def _key(m: int, k: int) -> str:
    return f"{m},{k}"


def big_below(bound: int, stream: int) -> int:
    """Uniform integer in [0, bound) from SplitMix64 words, by rejection."""
    rng = stream_rng(SEED, stream)
    bits = (bound - 1).bit_length()
    while True:
        r = 0
        for _ in range((bits + 63) // 64):
            r = (r << 64) | rng.next64()
        r >>= -bits % 64
        if r < bound:
            return r


def golden_ranks(m: int, k: int) -> list[int]:
    """Ranks 0 and N - 1, then five seeded random ranks (one stream each)."""
    total = comb(m, k)
    base = 8 * CASES.index((m, k))
    return [0, total - 1] + [big_below(total, base + s) for s in range(5)]


def case_digest(m: int, k: int) -> str:
    lines = (
        f"{r:x}:{','.join(map(str, unrank_combination(r, k, m)))}" for r in golden_ranks(m, k)
    )
    return sha_lines(lines)


def golden_digest(m: int, k: int) -> str:
    return json.loads(GOLDEN_PATH.read_text())[_key(m, k)]


@pytest.mark.parametrize("m,k", CASES, ids=[_key(m, k) for m, k in CASES])
def test_unrank_bit_identical(m, k):
    assert case_digest(m, k) == golden_digest(m, k)


@pytest.mark.parametrize("m,k", CASES, ids=[_key(m, k) for m, k in CASES])
def test_rank_round_trip(m, k):
    for r in golden_ranks(m, k):
        assert rank_combination(unrank_combination(r, k, m), m) == r


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({_key(m, k): case_digest(m, k) for m, k in CASES}, indent=1) + "\n")
