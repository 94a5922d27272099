"""Golden optimizer outputs, recorded while every step still rescanned all
C(n, 3) triples with the reference scan.

``data/optimizer_golden.json`` holds, per case, the float64 hex of the
value, the hex of each point's x and y, and the iteration count of
``optimize_heilbronn`` (3 restarts).  The cases are n = 3..16 at seeds 0
and 42 with 4000 steps, and n = 3 at seed 0 with 20000 steps, a run whose
restarts stop early at the minimum step size.  Every case must still match
bit for bit.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden_optimizer.py``
only when a change of the optimizer's search is intended.
"""

import json
from pathlib import Path

import pytest

from heilbronn.constructions import optimize_heilbronn

GOLDEN_PATH = Path(__file__).parent / "data" / "optimizer_golden.json"

RESTARTS = 3

CASES = [(n, seed, 4000) for n in range(3, 17) for seed in (0, 42)] + [(3, 0, 20000)]


def _key(n: int, seed: int, steps: int) -> str:
    return f"n={n},seed={seed},steps={steps}"


def record(n: int, seed: int, steps: int) -> dict:
    res = optimize_heilbronn(n, restarts=RESTARTS, steps=steps, seed=seed)
    return {
        "value": res.value.hex(),
        "points": [[p.x.hex(), p.y.hex()] for p in res.points.points],
        "iterations": res.iterations,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("n,seed,steps", CASES, ids=[_key(*c) for c in CASES])
def test_optimizer_bit_identical(golden, n, seed, steps):
    assert record(n, seed, steps) == golden[_key(n, seed, steps)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps({_key(*c): record(*c) for c in CASES}, indent=1) + "\n")
