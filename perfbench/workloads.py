"""Benchmark workloads: seeded inputs, the timed operation, output checks.

Every workload runs single-process (``jobs=1``) through the public API of
``heilbronn``, calling each function through its module attribute so that
the traced run can put timing wrappers around it.  An *operation* is one
call sequence whose wall time is sampled; ``units`` says how many trials,
round trips or optimizer calls one operation holds, and the run reports
the median time per unit.

The recipes for planted arrangements follow the helpers in the test
suite's ``conftest.py``; they are re-implemented here so that the
benchmark does not import the tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import fsum
from typing import Callable

from heilbronn import constructions, montecarlo, witnesses
from heilbronn.geometry import GridArrangement, min_area_triangle
from heilbronn.rng import derive_seed, stream_rng

#: seed whose outputs are recorded in golden.json and checked on every run
DEFAULT_SEED = 0

CODEC_KINDS = ("theorem2", "collinear", "rowline", "small_triangle")

_ENCODERS = {
    "theorem2": "encode_theorem2",
    "collinear": "encode_collinear_witness",
    "rowline": "encode_rowline_witness",
    "small_triangle": "encode_small_triangle_witness",
}


# ---------------------------------------------------------------------------
# arrangement recipes


def distinct_row_arrangement(K: int, n: int, seed: int, stream: int) -> GridArrangement:
    """Random arrangement with all pebbles on distinct rows."""
    rng = stream_rng(seed, stream)
    rows: set[int] = set()
    while len(rows) < n:
        rows.add(rng.below(K))
    return GridArrangement.from_points(K, [(rng.below(K), y) for y in sorted(rows)])


def _fill_random(pts: list[tuple[int, int]], K: int, n: int, rng) -> list[tuple[int, int]]:
    seen = set(pts)
    while len(pts) < n:
        c = rng.below(K * K)
        xy = (c % K, c // K)
        if xy not in seen:
            seen.add(xy)
            pts.append(xy)
    return pts


def planted_collinear(K: int, n: int, seed: int, stream: int) -> GridArrangement:
    """Three pebbles P, P + t1*d, P + t2*d on one line, the rest random.

    Unlike the test-suite recipe, which draws d from [0, 4)^2 and P from
    [0, K/2)^2, the random pebbles are drawn first, P sits one row above
    the r-th lowest of them, r = (n - 3) // 16 (so P has index r in
    row-major order; 12 at n = 200), x in [K/8, 3K/8), and d is (1, 3) or
    (2, 3).  Then line(P, Q) always holds about K/3 grid points, which the
    codec enumerates on both sides, and the collinear-triple search always
    scans the triples of the first r pebbles before it finds P's.  A round
    trip then costs the same for every seed, so a few samples give a
    steady median.
    """
    rng = stream_rng(seed, stream)
    rank = max(1, (n - 3) // 16)
    others = sorted(_fill_random([], K, n - 3, rng), key=lambda xy: (xy[1], xy[0]))
    dx, dy = 1 + rng.below(2), 3
    px = K // 8 + rng.below(K // 4)
    py = others[rank - 1][1] + 1
    t1 = 1 + rng.below(4)
    t2 = t1 + 1 + rng.below(4)
    planted = [(px, py), (px + t1 * dx, py + t1 * dy), (px + t2 * dx, py + t2 * dy)]
    taken = set(others)
    if any(p in taken for p in planted):
        raise ValueError("planted point collides with a random pebble")
    return GridArrangement.from_points(K, others + planted)


def planted_shared_row(K: int, n: int, seed: int, stream: int) -> GridArrangement:
    rng = stream_rng(seed, stream)
    y = rng.below(K)
    x1 = rng.below(K)
    while True:
        x2 = rng.below(K)
        if x2 != x1:
            break
    return GridArrangement.from_points(K, _fill_random([(x1, y), (x2, y)], K, n, rng))


def planted_small_triangle(K: int, n: int, seed: int, stream: int, T: int = 1) -> GridArrangement:
    """Arrangement with a planted triangle of twice-area exactly T.

    The encoder refuses an arrangement whose smallest triangle is
    degenerate.  With the test-suite recipe that happens for about one
    arrangement in 2000 at K=2^20, n=200, when a random pebble lands on a
    line through two planted ones; such draws are redrawn from the same
    stream, so every operation is defined.
    """
    rng = stream_rng(seed, stream)
    while True:
        px, py = rng.below(K - 2 * T - 2), rng.below(K - 2 * T - 2)
        planted = [(px, py), (px + 1, py), (px, py + T)]
        a = GridArrangement.from_points(K, _fill_random(planted, K, n, rng))
        if min_area_triangle(a).twice_area > 0:
            return a


_RECIPES = {
    "theorem2": distinct_row_arrangement,
    "collinear": planted_collinear,
    "rowline": planted_shared_row,
    "small_triangle": planted_small_triangle,
}


# ---------------------------------------------------------------------------
# workloads


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``make(seed, b)`` builds the input of operation b, ``run(inp)`` is the
    timed call sequence, ``units(inp)`` its unit count, ``golden(out)`` the
    items compared against golden.json, ``check(inp, out)`` the failures
    of output checks that hold for any seed, and ``recheck(seed, ops)``
    re-verifies a seeded subset of the operations run (ops = op indices).
    ``trace_ops`` is the fixed operation count of the traced run, and
    ``trace_side``, if set, an untimed call the traced run also traces.
    """

    name: str
    make: Callable
    run: Callable
    units: Callable
    golden: Callable
    check: Callable
    recheck: Callable
    trace_ops: int
    trace_side: Callable | None = None


def _mc_workload(name: str, batch: tuple[tuple[int, int], ...], recheck_trials: int, trace_ops: int) -> Workload:
    """estimate_mu over a batch of (n, trials) pairs sharing one sub-seed."""

    def make(seed, b):
        return derive_seed(seed, b)

    def run(s):
        return [montecarlo.estimate_mu(n, trials, s, jobs=1) for n, trials in batch]

    def golden(out):
        items = {}
        for e in out:
            items[f"n{e.n}.mean"] = e.mean.hex()
            items[f"n{e.n}.stderr"] = e.stderr.hex()
            items[f"n{e.n}.zero_area_trials"] = e.zero_area_trials
        return items

    def check(s, out):
        bad = []
        for (n, trials), e in zip(batch, out):
            if (e.n, e.trials, e.seed) != (n, trials, s):
                bad.append(f"n={n}: estimate echoes wrong parameters")
            if not (e.mean > 0 and e.stderr >= 0 and e.ci95[0] <= e.mean <= e.ci95[1]):
                bad.append(f"n={n}: estimate out of range")
        return bad

    def recheck(seed, ops):
        # The first m trials of estimate_mu(n, trials, s) are the same
        # streams (s, t) as in the batch; their mean must equal the mean of
        # the exhaustive reference scan on the same sampled sets, bit for
        # bit, because fsum is exact.
        rng = stream_rng(seed, 1 << 40)
        b = ops[rng.below(len(ops))]
        s = make(seed, b)
        bad = []
        for n, trials in batch:
            m = min(trials, recheck_trials)
            est = montecarlo.estimate_mu(n, m, s, jobs=1)
            areas = [
                min_area_triangle(montecarlo.sample_unit_square(n, s, t), mode="exhaustive").area
                for t in range(m)
            ]
            live = [a for a in areas if a != 0.0]
            if est.zero_area_trials != m - len(live) or est.mean != fsum(live) / len(live):
                bad.append(f"op {b} n={n}: estimate differs from the exhaustive scan")
        return bad

    return Workload(name, make, run, lambda s: sum(t for _, t in batch), golden, check, recheck, trace_ops)


def _degen_workload(K: int, n: int, trials: int, trace_ops: int) -> Workload:
    def make(seed, b):
        return derive_seed(seed, b)

    def run(s):
        return montecarlo.degenerate_structure_stats(K, n, trials, s)

    def golden(out):
        return {
            "collinear_fraction": out.collinear_fraction.hex(),
            "shared_row_fraction": out.shared_row_fraction.hex(),
        }

    def check(s, out):
        if (out.K, out.n, out.trials, out.seed) != (K, n, trials, s):
            return ["stats echo wrong parameters"]
        return []

    def recheck(seed, ops):
        # recount one seeded operation from its sampled arrangements with
        # the exhaustive grid scan
        b = ops[stream_rng(seed, 1 << 40).below(len(ops))]
        s = make(seed, b)
        coll = shared = 0
        for t in range(trials):
            a = montecarlo.sample_grid_arrangement(K, n, s, t)
            shared += len(set(a.rows())) < n
            coll += min_area_triangle(a, mode="exhaustive").twice_area == 0
        out = run(s)
        if (out.collinear_fraction, out.shared_row_fraction) != (coll / trials, shared / trials):
            return [f"op {b}: fractions differ from the exhaustive recount"]
        return []

    return Workload("degen_k20", make, run, lambda s: trials, golden, check, recheck, trace_ops)


def _codec_workload(kind: str, K: int, n: int, trace_ops: int) -> Workload:
    recipe = _RECIPES[kind]
    encoder = _ENCODERS[kind]

    def make(seed, b):
        return recipe(K, n, seed, b)

    def run(a):
        report = getattr(witnesses, encoder)(a)
        return report, witnesses.decode_witness(kind, report.payload, K, n)

    def golden(out):
        report, _ = out
        return {
            "payload_sha256": _sha(report.payload.to_hex()),
            "witness_length": report.witness_length,
            "savings": report.savings,
        }

    def check(a, out):
        report, decoded = out
        bad = []
        if decoded != a:
            bad.append("decode(encode(a)) != a")
        if report.kind != kind or report.witness_length != len(report.payload):
            bad.append("witness report is inconsistent")
        return bad

    return Workload(f"codec_{kind}", make, run, lambda a: 1, golden, check, lambda seed, ops: [], trace_ops)


def _constructions_workload(n: int, restarts: int, steps: int, p: int, trace_ops: int) -> Workload:
    """The timed operation is the optimizer.  erdos_prime(p) has no seed and
    runs untimed: once per run in the golden check and, traced, in the
    traced run.  Identical erdos_prime(151) calls vary by 20-40% in wall
    time on a shared VM, more than the speed probes track, so timing it
    would make op_cost unsteady."""

    def make(seed, b):
        return derive_seed(seed, b)

    def run(s):
        return constructions.optimize_heilbronn(n, restarts=restarts, steps=steps, seed=s, jobs=1)

    def erdos():
        return constructions.erdos_prime(p)

    def golden(opt):
        arr = erdos()
        return {
            "optimize.value": opt.value.hex(),
            "optimize.points_sha256": _sha(";".join(f"{q.x.hex()},{q.y.hex()}" for q in opt.points.points)),
            "optimize.iterations": opt.iterations,
            "erdos.cells": list(arr.cells()),
            "erdos.cells_are_i_i2_mod_p": arr == GridArrangement.from_points(p, [(i, i * i % p) for i in range(p)]),
        }

    def check(s, opt):
        bad = []
        # From 0.25, decaying by 0.95 after every 20 rejections, the step
        # falls below 1e-9 only after 377 decays (7540 steps), so every
        # restart of a shorter schedule runs all its steps.
        if steps <= 7540 and opt.iterations != restarts * steps:
            bad.append(f"optimizer ran {opt.iterations} iterations, schedule implies {restarts * steps}")
        if opt.points.n != n or not opt.value > 0:
            bad.append("optimizer result out of range")
        return bad

    return Workload("constructions", make, run, lambda s: 1, golden, check, lambda seed, ops: [], trace_ops, erdos)


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks every size for the self-check."""
    K = 1 << 16 if tiny else 1 << 20
    n = 20 if tiny else 200
    wls = [
        _mc_workload("mc_small_n", ((8, 4), (16, 2)) if tiny else ((8, 500), (16, 250)), 8, 8),
        _mc_workload("mc_large_n", ((24, 2), (32, 2)) if tiny else ((128, 4), (256, 2)), 2, 6),
        _degen_workload(1 << 6 if tiny else K, 8 if tiny else 16, 10 if tiny else 150, 8),
        *(_codec_workload(kind, K, n, 1 if kind == "collinear" else 6) for kind in CODEC_KINDS),
        _constructions_workload(8, 2 if tiny else 12, 50 if tiny else 4000, 11 if tiny else 151, 2),
    ]
    return {w.name: w for w in wls}


def golden_items(w: Workload) -> dict:
    """Outputs of operation 0 under DEFAULT_SEED, as recorded in golden.json."""
    return w.golden(w.run(w.make(DEFAULT_SEED, 0)))
