"""Tiny-size self-check of the benchmark.

Run from the root of a source checkout (a few seconds):

    python3 perfbench/selfcheck.py

Every workload runs at minimal sizes, in both modes, against golden
values recorded at those sizes.  The check asserts that the result object
has exactly its four keys, that every metric BENCHMARK.json names for the
mode is emitted as a number with its unit, that a clean run has no
failures, and that a corrupted golden value is reported as a failure.
Exit code 0 means every assertion held.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run


def problems_in(result: dict, want: dict[str, str], expect_clean: bool) -> list[str]:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        out.append("attempted is not a positive integer")
    got = result["metrics"]
    if set(got) != set(want):
        out.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        m = got.get(name, {})
        v = m.get("value")
        if m.get("unit") != unit:
            out.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            out.append(f"{name}: value {v!r} is not a finite number")
    if expect_clean and (result["failed"] or not result["correct"]):
        out.append(f"{result['failed']} failed operations in a clean run")
    return out


def main() -> int:
    root = Path.cwd()
    run.load_src(root)
    from workloads import golden_items, make_workloads

    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {mode: {m["name"]: m["unit"] for m in spec[mode]} for mode in ("end_to_end", "per_layer")}
    problems = []
    for name, w in make_workloads(tiny=True).items():
        golden = {name: golden_items(w)}
        for trace, mode in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.measure(name, 7, 0.2, trace, root, tiny=True, golden=golden, setup_repeats=1)
            problems += [f"{name} {mode}: {p}" for p in problems_in(result, wanted[mode], True)]
        key = next(iter(golden[name]))
        corrupted = {name: dict(golden[name], **{key: "corrupted"})}
        result, _ = run.measure(name, 7, 0.2, False, root, tiny=True, golden=corrupted, setup_repeats=1)
        if result["failed"] < 1 or result["correct"] or result["metrics"]["ok_rate"]["value"] >= 1:
            problems.append(f"{name}: corrupted golden value {key!r} was not reported as a failure")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
