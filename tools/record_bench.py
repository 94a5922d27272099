"""Record the end-to-end benchmark of two checkouts into one JSON file.

Run it on two checkouts outside the working tree, say a ``git clone`` of
the parent commit and a clone with the change's files copied in:

    python3 tools/record_bench.py --parent ../parent --change ../change --out BENCH_pr8.json

For every workload of BENCHMARK.json and every seed it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, back to back, alternating which side goes first
from one pair to the next; T is BENCHMARK.json's ``run_seconds``.  The runs
are sequential, so the two sides never share the machine.  The file holds
the machine record of the first run, the code each side ran (see
``code_id``), the seeds, each run's metrics and first three error strings
in seed order and, per workload, the summary of BENCHMARK.json's
end-to-end metrics (see ``summarize``).  For a workload that the change
checkout's ``BENCH_noise.json`` covers (an A/A record: both sides one
commit), the summary also holds ``aa_move``, that record's median moves,
so each move reads next to the harness's own noise; this is informational
and no verdict uses it.  Likewise ``recheck`` lists a workload's ``gain``
metrics when its parent ``op_cost`` median is below 0.1 kiter, or when no
module its timed operation runs (``WORKLOAD_MODULES``) differs between the
sides; clones of identical code have met the gain rule in both cases.  On
unchanged modules it also lists ``op_cost`` when the change reads worse in
every pair, as clones of identical code have done too.  A note on stderr
then asks for a recheck on fresh seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")
DEFAULT_SEEDS = tuple(range(801, 811))  # ten pairs, the fewest a gain can rest on
CODE_DIRS = ("src", "perfbench")  # what perfbench/run.py executes
# the src/heilbronn modules whose functions each workload's timed operation
# calls, as a profiler saw them on one operation of each workload
_MC = ("rng", "geometry", "montecarlo")
_CODEC = ("geometry", "coding", "witnesses")
WORKLOAD_MODULES = {
    "mc_small_n": _MC, "mc_large_n": _MC, "degen_k20": _MC,
    "codec_theorem2": _CODEC, "codec_collinear": _CODEC, "codec_rowline": _CODEC,
    "codec_small_triangle": _CODEC, "constructions": (*_MC, "constructions"),
}


def quartiles(values: list[float]) -> dict:
    """Median, q1 and q3; the quartiles interpolate between order
    statistics (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3}


def median_moves(summary: dict, names: list[str]) -> dict:
    """Per metric, the change median relative to the parent median,
    change / parent - 1, of a ``summarize`` result."""
    return {name: summary["change"][name]["median"] / summary["parent"][name]["median"] - 1
            for name in names}


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Summary of {side: [result object, ...]}, the runs in seed order, for
    BENCHMARK.json's ``end_to_end`` metrics:

    * per side and metric, the median and quartiles;
    * ``move``: per metric, the relative median move (``median_moves``);
    * ``change_better``: per metric, "k/N", the number k of the N pairs in
      which the change reads better in the metric's ``better`` direction
      (ties count for neither);
    * ``unresolved``: the metrics whose parent quartile spread is wider
      than ``bound`` times the parent median, where a move within the
      bound cannot be told from noise;
    * ``regressed``: the metrics whose change median is worse than the
      parent median, in the ``better`` direction, by more than ``bound``
      times the parent median, the rule that rejects a change;
    * ``gain``: the metrics in which the change reads better in at least
      nine tenths of the pairs and its median is better than the parent
      median by more than the parent's quartile spread, the rule a claimed
      gain must meet (informational: no verdict reads it);
    * ``all_correct``: whether every run checked its outputs correct;
    * ``min``: per side and metric, the lowest run, which a workload whose
      processes run at two speeds shows better than the median
      (informational).
    """
    values = {side: {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                     for m in end_to_end} for side in SIDES}
    out = {side: {name: quartiles(v) for name, v in values[side].items()} for side in SIDES}
    out["move"] = median_moves(out, [m["name"] for m in end_to_end])
    out["change_better"] = {}
    out["unresolved"] = []
    out["regressed"] = []
    out["gain"] = []
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        pairs = list(zip(values["parent"][name], values["change"][name]))
        better = sum(c < p if lower else c > p for p, c in pairs)
        out["change_better"][name] = f"{better}/{len(pairs)}"
        parent, change = out["parent"][name], out["change"][name]["median"]
        if parent["q3"] - parent["q1"] > m["bound"] * parent["median"]:
            out["unresolved"].append(name)
        worse = change - parent["median"] if lower else parent["median"] - change
        if worse > m["bound"] * parent["median"]:
            out["regressed"].append(name)
        if 10 * better >= 9 * len(pairs) and -worse > parent["q3"] - parent["q1"]:
            out["gain"].append(name)
    out["all_correct"] = all(r["correct"] for side in SIDES for r in runs[side])
    out["min"] = {side: {name: min(v) for name, v in values[side].items()} for side in SIDES}
    return out


def same_modules(code: dict, workload: str) -> bool:
    """Whether each of the workload's ``WORKLOAD_MODULES`` has one blob id
    in both sides' ``code_id`` files (False for a workload not in the table
    or a record without blob ids)."""
    files = [code[side].get("files", {}) for side in SIDES]
    paths = [f"src/heilbronn/{m}.py" for m in WORKLOAD_MODULES.get(workload, ())]
    return bool(paths) and all(p in files[0] and files[0][p] == files[1].get(p) for p in paths)


def code_id(root: Path) -> dict:
    """HEAD's commit, the git tree id of each of CODE_DIRS and, under
    ``files``, the blob id of each file in them (``git ls-tree -r``), as
    they stand in the checkout, edits and new files included (ignored files
    are not), so two records show which modules differ.

    The trees are written through a throwaway index, so neither HEAD nor
    the checkout's index changes.  A tree id equals ``git rev-parse
    C:src`` (or ``C:perfbench``) of any commit C with the same files, which
    ties the numbers to a commit even when they were measured before it was
    made.
    """
    def git(*args, env=None):
        return subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, check=True).stdout.strip()

    with tempfile.TemporaryDirectory() as tmp:
        env = os.environ | {"GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "--all", "--", *CODE_DIRS, env=env)
        tree = git("write-tree", env=env)
    blobs = (line.split(None, 3)[2:] for line in git("ls-tree", "-r", tree, "--", *CODE_DIRS).splitlines())
    return ({"commit": git("rev-parse", "HEAD")} | {d: git("rev-parse", f"{tree}:{d}") for d in CODE_DIRS}
            | {"files": {path: blob for blob, path in blobs}})


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in root: (detail record, result object)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    detail, result = proc.stdout.splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seeds", type=lambda s: [int(v) for v in s.split(",")], default=list(DEFAULT_SEEDS),
                   help="comma-separated seeds (default: %(default)s)")
    p.add_argument("--workload", action="append", help="one workload (repeatable; default: all)")
    args = p.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    noise_path = roots["change"] / "BENCH_noise.json"
    noise = json.loads(noise_path.read_text())["workloads"] if noise_path.exists() else {}
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"machine": None, "code": {side: code_id(roots[side]) for side in SIDES},
              "seeds": args.seeds, "seconds": seconds, "workloads": {}}
    pair = 0
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for seed in args.seeds:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                detail, result = run_once(roots[side], workload, seed, seconds)
                record["machine"] = record["machine"] or detail["machine"]
                runs[side].append(result | {"errors": detail["errors"][:3]})
                print(f"{workload} seed {seed} {side}: op_cost {result['metrics']['op_cost']['value']:.6g}"
                      f" correct {result['correct']}", file=sys.stderr)
            pair += 1
        summary = summarize(runs, spec["end_to_end"])
        if workload in noise:
            summary["aa_move"] = median_moves(noise[workload]["summary"], metrics)
        # below 0.1 kiter (degen_k20 in BENCH_pr30.json) or on unchanged
        # code (mc_large_n in BENCH_pr31.json) a gain is not yet a finding,
        # nor on unchanged code a slowdown in every pair (mc_small_n in
        # BENCH_pr32.json)
        small = summary["parent"]["op_cost"]["median"] < 0.1
        same = same_modules(record["code"], workload)
        gains = summary["gain"] if small or same else []
        costs = ([r["metrics"]["op_cost"]["value"] for r in runs[side]] for side in SIDES)
        slower = same and all(c > p for p, c in zip(*costs))
        summary["recheck"] = gains + ["op_cost"] * slower
        if gains:
            why = " and ".join(text for text, hit in (("at a parent op_cost below 0.1 kiter", small),
                                                      ("on unchanged modules", same)) if hit)
            print(f"{workload}: gain in {', '.join(gains)} {why}; recheck on fresh seeds", file=sys.stderr)
        if slower:
            pairs = len(args.seeds)
            print(f"{workload}: op_cost worse in {pairs}/{pairs} pairs on unchanged modules; recheck on fresh seeds",
                  file=sys.stderr)
        for m in metrics:
            aa = f" (A/A {summary['aa_move'][m]:+.1%})" if "aa_move" in summary else ""
            print(f"{workload} {m}: move {summary['move'][m]:+.1%}{aa}", file=sys.stderr)
        low = summary["min"]
        print(f"{workload} op_cost: min parent {low['parent']['op_cost']:.6g}, change {low['change']['op_cost']:.6g}",
              file=sys.stderr)
        record["workloads"][workload] = {
            "summary": summary,
            "runs": {side: [{m: r["metrics"][m]["value"] for m in metrics}
                            | {"correct": r["correct"], "errors": r["errors"]}
                            for r in runs[side]] for side in SIDES},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
