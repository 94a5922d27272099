"""Command-line front end.

Every command emits one JSON record {command, version, seed, params,
results, timing_ms} on stdout (validated by the schema shipped in
heilbronn/schemas/); ``scan --format csv`` emits plot-ready CSV rows
instead.  Each command returns its results and ``run`` alone writes the
record: randomized commands require --seed and echo it as ``seed``, and
``params`` echoes every other parsed argument.  Exit codes:
0 success, 1 usage error, 2 data error or failed internal check.  Big
integers (arrangement ranks) are serialized as decimal strings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .coding import baseline_length, rank_arrangement, unrank_arrangement
from .constructions import _erdos_checked, erdos_area_lower_bound, optimize_heilbronn
from .formats import (
    FormatError,
    load_grid,
    load_points,
    load_pointset,
    load_witness,
    save_grid,
    save_pointset,
    save_witness,
)
from .geometry import min_area_triangle
from .montecarlo import (
    analyze_pointset,
    default_trial_schedule,
    degenerate_structure_stats,
    sample_grid_arrangement,
    sample_unit_square,
    scan_mu,
    tail_probability,
)
from .witnesses import WITNESS_KINDS, decode_witness, encode_witness

OUTPUT_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems instead of argparse's 2
        raise UsageError(message)


def _jobs(text: str) -> int:
    """--jobs or HEILBRONN_JOBS value: an integer of at least 1 (an upper
    bound on workers)."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0  # reported like a count below 1
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1 (from --jobs or HEILBRONN_JOBS), got {text!r}")
    return jobs


def _integers(count: int | None = None):
    """argparse type for comma-separated integers (blank items are skipped),
    exactly ``count`` of them when given; the value is a tuple."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(s) for s in text.split(",") if s.strip())
        except ValueError:
            values = ()  # reported like a missing value below
        if not values or (count is not None and len(values) != count):
            raise argparse.ArgumentTypeError(
                f"must be {count or 'one or more'} comma-separated integers, got {text!r}")
        return values
    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="heilbronn", description=__doc__)
    # a string default goes through _jobs like a given --jobs, so an invalid
    # HEILBRONN_JOBS is a usage error only where --jobs exists and is omitted;
    # an empty one counts as unset
    jobs_default = os.environ.get("HEILBRONN_JOBS") or "1"
    jobs_help = "upper bound on worker processes (default: $HEILBRONN_JOBS or 1)"
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("min-triangle", help="smallest triangle of a point/grid file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--mode", choices=("fast", "exhaustive"), default="fast")
    sp.set_defaults(func=_cmd_min_triangle)

    sp = sub.add_parser("sample", help="draw a seeded point set or grid arrangement")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--k", type=int, help="grid side; omit for a continuous point set")
    sp.add_argument("--stream", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("scan", help="sweep n, estimate mu_n, fit the exponent")
    sp.add_argument("--ns", type=_integers(), required=True, help="comma-separated point counts")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--trials", type=int, help="fixed trial count (default: schedule)")
    sp.add_argument("--jobs", type=_jobs, default=jobs_default, help=jobs_help)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("tail", help="empirical P(A < t)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--threshold", type=float, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--jobs", type=_jobs, default=jobs_default, help=jobs_help)
    sp.set_defaults(func=_cmd_tail)

    sp = sub.add_parser("construct-erdos", help="quadratic-residue arrangement on a prime grid")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_construct_erdos)

    sp = sub.add_parser("optimize", help="maximize the minimum triangle area")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--steps", type=int, default=4000)
    sp.add_argument("--jobs", type=_jobs, default=jobs_default, help=jobs_help)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("rank", help="lexicographic index of a grid arrangement")
    sp.add_argument("--file", required=True)
    sp.set_defaults(func=_cmd_rank)

    sp = sub.add_parser("unrank", help="grid arrangement from a lexicographic index")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--index", required=True, help="decimal index (may be huge)")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_unrank)

    sp = sub.add_parser("witness", help="encode/decode compression witnesses")
    sp.add_argument("kind", choices=WITNESS_KINDS)
    sp.add_argument("action", choices=("encode", "decode"))
    sp.add_argument("--file", "--grid", dest="file", required=True,
                    help="grid file (encode) or witness file (decode)")
    sp.add_argument("--out", help="witness file (encode) or grid file (decode)")
    sp.add_argument("--triple", type=_integers(3), help="i,j,k indices for small_triangle encode")
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("stats-degenerate", help="frequency of collinear triples / shared rows")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_stats_degenerate)

    sp = sub.add_parser("analyze", help="score a point set against a random baseline")
    sp.add_argument("--file", required=True)
    sp.add_argument("--seed", type=int, required=True, help="baseline seed")
    sp.add_argument("--baseline-trials", type=int, default=1000)
    sp.set_defaults(func=_cmd_analyze)

    return p


def _saved(results, out, save, *objs):
    """Write ``objs`` with ``save`` to the optional --out file and record
    its path in ``results``."""
    if out:
        save(*objs, out)
        results["path"] = out
    return results


def _cmd_min_triangle(args):
    obj = load_points(args.file)
    return dataclasses.asdict(min_area_triangle(obj, mode=args.mode))


def _cmd_sample(args):
    if args.k is not None:
        a = sample_grid_arrangement(args.k, args.n, args.seed, args.stream)
        save_grid(a, args.out)
        return {"path": args.out, "K": args.k, "n": args.n}
    ps = sample_unit_square(args.n, args.seed, args.stream)
    save_pointset(ps, args.out)
    return {"path": args.out, "n": args.n}


def _scan_rows(estimates, seed):
    return [
        {
            "n": e.n,
            "trials": e.trials,
            "mean": e.mean,
            "stderr": e.stderr,
            "lo95": e.ci95[0],
            "hi95": e.ci95[1],
            "seed": seed,
        }
        for e in estimates
    ]


def _cmd_scan(args):
    trials_for = default_trial_schedule if args.trials is None else (lambda n: args.trials)
    estimates, fit = scan_mu(args.ns, args.seed, trials_for=trials_for, jobs=args.jobs)
    rows = _scan_rows(estimates, args.seed)
    if args.format == "csv":  # the header is the row keys; str of a float is its repr
        lines = [",".join(rows[0])] + [",".join(map(str, r.values())) for r in rows]
        return "\n".join(lines)
    results = {"samples": rows}
    if fit is not None:
        results.update(slope=fit.slope, intercept=fit.intercept, r_squared=fit.r_squared)
    return results


def _cmd_tail(args):
    est = tail_probability(args.n, args.threshold, args.trials, args.seed, jobs=args.jobs)
    return {"fraction": est.fraction}


def _cmd_construct_erdos(args):
    a, tri = _erdos_checked(args.p)
    results = {
        "p": args.p,
        "n": a.n,
        "area_lower_bound": erdos_area_lower_bound(args.p),
        "normalization": "cell size 1/p",
    }
    if tri is not None:
        results["min_twice_area"] = int(tri.twice_area)
    return _saved(results, args.out, save_grid, a)


def _cmd_optimize(args):
    res = optimize_heilbronn(args.n, restarts=args.restarts, steps=args.steps,
                             seed=args.seed, jobs=args.jobs)
    results = {
        "value": res.value,
        "iterations": res.iterations,
        "points": [[p.x, p.y] for p in res.points.points],
    }
    return _saved(results, args.out, save_pointset, res.points)


def _cmd_rank(args):
    a = load_grid(args.file)
    idx = rank_arrangement(a)
    return {
        "K": a.K,
        "n": a.n,
        "value": str(idx.value),
        "domain_size": str(idx.domain_size),
        "baseline_bits": baseline_length(a.K, a.n),
    }


def _cmd_unrank(args):
    try:
        index = int(args.index)
    except ValueError:
        raise UsageError(f"--index must be a decimal integer, got {args.index!r}") from None
    a = unrank_arrangement(index, args.k, args.n)
    results = {"K": a.K, "n": a.n, "points": [[p.x, p.y] for p in a.points]}
    return _saved(results, args.out, save_grid, a)


def _cmd_witness(args):
    if args.triple is not None and (args.kind, args.action) != ("small_triangle", "encode"):
        raise UsageError("--triple applies only to small_triangle encode")
    if args.action == "encode":
        a = load_grid(args.file)
        rep = encode_witness(args.kind, a, args.triple)
        results = {
            "kind": rep.kind,
            "K": a.K,
            "n": a.n,
            "witness_length": rep.witness_length,
            "baseline_length": rep.baseline_length,
            "savings": rep.savings,
            "payload": rep.payload.to_hex(),
        }
        return _saved(results, args.out, save_witness, rep, a.K, a.n)

    if not args.out:
        raise UsageError("witness decode requires --out for the reconstructed grid")
    kind, K, n, payload = load_witness(args.file)
    if kind != args.kind:
        raise FormatError(f"witness file is kind {kind!r}, not {args.kind!r}")
    a = decode_witness(kind, payload, K, n)
    save_grid(a, args.out)
    return {"kind": kind, "K": K, "n": n, "path": args.out}


def _cmd_stats_degenerate(args):
    st = degenerate_structure_stats(args.k, args.n, args.trials, args.seed)
    return {
        "collinear_fraction": st.collinear_fraction,
        "shared_row_fraction": st.shared_row_fraction,
    }


def _cmd_analyze(args):
    ps = load_pointset(args.file)
    rep = analyze_pointset(ps, args.seed, baseline_trials=args.baseline_trials)
    return {
        "n": rep.n,
        "area": rep.area,
        "scaled_area": rep.scaled_area,
        "percentile": rep.percentile,
    }


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        results = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a library self-check (optimizer, erdos_prime) failed
        print(f"error: internal check failed: {exc or 'assertion failed'}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    timing_ms = (time.perf_counter() - t0) * 1000.0
    if isinstance(results, str):  # scan --format csv
        print(results)
        return 0
    record = {
        "command": args.command,
        "version": OUTPUT_VERSION,
        "seed": getattr(args, "seed", None),
        # every other parsed argument, in parser order
        "params": {k: v for k, v in vars(args).items() if k not in ("command", "func", "seed")},
        "results": results,
        "timing_ms": timing_ms,
    }
    try:
        line = json.dumps(record, allow_nan=False)
    except ValueError as exc:  # NaN or infinity: not a JSON number
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; silence the flush at interpreter exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed by its reader", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
