"""Benchmark of the heilbronn toolkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_small_n --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it times the workload for ``--seconds`` seconds and
prints the end-to-end metrics; with ``--trace 1`` it runs a fixed number
of operations twice, once plain and once with timing wrappers at the
module boundaries, and prints the per-layer metrics.  Either way it first
checks the outputs of the default seed against golden.json, checks every
output it produces, and prints one detail record (machine, samples,
errors, trace boundaries) before the last line, which is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Metric names
and units come from BENCHMARK.json; the exit code is 0 only when a
result was printed.
"""

from __future__ import annotations

import os

# One load-generating process: no BLAS or OpenMP pool may add threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 7
PROBE_ITERS = 3000
PROBE_PERIOD_S = 0.05
PROBE_WINDOW_S = 0.5


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_PERIOD_S while active.

    The loop runs in a SIGALRM handler, so it samples the interpreter's
    speed during an operation, not only between operations.  On a shared
    virtual machine that speed swings by 15-30% over seconds; dividing an
    operation's time by the probe time taken during it cancels the swing.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._old = None

    def tick(self, *_):
        t0 = perf_counter()
        x = 0
        for i in range(PROBE_ITERS):
            x += i * i
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def between(self, t0: float, t1: float) -> list[float]:
        """Durations of the probes that ended in [t0, t1]."""
        return self.durations[bisect_left(self.ends, t0):bisect_right(self.ends, t1)]

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


class Tally:
    """Operations attempted and failed; a failure is an exception or a
    failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, what: str, fn) -> object:
        """Run one operation; fn returns (result, list of check failures)."""
        self.attempted += 1
        try:
            out, bad = fn()
        except Exception as exc:  # a library failure is a benchmark result
            out, bad = None, [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failed += 1
            self.errors.extend(f"{what}: {b}" for b in bad[:3])
        return out


def load_src(root: Path):
    """Import heilbronn from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "heilbronn" / "__init__.py").is_file():
        raise SystemExit(f"error: no heilbronn sources under {src}")
    sys.path.insert(0, str(src))
    import heilbronn

    if Path(heilbronn.__file__).resolve().parent != (src / "heilbronn").resolve():
        raise SystemExit(f"error: imported heilbronn from {heilbronn.__file__}, not {src}")
    return heilbronn


def machine_record(root: Path) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def git_commit(root: Path) -> str:
    """HEAD of root/.git read from its files; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(root: Path, repeats: int) -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter that imports heilbronn."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import heilbronn"], cwd=root, env=env, check=True)
        times.append(perf_counter() - t0)
    return median(times), times


def check_golden(w, tally: Tally, golden: dict) -> None:
    """Compare the default seed's outputs item by item; also warms caches."""
    from workloads import DEFAULT_SEED

    want = golden.get(w.name)
    if not want:
        tally.op(f"golden {w.name}", lambda: (None, ["no golden record"]))
        return
    inp = w.make(DEFAULT_SEED, 0)
    got = tally.op(f"golden {w.name} run", lambda: (w.golden(w.run(inp)), []))
    for key, value in want.items():
        tally.op(f"golden {w.name} {key}",
                 lambda: (None, [] if got is not None and got.get(key) == value else ["differs from golden.json"]))


def timed_run(w, seed: int, seconds: float, tally: Tally) -> dict:
    """Operations back to back for `seconds`.  Each yields its wall time per
    unit without the probe time spent inside it, and that time in kiter:
    thousands of probe-loop iterations at the median speed of the probes
    that ended during the operation or in the PROBE_WINDOW_S before it."""
    ms, kiter = [], []
    probe = SpeedProbe()
    for _ in range(int(PROBE_WINDOW_S / PROBE_PERIOD_S)):
        probe.tick()
    b = 0
    with probe:
        deadline = perf_counter() + seconds
        while b == 0 or perf_counter() < deadline:
            inp = w.make(seed, b)

            def op():
                t0 = perf_counter()
                out = w.run(inp)
                t1 = perf_counter()
                net = (t1 - t0 - sum(probe.between(t0, t1))) / w.units(inp)
                ms.append(net * 1e3)
                kiter.append(net / median(probe.between(t0 - PROBE_WINDOW_S, t1)) * PROBE_ITERS / 1e3)
                return out, w.check(inp, out)

            tally.op(f"op {b}", op)
            b += 1
    tally.op("recheck", lambda: (None, w.recheck(seed, list(range(b)))))
    return {"ops": b, "samples": len(ms), "probes": len(probe.durations),
            "op_ms": _summary(ms), "op_cost": _summary(kiter)}


def _summary(xs: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    if not xs:
        return {"median": None, "high": None}
    ordered = sorted(xs)
    n = len(ordered)
    return {"median": median(ordered),
            "high": [100.0 * (n - 10) / n, ordered[n - 11]] if n > 10 else None}


def traced_run(w, seed: int, tally: Tally) -> tuple[dict, dict]:
    """The workload's fixed operations, each run plain and then traced."""
    from heilbronn.constructions import OptimizerResult
    from heilbronn.montecarlo import MuEstimate
    from heilbronn.witnesses import WitnessReport
    from spans import Tracer, layer_metrics, ns_per_uniform

    tracer = Tracer()
    tracer.op = w.name.removeprefix("codec_")
    plain = traced = 0.0
    zero_area = iterations = 0
    payload_bits: dict[str, list[int]] = {}
    streams = []
    calls = [(f"op {b}", w.make(seed, b)) for b in range(w.trace_ops)]
    if w.trace_side:
        calls.append(("side", None))
    for what, inp in calls:
        fn = w.run if inp is not None else lambda _: w.trace_side()
        for mode in ("plain", "traced"):
            def op():
                nonlocal plain, traced
                t0 = perf_counter()
                if mode == "plain":
                    out = fn(inp)
                    plain += perf_counter() - t0
                else:
                    with tracer:
                        out = fn(inp)
                    traced += perf_counter() - t0
                return out, w.check(inp, out) if inp is not None else []

            out = tally.op(f"{mode} {what}", op)
        for part in out if isinstance(out, (list, tuple)) else (out,):
            if isinstance(part, MuEstimate):
                zero_area += part.zero_area_trials
                streams += [(part.seed, t, 2 * part.n) for t in range(part.trials)]
            elif isinstance(part, WitnessReport):
                payload_bits.setdefault(part.kind, []).append(part.witness_length)
            elif isinstance(part, OptimizerResult):
                iterations += part.iterations
    rng_ns = ns_per_uniform(streams) if streams else 0.0
    metrics = layer_metrics(tracer, rng_ns, zero_area, payload_bits, iterations,
                            traced / plain if plain else 0.0)
    detail = {"plain_s": plain, "traced_s": traced, "spans": len(tracer.spans),
              "boundaries": tracer.boundaries()}
    return metrics, detail


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path, *,
            tiny: bool = False, golden: dict | None = None, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """One benchmark run: (result object, detail record)."""
    from workloads import make_workloads

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    wls = make_workloads(tiny)
    if workload not in wls:
        raise SystemExit(f"error: unknown workload {workload!r}; choose from {', '.join(wls)}")
    w = wls[workload]
    if golden is None:
        golden = json.loads(GOLDEN.read_text())

    detail = {"workload": workload, "seed": seed, "trace": int(trace), "machine": machine_record(root)}
    tally = Tally()
    check_golden(w, tally, golden)
    if trace:
        metrics, detail["trace"] = traced_run(w, seed, tally)
    else:
        detail["timing"] = timed_run(w, seed, seconds, tally)
        if not detail["timing"]["samples"]:
            raise SystemExit(f"error: no operation succeeded: {tally.errors[:3]}")
        setup, detail["setup_s_samples"] = setup_seconds(root, setup_repeats)
        metrics = {
            "op_cost": detail["timing"]["op_cost"]["median"],
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        }
    detail["machine"]["loadavg_end"] = os.getloadavg()
    detail["errors"] = tally.errors[:50]
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    load_src(root)
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
