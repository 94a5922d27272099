"""In-memory span tracing around the calls where one heilbronn module
calls the next, and the per-layer metrics derived from the spans.

Wrappers replace module attributes, so a span is recorded for every call
that goes through the patched name: ``montecarlo.min_area_triangle`` is
the montecarlo -> geometry boundary, ``witnesses.rank_combination`` the
witnesses -> coding boundary, and so on.  Spans are kept in a list and
turned into metrics when the run ends.  A layer's self time is the time
of its spans minus the time of their direct child spans.

Calls too fine to span (a SplitMix64 word, a cross product inside a
triple loop, a binomial) are counted instead.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from time import perf_counter

from heilbronn import coding, constructions, geometry, montecarlo, witnesses
from heilbronn.rng import stream_rng

LAYERS = ("montecarlo", "geometry", "coding", "witnesses", "constructions")
KINDS = ("theorem2", "collinear", "rowline", "small_triangle")
MC_NS = (8, 16, 128, 256)

# (module, attribute, layer): the span is named "<layer>.<attribute>" and
# its caller is the patched module
_SPANNED = (
    (montecarlo, "estimate_mu", "montecarlo"),
    (montecarlo, "degenerate_structure_stats", "montecarlo"),
    (montecarlo, "sample_unit_square", "montecarlo"),
    (montecarlo, "sample_grid_arrangement", "montecarlo"),
    (montecarlo, "min_area_triangle", "geometry"),
    (witnesses, "min_area_triangle", "geometry"),
    (constructions, "min_area_triangle", "geometry"),
    (witnesses, "rank_combination", "coding"),
    (witnesses, "unrank_combination", "coding"),
    (witnesses, "baseline_length", "coding"),
    (witnesses, "encode_theorem2", "witnesses"),
    (witnesses, "encode_collinear_witness", "witnesses"),
    (witnesses, "encode_rowline_witness", "witnesses"),
    (witnesses, "encode_small_triangle_witness", "witnesses"),
    (witnesses, "decode_witness", "witnesses"),
    (witnesses, "find_collinear_triple", "witnesses"),
    (witnesses, "excluded_columns", "witnesses"),
    (constructions, "optimize_heilbronn", "constructions"),
    (constructions, "erdos_prime", "constructions"),
)

# (module, attribute, counter name)
_COUNTED = (
    (montecarlo, "stream_rng", "rng.stream_rng"),
    (constructions, "stream_rng", "rng.stream_rng"),
    (coding, "comb", "coding.comb"),
    (constructions, "twice_signed_area", "constructions.twice_signed_area"),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


def _size(name: str, args) -> tuple[bool, int]:
    """(grid mode, point count) of a sized call, else (False, 0)."""
    if name == "geometry.min_area_triangle":
        return isinstance(args[0], geometry.GridArrangement), args[0].n
    if name == "montecarlo.sample_unit_square":
        return False, args[0]
    return False, 0


class Span:
    __slots__ = ("name", "caller", "start", "end", "parent", "op", "grid", "n")

    def __init__(self, name, caller, parent, op):
        self.name, self.caller, self.parent, self.op = name, caller, parent, op
        self.grid, self.n = False, 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while installed (``with tracer:``).

    ``op`` labels the spans of the current operation, so that per-kind
    metrics can group the spans of one round trip.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patches = [(m, a, self._span_wrapper(getattr(m, a), f"{layer}.{a}", _short(m)))
                         for m, a, layer in _SPANNED]
        self._patches += [(m, a, self._count_wrapper(getattr(m, a), n, _short(m))) for m, a, n in _COUNTED]
        self._originals = [(m, a, getattr(m, a)) for m, a, _ in self._patches]

    def _span_wrapper(self, fn, name, caller):
        spans, stack = self.spans, self._stack
        sized = name in ("geometry.min_area_triangle", "montecarlo.sample_unit_square")

        def wrapper(*args, **kwargs):
            s = Span(name, caller, stack[-1] if stack else -1, self.op)
            if sized:
                s.grid, s.n = _size(name, args)
            stack.append(len(spans))
            spans.append(s)
            s.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name, caller):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name, caller, self.op] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for m, a, w in self._patches:
            setattr(m, a, w)
        return self

    def __exit__(self, *exc):
        for m, a, orig in self._originals:
            setattr(m, a, orig)
        return False

    # -- summaries ---------------------------------------------------------

    def count(self, name: str, caller: str | None = None, op: str | None = None) -> int:
        """Calls counted under name, optionally only from caller or in op."""
        return sum(c for (nm, cl, o), c in self.counts.items()
                   if nm == name and caller in (None, cl) and op in (None, o))

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.dur
        return own

    def boundaries(self) -> dict[str, dict]:
        """calls, busy and self milliseconds per wrapped boundary, including
        boundaries that saw no call."""
        own = self.self_times()
        out = {f"{_short(m)}->{layer}.{a}": {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
               for m, a, layer in _SPANNED}
        for s, o in zip(self.spans, own):
            row = out[f"{s.caller}->{s.name}"]
            row["calls"] += 1
            row["busy_ms"] += s.dur * 1e3
            row["self_ms"] += o * 1e3
        for m, _, n in _COUNTED:
            out[f"{_short(m)}->{n}"] = {"calls": self.count(n, _short(m))}
        return out


def ns_per_uniform(streams: list[tuple[int, int, int]]) -> float:
    """Time per SplitMix64.uniform() over the given (seed, stream, draws)."""
    total = 0
    t0 = perf_counter()
    for seed, stream, draws in streams:
        u = stream_rng(seed, stream).uniform
        for _ in range(draws):
            u()
        total += draws
    return (perf_counter() - t0) * 1e9 / total


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(tr: Tracer, rng_ns: float, zero_area_trials: int,
                  payload_bits: dict[str, list[int]], iterations: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; every name is always present,
    zero where the workload does not cross that boundary."""
    spans = tr.spans
    own = tr.self_times()
    m: dict[str, float] = {}

    def busy(layer):
        # spans of the layer that are not nested in another span of it
        total = 0.0
        for s in spans:
            if s.layer != layer:
                continue
            p = s.parent
            while p >= 0 and spans[p].layer != layer:
                p = spans[p].parent
            if p < 0:
                total += s.dur
        return total

    m["rng.calls"] = tr.count("rng.stream_rng")
    m["rng.ns_per_uniform"] = rng_ns
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
        m[f"{layer}.busy_ms"] = busy(layer) * 1e3
        m[f"{layer}.self_ms"] = sum(o for s, o in zip(spans, own) if s.layer == layer) * 1e3

    # montecarlo -> geometry, estimate_mu and degenerate_structure_stats
    mu_time = sum(s.dur for s in spans if s.name == "montecarlo.estimate_mu")
    samples = [s for s in spans if s.name == "montecarlo.sample_unit_square"]
    kernels = [s for s in spans if s.name == "geometry.min_area_triangle" and s.caller == "montecarlo"]
    unit_kernels = [s for s in kernels if not s.grid]
    for n in MC_NS:
        m[f"montecarlo.sample_us.n{n}"] = _mean(s.dur for s in samples if s.n == n) * 1e6
    # sampler and kernel spans nest directly in their estimate_mu span
    sample_in_mu = sum(s.dur for s in samples if _parent_is(spans, s, "montecarlo.estimate_mu"))
    kernel_in_mu = sum(s.dur for s in unit_kernels if _parent_is(spans, s, "montecarlo.estimate_mu"))
    m["montecarlo.sample_share"] = sample_in_mu / mu_time if mu_time else 0.0
    m["montecarlo.self_share"] = (mu_time - sample_in_mu - kernel_in_mu) / mu_time if mu_time else 0.0
    m["montecarlo.grid_sample_us"] = _mean(
        s.dur for s in spans if s.name == "montecarlo.sample_grid_arrangement") * 1e6
    m["montecarlo.zero_area_trials"] = zero_area_trials

    geo = [s for s in spans if s.name == "geometry.min_area_triangle"]
    for n in MC_NS:
        m[f"geometry.min_triangle_us.n{n}"] = _mean(s.dur for s in unit_kernels if s.n == n) * 1e6
    m["geometry.kernel_share"] = kernel_in_mu / mu_time if mu_time else 0.0
    triples = sum(comb(s.n, 3) for s in geo)
    geo_time = sum(s.dur for s in geo)
    m["geometry.triples"] = triples
    m["geometry.triples_per_s"] = triples / geo_time if geo_time else 0.0
    m["geometry.grid_min_triangle_ms"] = _mean(
        s.dur for s in geo if s.grid and s.caller == "witnesses") * 1e3
    m["geometry.grid_min_triangle_us.n16"] = _mean(
        s.dur for s in kernels if s.grid and s.n == 16) * 1e6
    m["geometry.verify_ms"] = _mean(s.dur for s in geo if s.caller == "constructions") * 1e3

    # witnesses -> coding / geometry, per kind and per round trip
    for kind in KINDS:
        mine = [(s, o) for s, o in zip(spans, own) if s.op == kind]
        trips = sum(1 for s, _ in mine if s.name == "witnesses.decode_witness")
        per = trips or 1
        roots = [s for s, _ in mine if s.parent < 0 and s.layer == "witnesses"]
        root_time = sum(s.dur for s in roots)
        inner = sum(s.dur for s, _ in mine if s.layer in ("coding", "geometry"))
        m[f"coding.rank_ms.{kind}"] = sum(
            s.dur for s, _ in mine if s.name == "coding.rank_combination") * 1e3 / per
        m[f"coding.unrank_ms.{kind}"] = sum(
            s.dur for s, _ in mine if s.name == "coding.unrank_combination") * 1e3 / per
        m[f"coding.comb_calls.{kind}"] = tr.count("coding.comb", op=kind) / per
        m[f"coding.payload_bits.{kind}"] = _mean(payload_bits.get(kind, ()))
        m[f"witnesses.encode_ms.{kind}"] = sum(
            s.dur for s in roots if s.name != "witnesses.decode_witness") * 1e3 / per
        m[f"witnesses.decode_ms.{kind}"] = sum(
            s.dur for s in roots if s.name == "witnesses.decode_witness") * 1e3 / per
        m[f"witnesses.self_share.{kind}"] = (root_time - inner) / root_time if root_time else 0.0
    excl = [s for s in spans if s.name == "witnesses.excluded_columns"]
    trips = sum(1 for s in spans if s.name == "witnesses.decode_witness") or 1
    m["witnesses.excluded_columns_ms"] = sum(s.dur for s in excl) * 1e3 / trips
    m["witnesses.excluded_columns_calls"] = len(excl) / trips
    m["witnesses.find_collinear_ms"] = _mean(
        s.dur for s in spans if s.name == "witnesses.find_collinear_triple") * 1e3

    # benchmark -> constructions
    opt = [i for i, s in enumerate(spans) if s.name == "constructions.optimize_heilbronn"]
    m["constructions.optimize_self_ms"] = _mean(own[i] for i in opt) * 1e3
    m["constructions.iterations"] = iterations / len(opt) if opt else 0
    erdos = [s for s in spans if s.name == "constructions.erdos_prime"]
    cross = tr.count("constructions.twice_signed_area")
    m["constructions.erdos_cross_calls"] = cross / len(erdos) if erdos else 0
    m["constructions.erdos_cross_ns"] = sum(s.dur for s in erdos) * 1e9 / cross if cross else 0.0

    m["trace_overhead"] = overhead
    return m


def _parent_is(spans: list[Span], s: Span, name: str) -> bool:
    return s.parent >= 0 and spans[s.parent].name == name
