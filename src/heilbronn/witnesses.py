"""Compression witnesses for structured pebble arrangements.

Each witness codec is a paired encoder/decoder: the encoder maps an
arrangement with a specific structure (a collinear triple, a shared grid
row, a small triangle, or a constrained lower half) to a bit string, and
the decoder reconstructs the arrangement exactly from that bit string plus
(kind, K, n).  The encoding is shorter than ``baseline_length(K, n)``
precisely when the structure is informative, and the achieved savings are
a computable lower bound on how atypical the arrangement is: over any
family of uniquely decodable encodings, at most a 2^-s fraction of all
C(K^2, n) arrangements can be compressed by s or more bits.

Index accounting is exact and big-integer throughout; all geometric
comparisons in codec paths use exact integer arithmetic, never float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .coding import (
    BitReader,
    BitString,
    DecodeError,
    _comb_bits,
    baseline_length,
    ceil_log2,
    nat_to_string,
    rank_combination,
    sd_prime,
    sd_unprime,
    string_to_nat,
    unrank_combination,
)
from .geometry import MAX_GRID_SIDE, GridArrangement, GridPoint, min_area_triangle

@dataclass(frozen=True)
class WitnessReport:
    """A witness encoding with its exact length accounting.

    ``savings = baseline_length - witness_length`` may be negative: codecs
    only compress arrangements that actually have cheap structure.
    """

    kind: str
    payload: BitString
    baseline_length: int

    @property
    def witness_length(self) -> int:
        return len(self.payload)

    @property
    def savings(self) -> int:
        return self.baseline_length - self.witness_length


@dataclass(frozen=True)
class SmallTriangleGeometry:
    """Exact invariants of a grid triangle, labeled so PQ is a longest side.

    g counts lattice points on [P, Q); T is the integer twice-area; the
    quotient f = T/g is integral because g divides every value of the
    cross-product form.  2*f*g bounds the witness index of R.
    """

    P: GridPoint
    Q: GridPoint
    R: GridPoint
    g: int
    T: int
    f: int


@dataclass(frozen=True)
class ForbiddingLineSet:
    """Certified forbidding lines built from the two Claim-style rectangles.

    ``lines`` holds index pairs into the owning arrangement (one pebble in
    the top rectangle, one in the bottom rectangle); ``segments`` carries
    their coordinates so intercepts can be computed without the
    arrangement.  Every stored line crosses the dividing row and the bottom
    side of the unit square inside [0, 1].
    """

    K: int
    split_row: int
    lines: tuple[tuple[int, int], ...]
    segments: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    rect_top_count: int
    rect_bottom_count: int


@dataclass(frozen=True)
class InterceptWindow:
    """Sorted intercepts of forbidding lines on one grid row, plus the
    tightest window of six consecutive intercepts (absent if fewer)."""

    row: int
    intercepts: tuple[Fraction, ...]
    spacings: tuple[Fraction, ...]
    window: Optional[tuple[Fraction, Fraction, Fraction, Fraction, Fraction]]
    D: Optional[Fraction]
    B: Optional[Fraction]


# ---------------------------------------------------------------------------
# structure detection


def find_collinear_triple(a: GridArrangement) -> Optional[tuple[int, int, int]]:
    """Lexicographically first collinear index triple, or None.

    A collinear triple has twice-area 0, the smallest possible, and the
    triangle search breaks ties to the lexicographically smallest triple.
    """
    if a.n < 3:
        return None
    rep = min_area_triangle(a)
    return rep.indices if rep.twice_area == 0 else None


def find_shared_row_pair(a: GridArrangement) -> Optional[tuple[int, int]]:
    """Lexicographically first index pair on one horizontal grid line."""
    rows = a.rows()
    # points are sorted row-major, so equal rows are adjacent
    for i in range(len(rows) - 1):
        if rows[i] == rows[i + 1]:
            return (i, i + 1)
    return None


# ---------------------------------------------------------------------------
# shared codec helpers


def _combination_bits(cells: Sequence[int], m: int) -> BitString:
    """A ranked-combination field: the strictly increasing ``cells`` of
    range(m) as their rank, in ceil(log2 C(m, k)) bits for k cells."""
    return BitString.from_int(rank_combination(cells, m), _comb_bits(m, len(cells)))


def _read_combination(reader: BitReader, k: int, m: int, what: str) -> tuple[int, ...]:
    """Read a ``_combination_bits`` field of k cells of range(m); ``what``
    names the field when the rank is C(m, k) or more."""
    rank = reader.read_uint(_comb_bits(m, k))
    try:
        return unrank_combination(rank, k, m)
    except ValueError as exc:
        raise DecodeError(f"{what} rank out of range at bit {reader.pos}: {exc}") from None


def _read_sub_arrangement(reader: BitReader, K: int, n: int) -> tuple[GridPoint, ...]:
    cells = _read_combination(reader, n - 1, K * K, "sub-arrangement")
    return GridArrangement.from_cells(K, cells).points


def _decoded_arrangement(K: int, pebbles: list[GridPoint]) -> GridArrangement:
    """The arrangement of the decoded pebbles, which the field readers
    keep inside the grid but not always distinct."""
    try:
        return GridArrangement(K, tuple(sorted(pebbles)))
    except ValueError as exc:
        raise DecodeError(f"decoded points are not a valid arrangement: {exc}") from None


def _line_slots(P: GridPoint, Q: GridPoint, K: int) -> tuple[int, int, int, int, int]:
    """Line(P, Q) as P + t*(dx, dy), (dx, dy) its lexicographically positive
    primitive direction: returns (dx, dy, t_lo, t_hi, t_Q), where
    [t_lo, t_hi] are the parameters of its grid points inside [0, K-1]^2,
    P sits at t = 0 and Q at t = t_Q."""
    dx, dy = Q.x - P.x, Q.y - P.y
    g = gcd(dx, dy)
    dx, dy, t_Q = dx // g, dy // g, g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy, t_Q = -dx, -dy, -g
    t_lo, t_hi = -K, K  # a nonzero component keeps |t| < K; the loop tightens this
    for p0, d0 in ((P.x, dx), (P.y, dy)):
        if d0 > 0:
            t_lo, t_hi = max(t_lo, _ceil_div(-p0, d0)), min(t_hi, (K - 1 - p0) // d0)
        elif d0 < 0:
            t_lo, t_hi = max(t_lo, _ceil_div(K - 1 - p0, d0)), min(t_hi, -p0 // d0)
    return dx, dy, t_lo, t_hi, t_Q


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# ---------------------------------------------------------------------------
# collinear witness (three pebbles on one line)


def encode_collinear_witness(a: GridArrangement) -> WitnessReport:
    """Encode via: the n-1 other pebbles, the pair (P, Q), and R's position
    among the grid points of line(P, Q).

    R is the largest-index member of the first collinear triple.  The index
    of R costs at most ceil(log2 K) bits while dropping R from the ranked
    set saves about log2(K^2/n) bits, so the witness compresses whenever K
    is large relative to n.
    """
    triple = find_collinear_triple(a)
    if triple is None:
        raise ValueError("arrangement has no collinear triple")
    i, j, k = triple
    pts = a.points
    P, Q, R = pts[i], pts[j], pts[k]

    cells = a.cells()
    sub_bits = _combination_bits(cells[:k] + cells[k + 1 :], a.K * a.K)
    pair_bits = _combination_bits((i, j), a.n - 1)

    # R's slot on the line, not counting the slots of P and Q below it
    dx, dy, t_lo, t_hi, t_Q = _line_slots(P, Q, a.K)
    t_R = (R.x - P.x) // dx if dx else (R.y - P.y) // dy
    pos = t_R - t_lo - (t_R > 0) - (t_R > t_Q)
    r_bits = BitString.from_int(pos, ceil_log2(t_hi - t_lo - 1))

    payload = sub_bits + pair_bits + r_bits
    return WitnessReport("collinear", payload, baseline_length(a.K, a.n))


def _decode_collinear(reader: BitReader, K: int, n: int) -> list[GridPoint]:
    sub = _read_sub_arrangement(reader, K, n)
    i, j = _read_combination(reader, 2, n - 1, "pair")
    P, Q = sub[i], sub[j]
    dx, dy, t_lo, t_hi, t_Q = _line_slots(P, Q, K)
    if t_hi - t_lo == 1:
        raise DecodeError(f"line through pebbles {i} and {j} holds no third grid point")
    pos = reader.read_uint(ceil_log2(t_hi - t_lo - 1))
    # slots are counted from t_lo; P and Q hold slots -t_lo and t_Q - t_lo
    if pos >= t_hi - t_lo - 1:
        raise DecodeError(f"rank {pos} out of range for {t_hi - t_lo - 1} allowed positions")
    first, second = sorted((-t_lo, t_Q - t_lo))
    slot = pos + (pos >= first)
    t = t_lo + slot + (slot >= second)
    return [*sub, GridPoint(P.x + t * dx, P.y + t * dy)]


# ---------------------------------------------------------------------------
# row-line witness (two pebbles on one horizontal grid line)


def encode_rowline_witness(a: GridArrangement) -> WitnessReport:
    """Encode via: the n-1 other pebbles, the pebble P, and R's cell among
    the K-1 other cells of P's row."""
    found = find_shared_row_pair(a)
    if found is None:
        raise ValueError("no two pebbles share a horizontal grid line")
    i, j = found
    pts = a.points
    P, R = pts[i], pts[j]

    cells = a.cells()
    sub_bits = _combination_bits(cells[:j] + cells[j + 1 :], a.K * a.K)
    p_bits = BitString.from_int(i, ceil_log2(a.n - 1))

    pos = R.x if R.x < P.x else R.x - 1
    r_bits = BitString.from_int(pos, ceil_log2(a.K - 1))

    payload = sub_bits + p_bits + r_bits
    return WitnessReport("rowline", payload, baseline_length(a.K, a.n))


def _decode_rowline(reader: BitReader, K: int, n: int) -> list[GridPoint]:
    sub = _read_sub_arrangement(reader, K, n)
    m = n - 1
    pi = reader.read_uint(ceil_log2(m))
    if pi >= m:
        raise DecodeError(f"pebble index {pi} out of range at bit {reader.pos}")
    P = sub[pi]
    pos = reader.read_uint(ceil_log2(K - 1))
    if pos >= K - 1:
        raise DecodeError(f"row cell index {pos} out of range at bit {reader.pos}")
    x = pos if pos < P.x else pos + 1
    return [*sub, GridPoint(x, P.y)]


# ---------------------------------------------------------------------------
# small-triangle witness


def _relabel_longest(pts: Sequence[GridPoint], triple: tuple[int, int, int]) -> tuple[int, int, int]:
    """Return (r_idx, p_idx, q_idx): R faces the first side of maximal
    squared length, scanning R = i, j, k in index order."""

    def sq(u: GridPoint, v: GridPoint) -> int:
        return (u.x - v.x) ** 2 + (u.y - v.y) ** 2

    i, j, k = triple
    sides = [(sq(pts[j], pts[k]), i, j, k), (sq(pts[i], pts[k]), j, i, k), (sq(pts[i], pts[j]), k, i, j)]
    return max(sides, key=lambda side: side[0])[1:]  # max keeps the first maximal side


def _triangle_cross(P: GridPoint, Q: GridPoint, R: GridPoint) -> tuple[int, int]:
    """(g, cross): g counts lattice points on [P, Q) and cross is the
    signed twice-area of P, Q, R; a degenerate triple raises ValueError."""
    q1, q2 = Q.x - P.x, Q.y - P.y
    cross = q2 * (R.x - P.x) - q1 * (R.y - P.y)
    if cross == 0:
        raise ValueError("degenerate (collinear) triple")
    return gcd(q1, q2), cross


def small_triangle_geometry(P: GridPoint, Q: GridPoint, R: GridPoint) -> SmallTriangleGeometry:
    """Exact (g, T, f) for a nondegenerate grid triangle after relabeling
    so that PQ is a longest side (deterministic tie order P, Q, R)."""
    pts = (P, Q, R)
    r_i, p_i, q_i = _relabel_longest(pts, (0, 1, 2))
    P, Q, R = pts[p_i], pts[q_i], pts[r_i]
    g, cross = _triangle_cross(P, Q, R)
    T = abs(cross)
    return SmallTriangleGeometry(P, Q, R, g, T, T // g)


def _triangle_candidate_index(P: GridPoint, Q: GridPoint, R: GridPoint) -> int:
    """Index of R in the canonical enumeration of lattice points X with
    cross(P, Q, X) = +-k*g (k = 1, 2, ...) whose projection on PQ lies in
    the half-open window [P, Q): ordered by k, then sign (+ first), then
    position along the line.  Each (k, sign) level holds exactly g points,
    so the index is below 2*f*g = 2*T."""
    g, cross = _triangle_cross(P, Q, R)
    q1, q2 = Q.x - P.x, Q.y - P.y
    level_start = (abs(cross) // g - 1) * 2 * g + (0 if cross > 0 else g)
    # R's slot: its projection numerator s over the level's step (q1^2 + q2^2) / g
    s = q1 * (R.x - P.x) + q2 * (R.y - P.y)
    return level_start + s * g // (q1 * q1 + q2 * q2)


def _coset_params(q1: int, q2: int, g: int, v: int) -> tuple[int, int, int]:
    """For the coset {X : q2*X.x - q1*X.y = v}, X relative to P: a base
    solution (bx, by) and the start t_lo of the window of g parameters t
    whose points (bx, by) + t*(q1, q2)/g project into [P, Q).  Another
    base solution moves t_lo and every point's t by the same amount."""
    a, b = q2 // g, q1 // g
    if b:
        s = pow(a, -1, abs(b))
        t = (a * s - 1) // b
    else:  # the direction is (0, a) with a = +-1
        s, t = a, 0
    # now a*s - b*t = 1, so q2*s - q1*t = g
    scale = v // g
    bx, by = s * scale, t * scale  # base solution with form value v
    step = (q1 * q1 + q2 * q2) // g
    s_base = bx * q1 + by * q2  # projection numerator of the base solution
    return bx, by, _ceil_div(-s_base, step)


def _triangle_candidate_point(P: GridPoint, Q: GridPoint, index: int) -> GridPoint:
    """Inverse of _triangle_candidate_index (lattice point, unclipped)."""
    q1, q2 = Q.x - P.x, Q.y - P.y
    g = gcd(abs(q1), abs(q2))
    k = index // (2 * g) + 1
    rem = index % (2 * g)
    sign = 1 if rem < g else -1
    pos = rem % g
    bx, by, t_lo = _coset_params(q1, q2, g, sign * k * g)
    tt = t_lo + pos
    return GridPoint(P.x + bx + tt * (q1 // g), P.y + by + tt * (q2 // g))


def encode_small_triangle_witness(
    a: GridArrangement, triple: Optional[tuple[int, int, int]] = None
) -> WitnessReport:
    """Encode via: the n-1 pebbles without R, the pair (P, Q), and a
    self-delimiting candidate index for R.

    With PQ a longest side, R projects into [P, Q), so R sits at index
    < 2*T in the canonical enumeration; its code costs about
    log2(2T) + 2 log2 log2(2T) bits.  Small twice-areas T therefore yield
    short witnesses; large ones may cost more than the baseline.
    """
    if triple is None:
        rep = min_area_triangle(a, mode="fast")
        if rep.twice_area == 0:
            raise ValueError("minimum-area triple is degenerate; no triangle witness")
        triple = rep.indices
    i, j, k = triple
    if not (0 <= i < j < k < a.n):
        raise ValueError(f"invalid index triple {triple}")
    pts = a.points
    r_idx, p_idx, q_idx = _relabel_longest(pts, (i, j, k))
    index = _triangle_candidate_index(pts[p_idx], pts[q_idx], pts[r_idx])  # raises if degenerate

    cells = a.cells()
    sub_bits = _combination_bits(cells[:r_idx] + cells[r_idx + 1 :], a.K * a.K)
    # indices of P and Q inside the sub-arrangement (R removed); p_idx < q_idx
    pair = (p_idx - (p_idx > r_idx), q_idx - (q_idx > r_idx))
    pair_bits = _combination_bits(pair, a.n - 1)
    idx_bits = sd_prime(nat_to_string(index))

    payload = sub_bits + pair_bits + idx_bits
    return WitnessReport("small_triangle", payload, baseline_length(a.K, a.n))


def _decode_small_triangle(reader: BitReader, K: int, n: int) -> list[GridPoint]:
    sub = _read_sub_arrangement(reader, K, n)
    pi, qi = _read_combination(reader, 2, n - 1, "pair")
    P, Q = sub[pi], sub[qi]
    index = string_to_nat(sd_unprime(reader))
    R = _triangle_candidate_point(P, Q, index)
    if not (0 <= R.x < K and 0 <= R.y < K):
        raise DecodeError(f"candidate {R} falls outside the grid")
    return [*sub, R]


# ---------------------------------------------------------------------------
# dividing row, Claim-style rectangles, forbidding lines


def split_row(a: GridArrangement) -> int:
    """Dividing grid row: the row of the (floor(n/2)+1)-th pebble from the
    top, so the last floor(n/2) pebbles, ``a.points[(n + 1) // 2:]``, lie
    strictly above it.  Requires all pebbles on distinct rows."""
    if find_shared_row_pair(a) is not None:
        raise ValueError("pebbles must occupy distinct rows")
    return a.points[(a.n - 1) // 2].y


def _in_top_rect(x: int, y: int, S: int) -> bool:
    # middle vertical fifth (2/5, 3/5], top horizontal tenth [9/10, 1]
    return (5 * x > 2 * S) and (5 * x <= 3 * S) and (10 * y >= 9 * S)


def _in_bottom_rect(x: int, y: int, S: int) -> bool:
    # middle vertical fifth, fifth horizontal tenth [1/2, 3/5)
    return (5 * x > 2 * S) and (5 * x <= 3 * S) and (2 * y >= S) and (10 * y < 6 * S)


def _claim_rect_pairs(upper: Sequence[tuple[int, GridPoint]], K: int, split: int) -> ForbiddingLineSet:
    """The lines through one (index, pebble) of ``upper`` in the top
    rectangle and one in the bottom rectangle, top pebbles outermost."""
    S = K - 1
    top = [(idx, p) for idx, p in upper if _in_top_rect(p.x, p.y, S)]
    bot = [(idx, p) for idx, p in upper if _in_bottom_rect(p.x, p.y, S)]
    lines = tuple((min(it, ib), max(it, ib)) for it, _ in top for ib, _ in bot)
    segs = tuple(((pt.x, pt.y), (pb.x, pb.y)) for _, pt in top for _, pb in bot)
    return ForbiddingLineSet(K, split, lines, segs, len(top), len(bot))


def forbidding_lines(a: GridArrangement) -> ForbiddingLineSet:
    """Certified forbidding lines: all pairs with one upper-half pebble in
    the top rectangle and one in the bottom rectangle of the middle
    vertical strip.  The rectangle geometry guarantees each such line
    crosses the dividing row and the bottom side inside the unit square;
    this is re-verified exactly."""
    split = split_row(a)
    f = _claim_rect_pairs(list(enumerate(a.points))[(a.n + 1) // 2 :], a.K, split)
    if not _crosses(_line_table(f, ()), split, a.K - 1).all():
        raise AssertionError("rectangle pair line failed the crossing check")
    return f


def count_forbidding_lines(a: GridArrangement) -> int:
    """Number of forbidding lines per the definition: lines through two
    upper-half pebbles that meet every lower-half grid row (rows <= the
    dividing row) within the unit square.  This is the quantity the
    rectangle construction lower-bounds."""
    split = split_row(a)
    up = np.array([(p.x, p.y) for p in a.points[(a.n + 1) // 2 :]], dtype=np.int64).reshape(-1, 2)
    ii, jj = np.triu_indices(len(up), 1)
    # rows ascend strictly, so the later pebble first already gives den > 0
    return int(np.count_nonzero(_crosses(_line_forms(up[jj], up[ii]), split, a.K - 1)))


def _line_forms(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c0, d, den), den > 0: the line through p[i] and q[i], rows of (m, 2)
    int64 arrays, meets grid row y at column (c0[i] + y d[i]) / den[i],
    exactly.  A horizontal segment raises ``ValueError``."""
    (x1, y1), (x2, y2) = p.T, q.T
    c0, d, den = x2 * y1 - x1 * y2, x1 - x2, y1 - y2
    sign = np.sign(den)
    if not sign.all():
        raise ValueError("a segment is horizontal")
    return c0 * sign, d * sign, den * sign


def _line_table(f: ForbiddingLineSet, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_line_forms`` of f's segments, once the grid side, every
    segment coordinate and each of ``rows`` are known to keep them exact
    in int64: for K <= MAX_GRID_SIDE and values in [0, K), |c0 + row d|
    is below 2^61.  Anything else raises ``ValueError``."""
    K = f.K
    if not 2 <= K <= MAX_GRID_SIDE:
        raise ValueError(f"grid side {K} is outside [2, {MAX_GRID_SIDE}]")
    coords = [v for seg in f.segments for p in seg for v in p]
    if not all(0 <= v < K for v in coords):
        raise ValueError(f"a segment coordinate is outside [0, {K})")
    if not all(0 <= row < K for row in rows):
        raise ValueError(f"a row is outside [0, {K})")
    ends = np.array(coords, dtype=np.int64).reshape(-1, 2, 2)
    return _line_forms(ends[:, 0], ends[:, 1])


def _crosses(forms: tuple[np.ndarray, np.ndarray, np.ndarray], split: int, S: int) -> np.ndarray:
    """Whether each line of ``forms`` meets rows 0 and ``split`` inside [0, S]."""
    c0, d, den = forms
    num = c0 + np.array([[0], [split]], dtype=np.int64) * d
    return ((num >= 0) & (num <= S * den)).all(axis=0)


def intercept_spacings(
    f: ForbiddingLineSet, row: int, min_area: Optional[Fraction] = None
) -> InterceptWindow:
    """Exact intercepts of the stored lines on one lower-half row, their
    spacings, and the tightest six-consecutive-intercept window (w1..w5,
    D = w1+...+w5).  With ``min_area`` given, B = min(4*A, D).

    All positions are reported in unit-square length units.
    """
    if row > f.split_row:
        raise ValueError(f"row {row} is not in the lower half (split {f.split_row})")
    if not f.segments:
        raise ValueError("forbidding line set is empty")
    c0, d, den = _line_table(f, (row,))
    S = f.K - 1
    xs = sorted(Fraction(num, q * S) for num, q in zip((c0 + row * d).tolist(), den.tolist()))
    spacings = tuple(b - a for a, b in zip(xs, xs[1:]))
    window = None
    D = None
    B = None
    if len(xs) >= 6:
        best_i = min(range(len(xs) - 5), key=lambda i: xs[i + 5] - xs[i])
        window = spacings[best_i : best_i + 5]
        D = xs[best_i + 5] - xs[best_i]
        if min_area is not None:
            B = min(4 * Fraction(min_area), D)
    return InterceptWindow(row, tuple(xs), spacings, window, D, B)


def _exclusion_runs(rows: Sequence[int], f: ForbiddingLineSet, T_min: int) -> list[list[tuple[int, int]]]:
    """A list of the excluded columns of each of ``rows``, as sorted, disjoint,
    non-adjacent inclusive intervals [lo, hi], so the cost grows with the
    number of lines, not with K.

    A line meeting the row at num / den, num = c0 + row d (``_line_table``),
    excludes the columns from floor((num S - T_min den) / (den S)) + 1 to
    ceil((num S + T_min den) / (den S)) - 1, S = f.K - 1, clipped to [0, S].
    With num = a den + b and T_min = t1 S + t0, both b S and t0 den lie in
    [0, den S), so these are a - t1 + 1 - [b S < t0 den] and
    a + t1 - 1 + [z > 0] + [z > den S], z = b S + t0 den.

    All (row, line) pairs go through one int64 pass: ``np.divmod`` of the
    (rows x lines) num grid and the bounds above, then, with each window
    shifted by i (S + 2), i the row's position in ``rows``, one sort of
    lo, which orders the windows by (row, lo), and a running maximum of
    hi, which merges overlapping and adjacent windows into runs; the shift
    stops a run from bleeding into the next row.  The split keeps the pass
    exact on every set ``_line_table`` admits (it raises ``ValueError`` on
    the rest): |num|, hence |a|, is below 2^61, and so are b S, t0 den, z
    and den S, where num S could reach 2^91.  Any nonnegative T_min is
    exact: t1 is capped at 2^62, past which every window already covers
    [0, S].
    """
    if T_min < 0:
        raise ValueError("T_min must be nonnegative")
    c0, d, den = _line_table(f, rows)
    S = f.K - 1
    t1, t0 = divmod(T_min, S)
    t1 = min(t1, 1 << 62)
    a, b = np.divmod(c0 + np.array(rows, dtype=np.int64)[:, None] * d, den)
    bS, t0den = b * S, t0 * den
    z = bS + t0den
    lo = np.maximum(a - t1 + 1 - (bS < t0den), 0)
    hi = np.minimum(a + t1 - 1 + (z > 0) + (z > den * S), S)
    keep = lo <= hi
    i = np.nonzero(keep)[0]  # ascending, so the sort below leaves i in place
    offset = i * (S + 2)
    lo, hi = lo[keep] + offset, hi[keep] + offset
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    gap = lo[1:] > reach[:-1] + 1  # a run ends before each gap and starts after it
    first = np.ones(lo.size, dtype=bool)
    first[1:] = gap
    last = np.ones(lo.size, dtype=bool)
    last[:-1] = gap
    runs = list(zip((lo - offset)[first].tolist(), (reach - offset)[last].tolist()))
    ends = np.cumsum(np.bincount(i[first], minlength=len(rows))).tolist()
    return [runs[start:end] for start, end in zip([0, *ends], ends)]


def excluded_columns(row: int, f: ForbiddingLineSet, T_min: int) -> set[int]:
    """Grid columns of ``row`` strictly within distance 2A of any stored
    line's intercept, where A = T_min / (2(K-1)^2), K = f.K.  Exact integers."""
    return {c for lo, hi in _exclusion_runs((row,), f, T_min)[0] for c in range(lo, hi + 1)}


# ---------------------------------------------------------------------------
# theorem-2 witness (constrained lower half)


def _theorem2_widths(K: int) -> tuple[int, int]:
    """The header width, which fits any twice-area up to (K-1)^2, and the
    width of one raw column."""
    return 2 * ceil_log2(K - 1) + 1, ceil_log2(K)


def encode_theorem2(a: GridArrangement) -> WitnessReport:
    """Encode: T_min header, the set of n occupied rows, the upper-half
    columns raw, then the lower-half columns (top to bottom) ranked within
    their row's non-excluded column set with self-delimiting prefixes.

    The exclusions come from the certified forbidding lines of the decoded
    upper half, so the decoder can reproduce them exactly.
    """
    n = a.n
    if n % 2 or n < 2:
        raise ValueError("theorem-2 witness requires an even number (>= 2) of pebbles")
    split = split_row(a)  # requires distinct rows
    K = a.K
    header_w, col_w = _theorem2_widths(K)

    T_min = int(min_area_triangle(a, mode="fast").twice_area) if n >= 3 else 0
    header = BitString.from_int(T_min, header_w)

    rows_bits = _combination_bits(a.rows(), K)  # distinct rows, ascending

    # row-major on distinct rows, so each half top down is a reversed slice
    upper = a.points[: n // 2 - 1 : -1]
    lower = a.points[n // 2 - 1 :: -1]

    packed = sum(p.x << col_w * i for i, p in enumerate(reversed(upper)))
    upper_bits = BitString.from_int(packed, col_w * len(upper))

    # forbidding lines are a function of the upper half alone, so the
    # decoder can rebuild them before reading any lower-half column
    flines = _claim_rect_pairs(list(enumerate(upper)), K, split)

    codes = []
    for p, spans in zip(lower, _exclusion_runs([p.y for p in lower], flines, T_min)):
        rank = p.x
        for lo, hi in spans:
            if lo > p.x:
                break
            if p.x <= hi:
                raise ValueError(
                    f"internal consistency failure: pebble column {p.x} on row {p.y} "
                    "is inside its own excluded set"
                )
            rank -= hi - lo + 1
        codes.append(sd_prime(nat_to_string(rank)))
    lower_bits = BitString.join(codes)

    payload = header + rows_bits + upper_bits + lower_bits
    return WitnessReport("theorem2", payload, baseline_length(K, n))


def _decode_theorem2(reader: BitReader, K: int, n: int) -> list[GridPoint]:
    if n % 2:
        raise DecodeError("theorem-2 witness requires an even number (>= 2) of pebbles")
    header_w, col_w = _theorem2_widths(K)
    T_min = reader.read_uint(header_w)
    if T_min > (K - 1) ** 2:  # no grid triangle has a larger twice-area
        raise DecodeError(f"twice-area header {T_min} exceeds the grid maximum")
    rows_desc = _read_combination(reader, n, K, "row-set")[::-1]

    upper = []
    for r in rows_desc[: n // 2]:
        x = reader.read_uint(col_w)
        if x >= K:
            raise DecodeError(f"column {x} out of range at bit {reader.pos}")
        upper.append(GridPoint(x, r))
    split = rows_desc[n // 2]

    flines = _claim_rect_pairs(list(enumerate(upper)), K, split)

    pts = list(upper)
    lower_rows = rows_desc[n // 2 :]
    for r, spans in zip(lower_rows, _exclusion_runs(lower_rows, flines, T_min)):
        rank = string_to_nat(sd_unprime(reader))
        allowed = K - sum(hi - lo + 1 for lo, hi in spans)
        if rank >= allowed:
            raise DecodeError(f"rank {rank} out of range for {allowed} allowed positions")
        col = rank
        for lo, hi in spans:  # skip every excluded column at or below col
            if lo > col:
                break
            col += hi - lo + 1
        pts.append(GridPoint(col, r))
    return pts


# ---------------------------------------------------------------------------
# dispatch and the closed-form bound


# each kind's encoder, field reader, and the fewest pebbles its structure needs
_CODECS = {
    "collinear": (encode_collinear_witness, _decode_collinear, 3),
    "rowline": (encode_rowline_witness, _decode_rowline, 2),
    "small_triangle": (encode_small_triangle_witness, _decode_small_triangle, 3),
    "theorem2": (encode_theorem2, _decode_theorem2, 2),
}

WITNESS_KINDS = tuple(_CODECS)


def _codec(kind: str) -> tuple:
    if kind not in _CODECS:
        raise ValueError(f"unknown witness kind {kind!r}")
    return _CODECS[kind]


def encode_witness(kind: str, a: GridArrangement, triple: Optional[tuple[int, int, int]] = None) -> WitnessReport:
    """Encode ``a`` as a witness of ``kind``; ``triple`` picks the
    small-triangle witness's indices (see ``encode_small_triangle_witness``)
    and applies to no other kind."""
    encode = _codec(kind)[0]
    if triple is None:
        return encode(a)
    if kind != "small_triangle":
        raise ValueError(f"a triple applies only to small_triangle witnesses, not {kind!r}")
    return encode(a, triple)


def _min_payload_bits(kind: str, K: int, n: int) -> int:
    """A lower bound on a payload's fixed-width fields that computes no
    binomial: for theorem 2 the header, the row set (C(K, n) >= 2^min(n, K-n))
    and the upper-half columns; for the other kinds the sub-arrangement rank,
    as C(m, k) >= (m/k)^k for m = K^2 and k = min(n-1, m-n+1)."""
    if kind == "theorem2":
        header_w, col_w = _theorem2_widths(K)
        return header_w + min(n, K - n) + (n // 2) * col_w
    m = K * K
    k = min(n - 1, m - n + 1)
    return k * ((m // k).bit_length() - 1)


def decode_witness(kind: str, payload: BitString, K: int, n: int) -> GridArrangement:
    """Reconstruct the arrangement a witness payload encodes.

    Consumes the whole payload; malformed, truncated, or trailing input
    raises DecodeError with the offending bit position, at bit 0, before
    any binomial, for a payload shorter than ``_min_payload_bits``.
    """
    _, read_pebbles, min_n = _codec(kind)
    max_n = K if kind == "theorem2" else K * K  # theorem-2 pebbles occupy distinct rows
    if not 2 <= K <= MAX_GRID_SIDE or not min_n <= n <= max_n:
        raise DecodeError(f"no {kind} witness exists for K={K}, n={n}")
    need = _min_payload_bits(kind, K, n)
    if len(payload) < need:
        raise DecodeError(f"stream ends early at bit 0: a {kind} witness for K={K}, n={n} "
                          f"has at least {need} bits, got {len(payload)}")
    reader = BitReader(payload)
    pebbles = read_pebbles(reader, K, n)
    reader.expect_end()
    return _decoded_arrangement(K, pebbles)


_LOG2_E = 1.4426950408889634  # log2(e) = 1/ln 2, correctly rounded


def upper_bound_formula(delta: float, n: int, C1: float = 1e-4, slack: float = 0.0) -> float:
    """Area bound (14*delta + slack) / (4*C1*n^3*log2(e)) for the
    constrained-lower-half argument; slack stands for the additive constant
    the asymptotic analysis leaves unspecified."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if n < 3:
        raise ValueError("n must be >= 3")
    if C1 <= 0:
        raise ValueError("C1 must be positive")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    return (14.0 * delta + slack) / (4.0 * C1 * n**3 * _LOG2_E)
