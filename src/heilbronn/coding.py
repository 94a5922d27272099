"""Bit strings, self-delimiting codes, and big-integer arrangement ranking.

Naturals and binary strings are identified by the bijection
0 <-> "", 1 <-> "0", 2 <-> "1", 3 <-> "00", 4 <-> "01", ... so that a
natural m maps to a string of exactly floor(log2(m+1)) bits.  On top of
that bijection:

* ``sd_bar(x)``   = 1^len(x) 0 x                 (length 2*len(x) + 1)
* ``sd_prime(x)`` = sd_bar(nat_to_string(len(x))) x
  (length len(x) + 2*floor(log2(len(x)+1)) + 1)

Arrangements are ranked in the combinatorial number system over row-major
cell ids, entirely in exact integer arithmetic, at a cost of one exact
falling factorial ``perm`` per element and no ``comb``: ranking sums the
binomials scaled by k! (see ``rank_combination``), and unranking walks
them greedily from a float estimate (see ``unrank_combination``).
``baseline_length(K, n)`` is the exact ceil(log2 C(K^2, n)), the
incompressible description size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, exp, expm1, factorial, log, log1p, perm
from typing import Iterable

from .geometry import GridArrangement, check_grid


class DecodeError(ValueError):
    """A bit stream could not be decoded; the message carries the position."""


def ceil_log2(m: int) -> int:
    """Exact ceil(log2 m) for a positive big integer."""
    if m <= 0:
        raise ValueError("ceil_log2 requires a positive integer")
    return (m - 1).bit_length()


@dataclass(frozen=True, slots=True)
class BitString:
    """Immutable sequence of bits; the carrier for every codec output."""

    bits: str = ""

    def __post_init__(self):
        if self.bits.strip("01"):
            raise ValueError("bits must contain only '0' and '1'")

    @classmethod
    def _of(cls, bits: str) -> "BitString":
        """A BitString of text that holds only '0' and '1' by construction,
        without the check of ``BitString(bits)``."""
        out = object.__new__(cls)
        object.__setattr__(out, "bits", bits)
        return out

    def __len__(self) -> int:
        return len(self.bits)

    def __add__(self, other: "BitString") -> "BitString":
        return BitString._of(self.bits + other.bits)

    def __getitem__(self, idx) -> "BitString":
        return BitString._of(self.bits[idx])

    def to_int(self) -> int:
        """Value of the bits as a big-endian unsigned integer (empty -> 0)."""
        return int(self.bits, 2) if self.bits else 0

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """Fixed-width big-endian encoding; width 0 encodes only value 0."""
        if value < 0 or (width >= 0 and value >> width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        return cls._of(format(value, f"0{width}b") if width else "")

    @classmethod
    def join(cls, parts: Iterable["BitString"]) -> "BitString":
        """The concatenation of ``parts``, in one pass."""
        return cls._of("".join(p.bits for p in parts))

    def to_hex(self) -> str:
        """Serialize as '<decimal bit length>:<hex nibbles>', the final
        partial nibble padded with zero bits."""
        n = len(self.bits)
        padded = self.bits + "0" * (-n % 4)
        digits = format(int(padded, 2), f"0{len(padded) // 4}x") if padded else ""
        return f"{n}:{digits}"

    @classmethod
    def from_hex(cls, text: str) -> "BitString":
        # plain ASCII only: int() alone would take signs, '_' and other digits
        m = re.fullmatch(r"([0-9]+):([0-9a-fA-F]*)", text.strip())
        try:
            if m is None:
                raise ValueError
            n, digits = int(m[1]), m[2]  # int() also refuses an over-long length
        except ValueError:
            raise ValueError(f"malformed bit string serialization: {text!r}") from None
        if len(digits) != (n + 3) // 4:
            raise ValueError(f"bit length {n} does not match {len(digits)} hex digits")
        bits = format(int(digits, 16), f"0{4 * len(digits)}b") if digits else ""
        if bits[n:].strip("0"):
            raise ValueError("nonzero padding bits in serialization")
        return cls(bits[:n])


class BitReader:
    """Sequential reader over a BitString with position diagnostics."""

    def __init__(self, data: BitString):
        self._bits = data.bits
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self._bits) - self.pos

    def _take(self, k: int) -> str:
        if k < 0:
            raise ValueError("cannot read a negative number of bits")
        if self.pos + k > len(self._bits):
            raise DecodeError(
                f"stream ends early: wanted {k} bits at position {self.pos}, "
                f"only {self.remaining} remain"
            )
        out = self._bits[self.pos : self.pos + k]
        self.pos += k
        return out

    def read(self, k: int) -> BitString:
        return BitString._of(self._take(k))

    def read_uint(self, width: int) -> int:
        bits = self._take(width)
        return int(bits, 2) if bits else 0

    def read_ones(self) -> int:
        """Consume a run of 1 bits and the 0 that ends it; return the run's length."""
        end = self._bits.find("0", self.pos)
        if end < 0:
            self.pos = len(self._bits)
            self._take(1)  # raises: the stream ends inside the run
        n = end - self.pos
        self.pos = end + 1
        return n

    def expect_end(self):
        if self.pos != len(self._bits):
            raise DecodeError(f"{self.remaining} trailing bits at position {self.pos}")


def nat_to_string(m: int) -> BitString:
    """Bijection N -> {0,1}*: write m+1 in binary and drop the leading 1."""
    if m < 0:
        raise ValueError("naturals only")
    b = bin(m + 1)[3:]  # strip '0b1'
    return BitString._of(b)


def string_to_nat(x: BitString) -> int:
    """Inverse of nat_to_string."""
    return int("1" + x.bits, 2) - 1


def sd_bar(x: BitString) -> BitString:
    """Self-delimiting code 1^n 0 x for a string x of length n."""
    return BitString._of("1" * len(x) + "0" + x.bits)


def sd_unbar(reader: BitReader) -> BitString:
    """Consume one sd_bar code word from the stream and return its payload."""
    return reader.read(reader.read_ones())


def sd_prime(x: BitString) -> BitString:
    """Standard self-delimiting code: sd_bar of the encoded length, then x."""
    return sd_bar(nat_to_string(len(x))) + x


def sd_unprime(reader: BitReader) -> BitString:
    n = string_to_nat(sd_unbar(reader))
    return reader.read(n)


def sd_prime_length(n: int) -> int:
    """Exact length of sd_prime on an n-bit payload."""
    return n + 2 * (n + 1).bit_length() - 1  # n + 2*floor(log2(n+1)) + 1


def rank_combination(cells: tuple[int, ...], m: int) -> int:
    """Lexicographic rank of a strictly increasing combination from range(m).

    The reflected cells x_i = m - 1 - c_i decrease, and the rank is
    C(m, k) - 1 - sum_i C(x_i, k - i).  As r! C(x, r) = perm(x, r), the
    sum times k! is taken by Horner, acc = acc * r + perm(x, r) for
    r = 1, ..., k, and divided once by k!: one exact ``perm`` per element.
    """
    acc = 0
    prev = -1
    for r, c in enumerate(reversed(cells), 1):
        x = m - 1 - c
        if not prev < x < m:
            raise ValueError("cells must be strictly increasing within range(m)")
        acc = acc * r + perm(x, r)
        prev = x
    return (perm(m, len(cells)) - acc) // factorial(len(cells)) - 1


# Ratio steps perm(x +- 1, r) tried before a fresh ``perm``, and before the
# bisection fallback: a step is one big-by-small multiply and exact divide,
# several times cheaper than ``perm`` at the codecs' sizes.
_STEPS = 16


def unrank_combination(rank: int, k: int, m: int) -> tuple[int, ...]:
    """Inverse of rank_combination, by the greedy combinadic walk.

    With u = C(m, k) - 1 - rank, each element takes the largest x with
    C(x, r) <= u for r = k, ..., 1, and is m - 1 - x (Buckles & Lybanon,
    "Algorithm 515", ACM TOMS 1977; Knuth, TAOCP 4A 7.2.1.3).  The walk
    compares falling factorials with V = u r! instead, so nothing divides
    by r!: an element's P = perm(x, r) leaves V = (V - P) / r for r - 1, and
    P / x = perm(x - 1, r - 1) bounds the next element.  An element costs
    one exact ``perm`` (see ``_perm_floor``), two where the float estimate
    misses, and none where x lies within a few steps of the previous one.
    """
    total = perm(m, k)
    V = total - (rank + 1) * factorial(k)
    if rank < 0 or V < 0:
        raise ValueError(f"rank {rank} out of range for C({m}, {k})")
    out: list[int] = []
    P, x = total * (m - k), m  # perm(x - 1, r) = P // x
    for r in range(k, 0, -1):
        if V == 0:
            # only perm(x, r) = 0, i.e. x < r, fits: x runs r - 1, r - 2, ..., 0
            out.extend(range(m - r, m))
            break
        x, P = (x - 1, P // x) if P < (V + 1) * x else _perm_floor(V, r, P, x)
        out.append(m - 1 - x)
        V = (V - P) // r
    return tuple(out)


def _perm_floor(V: int, r: int, P: int, y: int) -> tuple[int, int]:
    """Largest x < y - 1 with perm(x, r) <= V, and that perm(x, r); needs
    perm(y - 1, r) = P // y > V >= r!, so x >= r.

    A float estimate of x more than ``_STEPS`` below y - 1 costs one exact
    ``perm``; two products confirm it, or the exact ratio V / perm(x, r)
    re-anchors it once more.  Exact ratio steps then find the boundary;
    should ``_STEPS`` of them not reach it (the floats overflow past
    m ~ 2^1000), a bisection of the bracket they leave does.
    """
    x, c = y - 1, None
    if x - r > _STEPS:
        # perm(x, r) ~ a^r exp(-r (r^2 - 1) / (24 a^2)), a = x - (r - 1) / 2;
        # the clamp keeps exp finite past float range
        a = exp(min(log(V) / r, 700.0))
        t = int(a + (r * r - 1) / (24 * a) + (r - 1) / 2)
        for _ in range(2):
            if abs(t - x) <= _STEPS:
                break
            x = min(max(t, r), y - 2)
            c = perm(x, r)
            if c <= V and c * (x + 1) > V * (x + 1 - r):  # perm(x + 1, r) > V
                return x, c
            # perm(t, r) / perm(x, r) ~ ((t - s) / (x - s))^r = V / perm(x, r), s = (r - 1) / 2
            try:
                t = x + round((x - (r - 1) / 2) * expm1(log1p((V - c) / c) / r))
            except OverflowError:
                break
    if c is None:
        c = P // y
    if c > V:
        for _ in range(_STEPS):
            c = c * (x - r) // x
            x -= 1
            if c <= V:
                return x, c
        lo, up = r, x
    else:
        for _ in range(_STEPS):
            nxt = c * (x + 1)
            if nxt > V * (x + 1 - r):
                return x, c
            x, c = x + 1, nxt // (x + 1 - r)
        lo, up = x, y - 1
    while up - lo > 1:
        mid = (lo + up) // 2
        if perm(mid, r) <= V:
            lo = mid
        else:
            up = mid
    return lo, perm(lo, r)


@dataclass(frozen=True)
class ArrangementIndex:
    """Position of an arrangement in the lexicographic order of all C(K^2, n)."""

    value: int
    domain_size: int

    def __post_init__(self):
        if not 0 <= self.value < self.domain_size:
            raise ValueError("index outside [0, domain_size)")


def rank_arrangement(a: GridArrangement) -> ArrangementIndex:
    """Rank over row-major cell ids in the combinatorial number system."""
    m = a.K * a.K
    return ArrangementIndex(rank_combination(a.cells(), m), comb(m, a.n))


def unrank_arrangement(index: int | ArrangementIndex, K: int, n: int) -> GridArrangement:
    """Inverse of rank_arrangement.  K and n are checked first, so an
    oversized grid costs no unranking."""
    check_grid(K, n)
    value = index.value if isinstance(index, ArrangementIndex) else index
    return GridArrangement.from_cells(K, unrank_combination(value, n, K * K))


@lru_cache(maxsize=128)
def _comb_bits(m: int, k: int) -> int:
    """ceil(log2 C(m, k)), the width of a rank among the k-subsets of
    range(m).  Cached, as a bit count: every codec round trip at one
    (K, n) asks for the same few widths, and C(2^40, 200) alone takes
    about 0.1 ms."""
    return ceil_log2(comb(m, k))


def baseline_length(K: int, n: int) -> int:
    """ceil(log2 C(K^2, n)): bits needed to index an arbitrary arrangement."""
    if n > K * K:
        raise ValueError("n exceeds the number of grid cells")
    return _comb_bits(K * K, n)
