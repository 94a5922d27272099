"""Bit strings, self-delimiting codes, and big-integer arrangement ranking.

Naturals and binary strings are identified by the bijection
0 <-> "", 1 <-> "0", 2 <-> "1", 3 <-> "00", 4 <-> "01", ... so that a
natural m maps to a string of exactly floor(log2(m+1)) bits.  On top of
that bijection:

* ``sd_bar(x)``   = 1^len(x) 0 x                 (length 2*len(x) + 1)
* ``sd_prime(x)`` = sd_bar(nat_to_string(len(x))) x
  (length len(x) + 2*floor(log2(len(x)+1)) + 1)
* ``pair(x, y)``  = sd_prime(x) y   -- y's extent is the remaining stream

Arrangements are ranked in the combinatorial number system over row-major
cell ids, entirely in exact integer arithmetic; ``baseline_length(K, n)``
is the exact ceil(log2 C(K^2, n)), the incompressible description size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .geometry import GridArrangement, GridPoint


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

    def __len__(self) -> int:
        return len(self.bits)

    def __add__(self, other: "BitString") -> "BitString":
        return BitString(self.bits + other.bits)

    def __getitem__(self, idx) -> "BitString":
        return BitString(self.bits[idx])

    def __iter__(self):
        return iter(self.bits)

    def to_int(self) -> int:
        """Value of the bits as a big-endian unsigned integer (empty -> 0)."""
        return int(self.bits, 2) if self.bits else 0

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        """Fixed-width big-endian encoding; width 0 encodes only value 0."""
        if value < 0 or (width >= 0 and value >> width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        return cls(format(value, f"0{width}b") if width else "")

    def to_hex(self) -> str:
        """Serialize as '<decimal bit length>:<hex nibbles>', the final
        partial nibble padded with zero bits."""
        n = len(self.bits)
        padded = self.bits + "0" * (-n % 4)
        digits = "".join(format(int(padded[i : i + 4], 2), "x") for i in range(0, len(padded), 4))
        return f"{n}:{digits}"

    @classmethod
    def from_hex(cls, text: str) -> "BitString":
        try:
            length_s, digits = text.strip().split(":", 1)
            n = int(length_s)
        except ValueError:
            raise ValueError(f"malformed bit string serialization: {text!r}") from None
        if n < 0 or len(digits) != (n + 3) // 4:
            raise ValueError(f"bit length {n} does not match {len(digits)} hex digits")
        bits = "".join(format(int(d, 16), "04b") for d in digits)
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

    def read(self, k: int) -> BitString:
        if k < 0:
            raise ValueError("cannot read a negative number of bits")
        if self.pos + k > len(self._bits):
            raise DecodeError(
                f"stream ends early: wanted {k} bits at position {self.pos}, "
                f"only {self.remaining} remain"
            )
        out = self._bits[self.pos : self.pos + k]
        self.pos += k
        return BitString(out)

    def read_uint(self, width: int) -> int:
        return self.read(width).to_int()

    def expect_end(self):
        if self.pos != len(self._bits):
            raise DecodeError(f"{self.remaining} trailing bits at position {self.pos}")


def nat_to_string(m: int) -> BitString:
    """Bijection N -> {0,1}*: write m+1 in binary and drop the leading 1."""
    if m < 0:
        raise ValueError("naturals only")
    b = bin(m + 1)[3:]  # strip '0b1'
    return BitString(b)


def string_to_nat(x: BitString) -> int:
    """Inverse of nat_to_string."""
    return int("1" + x.bits, 2) - 1


def sd_bar(x: BitString) -> BitString:
    """Self-delimiting code 1^n 0 x for a string x of length n."""
    return BitString("1" * len(x) + "0" + x.bits)


def sd_unbar(reader: BitReader) -> BitString:
    """Consume one sd_bar code word from the stream and return its payload."""
    n = 0
    while True:
        bit = reader.read(1).bits
        if bit == "0":
            break
        n += 1
    return reader.read(n)


def sd_prime(x: BitString) -> BitString:
    """Standard self-delimiting code: sd_bar of the encoded length, then x."""
    return sd_bar(nat_to_string(len(x))) + x


def sd_unprime(reader: BitReader) -> BitString:
    n = string_to_nat(sd_unbar(reader))
    return reader.read(n)


def sd_prime_length(n: int) -> int:
    """Exact length of sd_prime on an n-bit payload."""
    return n + 2 * (n + 1).bit_length() - 1  # n + 2*floor(log2(n+1)) + 1


def pair(x: BitString, y: BitString) -> BitString:
    """<x, y> = sd_prime(x) y; total length l(y) + l(x) + 2 l(l(x)) + 1."""
    return sd_prime(x) + y


def unpair(z: BitString) -> tuple[BitString, BitString]:
    """Split <x, y>: x is self-delimiting, y is the remainder of the stream."""
    reader = BitReader(z)
    x = sd_unprime(reader)
    y = reader.read(reader.remaining)
    return x, y


def rank_combination(cells: tuple[int, ...], m: int) -> int:
    """Lexicographic rank of a strictly increasing combination from range(m)."""
    k = len(cells)
    rank = 0
    prev = -1
    for i, c in enumerate(cells):
        if not (prev < c < m):
            raise ValueError("cells must be strictly increasing within range(m)")
        rem = k - i
        rank += comb(m - prev - 1, rem) - comb(m - c, rem)
        prev = c
    return rank


def unrank_combination(rank: int, k: int, m: int) -> tuple[int, ...]:
    """Inverse of rank_combination; binary-searches each element."""
    if not 0 <= rank < comb(m, k):
        raise ValueError(f"rank {rank} out of range for C({m}, {k})")
    out = []
    prev = -1
    for i in range(k):
        rem = k - i
        base = comb(m - prev - 1, rem)
        lo, hi = prev + 1, m - rem
        while lo < hi:
            mid = (lo + hi) // 2
            if base - comb(m - mid - 1, rem) > rank:
                hi = mid
            else:
                lo = mid + 1
        rank -= base - comb(m - lo, rem)
        out.append(lo)
        prev = lo
    return tuple(out)


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
    """Inverse of rank_arrangement."""
    value = index.value if isinstance(index, ArrangementIndex) else index
    cells = unrank_combination(value, n, K * K)
    pts = tuple(GridPoint(c % K, c // K) for c in cells)
    return GridArrangement(K, pts)


def baseline_length(K: int, n: int) -> int:
    """ceil(log2 C(K^2, n)): bits needed to index an arbitrary arrangement."""
    if n > K * K:
        raise ValueError("n exceeds the number of grid cells")
    return ceil_log2(comb(K * K, n))
