"""Deterministic, platform-independent random streams.

Every randomized routine in this package draws from SplitMix64, a 64-bit
generator with a closed-form output function, so identical (seed, stream_id)
pairs produce identical samples on every platform and Python version.
Uniform floats use the top 53 bits of one 64-bit word, giving the full
float64 lattice in [0, 1).

Stream derivation: the generator for stream ``s`` under master seed ``m``
starts from state ``mix(m XOR mix(s * GOLDEN))`` where ``mix`` is the
SplitMix64 finalizer and GOLDEN = 0x9E3779B97F4A7C15.  Distinct stream ids
therefore yield decorrelated, order-independent streams.

Seeds and stream ids are used modulo 2^64: seeds -1, 2^64 - 1 and
2^65 - 1 give the same streams, and so do stream ids -1 and 2^64 - 1.

The ``SplitMix64`` generator holds one 64-bit state; each word adds
GOLDEN to it and returns the finalizer ``mix64`` of the sum.  So the
generator is counter-based: word k (k >= 1) of a stream is
``mix(state + k * GOLDEN)``, a function of the counter alone.
``_stream_words`` computes such words for many streams and counters at
once in wrapping numpy uint64 arithmetic, bit-identical to the scalar
formula.  It has three users:

- ``uniform_block``: the leading uniforms of many streams, one row per
  Monte Carlo trial (through ``word_block``);
- the grid trials of ``montecarlo``, which shift the leading words of a
  block of streams to the bits ``below`` would keep (``word_block``);
- ``SplitMix64.take(k)``, which computes the generator's next k words at
  once and steps its state past them.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective scramble of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_GOLDEN_U64 = np.uint64(GOLDEN)


def _mix64_array(z: np.ndarray) -> None:
    """mix64 of every word of a uint64 array, in place; numpy array
    arithmetic wraps modulo 2^64 like the masks of the scalar version."""
    t = z >> _U30
    z ^= t
    z *= _M1
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, _U31, out=t)
    z ^= t


def _stream_words(states: np.ndarray, first: int, width: int) -> np.ndarray:
    """(len(states), width) uint64 array: row r holds words first ..
    first + width - 1 of the stream with state ``states[r]``, word k
    being the finalizer of ``states[r] + k * GOLDEN``."""
    steps = np.arange(width, dtype=np.uint64)
    steps *= _GOLDEN_U64
    steps += np.uint64(first * GOLDEN & MASK64)
    words = states[:, None] + steps
    _mix64_array(words)
    return words


class SplitMix64:
    """SplitMix64 sequence generator starting from an explicit state:
    each word adds GOLDEN to the state and returns its finalizer."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & MASK64

    def take(self, k: int) -> list[int]:
        """The next k words, first word first, as k ``next64()`` calls
        would return them, from one ``_stream_words`` call."""
        words = _stream_words(np.array([self._state], dtype=np.uint64), 1, k)[0].tolist()
        self._state = (self._state + k * GOLDEN) & MASK64
        return words

    def next64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float64 in [0, 1) built from 53 random bits."""
        return (self.next64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        """Unbiased uniform integer in [0, bound) via top-bits rejection;
        bound is at most 2^64, the range of one word."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = (bound - 1).bit_length()
        if bits > 64:
            raise ValueError(f"bound must be at most 2**64, got {bound}")
        if bits == 0:
            return 0
        shift = 64 - bits
        while True:
            r = self.next64() >> shift
            if r < bound:
                return r


def word_block(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) uint64 array; row r holds the first ``width``
    words of stream (seed, start + r), as ``next64()`` returns them."""
    state = np.arange(stop - start, dtype=np.uint64)
    state += np.uint64(start & MASK64)
    state *= _GOLDEN_U64
    _mix64_array(state)
    state ^= np.uint64(seed & MASK64)
    _mix64_array(state)  # derive_seed(seed, start + r)
    return _stream_words(state, 1, width)


def uniform_block(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) float64 array; row r holds the first ``width``
    ``uniform()`` values of stream (seed, start + r), bit for bit."""
    words = word_block(seed, start, stop, width)
    words >>= np.uint64(11)
    out = words.astype(np.float64)
    out *= 2.0**-53
    return out


def derive_seed(seed: int, tag: int) -> int:
    """Initial SplitMix64 state of stream (seed, tag), and the independent
    sub-seed of a tagged sub-experiment."""
    return mix64((seed & MASK64) ^ mix64((tag * GOLDEN) & MASK64))


def stream_rng(seed: int, stream_id: int) -> SplitMix64:
    """Generator for one stream under a master seed (see module docstring)."""
    return SplitMix64(derive_seed(seed, stream_id))
