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

SplitMix64 is counter-based: word k (k >= 1) of a stream is
``mix(state + k * GOLDEN)``, a function of the counter alone.  One word
source, ``_stream_words``, computes such words for many streams and
counters at once in wrapping numpy uint64 arithmetic, bit-identical to
the scalar formula.  It has three users:

- ``uniform_block``: the leading uniforms of many streams, one row per
  Monte Carlo trial (through ``word_block``);
- the grid trials of ``montecarlo``, which shift the leading words of a
  block of streams to the bits ``below`` would keep (``word_block``);
- the ``SplitMix64`` generator, which refills a word buffer with 16
  words, then twice as many each time up to ``_CHUNK``, and hands the
  words out one by one; ``take(k)`` hands out k at once, computing what
  the buffer lacks in one call.

The scalar finalizer ``mix64`` remains only for deriving stream states.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

#: words computed by the first refill of a ``SplitMix64`` buffer; each
#: later refill doubles it, up to ``_CHUNK`` words
_FIRST_REFILL = 16
_CHUNK = 256


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
    """SplitMix64 sequence generator starting from an explicit state.

    Words come from a buffer that ``_stream_words`` refills with the next
    consecutive counters, so the sequence is the scalar one: word k is the
    finalizer of ``state + k * GOLDEN``.  The first refill computes
    ``_FIRST_REFILL`` words and each later one twice as many, up to
    ``_CHUNK``, so a stream that draws a few words pays for a few.
    """

    __slots__ = ("_state", "_next", "_width", "_buf")

    def __init__(self, state: int):
        self._state = np.array([state & MASK64], dtype=np.uint64)
        self._next = 1  # counter of the first word of the next refill
        self._width = _FIRST_REFILL  # words of the next refill
        self._buf: list[int] = []  # pending words, the next one last

    def _refill(self) -> list[int]:
        width = self._width
        words = _stream_words(self._state, self._next, width)[0]
        self._next += width
        self._width = min(2 * width, _CHUNK)
        self._buf = buf = words[::-1].tolist()
        return buf

    def take(self, k: int) -> list[int]:
        """The next k words, first word first, as k ``next64()`` calls
        would return them: the buffered words, then the rest from one
        ``_stream_words`` call."""
        buf = self._buf
        cut = len(buf) - k
        if cut >= 0:
            words = buf[cut:]
            del buf[cut:]
            words.reverse()
            return words
        words = buf[::-1]
        buf.clear()
        words += _stream_words(self._state, self._next, -cut)[0].tolist()
        self._next -= cut
        return words

    def next64(self) -> int:
        try:
            return self._buf.pop()
        except IndexError:
            return self._refill().pop()

    def uniform(self) -> float:
        """Uniform float64 in [0, 1) built from 53 random bits."""
        try:
            word = self._buf.pop()
        except IndexError:
            word = self._refill().pop()
        return (word >> 11) * 2.0**-53

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
        buf = self._buf
        while True:
            try:
                r = buf.pop() >> shift
            except IndexError:
                buf = self._refill()
                r = buf.pop() >> shift
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
    _mix64_array(state)  # derive_state(seed, start + r)
    return _stream_words(state, 1, width)


def uniform_block(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) float64 array; row r holds the first ``width``
    ``uniform()`` values of stream (seed, start + r), bit for bit."""
    words = word_block(seed, start, stop, width)
    words >>= np.uint64(11)
    out = words.astype(np.float64)
    out *= 2.0**-53
    return out


def derive_state(seed: int, stream_id: int) -> int:
    """Initial SplitMix64 state for a (seed, stream) pair."""
    return mix64((seed & MASK64) ^ mix64((stream_id * GOLDEN) & MASK64))


def stream_rng(seed: int, stream_id: int) -> SplitMix64:
    """Generator for one stream under a master seed (see module docstring)."""
    return SplitMix64(derive_state(seed, stream_id))


def derive_seed(seed: int, tag: int) -> int:
    """Independent sub-seed for a tagged sub-experiment (same mixing rule)."""
    return derive_state(seed, tag)
