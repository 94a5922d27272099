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
``mix(state + k * GOLDEN)``, a function of the counter alone.  So
``uniform_block`` draws the leading uniforms of many streams at once in
wrapping numpy uint64 arithmetic, bit-identical to the scalar generator.
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


class SplitMix64:
    """SplitMix64 sequence generator starting from an explicit state."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & MASK64

    def next64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float64 in [0, 1) built from 53 random bits."""
        return (self.next64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        """Unbiased uniform integer in [0, bound) via top-bits rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = (bound - 1).bit_length()
        if bits == 0:
            return 0
        while True:
            r = self.next64() >> (64 - bits)
            if r < bound:
                return r


def _mix64_array(z: np.ndarray) -> None:
    """mix64 of every word of a uint64 array, in place; numpy array
    arithmetic wraps modulo 2^64 like the masks of the scalar version."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)


def uniform_block(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) float64 array; row r holds the first ``width``
    ``uniform()`` values of stream (seed, start + r), bit for bit."""
    state = np.arange(stop - start, dtype=np.uint64)
    state += np.uint64(start & MASK64)
    state *= np.uint64(GOLDEN)
    _mix64_array(state)
    state ^= np.uint64(seed & MASK64)
    _mix64_array(state)  # derive_state(seed, start + r)
    words = state[:, None] + np.arange(1, width + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    _mix64_array(words)
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
