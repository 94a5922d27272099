"""SplitMix64 against the scalar formula: word k of a stream with state s
is ``mix64((s + k * GOLDEN) & MASK64)``.  The generator's scalar draws
must hand out exactly those words without the numpy word source, ``below``
must reject and retry as the scalar loop does, ``take`` must continue the
same stream, and ``word_block`` rows must be the streams' leading words."""

import warnings

import numpy as np
import pytest

from heilbronn import rng as rng_module
from heilbronn.rng import (
    GOLDEN,
    MASK64,
    SplitMix64,
    derive_seed,
    mix64,
    stream_rng,
    uniform_block,
    word_block,
)

STATES = [0, 1, MASK64, derive_seed(2024, 7)]
BOUNDS = [1, 2, 3, 12, 2**40 + 1, 2**64]


class ScalarSplitMix64:
    """An independent copy of the textbook generator that counts its words."""

    def __init__(self, state: int):
        self.state = state & MASK64
        self.words = 0  # words drawn so far

    def next64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        self.words += 1
        return mix64(self.state)

    def below(self, bound: int) -> int:
        bits = (bound - 1).bit_length()
        if bits == 0:
            return 0
        while True:
            r = self.next64() >> (64 - bits)
            if r < bound:
                return r


@pytest.mark.parametrize("state", STATES)
def test_next64_is_the_counter_formula_across_refills(state):
    rng = SplitMix64(state)
    for k in range(1, 1010):
        assert rng.next64() == mix64((state + k * GOLDEN) & MASK64), k


@pytest.mark.parametrize("state", STATES)
def test_uniform_is_the_top_53_bits(state):
    rng, ref = SplitMix64(state), ScalarSplitMix64(state)
    for _ in range(1009):
        assert rng.uniform() == (ref.next64() >> 11) * 2.0**-53


@pytest.mark.parametrize("bound", BOUNDS)
def test_below_matches_the_scalar_loop_across_refills(bound):
    """Skip 0..15 words, then draw ``below`` until 1009 words are used."""
    for skip in range(16):
        for state in STATES:
            rng, ref = SplitMix64(state), ScalarSplitMix64(state)
            for _ in range(skip):
                assert rng.next64() == ref.next64()
            while ref.words < 1009:
                assert rng.below(bound) == ref.below(bound)
                if bound == 1:  # below(1) draws no word
                    assert rng.next64() == ref.next64()
            assert rng.next64() == ref.next64()  # both consumed the same words


@pytest.mark.parametrize("bound", [2**64 + 1, 2**65, 2**200])
def test_below_rejects_a_bound_beyond_one_word(bound):
    with pytest.raises(ValueError, match=r"at most 2\*\*64"):
        stream_rng(0, 0).below(bound)


@pytest.mark.parametrize("bound", [0, -1])
def test_below_rejects_a_nonpositive_bound(bound):
    with pytest.raises(ValueError, match="positive"):
        stream_rng(0, 0).below(bound)


@pytest.mark.parametrize("seed", [0, MASK64, derive_seed(5, 5)])
@pytest.mark.parametrize("start", [0, 1000, 2**63 - 2])
def test_word_block_rows_are_the_scalar_streams(seed, start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails
        block = word_block(seed, start, start + 3, 513)
    assert block.shape == (3, 513) and block.dtype == np.uint64
    for r in range(3):
        ref = ScalarSplitMix64(derive_seed(seed, start + r))
        assert block[r].tolist() == [ref.next64() for _ in range(513)]


def test_uniform_block_is_the_word_block_top_bits():
    words = word_block(9, 4, 10, 7)
    want = [[(w >> 11) * 2.0**-53 for w in row] for row in words.tolist()]
    assert uniform_block(9, 4, 10, 7).tolist() == want


@pytest.mark.parametrize("width", [0, 1, 5])
def test_empty_word_block(width):
    block = word_block(1, 5, 5, width)
    assert block.shape == (0, width) and block.dtype == np.uint64


@pytest.mark.parametrize("drawn", [0, 1, 5])
@pytest.mark.parametrize("k", [0, 1, 15, 16, 17, 300, 1000])
def test_take_is_k_next64_calls(drawn, k):
    # MASK64 and the large states catch a take that does not wrap its state
    for state in [derive_seed(7, 3), *STATES]:
        rng, ref = SplitMix64(state), ScalarSplitMix64(state)
        for _ in range(drawn):
            assert rng.next64() == ref.next64()
        assert rng.take(k) == [ref.next64() for _ in range(k)]
        # take, below and uniform continue the same stream after the block
        assert rng.take(2) == [ref.next64() for _ in range(2)]
        for _ in range(40):
            assert rng.below(12) == ref.below(12)
            assert rng.uniform() == (ref.next64() >> 11) * 2.0**-53
        assert rng.next64() == ref.next64()


@pytest.mark.parametrize("state", STATES)
def test_scalar_draws_do_not_use_the_word_source(state, monkeypatch):
    def refuse(*args):
        raise AssertionError("_stream_words called by a scalar draw")

    monkeypatch.setattr(rng_module, "_stream_words", refuse)
    rng, ref = SplitMix64(state), ScalarSplitMix64(state)
    for _ in range(100):
        assert rng.next64() == ref.next64()
        assert rng.uniform() == (ref.next64() >> 11) * 2.0**-53
        assert rng.below(12) == ref.below(12)
        assert rng.below(2**40 + 1) == ref.below(2**40 + 1)
