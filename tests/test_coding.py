from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heilbronn import coding
from heilbronn.coding import (
    ArrangementIndex,
    BitReader,
    BitString,
    DecodeError,
    baseline_length,
    ceil_log2,
    nat_to_string,
    rank_arrangement,
    rank_combination,
    sd_bar,
    sd_naturals,
    sd_prime,
    sd_prime_length,
    sd_unbar,
    sd_unprime,
    string_to_nat,
    unrank_arrangement,
    unrank_combination,
)
from heilbronn.geometry import GridArrangement

from conftest import random_arrangement

bitstrings = st.text(alphabet="01", max_size=40).map(BitString)


class TestNatStringBijection:
    def test_correspondence_prefix(self):
        want = ["", "0", "1", "00", "01", "10", "11", "000"]
        assert [nat_to_string(m).bits for m in range(8)] == want

    def test_twelve_by_enumeration_oracle(self):
        # enumerate strings in length-then-lex order and take the 12th
        ordered = [""]
        length = 1
        while len(ordered) < 16:
            ordered.extend(
                format(v, f"0{length}b") for v in range(2**length)
            )
            length += 1
        assert ordered[12] == "101"
        assert nat_to_string(12).bits == "101"

    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip(self, m):
        assert string_to_nat(nat_to_string(m)) == m

    @given(st.integers(min_value=0, max_value=10**9))
    def test_length_identity(self, m):
        assert len(nat_to_string(m)) == (m + 1).bit_length() - 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^naturals only$"):
            nat_to_string(-1)


class TestSelfDelimiting:
    def test_bar_examples(self):
        assert sd_bar(BitString("")).bits == "0"
        assert sd_bar(BitString("0")).bits == "100"
        assert sd_bar(BitString("01")).bits == "11001"

    def test_prime_examples(self):
        assert sd_prime(BitString("")).bits == "0"
        assert sd_prime(BitString("01")).bits == "10101"

    @given(bitstrings)
    def test_bar_length(self, x):
        assert len(sd_bar(x)) == 2 * len(x) + 1

    @given(bitstrings)
    def test_prime_length(self, x):
        n = len(x)
        assert len(sd_prime(x)) == n + 2 * (n + 1).bit_length() - 1
        assert len(sd_prime(x)) == sd_prime_length(n)

    @given(bitstrings, bitstrings)
    def test_bar_stream_round_trip(self, x, rest):
        reader = BitReader(sd_bar(x) + rest)
        assert sd_unbar(reader) == x
        assert reader.remaining == len(rest)

    @given(bitstrings, bitstrings)
    def test_prime_stream_round_trip(self, x, rest):
        reader = BitReader(sd_prime(x) + rest)
        assert sd_unprime(reader) == x
        assert reader.remaining == len(rest)

    def test_thousand_random_prime_round_trips(self):
        from heilbronn.rng import stream_rng

        rng = stream_rng(3, 0)
        for _ in range(1000):
            x = BitString("".join("01"[rng.below(2)] for _ in range(rng.below(64))))
            reader = BitReader(sd_prime(x))
            assert sd_unprime(reader) == x
            reader.expect_end()

    def test_truncated_stream_errors(self):
        code = sd_bar(BitString("0110"))
        with pytest.raises(DecodeError, match="position"):
            sd_unbar(BitReader(code[:-1]))

    @pytest.mark.parametrize("bits,pos", [("", 0), ("1", 1), ("0111", 4), ("1111", 4)])
    def test_unterminated_run_fails_at_the_end(self, bits, pos):
        # the stream ends inside the run of 1s: the error names the end
        reader = BitReader(BitString(bits))
        reader.pos = bits.find("1") if "1" in bits else 0
        with pytest.raises(DecodeError, match=f"^stream ends early: wanted 1 bits at position {pos}, "
                                              "only 0 remain$"):
            sd_unbar(reader)
        assert reader.pos == pos

    def test_read_uint_parses_the_slice(self):
        reader = BitReader(BitString("1011000"))
        assert [reader.read_uint(w) for w in (0, 3, 1, 0, 2)] == [0, 5, 1, 0, 0]
        assert reader.pos == 6
        with pytest.raises(DecodeError, match="^stream ends early: wanted 2 bits at position 6, "
                                              "only 1 remain$"):
            reader.read_uint(2)
        with pytest.raises(ValueError, match="negative"):
            reader.read_uint(-1)

    @pytest.mark.parametrize("code_fn", [sd_bar, sd_prime])
    def test_prefix_free_exhaustive(self, code_fn):
        # all payloads of length <= 12; sorted-adjacency detects any prefix pair
        words = []
        for length in range(13):
            for v in range(2**length):
                words.append(code_fn(BitString(format(v, f"0{length}b") if length else "")).bits)
        assert len(set(words)) == len(words)
        words.sort()
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a)


# 0, 1, 2, then 2^j - 2, 2^j - 1 and 2^j for j <= 70, and one 10^4-bit value
SD_NATURALS = [0, 1, 2, *(v for j in range(1, 71) for v in ((1 << j) - 2, (1 << j) - 1, 1 << j)),
               int("1" + "0110" * 2499 + "101", 2)]

# the DecodeError of each proper prefix of the codes of 0, 5 and 300, as
# string_to_nat(sd_unprime(reader)) read three times raised them before
# the one-pass reader existed
SD_PREFIX_ERRORS = {
    0: "stream ends early: wanted 1 bits at position 0, only 0 remain",
    1: "stream ends early: wanted 1 bits at position 1, only 0 remain",
    2: "stream ends early: wanted 1 bits at position 2, only 0 remain",
    3: "stream ends early: wanted 1 bits at position 3, only 0 remain",
    4: "stream ends early: wanted 2 bits at position 4, only 0 remain",
    5: "stream ends early: wanted 2 bits at position 4, only 1 remain",
    6: "stream ends early: wanted 1 bits at position 6, only 0 remain",
    7: "stream ends early: wanted 1 bits at position 7, only 0 remain",
    8: "stream ends early: wanted 1 bits at position 8, only 0 remain",
    9: "stream ends early: wanted 1 bits at position 9, only 0 remain",
    10: "stream ends early: wanted 3 bits at position 10, only 0 remain",
    11: "stream ends early: wanted 3 bits at position 10, only 1 remain",
    12: "stream ends early: wanted 3 bits at position 10, only 2 remain",
    **{cut: f"stream ends early: wanted 8 bits at position 13, only {cut - 13} remain" for cut in range(13, 21)},
}


def _decode_error(read, bits: BitString, count: int) -> str:
    """The message of the DecodeError that reading ``count`` naturals with
    ``read`` raises on ``bits``."""
    reader = BitReader(bits)
    with pytest.raises(DecodeError) as exc:
        for _ in range(count):
            read(reader)
    return str(exc.value)


def _read_by_parts(reader: BitReader) -> int:
    # the two-step read that read_sd_natural must match: sd_unbar for the
    # payload length, then the payload
    return string_to_nat(reader.read(string_to_nat(sd_unbar(reader))))


class TestSelfDelimitingNaturals:
    def test_writer_is_the_joined_codes(self):
        want = BitString.join(sd_prime(nat_to_string(m)) for m in SD_NATURALS)
        assert sd_naturals(SD_NATURALS) == want
        assert sd_naturals(iter(SD_NATURALS)) == want
        assert sd_naturals([]) == BitString()
        for m in SD_NATURALS:
            assert sd_naturals([m]) == sd_prime(nat_to_string(m))

    def test_reader_inverts_the_writer(self):
        reader = BitReader(sd_naturals(SD_NATURALS) + BitString("1"))
        assert [reader.read_sd_natural() for _ in SD_NATURALS] == SD_NATURALS
        assert reader.remaining == 1

    def test_prefix_errors_match_the_recorded_messages(self):
        code = sd_naturals([0, 5, 300])
        assert code.bits == "010110111000100101101"
        assert sorted(SD_PREFIX_ERRORS) == list(range(len(code)))
        for cut, want in SD_PREFIX_ERRORS.items():
            assert _decode_error(BitReader.read_sd_natural, code[:cut], 3) == want
            assert _decode_error(_read_by_parts, code[:cut], 3) == want

    def test_every_proper_prefix_fails_as_the_reader_by_parts(self):
        # each natural after a 7, so that its code starts off position 0
        for m in SD_NATURALS:
            code = sd_naturals([7, m])
            for cut in range(len(code)):
                got = _decode_error(BitReader.read_sd_natural, code[:cut], 2)
                assert got == _decode_error(_read_by_parts, code[:cut], 2), (m, cut)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^naturals only$"):
            sd_naturals([3, -1])


class TestBitStringSerialization:
    def test_hex_example(self):
        assert BitString("10101").to_hex() == "5:a8"
        assert BitString.from_hex("5:a8") == BitString("10101")

    def test_empty(self):
        assert BitString("").to_hex() == "0:"
        assert BitString.from_hex("0:") == BitString("")

    @given(bitstrings)
    def test_round_trip(self, x):
        assert BitString.from_hex(x.to_hex()) == x

    @given(bitstrings, st.booleans())
    def test_hex_matches_nibble_by_nibble_oracle(self, x, upper):
        padded = x.bits + "0" * (-len(x) % 4)
        digits = "".join(format(int(padded[i : i + 4], 2), "x") for i in range(0, len(padded), 4))
        assert x.to_hex() == f"{len(x)}:{digits}"
        text = f"{len(x)}:{digits.upper() if upper else digits}"
        assert BitString.from_hex(text) == x

    @given(st.lists(bitstrings, max_size=6))
    def test_join_is_concatenation(self, parts):
        assert BitString.join(parts) == sum(parts, BitString())
        assert BitString.join(iter(parts)) == BitString.join(parts)

    def test_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            BitString.from_hex("1:9")  # 1001: nonzero pad bits

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            BitString.from_hex("nonsense")
        with pytest.raises(ValueError):
            BitString.from_hex("8:a")  # wrong digit count

    @pytest.mark.parametrize("text", ["+5:a8", "0_5:a8", "\u0665:a8", "5:\u0665\u0660"])
    def test_rejects_non_ascii_digits_signs_and_underscores(self, text):
        with pytest.raises(ValueError, match="^malformed bit string serialization"):
            BitString.from_hex(text)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitString("012")

    def test_from_int_rejects_a_value_wider_than_its_field(self):
        with pytest.raises(ValueError, match="^value 4 does not fit in 2 bits$"):
            BitString.from_int(4, 2)


class TestRanking:
    def test_first_arrangement(self):
        a = GridArrangement.from_points(2, [(0, 0), (1, 0)])  # cells {0, 1}
        assert rank_arrangement(a).value == 0

    def test_rank5_by_enumeration(self):
        # enumerate all C(4,2)=6 cell pairs lexicographically
        pairs = list(combinations(range(4), 2))
        assert pairs[5] == (2, 3)
        a = unrank_arrangement(5, 2, 2)
        assert [(p.x, p.y) for p in a.points] == [(0, 1), (1, 1)]

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_bijection_small_grids(self, K, n):
        m = K * K
        for rank, cells in enumerate(combinations(range(m), n)):
            assert rank_combination(cells, m) == rank
            assert unrank_combination(rank, n, m) == cells
            a = unrank_arrangement(rank, K, n)
            assert rank_arrangement(a).value == rank

    def test_thousand_random_round_trips_K1024(self):
        for t in range(1000):
            a = random_arrangement(1024, 8, seed=11, stream=t)
            idx = rank_arrangement(a)
            assert unrank_arrangement(idx, 1024, 8) == a

    def test_big_grid_round_trip(self):
        for t in range(25):
            a = random_arrangement(1 << 20, 8, seed=12, stream=t)
            assert unrank_arrangement(rank_arrangement(a), 1 << 20, 8) == a

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            unrank_arrangement(comb(4, 2), 2, 2)
        with pytest.raises(ValueError):
            unrank_arrangement(-1, 2, 2)
        with pytest.raises(ValueError):
            ArrangementIndex(6, 6)

    def test_grid_checked_before_unranking(self, monkeypatch):
        def unrank_combination(*args):
            raise AssertionError("unranked before the grid check")

        monkeypatch.setattr(coding, "unrank_combination", unrank_combination)
        for K, n in [(1 << 31, 20000), (1, 1), (4, 17), (4, -1)]:
            with pytest.raises(ValueError, match=f"no arrangement of n={n} pebbles on a K={K} grid"):
                unrank_arrangement(0, K, n)


class TestBaselineLength:
    def test_examples(self):
        assert baseline_length(2, 2) == 3  # ceil(log2 6)
        assert baseline_length(2, 4) == 0  # unique arrangement

    def test_big_integer_oracle(self):
        # exact big-integer binomial, then ceiling log
        value = comb(1024 * 1024, 8)
        expect = 0
        while (1 << expect) < value:
            expect += 1
        assert baseline_length(1024, 8) == expect

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            baseline_length(2, 5)

    @given(st.integers(min_value=1, max_value=10**30))
    def test_ceil_log2_matches_definition(self, m):
        k = ceil_log2(m)
        assert 2**k >= m
        assert k == 0 or 2 ** (k - 1) < m

    @pytest.mark.parametrize("m", [0, -5])
    def test_ceil_log2_rejects_nonpositive(self, m):
        with pytest.raises(ValueError, match="^ceil_log2 requires a positive integer$"):
            ceil_log2(m)


class TestTextChecks:
    """Library operations build their text unchecked; the public entries
    still check theirs."""

    @pytest.mark.parametrize("text", ["012", "2", "0 1", " 01", "01\n", "1a", "0b1", "٠١", "O1"])
    def test_constructor_rejects_non_binary(self, text):
        with pytest.raises(ValueError, match="^bits must contain only '0' and '1'$"):
            BitString(text)

    @pytest.mark.parametrize("text", ["nonsense", "2:0x", "4:g", "-4:a", "4:a٠"])
    def test_from_hex_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="^malformed bit string serialization"):
            BitString.from_hex(text)

    @given(bitstrings, bitstrings, st.integers(0, 2**40), st.integers(0, 45))
    def test_built_text_equals_checked_text(self, x, y, value, k):
        built = [
            (x + y, x.bits + y.bits),
            (x[1:], x.bits[1:]),
            (BitString.join([x, y, x]), x.bits + y.bits + x.bits),
            (BitString.from_int(value, 41), format(value, "041b")),
            (nat_to_string(value), bin(value + 1)[3:]),
            (sd_bar(x), "1" * len(x) + "0" + x.bits),
        ]
        reader = BitReader(x + y)
        if k <= len(x) + len(y):
            built.append((reader.read(k), (x.bits + y.bits)[:k]))
        for got, text in built:
            assert type(got) is BitString
            assert got == BitString(text) and hash(got) == hash(BitString(text))


class TestCachedBaseline:
    def test_repeats_compute_no_binomial(self, monkeypatch):
        calls = []
        real = coding.comb

        def counted(m, k):
            calls.append((m, k))
            return real(m, k)

        monkeypatch.setattr(coding, "comb", counted)
        coding._comb_bits.cache_clear()
        first = [baseline_length(1024, 8), baseline_length(2**20, 200)]
        assert [baseline_length(1024, 8), baseline_length(2**20, 200)] == first
        assert first == [ceil_log2(comb(1024**2, 8)), ceil_log2(comb(2**40, 200))]
        assert calls == [(1024**2, 8), (2**40, 200)]
