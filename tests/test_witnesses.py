import re
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heilbronn import coding, witnesses
from heilbronn.coding import BitString, DecodeError, baseline_length, ceil_log2, rank_combination
from heilbronn.geometry import (
    MAX_GRID_SIDE,
    GridArrangement,
    GridPoint,
    min_area_triangle,
    twice_signed_area,
)
from heilbronn.witnesses import (
    WITNESS_KINDS,
    _min_payload_bits,
    _theorem2_widths,
    decode_witness,
    encode_collinear_witness,
    encode_rowline_witness,
    encode_small_triangle_witness,
    encode_theorem2,
    encode_witness,
    find_collinear_triple,
    small_triangle_geometry,
)

from conftest import (
    distinct_row_arrangement,
    planted_collinear,
    planted_shared_row,
    planted_small_triangle,
    random_arrangement,
)

K20 = 1 << 20


class TestFindCollinear:
    def test_first_triple(self):
        # stored row-major, (5, 0) sorts between (0, 0) and (1, 1)
        a = GridArrangement.from_points(8, [(0, 0), (1, 1), (2, 2), (5, 0)])
        triple = find_collinear_triple(a)
        assert triple == (0, 2, 3)
        assert {(a.points[i].x, a.points[i].y) for i in triple} == {(0, 0), (1, 1), (2, 2)}

    def test_corners_absent(self):
        a = GridArrangement.from_points(4, [(0, 0), (3, 0), (0, 3), (3, 3)])
        assert find_collinear_triple(a) is None

    def test_fewer_than_three_points(self):
        assert find_collinear_triple(GridArrangement.from_points(4, [])) is None
        assert find_collinear_triple(GridArrangement.from_points(4, [(1, 2)])) is None
        assert find_collinear_triple(GridArrangement.from_points(4, [(0, 0), (3, 3)])) is None

    def test_first_of_several_on_dense_grids(self):
        # K=5, n=8 arrangements often hold several collinear triples; the
        # search must return the first in lexicographic index order
        several = 0
        for t in range(60):
            a = random_arrangement(5, 8, seed=11, stream=t)
            hits = [ijk for ijk in combinations(range(a.n), 3)
                    if twice_signed_area(*(a.points[i] for i in ijk)) == 0]
            several += len(hits) > 1
            assert find_collinear_triple(a) == (hits[0] if hits else None)
        assert several >= 20

    def test_rare_on_big_grids(self):
        # Monte Carlo oracle: collinear triples are rare at K = 2^20
        hits = sum(
            find_collinear_triple(random_arrangement(K20, 16, seed=5, stream=t)) is not None
            for t in range(200)
        )
        assert hits <= 4  # observed 0; generous head-room


class TestCollinearWitness:
    def test_smallest_case_round_trip(self):
        a = GridArrangement.from_points(4, [(0, 0), (1, 1), (2, 2)])
        rep = encode_collinear_witness(a)
        assert decode_witness("collinear", rep.payload, 4, 3) == a
        assert rep.witness_length == len(rep.payload)

    def test_planted_k1024_savings(self):
        for t in range(20):
            a = planted_collinear(1024, 8, seed=21, stream=t)
            rep = encode_collinear_witness(a)
            assert decode_witness("collinear", rep.payload, 1024, 8) == a
            assert rep.savings >= 1

    def test_planted_k2pow20_savings_exact_arithmetic(self):
        # worst case: R indexed among <= K line points costs 20 bits
        bound = (
            baseline_length(K20, 8)
            - (ceil_log2(comb(K20 * K20, 7)) + ceil_log2(comb(7, 2)) + 20)
        )
        assert bound >= 4
        a = planted_collinear(K20, 8, seed=22)
        rep = encode_collinear_witness(a)
        assert rep.savings >= bound >= 4
        assert decode_witness("collinear", rep.payload, K20, 8) == a

    def test_requires_collinear_triple(self):
        a = GridArrangement.from_points(4, [(0, 0), (3, 0), (0, 3), (3, 3)])
        with pytest.raises(ValueError, match="collinear"):
            encode_collinear_witness(a)


class TestRowlineWitness:
    def test_smallest_case_round_trip(self):
        a = GridArrangement.from_points(4, [(0, 2), (3, 2)])
        rep = encode_rowline_witness(a)
        assert decode_witness("rowline", rep.payload, 4, 2) == a

    def test_planted_k2pow20_savings(self):
        bound = (
            baseline_length(K20, 8)
            - (ceil_log2(comb(K20 * K20, 7)) + ceil_log2(7) + 20)
        )
        assert bound > 0
        a = planted_shared_row(K20, 8, seed=23)
        rep = encode_rowline_witness(a)
        assert rep.savings >= bound
        assert decode_witness("rowline", rep.payload, K20, 8) == a

    def test_distinct_rows_error(self):
        a = GridArrangement.from_points(8, [(0, 0), (3, 1), (5, 2), (1, 3)])
        with pytest.raises(ValueError, match="grid line"):
            encode_rowline_witness(a)


class TestSmallTriangleGeometry:
    def test_worked_example(self):
        g = small_triangle_geometry(GridPoint(0, 0), GridPoint(3, 0), GridPoint(1, 1))
        assert (g.g, g.T, g.f) == (3, 3, 1)
        assert (g.P, g.Q) == (GridPoint(0, 0), GridPoint(3, 0))

    def test_invariants_random(self):
        for t in range(40):
            a = random_arrangement(256, 3, seed=31, stream=t)
            p, q, r = a.points
            try:
                geo = small_triangle_geometry(p, q, r)
            except ValueError:
                continue  # collinear
            assert geo.f * geo.g == geo.T
            assert geo.g == gcd(geo.Q.x - geo.P.x, geo.Q.y - geo.P.y)
            # PQ is a longest side
            d2 = lambda u, v: (u.x - v.x) ** 2 + (u.y - v.y) ** 2
            pq = d2(geo.P, geo.Q)
            assert pq >= d2(geo.P, geo.R) and pq >= d2(geo.Q, geo.R)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            small_triangle_geometry(GridPoint(0, 0), GridPoint(1, 1), GridPoint(2, 2))


class TestSmallTriangleWitness:
    def test_worked_example_round_trip(self):
        a = GridArrangement.from_points(4, [(0, 0), (3, 0), (1, 1)])
        rep = encode_small_triangle_witness(a, (0, 1, 2))
        assert decode_witness("small_triangle", rep.payload, 4, 3) == a

    def test_planted_unit_area_savings(self):
        a, triple = planted_small_triangle(K20, 8, seed=32, T=1)
        rep = encode_small_triangle_witness(a, triple)
        assert rep.savings >= 5
        assert decode_witness("small_triangle", rep.payload, K20, 8) == a

    def test_big_triangle_no_compression(self):
        # a triple with twice-area comparable to the whole square
        K = 1024
        pts = [(0, 0), (K - 1, 0), (0, K - 1), (K - 1, K - 1), (517, 200)]
        a = GridArrangement.from_points(K, pts)
        corners = tuple(
            sorted(a.points.index(GridPoint(x, y)) for x, y in [(0, 0), (K - 1, 0), (0, K - 1)])
        )
        rep = encode_small_triangle_witness(a, corners)
        assert rep.savings < 0
        assert decode_witness("small_triangle", rep.payload, K, 5) == a

    def test_length_inequality_with_documented_overhead(self):
        # witness <= baseline - (ceil(lg((K^2-n+1)/n)) - ceil(lg C(n,2)) - ceil(lg 2T)) + overhead
        # with overhead = 3 + 2*floor(log2(floor(log2(2T)) + 1))
        for t in range(30):
            a = random_arrangement(512, 8, seed=33, stream=t)
            rep_tri = min_area_triangle(a, mode="fast")
            if rep_tri.twice_area == 0:
                continue
            rep = encode_small_triangle_witness(a, rep_tri.indices)
            K, n, T = a.K, a.n, int(rep_tri.twice_area)
            lg2T = (2 * T).bit_length() - 1  # floor
            overhead = 1 + 2 * (lg2T + 1).bit_length()
            gap = (
                ceil_log2((K * K - n + 1) // n)
                - ceil_log2(comb(n, 2))
                - ceil_log2(2 * T)
            )
            assert rep.witness_length <= rep.baseline_length - gap + overhead

    def test_min_area_triple_default(self):
        a, triple = planted_small_triangle(1024, 8, seed=34, T=1)
        rep = encode_small_triangle_witness(a)  # defaults to the min-area triple
        assert decode_witness("small_triangle", rep.payload, 1024, 8) == a

    def test_degenerate_triple_rejected(self):
        a = GridArrangement.from_points(8, [(0, 0), (1, 1), (2, 2), (5, 0)])
        with pytest.raises(ValueError, match="degenerate"):
            encode_small_triangle_witness(a, (0, 2, 3))  # the collinear triple


# each kind with its encoder and an arrangement that holds its structure
ENCODERS = {
    "collinear": (encode_collinear_witness, lambda: planted_collinear(1024, 8, seed=61)),
    "rowline": (encode_rowline_witness, lambda: planted_shared_row(1024, 8, seed=62)),
    "small_triangle": (encode_small_triangle_witness, lambda: planted_small_triangle(1024, 8, seed=63)[0]),
    "theorem2": (encode_theorem2, lambda: distinct_row_arrangement(1024, 8, seed=64)),
}


class TestEncodeWitness:
    def test_every_kind_has_an_encoder(self):
        assert tuple(ENCODERS) == WITNESS_KINDS

    @pytest.mark.parametrize("kind", WITNESS_KINDS)
    def test_matches_the_kind_encoder_and_decodes(self, kind):
        encode, make = ENCODERS[kind]
        a = make()
        rep = encode_witness(kind, a)
        assert rep == encode(a)
        assert rep.kind == kind
        assert decode_witness(kind, rep.payload, a.K, a.n) == a

    def test_small_triangle_takes_a_triple(self):
        a, triple = planted_small_triangle(1024, 8, seed=65, T=3)
        rep = encode_witness("small_triangle", a, triple)
        assert rep == encode_small_triangle_witness(a, triple)
        assert decode_witness("small_triangle", rep.payload, 1024, 8) == a

    def test_unknown_kind(self):
        a = planted_collinear(1024, 8, seed=61)
        with pytest.raises(ValueError, match="^unknown witness kind 'mystery'$"):
            encode_witness("mystery", a)
        with pytest.raises(ValueError, match="^unknown witness kind 'mystery'$"):
            decode_witness("mystery", BitString("0"), 4, 3)

    @pytest.mark.parametrize("kind", ["collinear", "rowline", "theorem2"])
    def test_triple_applies_only_to_small_triangle(self, kind):
        a = ENCODERS[kind][1]()
        with pytest.raises(ValueError, match=f"^a triple applies only to small_triangle witnesses, not '{kind}'$"):
            encode_witness(kind, a, (0, 1, 2))


class TestPrefixCode:
    """The counting argument needs each kind's code to be injective: then
    at most m / 2^delta of the m = C(K^2, n) arrangements save delta bits.
    At K = 4, n = 4 no payload is shorter than the baseline, so
    prefix-freeness and the Kraft sum carry the check.  Decoders accept
    some payloads no encoder emits, so only encode-then-decode is checked."""

    @pytest.mark.parametrize("kind", WITNESS_KINDS)
    def test_every_arrangement_decodes_from_a_prefix_free_code(self, kind):
        K, n = 4, 4
        payloads = []
        for cells in combinations(range(K * K), n):
            a = GridArrangement.from_cells(K, cells)
            try:
                payload = encode_witness(kind, a).payload
            except ValueError:  # the arrangement lacks the kind's structure
                continue
            assert decode_witness(kind, payload, K, n) == a
            payloads.append(payload.bits)
        if kind == "theorem2":
            assert len(payloads) == K**n  # the arrangements with distinct rows
        # in sorted order, a word that is a prefix of another precedes its
        # immediate successor as a prefix of it
        words = sorted(payloads)
        assert all(not b.startswith(a) for a, b in zip(words, words[1:]))
        longest = max(map(len, words))
        assert sum(1 << (longest - len(w)) for w in words) <= 1 << longest


class TestDecodeErrors:
    @pytest.mark.parametrize("kind,make", [
        ("collinear", lambda: (planted_collinear(1024, 8, seed=41), encode_collinear_witness)),
        ("rowline", lambda: (planted_shared_row(1024, 8, seed=42), encode_rowline_witness)),
        ("small_triangle", lambda: (planted_small_triangle(1024, 8, seed=43)[0],
                                    encode_small_triangle_witness)),
    ])
    def test_truncation_always_errors(self, kind, make):
        a, enc = make()
        payload = enc(a).payload
        for cut in (0, 1, len(payload) // 2, len(payload) - 1):
            with pytest.raises(DecodeError):
                decode_witness(kind, payload[:cut], 1024, 8)

    def test_trailing_bits_error(self):
        a = planted_collinear(1024, 8, seed=44)
        payload = encode_collinear_witness(a).payload
        with pytest.raises(DecodeError, match="trailing"):
            decode_witness("collinear", payload + BitString("0"), 1024, 8)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(WITNESS_KINDS),
        K=st.integers(min_value=2, max_value=8),
        n=st.integers(min_value=1, max_value=10),
        bits=st.text(alphabet="01", max_size=64),
    )
    def test_random_payloads_decode_or_raise_decode_error(self, kind, K, n, bits):
        try:
            a = decode_witness(kind, BitString(bits), K, n)
        except DecodeError:
            return
        assert isinstance(a, GridArrangement)
        assert (a.K, a.n) == (K, n)
        assert all(0 <= p.x < K and 0 <= p.y < K for p in a.points)

    def test_collinear_pair_without_third_grid_point(self):
        # sub-arrangement {(0, 0), (1, 2)} (cells 0 and 7) on K=3: line(P, Q)
        # holds no other grid point, so no position for R can be decoded
        payload = BitString.from_int(rank_combination((0, 7), 9), ceil_log2(comb(9, 2)))
        with pytest.raises(DecodeError, match="no third grid point"):
            decode_witness("collinear", payload, 3, 3)

    @pytest.mark.parametrize("P,Q,xs", [(0, 1, (2, 3, 4)), (1, 3, (0, 2, 4)), (3, 4, (0, 1, 2))])
    def test_collinear_slots_skip_p_and_q(self, P, Q, xs):
        # on row 0 of K=5 the line holds five grid points, P and Q take two
        # of them, and the 2-bit position names one of the other three
        sub = BitString.from_int(rank_combination((P, Q), 25), ceil_log2(comb(25, 2)))
        for pos, x in enumerate(xs):
            a = decode_witness("collinear", sub + BitString.from_int(pos, 2), 5, 3)
            assert {p.x for p in a.points} == {P, Q, x} and {p.y for p in a.points} == {0}
        with pytest.raises(DecodeError, match="^rank 3 out of range for 3 allowed positions$"):
            decode_witness("collinear", sub + BitString("11"), 5, 3)

    @pytest.mark.parametrize("kind, fields, K, n, message", [
        # pair field 6 of 3 bits, past C(4, 2) = 6
        ("collinear", [(0, 11), (6, 3), (0, 2)], 4, 5,
         "pair rank out of range at bit 14: rank 6 out of range for C(4, 2)"),
        # sub-arrangement {(0, 0), (1, 0)}, P = (0, 0), R lands on (1, 0)
        ("rowline", [(rank_combination((0, 1), 16), 7), (0, 1), (0, 2)], 4, 3,
         "decoded points are not a valid arrangement: duplicate pebble at (1, 0)"),
        ("rowline", [(rank_combination((0, 5, 10), 16), 10), (3, 2), (0, 2)], 4, 4,
         "pebble index 3 out of range at bit 12"),
        ("rowline", [(0, 6), (5, 3)], 6, 2, "row cell index 5 out of range at bit 9"),
        # P = (0, 0), Q = (1, 0), R at candidate 100, 51 rows below the grid
        ("small_triangle", [(rank_combination((0, 1), 16), 7), (0, 0), (100, None)], 4, 3,
         "candidate GridPoint(0, -51) falls outside the grid"),
        ("theorem2", [(17, 5), (0, 7)], 5, 2, "twice-area header 17 exceeds the grid maximum"),
        ("theorem2", [(0, 5), (10, 4), (0, 3)], 5, 2,
         "row-set rank out of range at bit 9: rank 10 out of range for C(5, 2)"),
        ("theorem2", [(0, 5), (0, 4), (5, 3), (0, 1)], 5, 2, "column 5 out of range at bit 12"),
    ], ids=["pair-rank", "duplicate", "pebble-index", "row-cell", "candidate", "header", "row-set", "column"])
    def test_crafted_payload_fails_its_field_check(self, kind, fields, K, n, message):
        # (value, width) fields; width None is a self-delimiting natural
        payload = sum((coding.sd_prime(coding.nat_to_string(v)) if w is None
                       else BitString.from_int(v, w) for v, w in fields), BitString())
        assert len(payload) >= _min_payload_bits(kind, K, n)
        with pytest.raises(DecodeError, match=f"^{re.escape(message)}$"):
            decode_witness(kind, payload, K, n)

    def test_theorem2_more_pebbles_than_rows(self):
        with pytest.raises(DecodeError, match="K=4, n=6"):
            decode_witness("theorem2", BitString("0" * 40), 4, 6)

    @pytest.mark.parametrize("kind", WITNESS_KINDS)
    @pytest.mark.parametrize("K, n", [(MAX_GRID_SIDE, 100_002), (MAX_GRID_SIDE, 400_000),
                                      (2**20, 200), (MAX_GRID_SIDE + 1, 4)])
    def test_short_or_oversized_header_fails_before_any_binomial(self, monkeypatch, kind, K, n):
        def refuse(*args):
            raise AssertionError("decode computed a binomial")

        # cached widths would hide a binomial computed before the length check
        coding._comb_bits.cache_clear()
        monkeypatch.setattr(coding, "comb", refuse)
        monkeypatch.setattr(coding, "perm", refuse)
        for bits in ("", "0" * 64):
            with pytest.raises(DecodeError):
                decode_witness(kind, BitString(bits), K, n)

    @pytest.mark.parametrize("kind", WITNESS_KINDS)
    def test_min_payload_bits_is_a_lower_bound(self, kind):
        # every fixed-width field the bound counts, at every K <= 12
        for K in range(2, 13):
            for n in range(2 if kind in ("rowline", "theorem2") else 3, K * K + 1):
                if kind == "theorem2":
                    if n > K:
                        break
                    header_w, col_w = _theorem2_widths(K)
                    fields = header_w + ceil_log2(comb(K, n)) + (n // 2) * col_w
                else:
                    fields = ceil_log2(comb(K * K, n - 1))
                assert _min_payload_bits(kind, K, n) <= fields, (K, n)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            decode_witness("mystery", BitString("0"), 4, 3)

    def test_round_trips_thousand_planted(self):
        for t in range(1000):
            a = planted_collinear(1024, 8, seed=45, stream=t)
            rep = encode_collinear_witness(a)
            assert decode_witness("collinear", rep.payload, 1024, 8) == a


class TestCombBits:
    @pytest.mark.parametrize("m, k", [(1, 0), (2, 1), (6, 2), (3, 2), (2**40, 199), (2**20, 200)])
    def test_matches_the_binomial(self, m, k):
        assert coding._comb_bits(m, k) == ceil_log2(comb(m, k))

    def test_repeated_round_trips_compute_each_width_once(self, monkeypatch):
        calls = []

        def counted(m, k):
            calls.append((m, k))
            return comb(m, k)

        monkeypatch.setattr(coding, "comb", counted)
        coding._comb_bits.cache_clear()
        a = GridArrangement.from_points(64, [(0, 0), (1, 1), (2, 2), (7, 40), (50, 3)])
        payloads = []
        for _ in range(3):
            rep = witnesses.encode_witness("collinear", a)
            assert witnesses.decode_witness("collinear", rep.payload, 64, 5) == a
            payloads.append(rep.payload)
        assert len(set(payloads)) == 1
        # the two ranked fields and the baseline, each once
        assert sorted(calls) == [(4, 2), (64**2, 4), (64**2, 5)]

    def test_an_empty_domain_still_raises(self):
        with pytest.raises(ValueError, match="^ceil_log2 requires a positive integer$"):
            coding._comb_bits(1, 2)
