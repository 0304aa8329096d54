import random

import pytest

from tercode import (
    BlockStats,
    EaConfig,
    TestSet,
    compress,
    compression_rate,
    cover,
    decode,
    flatten,
    nine_codebook,
    nine_mvs,
    original_size_bits,
    partition,
)
from tercode.errors import InvalidConfig, OddK

from helpers import payload_bitstring, random_test_set


EXPECTED_K6 = (
    "000000",
    "111111",
    "000111",
    "111000",
    "111UUU",
    "UUU111",
    "000UUU",
    "UUU000",
    "UUUUUU",
)

EXPECTED_CODES = ("0", "10", "11000", "11001", "11010", "11011", "11100",
                  "11101", "11111")


class TestNineMvs:
    def test_k6_verbatim(self):
        assert nine_mvs(6) == EXPECTED_K6

    def test_k2_half_blocks(self):
        assert nine_mvs(2) == (
            "00", "11", "01", "10", "1U", "U1", "0U", "U0", "UU",
        )

    def test_k8_scales_half_blocks(self):
        mvs = nine_mvs(8)
        assert mvs[4] == "1111UUUU"
        assert mvs[8] == "UUUUUUUU"

    @pytest.mark.parametrize("k", [1, 3, 7, 0, -2])
    def test_odd_or_invalid_k(self, k):
        with pytest.raises(OddK):
            nine_mvs(k)


class TestNineCodebook:
    def test_codewords_verbatim(self):
        codebook = nine_codebook()
        assert tuple(codebook[i] for i in range(9)) == EXPECTED_CODES

    def test_prefix_free(self):
        codes = list(nine_codebook().values())
        for a in codes:
            for b in codes:
                if a is not b:
                    assert not b.startswith(a)

    def test_codeword_11110_left_unassigned(self):
        assert "11110" not in nine_codebook().values()


class TestCompress9c:
    def _compress(self, ts, k, method="9c"):
        return compress(ts, method, EaConfig(k=k)).stream

    def test_exact_block_costs_fixed_code(self):
        stream = self._compress(TestSet(("111000",)), 6)
        assert payload_bitstring(stream) == "11001"

        stream = self._compress(TestSet(("111100",)), 6)
        assert payload_bitstring(stream) == "11010100"
        assert stream.payload_bits == 8

    def test_per_block_costs_k6(self):
        # fixed-code cost by assigned vector: 1, 2, 5, 5, 5+3 (x4), 5+6
        mvs = nine_mvs(6)
        codebook = nine_codebook()
        expected = [1, 2, 5, 5, 8, 8, 8, 8, 11]
        got = [
            len(codebook[i]) + mvs[i].count("U") for i in range(9)
        ]
        assert got == expected

    def test_never_unmatched(self):
        rng = random.Random(70)
        for _ in range(30):
            ts = random_test_set(rng, x_density=rng.choice([0.0, 0.5, 1.0]))
            blocks = partition(flatten(ts), 6)
            stream = self._compress(ts, 6)
            assert stream.block_count == len(blocks)

    def test_huffman_recode_never_worse(self):
        rng = random.Random(71)
        for _ in range(40):
            ts = random_test_set(rng, max_rows=10, max_cols=20)
            for k in (4, 6, 8):
                fixed = self._compress(ts, k)
                recoded = self._compress(ts, k, "9c-hc")
                assert recoded.payload_bits <= fixed.payload_bits
                bits = original_size_bits(ts)
                assert compression_rate(bits, recoded.payload_bits) >= \
                    compression_rate(bits, fixed.payload_bits)

    def test_odd_k_rejected(self):
        with pytest.raises(OddK):
            self._compress(TestSet(("111",)), 3)

    @pytest.mark.parametrize(
        "patterns, k",
        [(("0101", "1100"), 2), (("X01000", "110011"), 6)],  # no X at a U; one X
    )
    def test_unknown_fill_rejected(self, patterns, k):
        with pytest.raises(InvalidConfig):
            compress(TestSet(patterns), "9c-hc", EaConfig(k=k), fill="bogus")

    def test_round_trip(self):
        rng = random.Random(72)
        for _ in range(20):
            ts = random_test_set(rng)
            k = rng.choice([2, 4, 6, 8])
            bits = original_size_bits(ts)
            for method in ("9c", "9c-hc"):
                stream = self._compress(ts, k, method)
                decoded = decode(stream)
                flat = "".join(ts.patterns)
                assert len(decoded) == bits
                for got, want in zip(decoded, flat):
                    if want != "X":
                        assert got == want

    def test_covering_prefers_specific_vectors(self):
        blocks = BlockStats(partition(flatten(TestSet(("111000",))), 6))
        # 111000 is matched by v4, v5, v8 and v9; the zero-U vector wins
        assert cover(blocks, nine_mvs(6)).tolist() == [3]
