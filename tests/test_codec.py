import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tercode import (
    Codebook,
    Covering,
    EncodedStream,
    MatchingVector,
    build_huffman,
    compression_rate,
    cover,
    decode,
    encode_all,
    partition,
    read_container,
    subsume_merge,
    write_container,
)
from tercode import codec, core, ea
from tercode.bits import pack_bits
from tercode.codec import (
    FILL_CHOICES,
    MAX_DECODE_SYMBOLS,
    BlockStats,
    huffman_code_lengths,
    huffman_cost,
    merge_subsumed_frequencies,
    mv_masks,
    payload_bits_for,
)
from tercode.corpus import CorpusSpec, generate_corpus
from tercode.errors import (
    AllZeroFrequencies,
    DanglingBits,
    InvalidConfig,
    LengthMismatch,
    NoCodeword,
    NotMatching,
    TercodeError,
    TruncatedPayload,
    UnknownCodeword,
    UnmatchedBlock,
    ZeroOriginal,
)

from helpers import (
    block_strings,
    char_match,
    code_lengths,
    codebook_cost,
    kraft_sum,
    matches,
    naive_cover,
    naive_decode,
    naive_encode_bits,
    naive_huffman_code_lengths,
    naive_merge_subsumed_frequencies,
    optimal_prefix_cost,
    payload_bitstring,
    random_mv_set,
    random_test_set,
    subsumes,
)
from test_trajectory import CORPUS_9001, SUBSUME_CFG


def mv(s: str) -> MatchingVector:
    return MatchingVector(s)


def block(s: str) -> str:
    return s


def blocks_from(symbols_list) -> list[str]:
    return list(symbols_list)


class TestMatches:
    def test_specified_prefix_with_unspecified_tail(self):
        assert matches(mv("111UUU"), block("111100"))
        assert matches(mv("111UUU"), block("111011"))

    def test_all_u_matches_everything(self):
        rng = random.Random(3)
        for _ in range(30):
            symbols = "".join(rng.choice("01X") for _ in range(6))
            assert matches(mv("UUUUUU"), block(symbols))

    def test_conflict_detection(self):
        assert matches(mv("111000"), block("11100X"))
        assert not matches(mv("111000"), block("111001"))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            matches(mv("11"), block("111"))

    def test_monotone_in_u_exhaustive(self):
        # replacing any vector symbol with U can only add matches (K=3,
        # full cross product of vectors and blocks)
        vectors = ["".join(t) for t in itertools.product("01U", repeat=3)]
        ibs = ["".join(t) for t in itertools.product("01X", repeat=3)]
        for v_sym in vectors:
            v = mv(v_sym)
            for ib_sym in ibs:
                ib = block(ib_sym)
                before = matches(v, ib)
                for pos in range(3):
                    widened = mv(v_sym[:pos] + "U" + v_sym[pos + 1 :])
                    if before:
                        assert matches(widened, ib)

    def test_agrees_with_character_definition(self):
        rng = random.Random(4)
        for _ in range(300):
            k = rng.randrange(1, 10)
            v = mv("".join(rng.choice("01U") for _ in range(k)))
            ib = block("".join(rng.choice("01X") for _ in range(k)))
            assert matches(v, ib) == char_match(ib, v.symbols)


class TestMatchingVector:
    def test_derived_fields(self):
        v = mv("U01U")
        assert v.n_unspecified == 2
        assert v.u_positions == (0, 3)

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            mv("01X")
        with pytest.raises(ValueError):
            mv("")


class TestCover:
    def test_prefers_fewer_unspecified(self):
        covering = cover(blocks_from(["1110"]), [mv("UUUU"), mv("1110")])
        assert covering.assignment.tolist() == [1]
        assert covering.frequencies == (0, 1)

    def test_unmatched_block_reports_first_index(self):
        with pytest.raises(UnmatchedBlock) as err:
            cover(blocks_from(["0101"]), [mv("1111"), mv("0000")])
        assert err.value.block_index == 1

        with pytest.raises(UnmatchedBlock) as err:
            cover(blocks_from(["1111", "0101"]), [mv("1111"), mv("0000")])
        assert err.value.block_index == 2

        # K=70 masks are wider than 64 bits: the leftmost symbol is mask
        # bit 69, the rightmost bit 0; a conflict at either end counts
        ones = "1" * 70
        for conflict in ("0" + "1" * 69, "1" * 69 + "0"):
            with pytest.raises(UnmatchedBlock) as err:
                cover(blocks_from([ones, conflict, ones, conflict]), [mv(ones)])
            assert err.value.block_index == 2

    def test_worked_frequency_example(self):
        # five blocks only the 111U vector takes, three for 1110, two for 0000
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        covering = cover(blocks, [mv("111U"), mv("1110"), mv("0000")])
        assert covering.frequencies == (5, 3, 2)

    def test_ties_break_by_vector_order(self):
        covering = cover(blocks_from(["11XX"]), [mv("11U0"), mv("110U")])
        assert covering.assignment.tolist() == [0]

    def test_assigned_vector_has_minimal_u_count(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randrange(1, 9)
            mvs = random_mv_set(rng, k, rng.randrange(1, 7))
            ts = random_test_set(rng, max_cols=k * 3)
            blocks = partition(ts.patterns[0], k)
            covering = cover(blocks, mvs)
            for b, idx in zip(block_strings(blocks), covering.assignment):
                best = min(
                    v.n_unspecified for v in mvs if matches(v, b)
                )
                assert mvs[idx].n_unspecified == best

    @pytest.mark.parametrize("k", [1, 2, 12, 63, 64, 65, 70, 128, 129])
    def test_matches_naive_reference(self, k):
        rng = random.Random(100 + k)
        for _ in range(20):
            mvs = random_mv_set(rng, k, 5)
            symbols = [
                "".join(rng.choice("01X") for _ in range(k)) for _ in range(30)
            ]
            # random blocks of large K match only the all-U vector, so add
            # a block matching each vector and a copy with one position
            # flipped, which conflicts at whichever mask bit holds it
            for v in mvs[:-1]:
                near = [rng.choice("01X") if ch == "U" else ch for ch in v.symbols]
                symbols.append("".join(near))
                pos = rng.randrange(k)
                near[pos] = {"0": "1", "1": "0"}.get(near[pos], near[pos])
                symbols.append("".join(near))
            blocks = blocks_from(symbols)
            covering = cover(blocks, mvs)
            assignment, freqs = naive_cover(blocks, mvs)
            assert tuple(covering.assignment.tolist()) == assignment
            assert covering.frequencies == freqs

    def test_block_stats_reuse(self):
        rng = random.Random(9)
        mvs = random_mv_set(rng, 4, 3)
        blocks = blocks_from(["10X1", "10X1", "0000", "10X1"])
        stats = BlockStats(blocks)
        assert stats.total == 4
        assert stats.n_unique == 2
        assert cover(stats, mvs) == cover(blocks, mvs)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cover(blocks_from(["01"]), [mv("0")])

    def test_n_unique_counts_distinct_rows(self):
        # 30 x 49 symbols at K=12: repeated template blocks and a tail
        # block padded with six X
        ts = generate_corpus(CorpusSpec(patterns=30, width=49, x_density=0.3,
                                        templates=3, flip_probability=0.05,
                                        rng_seed=5))
        blocks = partition(core.flatten(ts), 12)
        strings = block_strings(blocks)
        assert strings[-1].endswith("X" * 6)
        assert len(set(strings)) < len(strings)
        assert BlockStats(blocks).n_unique == len(set(strings))
        assert BlockStats(strings).n_unique == len(set(strings))
        assert BlockStats(np.array(strings)).n_unique == len(set(strings))
        assert BlockStats(blocks[:0]).n_unique == 0

    def test_covering_equality_compares_values(self):
        covering = Covering((0, 1, 1), (1, 2))
        assert not covering.assignment.flags.writeable
        assert covering == Covering(np.array([0, 1, 1]), (1, 2))
        assert covering != Covering((1, 1, 0), (1, 2))
        assert covering != Covering((0, 1, 1), (2, 1))


@st.composite
def vectors_and_blocks(draw):
    """K, a vector set and 0-130 blocks, most of them near some vector so
    that vectors other than all-U take blocks even at large K."""
    k = draw(st.sampled_from([1, 2, 12, 64, 65, 129]))
    symbols = st.text(alphabet="01U", min_size=k, max_size=k)
    vectors = draw(st.lists(symbols, min_size=1, max_size=6))
    if draw(st.booleans()):
        vectors.append("U" * k)
    rng = draw(st.randoms(use_true_random=False))
    blocks = []
    for _ in range(draw(st.integers(0, 130))):
        near = [rng.choice("01X") if ch == "U" else ch for ch in rng.choice(vectors)]
        if rng.random() < 0.5:
            near[rng.randrange(k)] = rng.choice("01X")
        blocks.append("".join(near))
    return [mv(v) for v in vectors], blocks_from(blocks)


class TestCoverProperties:
    @settings(max_examples=150, deadline=None)
    @given(vectors_and_blocks())
    def test_agrees_with_naive_cover(self, case):
        mvs, blocks = case
        assignment, expected = naive_cover(blocks, mvs)
        if assignment is None:
            with pytest.raises(UnmatchedBlock) as err:
                cover(blocks, mvs)
            assert err.value.block_index == expected
        else:
            covering = cover(blocks, mvs)
            assert tuple(covering.assignment.tolist()) == assignment
            assert covering.frequencies == expected

    @pytest.mark.parametrize("k", [1, 12, 65])
    def test_only_unmatched_block_is_block_1000(self, k):
        symbols = ["0" * k, "X" * k] * 499 + ["0" * k, "1" * k]
        with pytest.raises(UnmatchedBlock) as err:
            cover(blocks_from(symbols), [mv("0" * k)])
        assert err.value.block_index == 1000


class TestHuffman:
    def test_three_symbol_example(self):
        codebook = build_huffman([5, 3, 2])
        assert codebook.entries == {0: "0", 1: "10", 2: "11"}

    def test_two_symbol_merged_example(self):
        codebook = build_huffman([8, 0, 2])
        assert sorted(len(c) for c in codebook.entries.values()) == [1, 1]
        assert set(codebook.entries) == {0, 2}

    def test_single_symbol_gets_empty_codeword(self):
        assert build_huffman([7]).entries == {0: ""}
        assert build_huffman([0, 7, 0]).entries == {1: ""}

    def test_zero_frequencies_omitted(self):
        codebook = build_huffman([0, 5, 0, 3])
        assert set(codebook.entries) == {1, 3}

    def test_all_zero_frequencies(self):
        with pytest.raises(AllZeroFrequencies):
            build_huffman([0, 0, 0])
        with pytest.raises(AllZeroFrequencies):
            huffman_code_lengths([])

    def test_prefix_free_and_kraft(self):
        rng = random.Random(6)
        for _ in range(200):
            freqs = [rng.randrange(0, 40) for _ in range(rng.randrange(1, 12))]
            if not any(freqs):
                freqs[0] = 1
            codebook = build_huffman(freqs)
            codes = list(codebook.entries.values())
            for a in codes:
                for b in codes:
                    if a is not b:
                        assert not b.startswith(a)
            assert kraft_sum(codebook) <= 1.0 + 1e-12

    def test_cost_matches_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(150):
            nonzero = rng.randrange(1, 6)
            freqs = [rng.randrange(1, 50) for _ in range(nonzero)]
            codebook = build_huffman(freqs)
            assert codebook_cost(codebook, freqs) == optimal_prefix_cost(freqs)

    def test_canonical_codes_ordered_by_length_then_index(self):
        codebook = build_huffman([2, 9, 3, 1])
        lengths = code_lengths(codebook)
        ordered = sorted(lengths, key=lambda i: (lengths[i], i))
        values = [int(codebook.entries[i], 2) for i in ordered]
        assert values == sorted(values)

    def test_huffman_cost_examples(self):
        assert huffman_cost([5, 3, 2]) == 15  # merges 5 + 10
        assert huffman_cost([0, 7, 0]) == 0
        assert huffman_cost([]) == 0
        assert huffman_cost([4, 4]) == 8

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 500), max_size=70),
           st.lists(st.integers(0, 129), min_size=70, max_size=70))
    def test_payload_bits_from_code_lengths(self, freqs, n_us):
        if not any(freqs):
            with pytest.raises(AllZeroFrequencies):
                payload_bits_for(freqs, n_us)
            return
        lengths = huffman_code_lengths(freqs)
        assert payload_bits_for(freqs, n_us) == sum(
            freqs[i] * (length + n_us[i]) for i, length in lengths.items()
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), shape=st.sampled_from(["ties", "wide", "fibonacci"]))
    def test_code_lengths_agree_with_naive(self, data, shape):
        if shape == "ties":
            # zeros and few distinct weights, so ties decide the merge order
            freqs = data.draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, 5)), max_size=40))
        elif shape == "wide":
            freqs = data.draw(st.lists(st.integers(0, 10**6), max_size=70))
        else:
            # Fibonacci weights give the deepest trees; shuffled among zeros
            freqs = [1, 1]
            for _ in range(data.draw(st.integers(0, 28))):
                freqs.append(freqs[-1] + freqs[-2])
            freqs += [0] * data.draw(st.integers(0, 10))
            freqs = data.draw(st.permutations(freqs))
        if not any(freqs):
            with pytest.raises(AllZeroFrequencies):
                huffman_code_lengths(freqs)
            return
        assert huffman_code_lengths(freqs) == naive_huffman_code_lengths(freqs)

    def test_codebook_rejects_prefix_violation(self):
        with pytest.raises(ValueError):
            Codebook({0: "0", 1: "01"})

    def test_codebook_rejects_symbols_other_than_0_and_1(self):
        with pytest.raises(ValueError, match="other than 0 and 1"):
            Codebook({0: "0", 1: "1X"})


class TestEncodingLength:
    """A block's word is |codeword| + N_U bits."""

    def test_examples(self):
        assert len(encode_one("1110", mv("111U"), Codebook({0: "0"}))) == 2
        assert len(encode_one("01X10X", mv("UUUUUU"), Codebook({0: "11111"}))) == 11
        assert len(encode_one("1100", mv("1100"), Codebook({0: "1"}))) == 1

    def test_no_codeword(self):
        with pytest.raises(NoCodeword):
            encode_one("10", mv("1U"), Codebook({1: "0"}))


def encode_one(symbols: str, v: MatchingVector, codebook: Codebook, **kwargs) -> str:
    """Payload bits of a one-block stream whose block is assigned to ``v``."""
    stream = encode_all([symbols], Covering((0,), (1,)), codebook, [v], **kwargs)
    return payload_bitstring(stream)


class TestEncodeBlock:
    """``encode_all`` on one-block inputs."""

    def test_fill_bits_follow_codeword(self):
        codebook = Codebook({0: "11010"})
        assert encode_one("111100", mv("111UUU"), codebook) == "11010100"
        assert encode_one("111011", mv("111UUU"), codebook) == "11010011"

    def test_x_fills_as_zero_by_default(self):
        codebook = Codebook({0: "1"})
        assert encode_one("1X10", mv("UU10"), codebook) == "110"

    def test_fill_policies(self):
        codebook = Codebook({0: ""})
        assert encode_one("XX", mv("UU"), codebook, fill="one") == "11"
        rng = random.Random(0)
        bits = encode_one("XX", mv("UU"), codebook, fill="random", rng=rng)
        assert set(bits) <= {"0", "1"}
        with pytest.raises(InvalidConfig):
            encode_one("XX", mv("UU"), codebook, fill="bogus")

    def test_not_matching(self):
        with pytest.raises(NotMatching):
            encode_one("10", mv("01"), Codebook({0: "0"}))

    def test_no_codeword(self):
        with pytest.raises(NoCodeword):
            encode_one("10", mv("10"), Codebook({1: "0"}))


class TestEncodeAll:
    def test_worked_example_payload(self):
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        mvs = [mv("111U"), mv("1110"), mv("0000")]
        covering = cover(blocks, mvs)
        codebook = build_huffman(covering.frequencies)
        stream = encode_all(blocks, covering, codebook, mvs)
        assert stream.payload_bits == 20

    def test_merged_example_payload(self):
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        mvs = [mv("111U"), mv("1110"), mv("0000")]
        covering = cover(blocks, mvs)
        merged = subsume_merge(covering, mvs, 4)
        assert merged.frequencies == (8, 0, 2)
        assert [v.symbols for v, f in zip(mvs, merged.frequencies) if f] == [
            "111U", "0000"]
        codebook = build_huffman(merged.frequencies)
        stream = encode_all(blocks, merged, codebook, mvs)
        assert stream.payload_bits == 18

    @pytest.mark.parametrize("symbols", ["0101", "X101"])  # no X at a U; one X
    @pytest.mark.parametrize("fill, rng", [("bogus", None), ("random", None)])
    def test_fill_checked_before_encoding(self, symbols, fill, rng):
        blocks = blocks_from([symbols])
        mvs = [mv("U101")]
        covering = cover(blocks, mvs)
        with pytest.raises(InvalidConfig):
            encode_all(blocks, covering, build_huffman(covering.frequencies), mvs,
                       fill=fill, rng=rng)

    def test_codeword_over_255_bits_rejected(self):
        # the container stores each codeword length in one byte
        blocks = blocks_from(["01", "10"])
        mvs = [mv("UU")]
        covering = cover(blocks, mvs)
        with pytest.raises(ValueError, match="256 bits"):
            encode_all(blocks, covering, Codebook({0: "0" * 256}), mvs)

    def test_255_bit_codeword_round_trips(self):
        blocks = blocks_from(["01", "10"])
        mvs = [mv("UU")]
        covering = cover(blocks, mvs)
        stream = encode_all(blocks, covering, Codebook({0: "0" * 255}), mvs)
        assert stream.payload_bits == 2 * 257
        assert decode(read_container(write_container(stream))) == "0110"

    def test_not_matching_names_first_block(self):
        # vector 0 fails at block 4, vector 1 already at block 3
        blocks = blocks_from(["00", "11", "01", "10"])
        covering = Covering((0, 1, 1, 0), (2, 2))
        with pytest.raises(NotMatching, match="^vector 1U does not match block 01$"):
            encode_all(blocks, covering, Codebook({0: "0", 1: "1"}), [mv("0U"), mv("1U")])

    def test_table_vector_of_another_length_rejected(self):
        # an unassigned vector of length 2 would enter a K=4 stream's table
        with pytest.raises(ValueError, match="not 4 symbols"):
            encode_all(["0000"], Covering((0,), (1,)), Codebook({0: "0", 1: "1"}),
                       [mv("0000"), mv("UU")])

    def test_symbol_other_than_0_1_x_rejected(self):
        with pytest.raises(ValueError, match="other than 0, 1 and X"):
            encode_all(["0x"], Covering((0,), (1,)), Codebook({0: ""}), [mv("UU")])

    def test_block_stats_input(self):
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        mvs = [mv("111U"), mv("1110"), mv("0000")]
        covering = cover(blocks, mvs)
        codebook = build_huffman(covering.frequencies)
        stats = BlockStats(blocks)
        assert cover(stats, mvs) == covering
        assert encode_all(stats, covering, codebook, mvs) == encode_all(
            blocks, covering, codebook, mvs)

    def test_zero_blocks(self):
        stream = encode_all([], Covering((), ()), Codebook({}), [])
        assert stream.payload == b""
        assert stream.payload_bits == 0
        assert decode(stream) == ""

    def test_payload_bits_identity(self):
        rng = random.Random(21)
        for _ in range(40):
            k = rng.randrange(1, 9)
            mvs = random_mv_set(rng, k, 4)
            ts = random_test_set(rng)
            from tercode import flatten, partition as cut

            blocks = cut(flatten(ts), k)
            covering = cover(blocks, mvs)
            codebook = build_huffman(covering.frequencies)
            stream = encode_all(blocks, covering, codebook, mvs)
            expected = sum(
                f * (len(codebook.codeword(i)) + mvs[i].n_unspecified)
                for i, f in enumerate(covering.frequencies)
                if f
            )
            assert stream.payload_bits == expected
            n_us = [v.n_unspecified for v in mvs]
            assert payload_bits_for(covering.frequencies, n_us) == expected


@st.composite
def encode_cases(draw):
    """Blocks, vectors, a hand-built covering and a codebook at K 1-13.

    The assignment gives each block a random matching vector; faults are
    drawn independently: blocks moved to a non-matching vector or to a
    vector of the wrong length, frequencies that disagree with the
    assignment, a missing codeword."""
    k = draw(st.sampled_from([1, 2, 5, 13]))
    symbols = st.text(alphabet="01U", min_size=k, max_size=k)
    vectors = draw(st.lists(symbols, min_size=0, max_size=5)) + ["U" * k]
    if draw(st.booleans()):
        vectors.insert(draw(st.integers(0, len(vectors))),
                       draw(st.text(alphabet="01U", min_size=1, max_size=k + 2)))
    mvs = [mv(v) for v in vectors]
    rng = draw(st.randoms(use_true_random=False))
    blocks, assignment = [], []
    for _ in range(draw(st.integers(1, 40))):
        near = rng.choice([v for v in vectors if len(v) == k])
        blocks.append("".join(rng.choice("01X") if ch == "U" else ch for ch in near))
        fits = [i for i, v in enumerate(vectors)
                if len(v) == k and char_match(blocks[-1], v)]
        assignment.append(rng.choice(fits))
    for _ in range(draw(st.integers(0, 3))):
        assignment[rng.randrange(len(blocks))] = rng.randrange(len(mvs))
    counts = [assignment.count(i) for i in range(len(mvs))]
    freqs = draw(st.permutations(counts)) if draw(st.booleans()) else counts
    codebook = build_huffman(counts)
    if draw(st.booleans()):
        entries = dict(codebook.entries)
        del entries[rng.choice(sorted(entries))]
        codebook = Codebook(entries)
    fill = draw(st.sampled_from(["zero", "one", "random"]))
    return blocks, Covering(tuple(assignment), tuple(freqs)), codebook, mvs, fill


class TestEncodeProperties:
    @settings(max_examples=400, deadline=None)
    @given(encode_cases(), st.integers(0, 2**32), st.booleans())
    def test_agrees_with_naive_encoder(self, case, seed, as_stats):
        blocks, covering, codebook, mvs, fill = case
        source = BlockStats(blocks) if as_stats else blocks
        try:
            want = naive_encode_bits(blocks, covering.assignment, codebook, mvs,
                                     fill, random.Random(seed))
        except TercodeError as exc:
            with pytest.raises(TercodeError) as err:
                encode_all(source, covering, codebook, mvs, fill, random.Random(seed))
            assert type(err.value) is type(exc)
            if isinstance(exc, NotMatching):
                assert str(err.value) == str(exc)
            return
        stream = encode_all(source, covering, codebook, mvs, fill, random.Random(seed))
        assert payload_bitstring(stream) == want
        assert (stream.block_count, stream.k) == (len(blocks), len(blocks[0]))


@st.composite
def slice_cases(draw):
    """Encodable blocks, their covering and Huffman code at K 1-13.

    Frequencies are uneven, so the words (codeword + fill bits) come in
    several widths, most of them not multiples of 8."""
    k = draw(st.integers(1, 13))
    vectors = draw(st.lists(st.text(alphabet="01U", min_size=k, max_size=k),
                            max_size=6)) + ["U" * k]
    rng = draw(st.randoms(use_true_random=False))
    blocks, assignment = [], []
    for _ in range(draw(st.integers(1, 60))):
        near = rng.choice(vectors)
        blocks.append("".join(rng.choice("01X") if ch == "U" else ch for ch in near))
        assignment.append(rng.choice(
            [i for i, v in enumerate(vectors) if char_match(blocks[-1], v)]))
    counts = [assignment.count(i) for i in range(len(vectors))]
    covering = Covering(tuple(assignment), tuple(counts))
    return blocks, covering, build_huffman(counts), [mv(v) for v in vectors]


class TestEncodeSlices:
    """``encode_all`` works a slice of blocks at a time and carries the
    bits after the last full byte of a slice into the next one."""

    @staticmethod
    def assert_agrees(blocks, covering, codebook, mvs, fill, seed):
        rng = random.Random(seed)
        want = naive_encode_bits(blocks, covering.assignment, codebook, mvs, fill, rng)
        after = rng.random()
        rng = random.Random(seed)
        stream = encode_all(blocks, covering, codebook, mvs, fill, rng)
        assert stream.payload == pack_bits(want)
        assert stream.payload_bits == len(want)
        if fill == "random":
            assert rng.random() == after

    @settings(max_examples=300, deadline=None)
    @given(slice_cases(), st.integers(1, 9), st.sampled_from(FILL_CHOICES),
           st.integers(0, 2**32))
    def test_small_slices_agree_with_naive_encoder(self, case, size, fill, seed):
        with mock.patch.object(codec, "_SLICE", size):
            self.assert_agrees(*case, fill, seed)

    def test_more_blocks_than_one_slice(self):
        # 70,000 blocks: one full slice of 65,536 and a partial one
        rng = random.Random(11)
        mvs = [mv("0U1UU"), mv("10UU1"), mv("UUUUU")]
        blocks = [
            "".join(rng.choice("01X") if ch == "U" else ch
                    for ch in mvs[rng.randrange(3)].symbols)
            for _ in range(70_000)
        ]
        covering = cover(blocks, mvs)
        assert len(blocks) > codec._SLICE
        self.assert_agrees(blocks, covering, build_huffman(covering.frequencies),
                           mvs, "random", 5)


class TestDecode:
    def test_table_vector_of_another_length_rejected(self):
        # would decode to "0", one symbol where the header declares four
        with pytest.raises(ValueError, match="not 4 symbols"):
            EncodedStream(payload=b"", payload_bits=0, block_count=1, k=4,
                          mv_table=(mv("0"),), codebook=Codebook({0: ""}),
                          original_length=4)

    def _nine_code_stream(self, payload_bits: str, block_count: int,
                          original_length: int) -> EncodedStream:
        from tercode import nine_codebook, nine_mvs

        packed = bytearray()
        padded = payload_bits + "0" * (-len(payload_bits) % 8)
        for i in range(0, len(padded), 8):
            packed.append(int(padded[i : i + 8], 2))
        return EncodedStream(
            payload=bytes(packed),
            payload_bits=len(payload_bits),
            block_count=block_count,
            k=6,
            mv_table=nine_mvs(6),
            codebook=nine_codebook(),
            original_length=original_length,
        )

    def test_fixed_code_example(self):
        stream = self._nine_code_stream("11010100", 1, 6)
        assert decode(stream) == "111100"

    def test_dangling_bits(self):
        stream = self._nine_code_stream("110101000", 1, 6)
        with pytest.raises(DanglingBits):
            decode(stream)

    def test_truncated_payload(self):
        stream = self._nine_code_stream("1101010", 1, 6)
        with pytest.raises(TruncatedPayload):
            decode(stream)

    def test_unknown_codeword(self):
        stream = EncodedStream(
            payload=bytes([0b11000000]),
            payload_bits=2,
            block_count=1,
            k=2,
            mv_table=(mv("00"), mv("01")),
            codebook=Codebook({0: "0", 1: "10"}),
            original_length=2,
        )
        with pytest.raises(UnknownCodeword):
            decode(stream)

    def test_round_trip_fully_specified(self):
        rng = random.Random(30)
        for _ in range(25):
            ts = random_test_set(rng, x_density=0.0)
            k = rng.randrange(1, 8)
            mvs = random_mv_set(rng, k, 5)
            from helpers import encode_test_set

            stream = encode_test_set(ts, k, mvs)
            flat = "".join(ts.patterns)
            assert decode(stream) == flat

    def test_round_trip_preserves_specified_positions(self):
        rng = random.Random(31)
        for _ in range(25):
            ts = random_test_set(rng)
            k = rng.randrange(1, 8)
            mvs = random_mv_set(rng, k, 5)
            from helpers import encode_test_set

            stream = encode_test_set(ts, k, mvs)
            decoded = decode(stream)
            flat = "".join(ts.patterns)
            assert len(decoded) == len(flat)
            for got, want in zip(decoded, flat):
                if want != "X":
                    assert got == want


@st.composite
def decode_cases(draw):
    """A stream's table, codebook and payload bits, before any damage.

    The codebook is the Huffman code of random frequencies, of Fibonacci
    frequencies (18-22 vectors, so the longest codewords have 17-21 bits)
    or of one vector (the lone empty codeword), and may lose one entry, so
    that the payload holds codewords the decoder does not know.  The
    payload encodes 0-40 blocks, and ``original_length`` may end anywhere
    inside the last one."""
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["random", "fibonacci", "lone"]))
    if shape == "lone":
        freqs = [1]
    elif shape == "fibonacci":
        freqs = [1, 1]
        for _ in range(draw(st.integers(16, 20))):
            freqs.append(freqs[-1] + freqs[-2])
        freqs = draw(st.permutations(freqs))
    else:
        freqs = draw(st.lists(st.integers(1, 50), min_size=2, max_size=8))
    mvs = tuple(mv(draw(st.text(alphabet="01U", min_size=k, max_size=k)))
                for _ in freqs)
    full = build_huffman(freqs).entries
    entries = dict(full)
    if draw(st.booleans()):
        del entries[draw(st.sampled_from(sorted(entries)))]
    rng = draw(st.randoms(use_true_random=False))
    block_count = draw(st.integers(0, 40 if shape != "fibonacci" else 16))
    words = []
    for _ in range(block_count):
        index = rng.randrange(len(mvs))
        fills = "".join(rng.choice("01") for _ in range(mvs[index].n_unspecified))
        words.append(full[index] + fills)
    original_length = (
        draw(st.integers((block_count - 1) * k + 1, block_count * k))
        if block_count else 0
    )
    return "".join(words), block_count, k, mvs, Codebook(entries), original_length


class TestDecodeProperties:
    @staticmethod
    def assert_agrees(bits, block_count, k, mvs, codebook, original_length,
                      max_symbols):
        stream = EncodedStream(payload=pack_bits(bits), payload_bits=len(bits),
                               block_count=block_count, k=k, mv_table=mvs,
                               codebook=codebook, original_length=original_length)
        try:
            want = naive_decode(stream, max_symbols)
        except TercodeError as exc:
            with pytest.raises(TercodeError) as err:
                decode(stream, max_symbols)
            assert type(err.value) is type(exc)
            return
        assert decode(stream, max_symbols) == want

    @settings(max_examples=200, deadline=None)
    @given(decode_cases(), st.text(alphabet="01", min_size=1, max_size=24),
           st.sampled_from(["default", "exact", "one short"]))
    def test_agrees_with_naive_decoder(self, case, appended, cap):
        """Same output or the same error class as the reference decoder,
        for the payload itself, every truncation of it, every one-bit flip
        of it and the payload with bits appended."""
        bits, *rest = case
        max_symbols = {"default": MAX_DECODE_SYMBOLS, "exact": rest[-1],
                       "one short": rest[-1] - 1}[cap]
        variants = [bits, bits + appended]
        variants += [bits[:cut] for cut in range(len(bits))]
        variants += [bits[:i] + "10"[int(bits[i])] + bits[i + 1:]
                     for i in range(len(bits))]
        for variant in variants:
            self.assert_agrees(variant, *rest, max_symbols)


class TestCompressionRate:
    def test_values(self):
        assert compression_rate(100, 100) == 0.0
        assert compression_rate(60, 10) == pytest.approx(83.3333, abs=1e-3)
        assert compression_rate(100, 101) == pytest.approx(-1.0)

    def test_zero_original(self):
        with pytest.raises(ZeroOriginal):
            compression_rate(0, 5)


class TestSubsumeMerge:
    def test_subsumes_predicate(self):
        assert subsumes(mv("111U"), mv("1110"))
        assert not subsumes(mv("1110"), mv("111U"))
        assert subsumes(mv("UUUU"), mv("10X1".replace("X", "0")))
        assert subsumes(mv("1U"), mv("1U"))
        # exhaustive at K=3: subsumption is containment of the matched blocks
        vectors = ["".join(t) for t in itertools.product("01U", repeat=3)]
        blocks = ["".join(t) for t in itertools.product("01X", repeat=3)]
        for wider in vectors:
            for narrower in vectors:
                contained = all(char_match(b, wider) for b in blocks
                                if char_match(b, narrower))
                assert subsumes(mv(wider), mv(narrower)) == contained

    def test_no_candidates_is_fixed_point(self):
        blocks = blocks_from(["11", "00"])
        mvs = [mv("11"), mv("00")]
        covering = cover(blocks, mvs)
        merged = subsume_merge(covering, mvs, 2)
        assert merged == covering
        assert [v.symbols for v, f in zip(mvs, merged.frequencies) if f] == [
            "11", "00"]

    def test_single_vector_unchanged(self):
        blocks = blocks_from(["10", "10"])
        mvs = [mv("1U")]
        covering = cover(blocks, mvs)
        merged = subsume_merge(covering, mvs, 2)
        assert merged == covering
        assert sum(f > 0 for f in merged.frequencies) == 1

    def test_never_increases_payload(self):
        rng = random.Random(40)
        for _ in range(60):
            k = rng.randrange(1, 7)
            mvs = random_mv_set(rng, k, rng.randrange(2, 7))
            symbols = [
                "".join(rng.choice("01X") for _ in range(k))
                for _ in range(rng.randrange(1, 40))
            ]
            blocks = blocks_from(symbols)
            covering = cover(blocks, mvs)
            n_us = [v.n_unspecified for v in mvs]
            before = payload_bits_for(covering.frequencies, n_us)
            merged = subsume_merge(covering, mvs, k)
            after = payload_bits_for(merged.frequencies, n_us)
            assert after <= before
            # the rewritten assignment still matches every block
            for b, idx in zip(blocks, merged.assignment):
                assert matches(mvs[idx], b)
            # frequencies agree with the assignment
            recount = [0] * len(mvs)
            for idx in merged.assignment:
                recount[idx] += 1
            assert tuple(recount) == merged.frequencies


@st.composite
def merge_cases(draw):
    """Frequencies and vectors at K 1-4, L 1-12, with duplicate vectors,
    zero frequencies and sometimes an all-U vector."""
    k = draw(st.integers(1, 4))
    symbols = st.text(alphabet="01U", min_size=k, max_size=k)
    size = draw(st.integers(1, 12))
    vectors = draw(st.lists(symbols, min_size=size, max_size=size))
    if len(vectors) < 12 and draw(st.booleans()):
        vectors.insert(draw(st.integers(0, len(vectors))), "U" * k)
    if len(vectors) < 12 and draw(st.booleans()):
        vectors.append(draw(st.sampled_from(vectors)))
    freqs = draw(st.lists(st.integers(0, 60), min_size=len(vectors),
                          max_size=len(vectors)))
    ones, zeros = zip(*(mv_masks(v) for v in vectors))
    return freqs, list(ones), list(zeros), [v.count("U") for v in vectors]


class TestMergeProperties:
    @settings(max_examples=400, deadline=None)
    @given(merge_cases())
    def test_agrees_with_naive_merge(self, case):
        assert (merge_subsumed_frequencies(*case)
                == naive_merge_subsumed_frequencies(*case))

    def test_drop_accepted_only_when_payload_strictly_shrinks(self):
        # 1110 (F=1) into 111U (F=1): the codewords shrink from 1+1 bits to
        # none and the fill grows by 1 bit, so 3 payload bits become 2
        ones, zeros = zip(*(mv_masks(v) for v in ("111U", "1110")))
        assert merge_subsumed_frequencies([1, 1], ones, zeros, [1, 0]) == (
            [2, 0], {1: 0})
        # 1100 into 11UU: the fill grows by 2 bits, so 4 bits stay 4
        ones, zeros = zip(*(mv_masks(v) for v in ("11UU", "1100")))
        assert merge_subsumed_frequencies([1, 1], ones, zeros, [2, 0]) == (
            [1, 1], {})

    def test_scan_restarts_after_every_drop(self):
        # the first drop (UU1 into UUU) makes 110 -> UUU pay off; a scan
        # that went on with 1U0 instead would stop at [4, 7, 0, 0]
        vectors = ("110", "UUU", "UU1", "1U0")
        ones, zeros = zip(*(mv_masks(v) for v in vectors))
        n_us = [v.count("U") for v in vectors]
        assert merge_subsumed_frequencies([4, 5, 1, 1], ones, zeros, n_us) == (
            [0, 11, 0, 0], {2: 1, 0: 1, 3: 1})


@st.composite
def wide_merge_cases(draw):
    """Frequencies and vectors at the search's scale: K=12, up to 64
    vectors, frequencies up to 3000 and a heavy all-U vector.  Vectors are
    1-4 block templates with positions turned to U by the AND (sparse) or
    OR (dense) of two random masks, so many pairs subsume each other."""
    templates = draw(st.lists(st.text("01", min_size=12, max_size=12),
                              min_size=1, max_size=4))
    mask = st.integers(0, (1 << 12) - 1)
    size = draw(st.integers(2, 63))
    vectors = []
    for _ in range(size):
        template, a, b = draw(st.tuples(st.sampled_from(templates), mask, mask))
        u = a & b if draw(st.booleans()) else a | b
        vectors.append("".join("U" if u >> p & 1 else c
                               for p, c in enumerate(template)))
    freqs = draw(st.lists(st.integers(0, 3000), min_size=size, max_size=size))
    heavy = draw(st.integers(0, size))
    vectors.insert(heavy, "U" * 12)
    freqs.insert(heavy, draw(st.integers(1000, 3000)))
    ones, zeros = zip(*(mv_masks(v) for v in vectors))
    return freqs, list(ones), list(zeros), [v.count("U") for v in vectors]


class TestWideMerge:
    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.integers(1, 5000), min_size=2, max_size=64),
           lam=st.integers(0, 1 << 40))
    def test_kraft_dual_bound_never_exceeds_huffman_cost(self, weights, lam):
        scale = codec._DUAL_SCALE
        terms = [codec._dual_term(w, lam) for w in weights]
        # each term is the minimum over every length that can attain it
        assert terms == [
            min((w * l << scale) + (lam >> l) for l in range(1, lam.bit_length() + 2))
            for w in weights]
        limit = huffman_cost(weights) << scale
        assert sum(terms) - lam <= limit
        if len(weights) > 2:
            peak = codec._dual_multiplier(weights)
            assert sum(codec._dual_term(w, peak) for w in weights) - peak <= limit

    @settings(max_examples=60, deadline=None)
    @given(wide_merge_cases())
    def test_agrees_with_naive_merge_at_search_scale(self, case):
        assert (merge_subsumed_frequencies(*case)
                == naive_merge_subsumed_frequencies(*case))

    def test_prices_a_quarter_of_the_codes_on_corpus_9001(self):
        # The subsume trajectory search must call the merge as often as
        # before and price at most a quarter as many codes.  Before the
        # Kraft-dual bound its 67 merge calls priced 24,782 codes, 67 of
        # them the starting cost.
        ts = generate_corpus(CORPUS_9001)
        real_merge = ea.merge_subsumed_frequencies
        priced = []

        def counted_merge(*args):
            with mock.patch.object(codec, "huffman_cost",
                                   side_effect=codec.huffman_cost) as cost:
                result = real_merge(*args)
            priced.append(cost.call_count)
            return result

        with mock.patch.object(ea, "merge_subsumed_frequencies", counted_merge):
            report = ea.run_many(BlockStats(partition(core.flatten(ts), 12)),
                                 core.original_size_bits(ts),
                                 ea.EaConfig(**SUBSUME_CFG))
        assert report.evaluations == 200
        assert len(priced) == 67
        assert sum(priced) <= 24_782 // 4
