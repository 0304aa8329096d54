import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tercode import (
    EncodedStream,
    build_huffman,
    compression_rate,
    cover,
    decode,
    encode_all,
    frequencies,
    partition,
    read_container,
    subsume_merge,
    write_container,
)
from tercode import codec, core, ea, nine_mvs, pipeline
from tercode.container import pack_bits
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
    OutputTooLarge,
    TercodeError,
    TruncatedPayload,
    UnknownCodeword,
    UnmatchedBlock,
    ZeroOriginal,
)

from helpers import (
    block_strings,
    blocks_from,
    char_match,
    code_lengths,
    codebook_cost,
    kraft_sum,
    matches,
    naive_cover,
    naive_decode,
    naive_dual_multiplier,
    naive_encode_bits,
    naive_huffman_code_lengths,
    naive_huffman_cost,
    naive_block_sets,
    naive_merge_subsumed_frequencies,
    optimal_prefix_cost,
    payload_bitstring,
    random_mv_set,
    random_test_set,
    subsumes,
)
from test_trajectory import CORPUS_9001, SUBSUME_CFG


def block(s: str) -> str:
    return s


class TestMatches:
    def test_specified_prefix_with_unspecified_tail(self):
        assert matches("111UUU", block("111100"))
        assert matches("111UUU", block("111011"))

    def test_all_u_matches_everything(self):
        rng = random.Random(3)
        for _ in range(30):
            symbols = "".join(rng.choice("01X") for _ in range(6))
            assert matches("UUUUUU", block(symbols))

    def test_conflict_detection(self):
        assert matches("111000", block("11100X"))
        assert not matches("111000", block("111001"))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            matches("11", block("111"))

    def test_monotone_in_u_exhaustive(self):
        # replacing any vector symbol with U can only add matches (K=3,
        # full cross product of vectors and blocks)
        vectors = ["".join(t) for t in itertools.product("01U", repeat=3)]
        ibs = ["".join(t) for t in itertools.product("01X", repeat=3)]
        for v in vectors:
            for ib_sym in ibs:
                ib = block(ib_sym)
                before = matches(v, ib)
                for pos in range(3):
                    widened = v[:pos] + "U" + v[pos + 1 :]
                    if before:
                        assert matches(widened, ib)

    def test_agrees_with_character_definition(self):
        rng = random.Random(4)
        for _ in range(300):
            k = rng.randrange(1, 10)
            v = "".join(rng.choice("01U") for _ in range(k))
            ib = block("".join(rng.choice("01X") for _ in range(k)))
            assert matches(v, ib) == char_match(ib, v)


def plain_match_set(stats: BlockStats, ones: int, zeros: int) -> int:
    """``match_set`` without the group memo: the AND of ``fits_zero`` and
    ``fits_one`` at each specified position, one bit at a time."""
    hit = (1 << stats.total) - 1
    for b in range(stats.k):
        if zeros >> b & 1:
            hit &= stats.fits_zero[b]
        if ones >> b & 1:
            hit &= stats.fits_one[b]
    return hit


class TestMatchGroups:
    """``match_set`` memoises each group of 4 vector symbols in ``groups``."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 3, 4, 5, 12, 13]), st.randoms(use_true_random=False),
           st.integers(0, 2**32))
    def test_memo_agrees_with_plain_and(self, k, rng, seed):
        blocks = ["".join(rng.choice("01X") for _ in range(k))
                  for _ in range(rng.randint(1, 50))]
        vectors = ["".join(rng.choice("01U") for _ in range(k))
                   for _ in range(rng.randint(0, 40))] + ["U" * k]
        warm = blocks_from(blocks)
        for v in vectors:
            ones, zeros = mv_masks(v)
            cold = blocks_from(blocks)
            want = plain_match_set(cold, ones, zeros)
            assert codec.match_set(cold, v) == want
            # warm: filled by the vectors before, then by this one
            assert codec.match_set(warm, v) == want
            assert codec.match_set(warm, v) == want
        assert len(warm.groups) == -(-k // 4)
        assert all(len(memo) <= 80 for memo in warm.groups)
        # covering and encoding read the same sets from a warm memo
        assignment = cover(warm, vectors)
        assert tuple(assignment) == naive_cover(warm, vectors)[0]
        assert np.array_equal(assignment, cover(blocks_from(blocks), vectors))
        codebook = build_huffman(frequencies(assignment, len(vectors)))
        streams = [encode_all(stats, assignment, codebook, vectors, "random",
                              random.Random(seed))
                   for stats in (warm, blocks_from(blocks))]
        assert streams[0] == streams[1]
        assert payload_bitstring(streams[0]) == naive_encode_bits(
            warm, assignment, codebook, vectors, "random", random.Random(seed))

    def test_a_group_holds_at_most_80_keys(self):
        # every vector at K=5: bits 0-3 form a full group, bit 4 a group of one
        blocks = ["".join(t) for t in itertools.product("01X", repeat=5)]
        stats = blocks_from(blocks)
        for symbols in map("".join, itertools.product("01U", repeat=5)):
            ones, zeros = mv_masks(symbols)
            assert codec.match_set(stats, symbols) == plain_match_set(stats, ones, zeros)
        assert [len(memo) for memo in stats.groups] == [80, 2]
        # an all-U group is skipped, so the all-U vector matches every block
        assert codec.match_set(stats, "UUUUU") == (1 << len(blocks)) - 1

    def test_memo_shares_a_single_position_set(self):
        # a group with one specified symbol keeps the per-bit set itself
        stats = blocks_from(["01X1", "1100", "XX0X"])
        assert codec.match_set(stats, "UU1U") == stats.fits_one[1]
        assert stats.groups[0]["UU1U"] is stats.fits_one[1]


MATRIX_VIEWS = {
    "as drawn": lambda m: m,
    "every other column": lambda m: m[:, ::2],
    "reversed rows": lambda m: m[::-1],
    "every other row": lambda m: m[::2],
    "column-major": np.asfortranarray,
}


@st.composite
def block_matrices(draw):
    """uint8 matrices of 0-300 rows and K 1-40 over 0, 1 and X with up to
    three foreign bytes, as drawn or as a view that is not C-contiguous."""
    symbols = b"01X" + draw(st.binary(max_size=3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32)))
    matrix = gen.choice(np.frombuffer(symbols, dtype=np.uint8),
                        size=(draw(st.integers(0, 300)), draw(st.integers(1, 40))))
    return MATRIX_VIEWS[draw(st.sampled_from(sorted(MATRIX_VIEWS)))](matrix)


class TestBlockStats:
    @settings(max_examples=150, deadline=None)
    @given(block_matrices())
    def test_sets_agree_with_per_column_reference(self, matrix):
        stats = BlockStats(matrix)
        assert stats.blocks is matrix
        assert (stats.total, stats.k) == matrix.shape
        assert (stats.fits_zero, stats.fits_one) == naive_block_sets(matrix)


# every consumer of a vector, given one bad vector at K=3 beside all-U
BAD_VECTOR_USES = {
    "mv_masks": lambda stats, v: mv_masks(v),
    # a genome cannot hold an empty vector: its vector cache gets it instead
    "evaluate_fitness": lambda stats, v: (ea.evaluate_fitness(v + "UUU", stats, 24) if v
                                          else ea.vector_entry(stats, v)),
    "cover": lambda stats, v: cover(stats, [v, "UUU"]),
    "encode_all": lambda stats, v: encode_all(stats, np.zeros(stats.total, dtype=np.int64),
                                              {0: "0", 1: "1"}, [v, "UUU"]),
    "subsume_merge": lambda stats, v: subsume_merge(np.zeros(stats.total, dtype=np.int64),
                                                    [v, "UUU"], 3),
    "EncodedStream": lambda stats, v: EncodedStream(payload=b"", payload_bits=0, k=3,
                                                    mv_table=(v,), codewords=("",),
                                                    original_length=3),
}


@pytest.mark.parametrize("use", sorted(BAD_VECTOR_USES))
@pytest.mark.parametrize("vector", ["+1U", " 1U", "0_1", "0X1", ""])
def test_bad_vector_rejected(vector, use):
    # int(..., 2) takes a sign, a space and an underscore, so each needs the check
    stats = BlockStats(partition("1110" * 6, 3))
    with pytest.raises(ValueError) as err:
        BAD_VECTOR_USES[use](stats, vector)
    assert repr(vector) in str(err.value)


class TestCover:
    def test_prefers_fewer_unspecified(self):
        assignment = cover(blocks_from(["1110"]), ["UUUU", "1110"])
        assert assignment.tolist() == [1]
        assert frequencies(assignment, 2) == [0, 1]

    def test_unmatched_block_reports_first_index(self):
        with pytest.raises(UnmatchedBlock) as err:
            cover(blocks_from(["0101"]), ["1111", "0000"])
        assert (err.value.block_index, err.value.count) == (1, 1)

        with pytest.raises(UnmatchedBlock) as err:
            cover(blocks_from(["1111", "0101", "0000", "1X10"]), ["1111", "0000"])
        assert (err.value.block_index, err.value.count) == (2, 2)

        # K=70 masks are wider than 64 bits: the leftmost symbol is mask
        # bit 69, the rightmost bit 0; a conflict at either end counts
        ones = "1" * 70
        for conflict in ("0" + "1" * 69, "1" * 69 + "0"):
            with pytest.raises(UnmatchedBlock) as err:
                cover(blocks_from([ones, conflict, ones, conflict]), [ones])
            assert (err.value.block_index, err.value.count) == (2, 2)

    def test_worked_frequency_example(self):
        # five blocks only the 111U vector takes, three for 1110, two for 0000
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        assignment = cover(blocks, ["111U", "1110", "0000"])
        assert frequencies(assignment, 3) == [5, 3, 2]

    def test_ties_break_by_vector_order(self):
        assignment = cover(blocks_from(["11XX"]), ["11U0", "110U"])
        assert assignment.tolist() == [0]

    def test_assigned_vector_has_minimal_u_count(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randrange(1, 9)
            mvs = random_mv_set(rng, k, rng.randrange(1, 7))
            ts = random_test_set(rng, max_cols=k * 3)
            blocks = partition(ts.patterns[0], k)
            assignment = cover(BlockStats(blocks), mvs)
            for b, idx in zip(block_strings(blocks), assignment):
                best = min(
                    v.count("U") for v in mvs if matches(v, b)
                )
                assert mvs[idx].count("U") == best

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
                near = [rng.choice("01X") if ch == "U" else ch for ch in v]
                symbols.append("".join(near))
                pos = rng.randrange(k)
                near[pos] = {"0": "1", "1": "0"}.get(near[pos], near[pos])
                symbols.append("".join(near))
            blocks = blocks_from(symbols)
            assignment = cover(blocks, mvs)
            want, freqs = naive_cover(blocks, mvs)
            assert tuple(assignment.tolist()) == want
            assert tuple(frequencies(assignment, len(mvs))) == freqs

    def test_block_stats_reuse(self):
        rng = random.Random(9)
        mvs = random_mv_set(rng, 4, 3)
        stats = blocks_from(["10X1", "10X1", "0000", "10X1"])
        assert stats.total == 4
        assert stats.n_unique == 2
        first = cover(stats, mvs)
        assert cover(stats, ["UUUU"]).tolist() == [0] * 4
        assert np.array_equal(cover(stats, mvs), first)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cover(blocks_from(["01"]), ["0"])

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
        assert blocks_from(strings).n_unique == len(set(strings))
        assert BlockStats(blocks[:0]).n_unique == 0

    def test_assignments_are_read_only(self):
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        mvs = ["111U", "1110", "0000"]
        assignment = cover(blocks, mvs)
        merged = subsume_merge(assignment, mvs, 4)
        assert merged.tolist() == [0] * 8 + [2] * 2
        for array in (assignment, merged):
            assert array.dtype == np.int64 and not array.flags.writeable


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
    return vectors, blocks_from(blocks, k)


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
            got = cover(blocks, mvs)
            assert tuple(got.tolist()) == assignment
            assert tuple(frequencies(got, len(mvs))) == expected

    @pytest.mark.parametrize("k", [1, 12, 65])
    def test_only_unmatched_block_is_block_1000(self, k):
        symbols = ["0" * k, "X" * k] * 499 + ["0" * k, "1" * k]
        with pytest.raises(UnmatchedBlock) as err:
            cover(blocks_from(symbols), ["0" * k])
        assert err.value.block_index == 1000


class TestHuffman:
    def test_three_symbol_example(self):
        codebook = build_huffman([5, 3, 2])
        assert codebook == {0: "0", 1: "10", 2: "11"}

    def test_two_symbol_merged_example(self):
        codebook = build_huffman([8, 0, 2])
        assert sorted(len(c) for c in codebook.values()) == [1, 1]
        assert set(codebook) == {0, 2}

    def test_single_symbol_gets_empty_codeword(self):
        assert build_huffman([7]) == {0: ""}
        assert build_huffman([0, 7, 0]) == {1: ""}

    def test_zero_frequencies_omitted(self):
        codebook = build_huffman([0, 5, 0, 3])
        assert set(codebook) == {1, 3}

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
            codes = list(codebook.values())
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
        values = [int(codebook[i], 2) for i in ordered]
        assert values == sorted(values)

    def test_huffman_cost_examples(self):
        assert huffman_cost([5, 3, 2]) == 15  # merges 5 + 10
        assert huffman_cost([0, 7, 0]) == 0
        assert huffman_cost([]) == 0
        assert huffman_cost([4, 4]) == 8

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), shape=st.sampled_from(["ties", "wide", "huge"]))
    def test_huffman_cost_agrees_with_heap(self, data, shape):
        weights = {"ties": st.sampled_from((0, 0, 1, 2, 3, 5)),
                   "wide": st.integers(0, 10**6),
                   "huge": st.one_of(st.integers(0, 3), st.integers(1 << 60, 1 << 70))}[shape]
        freqs = data.draw(st.lists(weights, max_size=64))
        assert huffman_cost(freqs) == naive_huffman_cost(freqs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), leaves=st.lists(st.integers(1, 1000), min_size=1, max_size=5))
    def test_huffman_cost_is_the_brute_force_optimum(self, data, leaves):
        # zeros scattered among the leaves must not change the cost
        freqs = data.draw(st.permutations(leaves + [0] * data.draw(st.integers(0, 6))))
        assert huffman_cost(freqs) == optimal_prefix_cost(leaves)

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


def two_vector_stream(codewords) -> EncodedStream:
    """A one-symbol stream whose table holds the vectors 0 and 1."""
    return EncodedStream(payload=b"", payload_bits=0, k=1, mv_table=("0", "1"),
                         codewords=codewords, original_length=1)


class TestEncodedStream:
    """The codewords are checked when the stream is built, never later."""

    @pytest.mark.parametrize("codewords", [("0", "01"), ("1", "1"), ("", "0")],
                             ids=["prefix", "repeat", "empty"])
    def test_rejects_prefix_violation(self, codewords):
        with pytest.raises(ValueError, match="not prefix-free"):
            two_vector_stream(codewords)

    def test_rejects_symbols_other_than_0_and_1(self):
        with pytest.raises(ValueError, match="other than 0 and 1"):
            two_vector_stream(("0", "1X"))

    @pytest.mark.parametrize("codewords", [("",), ("0", "10", "11"), ()],
                             ids=["one_short", "one_over", "none"])
    def test_one_codeword_per_table_vector(self, codewords):
        # a table vector without a codeword has nothing to write in the
        # container's codeword table
        with pytest.raises(ValueError, match="one codeword per vector"):
            two_vector_stream(codewords)

    def test_codewords_fixed_once_checked(self):
        # a 300-bit codeword put in after the checks would not fit the
        # container's length byte
        codewords = ["0", "1"]
        stream = two_vector_stream(codewords)
        codewords[0] = "0" * 300
        with pytest.raises(TypeError):
            stream.codewords[0] = "0" * 300
        assert stream.codewords == ("0", "1")
        assert read_container(write_container(stream)) == stream


    def test_payload_fixed_once_checked(self):
        # the stream keeps a copy: growing the caller's buffer changes nothing
        payload = bytearray(b"\x80")
        stream = EncodedStream(payload=payload, payload_bits=1, k=1, mv_table=("U",),
                               codewords=("",), original_length=1)
        written = write_container(stream)
        payload[0] = 0
        payload.append(0xFF)
        assert stream.payload == b"\x80"
        assert write_container(stream) == written
        assert decode(stream) == "1"

    def test_payload_byte_count_must_match_payload_bits(self):
        with pytest.raises(ValueError,
                           match="^payload byte count disagrees with payload_bits$"):
            EncodedStream(payload=b"\x00", payload_bits=9, k=1, mv_table=("0",),
                          codewords=("",), original_length=1)

    @pytest.mark.parametrize("field, value", [
        ("k", 1.0), ("k", True), ("original_length", 2.0), ("pattern_width", 2.0),
    ])
    def test_counts_must_be_integers(self, field, value):
        # write_container cannot pack any of these into the header's integers
        kwargs = dict(payload=b"", payload_bits=0, k=1, mv_table=("0",),
                      codewords=("",), original_length=2)
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            EncodedStream(**{**kwargs, field: value})

    def test_payload_bits_must_not_be_negative(self):
        # decode would report -3 undecoded payload bits
        with pytest.raises(ValueError, match="payload_bits >= 0$"):
            EncodedStream(payload=b"", payload_bits=-3, k=1, mv_table=("0",),
                          codewords=("",), original_length=1)

    def test_rejects_codeword_over_255_bits(self):
        # encode_all refuses such a codebook first; a stream built directly
        # meets this check
        with pytest.raises(ValueError, match="^codeword of 256 bits exceeds 255$"):
            two_vector_stream(("0" * 256, "1"))


class TestEncodingLength:
    """A block's word is |codeword| + N_U bits."""

    def test_examples(self):
        assert len(encode_one("1110", "111U", {0: "0"})) == 2
        assert len(encode_one("01X10X", "UUUUUU", {0: "11111"})) == 11
        assert len(encode_one("1100", "1100", {0: "1"})) == 1

    def test_no_codeword(self):
        with pytest.raises(NoCodeword):
            encode_one("10", "1U", {1: "0"})


def encode_one(symbols: str, v: str, codebook: dict[int, str],
               **kwargs) -> str:
    """Payload bits of a one-block stream whose block is assigned to ``v``,
    vector 0; vector 1 is all U and takes no block."""
    stream = encode_all(blocks_from([symbols]), np.zeros(1, dtype=np.int64), codebook,
                        [v, "U" * len(v)], **kwargs)
    return payload_bitstring(stream)


class TestEncodeBlock:
    """``encode_all`` on one-block inputs."""

    def test_fill_bits_follow_codeword(self):
        codebook = {0: "11010"}
        assert encode_one("111100", "111UUU", codebook) == "11010100"
        assert encode_one("111011", "111UUU", codebook) == "11010011"

    def test_x_fills_as_zero_by_default(self):
        codebook = {0: "1"}
        assert encode_one("1X10", "UU10", codebook) == "110"

    def test_fill_policies(self):
        codebook = {0: ""}
        assert encode_one("XX", "UU", codebook, fill="one") == "11"
        rng = random.Random(0)
        bits = encode_one("XX", "UU", codebook, fill="random", rng=rng)
        assert set(bits) <= {"0", "1"}
        with pytest.raises(InvalidConfig):
            encode_one("XX", "UU", codebook, fill="bogus")

    def test_not_matching(self):
        with pytest.raises(NotMatching):
            encode_one("10", "01", {0: "0"})

    def test_no_codeword(self):
        with pytest.raises(NoCodeword):
            encode_one("10", "10", {1: "0"})


class TestEncodeAll:
    def test_worked_example_payload(self):
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        mvs = ["111U", "1110", "0000"]
        assignment = cover(blocks, mvs)
        codebook = build_huffman(frequencies(assignment, 3))
        stream = encode_all(blocks, assignment, codebook, mvs)
        assert stream.payload_bits == 20

    def test_merged_example_payload(self):
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        mvs = ["111U", "1110", "0000"]
        merged = subsume_merge(cover(blocks, mvs), mvs, 4)
        freqs = frequencies(merged, 3)
        assert freqs == [8, 0, 2]
        assert [v for v, f in zip(mvs, freqs) if f] == ["111U", "0000"]
        stream = encode_all(blocks, merged, build_huffman(freqs), mvs)
        assert stream.payload_bits == 18

    @pytest.mark.parametrize("symbols", ["0101", "X101"])  # no X at a U; one X
    @pytest.mark.parametrize("fill, rng", [("bogus", None), ("random", None)])
    def test_fill_checked_before_encoding(self, symbols, fill, rng):
        blocks = blocks_from([symbols])
        mvs = ["U101"]
        assignment = cover(blocks, mvs)
        with pytest.raises(InvalidConfig):
            encode_all(blocks, assignment, build_huffman([1]), mvs, fill=fill, rng=rng)

    def test_codeword_over_255_bits_rejected(self):
        # the container stores each codeword length in one byte
        blocks = blocks_from(["01", "10"])
        mvs = ["UU"]
        assignment = cover(blocks, mvs)
        with pytest.raises(ValueError, match="256 bits"):
            encode_all(blocks, assignment, {0: "0" * 256}, mvs)

    @pytest.mark.parametrize("codebook, error", [
        ({0: "2"}, "other than 0 and 1"),
        ({0: "1X"}, "other than 0 and 1"),
        ({0: "0", 1: "01"}, "not prefix-free"),
    ], ids=["digit", "x", "prefix"])
    @pytest.mark.parametrize("fill", FILL_CHOICES)
    def test_codebook_the_stream_refuses_rejected(self, codebook, error, fill):
        blocks = blocks_from(["01", "1X"])
        with pytest.raises(ValueError, match=error):
            encode_all(blocks, np.zeros(2, dtype=np.int64), codebook,
                       ["UU", "UU"], fill, random.Random(0))

    def test_codeword_length_checked_before_encoding(self):
        # a slice's matrices would take (blocks) x (codeword + K) bytes
        blocks = blocks_from(["0110"] * 2000)
        mvs = ["UUUU"]
        assignment = cover(blocks, mvs)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="20000 bits"):
                encode_all(blocks, assignment, {0: "0" * 20_000}, mvs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_255_bit_codeword_round_trips(self):
        blocks = blocks_from(["01", "10"])
        mvs = ["UU"]
        assignment = cover(blocks, mvs)
        stream = encode_all(blocks, assignment, {0: "0" * 255}, mvs)
        assert stream.payload_bits == 2 * 257
        assert decode(read_container(write_container(stream))) == "0110"

    def test_not_matching_names_first_block(self):
        # vector 0 fails at block 4, vector 1 already at block 3
        blocks = blocks_from(["00", "11", "01", "10"])
        assignment = np.array([0, 1, 1, 0])
        with pytest.raises(NotMatching, match="^vector 1U does not match block 01$"):
            encode_all(blocks, assignment, {0: "0", 1: "1"},
                       ["0U", "1U"])

    def test_table_vector_of_another_length_rejected(self):
        # an unassigned vector of length 2 would enter a K=4 stream's table
        with pytest.raises(ValueError, match="not 4 symbols"):
            encode_all(blocks_from(["0000"]), np.array([0]), {0: "0", 1: "1"},
                       ["0000", "UU"])

    @pytest.mark.parametrize("assigned, keys", [
        ([0, 2], (0, 1)),  # an index past the last vector
        ([0, -1], (0, 1)),  # -1 would alias the last vector
        ([0, 1], (0, 1, 2)),  # a codebook key past the last vector
        ([0, 1], (-1, 0, 1)),  # a key of -1 would list vector 1 twice
    ])
    def test_index_outside_the_vectors_rejected(self, assigned, keys):
        codes = ["00", "01", "10"][: len(keys)]
        with pytest.raises(ValueError, match="outside the 2 given"):
            encode_all(blocks_from(["00", "11"]), np.array(assigned),
                       dict(zip(keys, codes)), ["UU", "UU"])

    @pytest.mark.parametrize("original_length", [0, 4, 9])
    def test_original_length_must_fit_the_blocks(self, original_length):
        # 2 blocks of K=4 hold 5 to 8 symbols
        with pytest.raises(ValueError):
            encode_all(blocks_from(["0000", "1111"]), np.array([0, 0]),
                       {0: ""}, ["UUUU"], original_length=original_length)

    def test_symbol_other_than_0_1_x_rejected(self):
        with pytest.raises(ValueError, match="other than 0, 1 and X"):
            encode_all(blocks_from(["0x"]), np.array([0]), {0: ""}, ["UU"])

    @pytest.mark.parametrize("assigned", [[0], [0, 0, 0]])
    def test_assignment_of_another_length_rejected(self, assigned):
        with pytest.raises(ValueError,
                           match=f"^assignment covers {len(assigned)} of 2 blocks$"):
            encode_all(blocks_from(["00", "11"]), np.array(assigned), {0: ""}, ["UU"])

    def test_block_stats_input(self):
        # blocks enter only as the stats of the 2-D uint8 matrix that
        # core.partition returns
        strings = ["10X1", "0000"]
        matrix = partition("".join(strings), 4)
        assert BlockStats(matrix).blocks is matrix
        for other in (strings, np.array(strings), matrix.astype(np.int64),
                      matrix.ravel(), matrix[:, :0]):
            with pytest.raises(ValueError):
                BlockStats(other)

    def test_zero_blocks(self):
        # no block holds a symbol, and a stream holds at least one
        with pytest.raises(ValueError):
            encode_all(blocks_from([]), np.zeros(0, dtype=np.int64), {}, [])

    def test_payload_bits_identity(self):
        rng = random.Random(21)
        for _ in range(40):
            k = rng.randrange(1, 9)
            mvs = random_mv_set(rng, k, 4)
            ts = random_test_set(rng)
            from tercode import flatten, partition as cut

            blocks = BlockStats(cut(flatten(ts), k))
            assignment = cover(blocks, mvs)
            freqs = frequencies(assignment, len(mvs))
            codebook = build_huffman(freqs)
            stream = encode_all(blocks, assignment, codebook, mvs)
            expected = sum(
                f * (len(codebook[i]) + mvs[i].count("U"))
                for i, f in enumerate(freqs)
                if f
            )
            assert stream.payload_bits == expected
            n_us = [v.count("U") for v in mvs]
            assert payload_bits_for(freqs, n_us) == expected


@st.composite
def encode_cases(draw):
    """Block stats, a hand-built assignment, a codebook and vectors at K 1-13.

    The assignment gives each block a random matching vector; faults are
    drawn independently: blocks moved to a non-matching vector or to a
    vector of the wrong length, a missing codeword."""
    k = draw(st.sampled_from([1, 2, 5, 13]))
    symbols = st.text(alphabet="01U", min_size=k, max_size=k)
    vectors = draw(st.lists(symbols, min_size=0, max_size=5)) + ["U" * k]
    if draw(st.booleans()):
        vectors.insert(draw(st.integers(0, len(vectors))),
                       draw(st.text(alphabet="01U", min_size=1, max_size=k + 2)))
    rng = draw(st.randoms(use_true_random=False))
    blocks, assignment = [], []
    for _ in range(draw(st.integers(1, 40))):
        near = rng.choice([v for v in vectors if len(v) == k])
        blocks.append("".join(rng.choice("01X") if ch == "U" else ch for ch in near))
        fits = [i for i, v in enumerate(vectors)
                if len(v) == k and char_match(blocks[-1], v)]
        assignment.append(rng.choice(fits))
    for _ in range(draw(st.integers(0, 3))):
        assignment[rng.randrange(len(blocks))] = rng.randrange(len(vectors))
    codebook = build_huffman([assignment.count(i) for i in range(len(vectors))])
    if draw(st.booleans()):
        del codebook[rng.choice(sorted(codebook))]
    fill = draw(st.sampled_from(["zero", "one", "random"]))
    return blocks_from(blocks), np.array(assignment), codebook, vectors, fill


class TestEncodeProperties:
    @settings(max_examples=400, deadline=None)
    @given(encode_cases(), st.integers(0, 2**32))
    def test_agrees_with_naive_encoder(self, case, seed):
        stats, assignment, codebook, mvs, fill = case
        try:
            want = naive_encode_bits(stats, assignment, codebook, mvs,
                                     fill, random.Random(seed))
        except TercodeError as exc:
            with pytest.raises(TercodeError) as err:
                encode_all(stats, assignment, codebook, mvs, fill, random.Random(seed))
            assert type(err.value) is type(exc)
            if isinstance(exc, NotMatching):
                assert str(err.value) == str(exc)
            return
        stream = encode_all(stats, assignment, codebook, mvs, fill, random.Random(seed))
        assert payload_bitstring(stream) == want
        assert (stream.block_count, stream.k) == (stats.total, stats.k)


@st.composite
def slice_cases(draw):
    """Encodable block stats, their assignment and Huffman code at K 1-13.

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
    return (blocks_from(blocks), np.array(assignment), build_huffman(counts),
            vectors)


# sizes at and around 32-bit word edges, and a few thousand
SIZES_AT_WORD_EDGES = st.sampled_from(
    [0, 1, 2, 31, 32, 33, 63, 64, 65, 756, 2048, 4999]) | st.integers(0, 5000)


class TestRngWords:
    """``codec.rng_words`` relies on CPython's ``getrandbits``: one draw of
    32*m bits packs, least significant first, the m words that m
    ``getrandbits(32)`` calls return, and ``getrandbits(1)`` is the top bit
    of one word.  These tests pin that behaviour of the interpreter."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64), SIZES_AT_WORD_EDGES)
    def test_words_equal_per_word_calls(self, seed, m):
        bulk, calls = random.Random(seed), random.Random(seed)
        words = codec.rng_words(bulk, m)
        assert words.dtype == np.uint32 and words.shape == (m,)
        assert words.tolist() == [calls.getrandbits(32) for _ in range(m)]
        assert bulk.getstate() == calls.getstate()
        assert bulk.random() == calls.random()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64), SIZES_AT_WORD_EDGES)
    def test_top_bits_equal_per_bit_calls(self, seed, m):
        bulk, calls = random.Random(seed), random.Random(seed)
        bits = (codec.rng_words(bulk, m) >> 31).tolist()
        assert bits == [calls.getrandbits(1) for _ in range(m)]
        assert bulk.getstate() == calls.getstate()
        assert bulk.random() == calls.random()


class TestEncodeSlices:
    """``encode_all`` works a slice of blocks at a time and carries the
    bits after the last full byte of a slice into the next one."""

    @staticmethod
    def assert_agrees(stats, assignment, codebook, mvs, fill, seed):
        rng = random.Random(seed)
        want = naive_encode_bits(stats, assignment, codebook, mvs, fill, rng)
        after = rng.random()
        rng = random.Random(seed)
        stream = encode_all(stats, assignment, codebook, mvs, fill, rng)
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
        mvs = ["0U1UU", "10UU1", "UUUUU"]
        blocks = blocks_from([
            "".join(rng.choice("01X") if ch == "U" else ch
                    for ch in mvs[rng.randrange(3)])
            for _ in range(70_000)
        ])
        assignment = cover(blocks, mvs)
        assert blocks.total > codec._SLICE
        self.assert_agrees(blocks, assignment, build_huffman(frequencies(assignment, 3)),
                           mvs, "random", 5)

    @pytest.mark.parametrize("fill", ["zero", "random"])
    def test_large_k_slices_agree_with_one_slice(self, fill):
        # at K=1000 a slice holds 786 blocks, so 2,000 blocks take three
        k, gen = 1000, np.random.default_rng(3)
        mvs = ["0" * 10 + "U" * 990, "U" * 995 + "10110", "U" * k]
        rows = gen.choice(np.frombuffer(b"01X", dtype=np.uint8), size=(2000, k))
        rows[::3, :10] = ord("0")
        rows[1::3, -5:] = np.frombuffer(b"10110", dtype=np.uint8)
        stats = BlockStats(rows)
        assignment = cover(stats, mvs)
        codebook = build_huffman(frequencies(assignment, 3))
        assert len(set(map(len, codebook.values()))) > 1
        assert stats.total > 2 * (codec._SLICE * 12 // k)
        rng = random.Random(8)
        sliced = encode_all(stats, assignment, codebook, mvs, fill, rng)
        with mock.patch.object(codec, "_SLICE", 1 << 30):
            one_rng = random.Random(8)
            whole = encode_all(stats, assignment, codebook, mvs, fill, one_rng)
        assert sliced == whole
        assert rng.getstate() == one_rng.getstate()
        assert payload_bitstring(sliced) == naive_encode_bits(
            stats, assignment, codebook, mvs, fill, random.Random(8))

    def test_large_k_encode_memory_follows_the_slice(self):
        # 8 Mbit at K=1000: 5.6-9.0 MB here, 32-67 MB as one slice
        rows = np.random.default_rng(4).choice(
            np.frombuffer(b"01X", dtype=np.uint8), size=(8000, 1000))
        rows[::2, :10] = ord("0")
        stats = BlockStats(rows)
        mvs = ["0" * 10 + "U" * 990, "U" * 1000]
        assignment = cover(stats, mvs)
        codebook = build_huffman(frequencies(assignment, 2))
        tracemalloc.start()
        try:
            encode_all(stats, assignment, codebook, mvs, "random", random.Random(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def blocks_of(mvs, picks, rng, x_at_specified=0.0):
    """One block per index in ``picks``: its vector with each U drawn from
    0, 1 and X, and each specified symbol an X with the given chance."""
    return ["".join(rng.choice("01X") if ch == "U"
                    else "X" if rng.random() < x_at_specified else ch
                    for ch in mvs[i])
            for i in picks]


def template_case(name):
    """(stats, assignment, codebook, vectors) of one ``encode_all`` case."""
    rng = random.Random(name)
    if name == "one vector, empty codeword":
        mvs = ["U1UU"]
        stats = blocks_from(blocks_of(mvs, [0] * 9, rng))
        return stats, np.zeros(9, dtype=np.int64), {0: ""}, mvs
    if name == "codewords of every length up to top":
        mvs = ["UUUUU", "0UUUU", "1UUUU", "U0UUU", "UU1UU", "000UU", "1U1U1", "00000",
               "11111"]
        codebook = {i: "0" * i + "1" for i in range(8)} | {8: "0" * 8}
        # every vector takes a block, so codewords of 1 to 8 bits are written
        picks = [rng.randrange(9) for _ in range(200)] + list(range(9))
        return blocks_from(blocks_of(mvs, picks, rng)), np.array(picks), codebook, mvs
    if name == "a vector with no U":
        mvs = ["0110", "UUUU"]
        picks = [0, 1, 0, 0, 1]
        return (blocks_from(blocks_of(mvs, picks, rng)), np.array(picks),
                {0: "0", 1: "1"}, mvs)
    if name == "X at specified positions":
        mvs = ["01UU", "U1U0", "UUUU"]
        picks = [rng.randrange(3) for _ in range(60)]
        return (blocks_from(blocks_of(mvs, picks, rng, x_at_specified=0.5)),
                np.array(picks), {0: "0", 1: "10", 2: "11"}, mvs)
    if name == "a foreign byte at a specified position":
        # 'A' and '2' are neither 0 nor 1, so both vectors match them
        return (blocks_from(["A1", "2X", "A0"]), np.array([0, 1, 0]),
                {0: "0", 1: "1"}, ["0U", "1U"])
    # K = 13: 60,494 blocks a slice, so 61,000 take two
    mvs = ["0U1UUUUUUUU10", "UUUUU11UUUUUU", "UUUUUUUUUUUUU", "1111100000111"]
    picks = [rng.randrange(4) for _ in range(61_000)]
    stats = blocks_from(blocks_of(mvs, picks, rng, x_at_specified=0.1))
    assert stats.total > codec._SLICE * 12 // 13
    assignment = cover(stats, mvs)
    return stats, assignment, build_huffman(frequencies(assignment, 4)), mvs


class TestEncodeTemplate:
    """``encode_all`` ORs a block's bits into a copy of its vector's row of
    one template: codeword bits, then 0 at each U and 4 at each specified
    position, and writes the cells below 4."""

    @pytest.mark.parametrize("name", [
        "one vector, empty codeword",
        "codewords of every length up to top",
        "a vector with no U",
        "X at specified positions",
        "a foreign byte at a specified position",  # accepted: the symbol is dropped
        "K=13 over two slices",
    ])
    @pytest.mark.parametrize("fill", FILL_CHOICES)
    def test_agrees_with_naive_encoder(self, name, fill):
        stats, assignment, codebook, mvs = template_case(name)
        TestEncodeSlices.assert_agrees(stats, assignment, codebook, mvs, fill, 5)

    @pytest.mark.parametrize("fill", FILL_CHOICES)
    @pytest.mark.parametrize("symbols", ["0A", "02", "0\x00"])
    def test_foreign_byte_at_a_u_position_rejected(self, symbols, fill):
        stats = blocks_from(["01", "1X", symbols])
        with pytest.raises(ValueError, match="^a block holds a symbol other than 0, 1 and X$"):
            encode_all(stats, np.array([0, 1, 0]), {0: "0", 1: "1"}, ["0U", "UU"],
                       fill, random.Random(2))


class TestDecode:
    def test_table_vector_of_another_length_rejected(self):
        # would decode to "0", one symbol where the header declares four
        with pytest.raises(ValueError, match="not 4 symbols"):
            EncodedStream(payload=b"", payload_bits=0, k=4,
                          mv_table=("0",), codewords=("",),
                          original_length=4)

    def _nine_code_stream(self, payload_bits: str) -> EncodedStream:
        from tercode import nine_codebook, nine_mvs

        packed = bytearray()
        padded = payload_bits + "0" * (-len(payload_bits) % 8)
        for i in range(0, len(padded), 8):
            packed.append(int(padded[i : i + 8], 2))
        return EncodedStream(
            payload=bytes(packed),
            payload_bits=len(payload_bits),
            k=6,
            mv_table=nine_mvs(6),
            codewords=tuple(nine_codebook().values()),
            original_length=6,
        )

    def test_fixed_code_example(self):
        stream = self._nine_code_stream("11010100")
        assert decode(stream) == "111100"

    def test_dangling_bits(self):
        stream = self._nine_code_stream("110101000")
        with pytest.raises(DanglingBits):
            decode(stream)

    def test_truncated_payload(self):
        stream = self._nine_code_stream("1101010")
        with pytest.raises(TruncatedPayload):
            decode(stream)

    def test_unknown_codeword(self):
        stream = EncodedStream(
            payload=bytes([0b11000000]),
            payload_bits=2,
            k=2,
            mv_table=("00", "01"),
            codewords=("0", "10"),
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
    """A stream's table, codewords and payload bits, before any damage.

    The codewords are the Huffman code of random frequencies, of Fibonacci
    frequencies (18-22 vectors, so the longest codewords have 17-21 bits)
    or of one vector (the lone empty codeword).  The table may lose one
    vector with its codeword, so that the payload holds a codeword the
    decoder does not know.  The payload encodes 0-40 blocks, and
    ``original_length`` may end anywhere inside the last one."""
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
    mvs = tuple(draw(st.text(alphabet="01U", min_size=k, max_size=k))
                for _ in freqs)
    codebook = build_huffman(freqs)
    table = list(range(len(mvs)))
    if draw(st.booleans()):
        table.remove(draw(st.sampled_from(table)))
    rng = draw(st.randoms(use_true_random=False))
    block_count = draw(st.integers(0, 40 if shape != "fibonacci" else 16))
    words = []
    for _ in range(block_count):
        index = rng.randrange(len(mvs))
        fills = "".join(rng.choice("01") for _ in range(mvs[index].count("U")))
        words.append(codebook[index] + fills)
    original_length = (
        draw(st.integers((block_count - 1) * k + 1, block_count * k))
        if block_count else 0
    )
    return ("".join(words), block_count, k, tuple(mvs[i] for i in table),
            tuple(codebook[i] for i in table), original_length)


def assert_decodes_as_naive(bits, block_count, k, mvs, codewords, original_length,
                            max_symbols=MAX_DECODE_SYMBOLS):
    """``decode`` gives the reference decoder's output or error class."""
    def build():
        return EncodedStream(payload=pack_bits(bits), payload_bits=len(bits),
                             k=k, mv_table=mvs, codewords=codewords,
                             original_length=original_length)

    if not block_count:
        # a stream holds at least one symbol, so at least one block
        with pytest.raises(ValueError):
            build()
        return
    stream = build()
    assert stream.block_count == block_count
    assert read_container(write_container(stream)) == stream
    try:
        want = naive_decode(stream, max_symbols)
    except TercodeError as exc:
        with pytest.raises(TercodeError) as err:
            decode(stream, max_symbols)
        assert type(err.value) is type(exc)
        return
    assert decode(stream, max_symbols) == want


class TestDecodeProperties:
    @staticmethod
    def assert_variants_agree(case, appended, cap):
        """The payload itself, every truncation of it, every one-bit flip
        of it and the payload with bits appended."""
        bits, *rest = case
        max_symbols = {"default": MAX_DECODE_SYMBOLS, "exact": rest[-1],
                       "one short": rest[-1] - 1}[cap]
        variants = [bits, bits + appended]
        variants += [bits[:cut] for cut in range(len(bits))]
        variants += [bits[:i] + "10"[int(bits[i])] + bits[i + 1:]
                     for i in range(len(bits))]
        for variant in variants:
            assert_decodes_as_naive(variant, *rest, max_symbols)

    @settings(max_examples=200, deadline=None)
    @given(decode_cases(), st.text(alphabet="01", min_size=1, max_size=24),
           st.sampled_from(["default", "exact", "one short"]))
    def test_agrees_with_naive_decoder(self, case, appended, cap):
        """Same output or the same error class as the reference decoder."""
        self.assert_variants_agree(case, appended, cap)

    @settings(max_examples=200, deadline=None)
    @given(decode_cases(), st.text(alphabet="01", min_size=1, max_size=24),
           st.sampled_from(["default", "exact", "one short"]),
           st.integers(8, 64), st.integers(8, 512))
    def test_small_chunks_and_spans_agree_with_naive_decoder(self, case, appended, cap,
                                                             chunk, span):
        """With walkers 8-64 bits apart and spans of 8-512 bits, every
        draw crosses many walkers, joins and span ends."""
        with mock.patch.object(codec, "_CHUNK", chunk), \
                mock.patch.object(codec, "_SPAN", span):
            self.assert_variants_agree(case, appended, cap)


@st.composite
def gather_cases(draw):
    """A stream whose U cells sit anywhere in K, for the fill gather.

    K is 1-40.  The table is either the lone all-U vector with the empty
    codeword, so that a word's first bit is a U cell, or 2-24 vectors, each
    of 0, 1 and U or of 0 and 1 alone (no U), under the Huffman code of
    random frequencies.  The payload encodes 1-60 blocks, and
    ``original_length`` may end anywhere inside the last one."""
    k = draw(st.integers(1, 40))
    if draw(st.booleans()):
        mvs, freqs = ["U" * k], [1]
    else:
        alphabets = draw(st.lists(st.sampled_from(["01U", "01"]), min_size=2, max_size=24))
        mvs = [draw(st.text(alphabet=a, min_size=k, max_size=k)) for a in alphabets]
        freqs = draw(st.lists(st.integers(1, 50), min_size=len(mvs), max_size=len(mvs)))
    codebook = build_huffman(freqs)
    rng = draw(st.randoms(use_true_random=False))
    block_count = draw(st.integers(1, 60))
    words = []
    for _ in range(block_count):
        index = rng.randrange(len(mvs))
        fills = "".join(rng.choice("01") for _ in range(mvs[index].count("U")))
        words.append(codebook[index] + fills)
    original_length = draw(st.integers((block_count - 1) * k + 1, block_count * k))
    return ("".join(words), block_count, k, tuple(mvs),
            tuple(codebook[i] for i in range(len(mvs))), original_length)


class TestDecodeGather:
    @settings(max_examples=150, deadline=None)
    @given(gather_cases(), st.integers(8, 512), st.integers(1, 3), st.data())
    def test_agrees_with_naive_decoder(self, case, span, rows, data):
        """Same output or the same error class as the reference decoder,
        with spans of 8-512 bits and gathers of 1-3 rows, so that both
        split mid-stream; also for one truncation and one bit flip."""
        bits, *rest = case
        cut = data.draw(st.integers(0, len(bits)))
        flip = data.draw(st.integers(0, len(bits) - 1))  # every word is 1 bit or more
        variants = [bits, bits[:cut], bits[:flip] + "10"[int(bits[flip])] + bits[flip + 1:]]
        with mock.patch.object(codec, "_SPAN", span), \
                mock.patch.object(codec, "_FILL", rows * case[2]):
            for variant in variants:
                assert_decodes_as_naive(variant, *rest)


def fibonacci(count: int) -> list[int]:
    """The first ``count`` Fibonacci numbers from 1, 1: as frequencies,
    their Huffman code's two longest codewords hold ``count`` - 1 bits."""
    freqs = [1, 1]
    while len(freqs) < count:
        freqs.append(freqs[-1] + freqs[-2])
    return freqs


class TestDecodeWalkers:
    """``decode`` at the edges of walkers, against the reference decoder.
    Walkers start every ``CHUNK`` bits here."""

    CHUNK = 32

    def check(self, words, k, mvs, codewords, blocks=None, chunk=CHUNK):
        blocks = len(words) if blocks is None else blocks
        with mock.patch.object(codec, "_CHUNK", chunk):
            assert_decodes_as_naive("".join(words), blocks, k, tuple(mvs),
                                    tuple(codewords), blocks * k)

    def test_zero_width_words(self):
        # one fully specified vector with the empty codeword reads no bit
        for blocks in (1, 5, 70_000):
            self.check([""] * blocks, 3, ["101"], [""])
            self.check(["1"], 3, ["101"], [""], blocks=blocks)

    def test_one_width_words(self):
        # a lone codeword of a vector with U positions: every word is 5 bits,
        # and the walkers start on word starts, 30 bits apart and then, in a
        # full 2^20-bit span, 510 bits apart
        rng = random.Random(16)
        words = ["".join(rng.choice("01") for _ in range(5)) for _ in range(3000)]
        self.check(words, 7, ["1UU0UUU"], [""])
        fill = np.random.default_rng(16).integers(0, 2, (210_000, 5), dtype=np.uint8)
        blocks = np.full((210_000, 7), ord("0"), dtype=np.uint8)
        blocks[:, 0] = ord("1")
        blocks[:, [1, 2, 4, 5, 6]] += fill
        stream = EncodedStream(payload=np.packbits(fill).tobytes(), payload_bits=fill.size,
                               k=7, mv_table=("1UU0UUU",), codewords=("",),
                               original_length=blocks.size)
        spacings = TestWalkerSpacing.spacings(stream, blocks.tobytes().decode("ascii"))
        assert spacings == [510, 60]

    def test_one_block(self):
        mvs, codewords = ["UUUU", "0000"], ["0", "1"]
        self.check(["01101"], 4, mvs, codewords)
        self.check(["1"], 4, mvs, codewords)
        self.check(["1", "1"], 4, mvs, codewords, blocks=1)
        self.check(["0110"], 4, mvs, codewords)

    @pytest.mark.parametrize("offset", range(-21, 4))
    def test_long_codewords_across_a_chunk_edge(self, offset):
        # after 1-bit words, the 17-21-bit codewords start from 21 bits
        # before the edge at bit 3 * CHUNK to 3 bits after it
        codebook = build_huffman(fibonacci(22))
        codewords = [codebook[i] for i in range(22)]
        mvs = ["0U" if len(code) > 16 else "01" for code in codewords]
        short = min(range(22), key=lambda i: len(codewords[i]))
        words = [codewords[short]] * (3 * self.CHUNK + offset)
        words += [code + "1" for code in codewords if len(code) > 16]
        self.check(words + [codewords[short]] * 5, 2, mvs, codewords)

    @pytest.mark.parametrize("edge", [-1, 0])
    @pytest.mark.parametrize("fault", ["unknown", "codeword", "fill", "dangling"])
    def test_errors_at_a_chunk_edge(self, fault, edge):
        # the bad word starts on the last bit of a chunk or the first of the
        # next; 0 takes one fill bit, and no codeword starts with 111
        mvs, codewords = ["U0", "11", "00"], ["0", "10", "110"]
        words = ["10"] * (self.CHUNK - 2) + (["110"] if edge else ["10", "10"])
        assert len("".join(words)) == 2 * self.CHUNK + edge
        tail = {"unknown": ["111"] + ["10"] * 20, "codeword": ["11"], "fill": ["0"],
                "dangling": ["10"]}[fault]
        blocks = len(words) if fault == "dangling" else None
        self.check(words + tail, 2, mvs, codewords, blocks=blocks)

    def test_output_cap_checked_before_the_walk(self):
        stream = EncodedStream(payload=b"\xff", payload_bits=8, k=2, mv_table=("00",),
                               codewords=("0",), original_length=10)
        with mock.patch.object(codec, "_word_starts", side_effect=AssertionError):
            with pytest.raises(OutputTooLarge):
                decode(stream, max_symbols=9)

    def test_peak_memory_per_symbol(self):
        # 420,000 blocks of K=12 under the nine 9C vectors, as in the
        # benchmark's stream corpus; the result alone takes a byte a symbol
        rng = np.random.default_rng(16)
        kind = rng.integers(0, 4, 420_000)
        blocks = (rng.integers(0, 2, (420_000, 12)) + ord("0")).astype(np.uint8)
        blocks[kind == 0] = ord("0")
        blocks[kind == 1, 6:] = ord("1")
        stats, mvs = BlockStats(blocks), nine_mvs(12)
        assignment = cover(stats, mvs)
        stream = encode_all(stats, assignment,
                            build_huffman(frequencies(assignment, len(mvs))), mvs)
        tracemalloc.start()
        try:
            text = decode(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == blocks.tobytes().decode("ascii")
        assert peak <= 3 * len(text)


class TestWalkerSpacing:
    """Walkers start min(_CHUNK, max(64, isqrt(span bits) // 2)) bits
    apart, rounded down to the word widths' gcd."""

    @staticmethod
    def spacings(stream, expect_text=None):
        seen, word_starts = [], codec._word_starts

        def recording(step, win, first, end, chunk):
            seen.append(chunk)
            return word_starts(step, win, first, end, chunk)

        with mock.patch.object(codec, "_word_starts", recording):
            text = decode(stream)
        if expect_text is not None:
            assert text == expect_text
        gcd = np.gcd.reduce([len(c) + v.count("U")
                             for c, v in zip(stream.codewords, stream.mv_table)])
        assert all(chunk % gcd == 0 for chunk in seen)
        return seen

    @pytest.fixture(scope="class")
    def search_stream(self):
        # corpus 9001 under the benchmark's search budget: one span
        ts = generate_corpus(CorpusSpec(patterns=420, width=240, x_density=0.3, templates=4,
                                        flip_probability=0.05, template_width=12,
                                        rng_seed=9001))
        cfg = ea.EaConfig(k=12, l=64, rng_seed=7, stagnation_limit=30, max_evaluations=600)
        return pipeline.compress(ts, "ea", cfg).stream

    def test_search_payload(self, search_stream):
        assert search_stream.payload_bits == 66_222  # isqrt is 257
        assert self.spacings(search_stream) == [128]

    def test_patched_cap_is_the_spacing(self, search_stream):
        with mock.patch.object(codec, "_CHUNK", 32):
            assert self.spacings(search_stream) == [32]

    def test_full_span_reaches_the_cap(self):
        blocks = (np.random.default_rng(26).integers(0, 2, (100_000, 12))
                  + ord("0")).astype(np.uint8)
        stats, mvs = BlockStats(blocks), nine_mvs(12)
        assignment = cover(stats, mvs)
        stream = encode_all(stats, assignment,
                            build_huffman(frequencies(assignment, len(mvs))), mvs)
        assert stream.payload_bits > 1 << 20
        seen = self.spacings(stream, blocks.tobytes().decode("ascii"))
        assert len(seen) == 2 and seen[0] == 512

    @pytest.mark.parametrize("mvs, words, spacing", [
        (("UUU0000", "UUUUUUU"), ["0101", "11101110", "0000"], 64),  # widths 4 and 8
        (("UUUU00000", "UUUUUUUUU"), ["01010", "1111011100", "00000"], 60),  # 5 and 10
    ])
    def test_tiny_payload(self, mvs, words, spacing):
        bits = "".join(words)
        stream = EncodedStream(payload=pack_bits(bits), payload_bits=len(bits),
                               k=len(mvs[0]), mv_table=mvs, codewords=("0", "1"),
                               original_length=len(words) * len(mvs[0]))
        assert self.spacings(stream) == [spacing]


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
        assert subsumes("111U", "1110")
        assert not subsumes("1110", "111U")
        assert subsumes("UUUU", "10X1".replace("X", "0"))
        assert subsumes("1U", "1U")
        # exhaustive at K=3: subsumption is containment of the matched blocks
        vectors = ["".join(t) for t in itertools.product("01U", repeat=3)]
        blocks = ["".join(t) for t in itertools.product("01X", repeat=3)]
        for wider in vectors:
            for narrower in vectors:
                contained = all(char_match(b, wider) for b in blocks
                                if char_match(b, narrower))
                assert subsumes(wider, narrower) == contained

    def test_no_candidates_is_fixed_point(self):
        blocks = blocks_from(["11", "00"])
        mvs = ["11", "00"]
        assignment = cover(blocks, mvs)
        merged = subsume_merge(assignment, mvs, 2)
        assert np.array_equal(merged, assignment)
        assert frequencies(merged, 2) == [1, 1]

    def test_single_vector_unchanged(self):
        blocks = blocks_from(["10", "10"])
        mvs = ["1U"]
        assignment = cover(blocks, mvs)
        merged = subsume_merge(assignment, mvs, 2)
        assert np.array_equal(merged, assignment)
        assert frequencies(merged, 1) == [2]

    def test_no_accepted_drop_returns_a_read_only_copy(self):
        # ["00", "UU"] with frequencies [2, 1]: folding "00" into "UU" costs bits
        assignment = np.array([0, 0, 1])
        merged = subsume_merge(assignment, ["00", "UU"], 2)
        assert merged is not assignment
        assert not merged.flags.writeable
        assert np.array_equal(merged, assignment)

    def test_vector_of_wrong_length_rejected(self):
        with pytest.raises(LengthMismatch, match="vector length 1 != 2"):
            subsume_merge(np.zeros(2, dtype=np.int64), ["1U", "1"], 2)

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
            assignment = cover(blocks, mvs)
            n_us = [v.count("U") for v in mvs]
            freqs = frequencies(assignment, len(mvs))
            merged = subsume_merge(assignment, mvs, k)
            after = frequencies(merged, len(mvs))
            assert payload_bits_for(after, n_us) <= payload_bits_for(freqs, n_us)
            # the rewritten assignment still matches every block
            for b, idx in zip(symbols, merged):
                assert matches(mvs[idx], b)
            # the counts are the merge's, on the same vectors
            ones, zeros = zip(*map(mv_masks, mvs))
            assert after == checked_merge(freqs, ones, zeros, n_us)[0]


def checked_merge(*case):
    """``merge_subsumed_frequencies``'s (freqs, redirect), once its third
    value is checked to be the Huffman cost of those freqs."""
    freqs, redirect, cost = merge_subsumed_frequencies(*case)
    assert cost == huffman_cost(freqs)
    return freqs, redirect


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
        assert (checked_merge(*case)
                == naive_merge_subsumed_frequencies(*case))

    def test_drop_accepted_only_when_payload_strictly_shrinks(self):
        # 1110 (F=1) into 111U (F=1): the codewords shrink from 1+1 bits to
        # none and the fill grows by 1 bit, so 3 payload bits become 2
        ones, zeros = zip(*(mv_masks(v) for v in ("111U", "1110")))
        assert checked_merge([1, 1], ones, zeros, [1, 0]) == (
            [2, 0], {1: 0})
        # 1100 into 11UU: the fill grows by 2 bits, so 4 bits stay 4
        ones, zeros = zip(*(mv_masks(v) for v in ("11UU", "1100")))
        assert checked_merge([1, 1], ones, zeros, [2, 0]) == (
            [1, 1], {})

    def test_scan_restarts_after_every_drop(self):
        # the first drop (UU1 into UUU) makes 110 -> UUU pay off; a scan
        # that went on with 1U0 instead would stop at [4, 7, 0, 0]
        vectors = ("110", "UUU", "UU1", "1U0")
        ones, zeros = zip(*(mv_masks(v) for v in vectors))
        n_us = [v.count("U") for v in vectors]
        assert checked_merge([4, 5, 1, 1], ones, zeros, n_us) == (
            [0, 11, 0, 0], {2: 1, 0: 1, 3: 1})

    def test_drop_chain_resolves_to_the_last_absorber(self):
        # 10 (F=3) drops into its twin at index 2, which then drops into 1U
        vectors = ("10", "01", "10", "1U")
        ones, zeros = zip(*(mv_masks(v) for v in vectors))
        case = [3, 8, 8, 6], ones, zeros, [0, 0, 0, 1]
        assert checked_merge(*case) == ([0, 8, 0, 17], {0: 3, 2: 3})
        assert naive_merge_subsumed_frequencies(*case) == ([0, 8, 0, 17], {0: 3, 2: 3})


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


@st.composite
def dual_weights(draw):
    """3-300 unsorted weights in 1..10^9 with repeats, powers of two and
    (w, 2w) pairs, so that breakpoints meet at octave edges."""
    seeds = draw(st.lists(st.integers(1, 5 * 10**8), min_size=1, max_size=10))
    weight = st.one_of(st.integers(1, 10**9), st.sampled_from(seeds),
                       st.sampled_from(seeds).map(lambda w: 2 * w),
                       st.integers(0, 29).map(lambda e: 1 << e))
    return draw(st.lists(weight, min_size=3, max_size=300))


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

    @settings(max_examples=300, deadline=None)
    @given(dual_weights())
    def test_octave_walk_agrees_with_heap_sweep(self, weights):
        assert codec._dual_multiplier(weights) == naive_dual_multiplier(weights)

    @settings(max_examples=60, deadline=None)
    @given(wide_merge_cases())
    def test_agrees_with_naive_merge_at_search_scale(self, case):
        assert (checked_merge(*case)
                == naive_merge_subsumed_frequencies(*case))

    def test_prices_a_quarter_of_the_codes_on_corpus_9001(self):
        # The subsume trajectory search must call the merge as often as
        # before and price exactly as many codes, 67 of them the starting
        # cost.  Before the Kraft-dual bound its 67 merge calls priced
        # 24,782 codes; with it they price 4,417.
        ts = generate_corpus(CORPUS_9001)
        real_merge = ea.merge_subsumed_frequencies
        priced = []

        def counted_merge(*args):
            with mock.patch.object(codec, "_sorted_huffman_cost",
                                   side_effect=codec._sorted_huffman_cost) as cost:
                result = real_merge(*args)
            priced.append(cost.call_count)
            return result

        with mock.patch.object(ea, "merge_subsumed_frequencies", counted_merge):
            report = ea.run_many(BlockStats(partition(core.flatten(ts), 12)),
                                 core.original_size_bits(ts),
                                 ea.EaConfig(**SUBSUME_CFG))
        assert report.evaluations == 200
        assert len(priced) == 67
        assert sum(priced) == 4_417
