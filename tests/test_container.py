import math
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tercode import (
    EncodedStream,
    decode,
    encode_all,
    read_container,
    write_container,
)
from tercode.codec import MAX_DECODE_SYMBOLS
from tercode.container import MAGIC, pack_bits
from tercode.errors import (
    BadMagic,
    ChecksumMismatch,
    CorruptHeader,
    OutputTooLarge,
    TercodeError,
    UnsupportedVersion,
)

from helpers import (
    blocks_from,
    encode_test_set,
    random_mv_set,
    random_test_set,
    single_vector_container,
)


def random_stream(rng: random.Random, pattern_width=None):
    ts = random_test_set(rng)
    k = rng.randrange(1, 10)
    mvs = random_mv_set(rng, k, rng.randrange(1, 6))
    stream = encode_test_set(ts, k, mvs)
    if pattern_width is not None:
        import dataclasses

        # a readable container's width divides its symbol count
        width = math.gcd(pattern_width, stream.original_length)
        stream = dataclasses.replace(stream, pattern_width=width)
    return stream


class TestRoundTrip:
    def test_many_random_streams(self):
        rng = random.Random(50)
        for _ in range(60):
            stream = random_stream(rng)
            assert read_container(write_container(stream)) == stream

    def test_width_extension_preserved(self):
        rng = random.Random(51)
        stream = random_stream(rng, pattern_width=8)
        restored = read_container(write_container(stream))
        assert restored.pattern_width == 8
        assert restored == stream

    def test_write_is_deterministic(self):
        rng = random.Random(52)
        stream = random_stream(rng)
        assert write_container(stream) == write_container(stream)

    def test_unknown_extension_skipped(self):
        rng = random.Random(53)
        stream = random_stream(rng)
        data = write_container(stream) + b"ZZZZ" + struct.pack(">I", 3) + b"abc"
        assert read_container(data) == stream


class TestErrors:
    def _data(self, seed=60):
        return write_container(random_stream(random.Random(seed)))

    def test_bad_magic(self):
        data = self._data()
        tampered = b"XCC1" + data[4:]
        with pytest.raises(BadMagic):
            read_container(tampered)

    def test_unsupported_version(self):
        data = self._data()
        tampered = data[:4] + bytes([99]) + data[5:]
        with pytest.raises(UnsupportedVersion):
            read_container(tampered)

    def test_truncated_file(self):
        data = self._data()
        for cut in (2, 8, len(data) // 2, len(data) - 1):
            with pytest.raises(CorruptHeader):
                read_container(data[:cut])

    def test_checksum_mismatch(self):
        data = self._data()
        body = bytearray(data)
        body[len(MAGIC) + 6] ^= 0x40  # flip a bit inside block_count
        with pytest.raises(ChecksumMismatch):
            read_container(bytes(body))

    def test_truncated_extension(self):
        data = self._data() + b"WDTH"
        with pytest.raises(CorruptHeader):
            read_container(data)

    def test_empty_input(self):
        with pytest.raises(CorruptHeader):
            read_container(b"")

    @pytest.mark.parametrize("size", [0, 4, 9])
    def test_width_extension_of_wrong_size(self, size):
        data = single_vector_container(3, 2, 6) + b"WDTH" + struct.pack(">I", size)
        with pytest.raises(CorruptHeader, match=f"size {size}, expected 8"):
            read_container(data + bytes(size))

    def test_symbol_pair_11_in_table(self):
        body = bytearray(single_vector_container(3, 2, 6)[:-4])
        body[struct.calcsize(">4sBHHQQ")] = 0b00110000  # the second symbol
        body += struct.pack(">I", zlib.crc32(body))
        with pytest.raises(CorruptHeader, match="^invalid 2-bit symbol 11 in MV table$"):
            read_container(bytes(body))


def table_container(k: int, table: bytes, codewords=("",)) -> bytes:
    """A container of one block of K symbols whose MV table is ``table``,
    with one codeword per vector and no payload; the CRC is valid."""
    body = struct.pack(">4sBHHQQ", MAGIC, 1, k, len(codewords), 1, k) + table
    for code in codewords:
        body += bytes([len(code)]) + pack_bits(code)
    body += struct.pack(">Q", 0)
    return body + struct.pack(">I", zlib.crc32(body))


class TestVectorTable:
    """The MV table bytes the reader accepts: each entry is K symbols at 2
    bits (00=0, 01=1, 10=U), MSB-first, then pairs up to a byte boundary."""

    HEADER = struct.calcsize(">4sBHHQQ")

    @pytest.mark.parametrize("k, table, vector", [
        (1, bytes([0b10_01_11_01]), "U"),
        (3, bytes([0b00_01_10_11]), "01U"),
        (5, bytes([0b01_01_01_01, 0b10_11_11_11]), "1111U"),
    ])
    def test_padding_pairs_are_ignored(self, k, table, vector):
        assert read_container(table_container(k, table)).mv_table == (vector,)

    def test_pair_11_in_the_last_vector(self):
        table = bytes([0b00_01_10_00, 0b00_00_00_11])
        with pytest.raises(CorruptHeader, match="^invalid 2-bit symbol 11 in MV table$"):
            read_container(table_container(4, table, codewords=("0", "1")))

    @pytest.mark.parametrize("k, vectors, table", [
        (1, ("1", "U"), b"\x40\x80"),
        (4, ("01U0", "U10U"), b"\x18\x92"),
        (8, ("01U001U0", "UUUU1111"), b"\x18\x18\xaa\x55"),
    ])
    def test_round_trip_with_three_or_no_padding_pairs(self, k, vectors, table):
        stream = EncodedStream(payload=b"", payload_bits=0, k=k, mv_table=vectors,
                               codewords=("0", "1"), original_length=k)
        data = write_container(stream)
        assert data[self.HEADER : self.HEADER + len(table)] == table
        assert data == table_container(k, table, codewords=("0", "1"))
        assert read_container(data) == stream

    @pytest.mark.parametrize("kept", [0, 1, 3])
    def test_cut_inside_the_table(self, kept):
        data = table_container(8, b"\x18\x18\xaa\x55", codewords=("0", "1"))
        with pytest.raises(CorruptHeader, match="^container truncated at byte"):
            read_container(data[: self.HEADER + kept])


class TestBlockCount:
    def test_consistent_header_decodes(self):
        stream = read_container(single_vector_container(3, 2, 5))
        assert decode(stream) == "00000"

    def test_decompression_bomb_rejected(self):
        # 39 bytes declaring 2**40 zero-cost blocks for one original symbol;
        # were it accepted, decode would run without bound
        data = single_vector_container(1, 2**40, 1)
        assert len(data) == 39
        with pytest.raises(CorruptHeader):
            read_container(data)

    @pytest.mark.parametrize(
        "k, block_count, original_length",
        [(3, 1, 5), (3, 3, 5), (3, 1, 0), (1, 2**64 - 1, 2**64 - 2), (0, 0, 0)],
    )
    def test_block_count_must_fit_original_length(self, k, block_count, original_length):
        with pytest.raises(CorruptHeader):
            read_container(single_vector_container(k, block_count, original_length))


class TestLengthAndWidth:
    def test_zero_original_length_rejected(self):
        with pytest.raises(CorruptHeader, match="no symbols"):
            read_container(single_vector_container(3, 0, 0))

    @pytest.mark.parametrize("width", [0, 4, 7])
    def test_width_must_divide_original_length(self, width):
        with pytest.raises(CorruptHeader, match="width"):
            read_container(single_vector_container(3, 2, 6, width=width))

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    def test_dividing_width_accepted(self, width):
        stream = read_container(single_vector_container(3, 2, 6, width=width))
        assert stream.pattern_width == width
        assert decode(stream) == "000000"

    @pytest.mark.parametrize("width", [3, 0, -1, 2**64])
    def test_stream_refuses_width_the_container_cannot_hold(self, width):
        # 3 does not divide 8, so read_container would refuse the container;
        # -1 and 2**64 do not fit its u64 field
        with pytest.raises(ValueError, match="pattern width"):
            encode_all(blocks_from(["0000", "1111"]), np.zeros(2, dtype=np.int64),
                       {0: ""}, ["UUUU"], original_length=8,
                       pattern_width=width)


class TestFieldLimits:
    """K and the vector-table size are u16 fields of the container, and the
    original length a u64."""

    def test_k_above_limit_refused(self):
        with pytest.raises(ValueError, match="at most 65535"):
            EncodedStream(payload=b"", payload_bits=0, k=70000,
                          mv_table=(), codewords=(), original_length=70000)

    def test_table_above_limit_refused(self):
        with pytest.raises(ValueError, match="at most 65535"):
            EncodedStream(payload=b"", payload_bits=0, k=1,
                          mv_table=("0",) * 65536,
                          codewords=(), original_length=1)

    def test_original_length_above_limit_refused(self):
        with pytest.raises(ValueError, match="at most 18446744073709551615"):
            EncodedStream(payload=b"", payload_bits=0, k=1,
                          mv_table=("0",), codewords=("",),
                          original_length=2**64)

    def test_k_at_limit_round_trips(self):
        k = 65535
        stream = EncodedStream(payload=bytes(8192), payload_bits=k,
                               k=k, mv_table=("U" * k,),
                               codewords=("",), original_length=k)
        assert read_container(write_container(stream)) == stream


class TestOutputCap:
    def test_consistent_bomb_fails_fast(self):
        # 39 bytes, consistent header: 2**40 zero-cost blocks of one symbol
        data = single_vector_container(1, 2**40, 2**40)
        assert len(data) == 39
        stream = read_container(data)
        with pytest.raises(OutputTooLarge):
            decode(stream)

    @pytest.mark.parametrize(
        "k, original_length, block_count",
        [(1, 1, 1), (3, 3, 1), (3, 4, 2), (3, 6, 2), (1, 0, None), (0, 1, None)],
    )
    def test_block_count_follows_original_length(self, k, original_length, block_count):
        # built without read_container: each block holds an original
        # symbol, so decode emits nothing it then trims away
        def build():
            return EncodedStream(payload=b"", payload_bits=0, k=k,
                                 mv_table=("0" * max(k, 1),),
                                 codewords=("",),
                                 original_length=original_length)

        if block_count is None:
            with pytest.raises(ValueError, match="at least 1"):
                build()
        else:
            assert build().block_count == block_count
            assert decode(build()) == "0" * original_length

    def test_limit_is_inclusive(self):
        stream = read_container(single_vector_container(3, 2, 5))
        assert decode(stream, max_symbols=5) == "00000"
        with pytest.raises(OutputTooLarge):
            decode(stream, max_symbols=4)

    def test_default_cap_leaves_round_trips_alone(self):
        rng = random.Random(8)
        for _ in range(20):
            stream = random_stream(rng)
            assert stream.original_length <= MAX_DECODE_SYMBOLS
            assert decode(read_container(write_container(stream))) == decode(stream)


class TestMutatedContainers:
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.one_of(st.none(), st.integers(1, 20)),
        fix_crc=st.booleans(),
        data=st.data(),
    )
    def test_flipped_bits_decode_or_raise(self, seed, width, fix_crc, data):
        stream = random_stream(random.Random(seed), pattern_width=width)
        raw = bytearray(write_container(stream))
        # the CRC sits just before the optional 16-byte width record
        crc_offset = len(raw) - 4 - (16 if width is not None else 0)
        flips = data.draw(
            st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3)
        )
        for bit in flips:
            raw[bit >> 3] ^= 0x80 >> (bit & 7)
        if fix_crc:
            raw[crc_offset : crc_offset + 4] = struct.pack(
                ">I", zlib.crc32(bytes(raw[:crc_offset]))
            )
        read_and_decode(bytes(raw))

    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.one_of(st.none(), st.integers(1, 20)),
        garbage=st.binary(min_size=1, max_size=40),
    )
    def test_truncated_or_extended_decode_or_raise(self, seed, width, garbage):
        stream = random_stream(random.Random(seed), pattern_width=width)
        raw = write_container(stream)
        accepted = [cut for cut in range(len(raw))
                    if read_and_decode(raw[:cut]) is not None]
        # the only readable cut drops the whole 16-byte WDTH record
        assert accepted == ([] if width is None else [len(raw) - 16])
        for cut in accepted:
            assert read_and_decode(raw[:cut]) == decode(stream)
        # trailing bytes are read as extension records; none reaches the payload
        out = read_and_decode(raw + garbage)
        assert out is None or out == decode(stream)


def read_and_decode(data: bytes) -> str | None:
    """The decoded symbols of ``data``, or None when reading or decoding
    raises a TercodeError; any other exception fails the test."""
    try:
        stream = read_container(data)
        out = decode(stream, max_symbols=2**20)
    except TercodeError:
        return None
    assert len(out) == stream.original_length
    return out
