import random
import struct

import pytest

from tercode import decode, read_container, write_container
from tercode.codec import MAX_DECODE_SYMBOLS
from tercode.container import MAGIC
from tercode.errors import (
    BadMagic,
    ChecksumMismatch,
    CorruptHeader,
    OutputTooLarge,
    UnsupportedVersion,
)

from helpers import (
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

        stream = dataclasses.replace(stream, pattern_width=pattern_width)
    return stream


class TestRoundTrip:
    def test_many_random_streams(self):
        rng = random.Random(50)
        for _ in range(60):
            stream = random_stream(rng)
            assert read_container(write_container(stream)) == stream

    def test_width_extension_preserved(self):
        rng = random.Random(51)
        stream = random_stream(rng, pattern_width=7)
        restored = read_container(write_container(stream))
        assert restored.pattern_width == 7
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


class TestOutputCap:
    def test_consistent_bomb_fails_fast(self):
        # 39 bytes, consistent header: 2**40 zero-cost blocks of one symbol
        data = single_vector_container(1, 2**40, 2**40)
        assert len(data) == 39
        stream = read_container(data)
        with pytest.raises(OutputTooLarge):
            decode(stream)

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
