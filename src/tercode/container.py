"""Bit-exact container format for encoded streams.

Layout (all integers big-endian):

    magic "TCC1" | version u8 | K u16 | L_eff u16 | block_count u64 |
    original_length u64 | MV table | codeword table |
    payload bit length u64 | payload bytes | CRC32 u32 | extensions...

Each MV table entry packs K symbols at 2 bits (00=0, 01=1, 10=U),
MSB-first and zero-padded to a byte boundary; a 11 pair is corrupt.  Each
codeword entry is a length byte followed by that many bits, again
byte-padded.  ``pack_bits`` writes both, MSB-first as ``np.packbits``
packs the payload; the reader maps each table byte to its symbols or bits
through one table each.  The CRC32 covers every byte before it.  K and
original_length are at least 1, and block_count is ceil(original_length /
K).  Extension records after the CRC are length-prefixed (4-byte tag, u32
size, body) so unknown tags and older readers that stop at the CRC both
stay compatible; the only tag written today is "WDTH" carrying the
pattern width as a u64, which must divide original_length.
"""

from __future__ import annotations

import struct
import zlib

from .codec import EncodedStream
from .errors import BadMagic, ChecksumMismatch, CorruptHeader, UnsupportedVersion

MAGIC = b"TCC1"
VERSION = 1
_WIDTH_TAG = b"WDTH"

_SYMBOL_PAIRS = str.maketrans({"0": "00", "1": "01", "U": "10"})
# a byte's four 2-bit symbols, MSB-first; "?" marks the corrupt pair 11
_BYTE_SYMBOLS = ["".join("01U?"[b >> s & 3] for s in (6, 4, 2, 0)) for b in range(256)]
_BYTE_BITS = [format(b, "08b") for b in range(256)]


def pack_bits(bits: str) -> bytes:
    """Pack a '0'/'1' string MSB-first, zero-padding the last byte."""
    n_bytes = (len(bits) + 7) // 8
    if not n_bytes:
        return b""
    return int(bits.ljust(8 * n_bytes, "0"), 2).to_bytes(n_bytes, "big")


def write_container(stream: EncodedStream) -> bytes:
    """Serialize a stream; ``read_container`` inverts this byte-exactly."""
    out = bytearray()
    out += struct.pack(
        ">4sBHHQQ",
        MAGIC,
        VERSION,
        stream.k,
        len(stream.mv_table),
        stream.block_count,
        stream.original_length,
    )
    for v in stream.mv_table:
        out += pack_bits(v.translate(_SYMBOL_PAIRS))
    for code in stream.codewords:
        out.append(len(code))
        out += pack_bits(code)
    out += struct.pack(">Q", stream.payload_bits)
    out += stream.payload
    out += struct.pack(">I", zlib.crc32(bytes(out)))
    if stream.pattern_width is not None:
        out += _WIDTH_TAG + struct.pack(">IQ", 8, stream.pattern_width)
    return bytes(out)


def read_container(data: bytes) -> EncodedStream:
    """Parse container bytes back into an EncodedStream.

    Raises BadMagic, UnsupportedVersion, CorruptHeader (also for no
    original symbols, a block count that does not fit the original length
    or a width that does not divide it) or ChecksumMismatch as
    appropriate.
    """
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CorruptHeader(f"container truncated at byte {pos} (needed {n} more)")
        pos += n
        return data[pos - n : pos]

    def unpack(fmt: str):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    magic = bytes(take(4))
    if magic != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, found {magic!r}")
    (version,) = unpack(">B")
    if version != VERSION:
        raise UnsupportedVersion(f"container version {version}")
    k, l_eff, block_count, original_length = unpack(">HHQQ")
    mv_entry_bytes = (2 * k + 7) // 8
    mv_symbols = "".join(map(_BYTE_SYMBOLS.__getitem__, take(l_eff * mv_entry_bytes)))
    codewords = []
    for _ in range(l_eff):
        n = take(1)[0]
        codewords.append("".join(map(_BYTE_BITS.__getitem__, take((n + 7) // 8)))[:n])
    (payload_bits,) = unpack(">Q")
    payload = bytes(take((payload_bits + 7) // 8))
    crc_offset = pos
    (crc_stored,) = unpack(">I")
    if zlib.crc32(data[:crc_offset]) != crc_stored:
        raise ChecksumMismatch("container checksum does not match its contents")
    if original_length == 0:
        raise CorruptHeader("container holds no symbols")
    # encode_all writes exactly the blocks that hold the original symbols;
    # a header claiming more would let decode run on without bound
    if k < 1 or block_count != -(-original_length // k):
        raise CorruptHeader(
            f"{block_count} blocks of K={k} do not hold {original_length} symbols"
        )

    pattern_width = None
    while pos < len(data):
        tag = bytes(take(4))
        (size,) = unpack(">I")
        body = take(size)
        if tag == _WIDTH_TAG:
            if size != 8:
                raise CorruptHeader(f"width extension has size {size}, expected 8")
            (pattern_width,) = struct.unpack(">Q", body)

    # each entry is its first K symbols; the padding pairs after them are ignored
    mv_table = [mv_symbols[i : i + k] for i in range(0, len(mv_symbols), 4 * mv_entry_bytes)]
    if any("?" in v for v in mv_table):
        raise CorruptHeader("invalid 2-bit symbol 11 in MV table")
    try:
        return EncodedStream(
            payload=payload,
            payload_bits=payload_bits,
            k=k,
            mv_table=mv_table,
            codewords=codewords,
            original_length=original_length,
            pattern_width=pattern_width,
        )
    except ValueError as exc:
        raise CorruptHeader(f"container contents invalid: {exc}") from None
