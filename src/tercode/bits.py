"""The bit packing rule shared by the codec and the container.

A run of bits is a string of '0'/'1' characters.  It is packed MSB-first:
the first character is the top bit of the first byte, and the last byte
is zero-padded.  ``codec.encode_all`` packs the payload from a numpy bit
array with ``np.packbits``, which follows the same rule.
"""

from __future__ import annotations


def pack_bits(bits: str) -> bytes:
    """Pack a '0'/'1' string MSB-first, zero-padding the last byte."""
    n_bytes = (len(bits) + 7) // 8
    if not n_bytes:
        return b""
    return int(bits.ljust(8 * n_bytes, "0"), 2).to_bytes(n_bytes, "big")


def unpack_bits(data: bytes, n: int) -> str:
    """The first ``n`` bits of ``data`` as a '0'/'1' string, MSB-first."""
    return format(int.from_bytes(data, "big"), "b").zfill(8 * len(data))[:n]
