"""The fixed nine-vector compression scheme: its vectors and prefix code.

The nine vectors are built from two half-blocks, each all-0, all-1 or
all-U, and carry a fixed prefix code (method ``9c``); method ``9c-hc``
replaces that code with a Huffman code over the measured frequencies.
The code table deliberately leaves the codeword 11110 unused; it is
reproduced here as published rather than repaired.
"""

from __future__ import annotations

from .errors import OddK

_HALF_PAIRS = (
    ("0", "0"),
    ("1", "1"),
    ("0", "1"),
    ("1", "0"),
    ("1", "U"),
    ("U", "1"),
    ("0", "U"),
    ("U", "0"),
    ("U", "U"),
)

_FIXED_CODEWORDS = ("0", "10", "11000", "11001", "11010", "11011", "11100",
                    "11101", "11111")


def nine_mvs(k: int) -> tuple[str, ...]:
    """The nine half-block vectors for an even block length ``k``."""
    if k < 2 or k % 2:
        raise OddK(f"nine-vector scheme needs an even block length, got {k}")
    half = k // 2
    return tuple(left * half + right * half for left, right in _HALF_PAIRS)


def nine_codebook() -> dict[int, str]:
    """The fixed prefix code, indexed in ``nine_mvs`` order."""
    return dict(enumerate(_FIXED_CODEWORDS))
