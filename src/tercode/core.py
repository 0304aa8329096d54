"""Ternary test-set representation: parsing, flattening, block partitioning.

A test set is a T x n grid over {0,1,X} where X marks a don't-care
position.  For coding purposes the grid is read row-major into one long
symbol string which is then cut into fixed-length input blocks, padding
the tail block with X.  The blocks are one read-only (blocks, K) uint8
matrix of the symbols' ASCII codes, one row per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import EmptyInput, IllegalCharacter, RaggedRows

TEST_ALPHABET = "01X"

# what is left of a row after deleting every legal symbol
_DELETE_ALPHABET = str.maketrans("", "", TEST_ALPHABET)


@dataclass(frozen=True)
class TestSet:
    """An immutable T x n pattern grid over {0,1,X}; ``flat`` is the rows
    joined row-major, the string the grid was checked on."""

    patterns: tuple[str, ...]
    flat: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.patterns:
            raise EmptyInput("test set has no patterns")
        width = len(self.patterns[0])
        if width < 1:
            raise EmptyInput("test set has zero-width patterns")
        # one pass over the joined rows accepts a well-formed set; only a
        # malformed one is walked row by row, where the first bad row decides
        joined = "".join(self.patterns)
        object.__setattr__(self, "flat", joined)
        if (set(map(len, self.patterns)) == {width} and joined.isascii()
                and not joined.encode("ascii").translate(None, TEST_ALPHABET.encode())):
            return
        for row in self.patterns:
            if len(row) != width:
                raise RaggedRows(
                    f"pattern length {len(row)} differs from {width}"
                )
            illegal = row.translate(_DELETE_ALPHABET)
            if illegal:
                raise IllegalCharacter(f"illegal symbol {illegal[0]!r} in pattern")

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

    @property
    def width(self) -> int:
        return len(self.patterns[0])


def parse_test_set(text: str | IO[str]) -> TestSet:
    """Parse a test-set file: one pattern per line over {0,1,X,x}.

    Lines starting with '#' and blank lines are skipped; 'x' is
    normalized to 'X'.  Raises RaggedRows, IllegalCharacter or
    EmptyInput on malformed input.
    """
    if hasattr(text, "read"):
        text = text.read()
    lines = map(str.strip, text.replace("x", "X").splitlines())
    rows = tuple(line for line in lines if line and not line.startswith("#"))
    if not rows:
        raise EmptyInput("no patterns found in input")
    return TestSet(rows)


def write_test_set(ts: TestSet) -> str:
    """Render a test set back to its file form (canonical 'X', newline-terminated)."""
    return "".join(row + "\n" for row in ts.patterns)


def flatten(ts: TestSet) -> str:
    """The patterns row-major as one symbol string, joined when checked."""
    return ts.flat


def partition(symbols: str, k: int) -> np.ndarray:
    """Cut ``symbols`` into blocks of length ``k``, X-padding the tail block:
    a read-only (blocks, k) uint8 view of the padded string's ASCII codes."""
    if k < 1:
        raise ValueError("block length must be >= 1")
    padded = (symbols + "X" * (-len(symbols) % k)).encode("ascii")
    return np.frombuffer(padded, dtype=np.uint8).reshape(-1, k)


def original_size_bits(ts: TestSet) -> int:
    """Number of bit positions in the test set (T*n, padding excluded).

    This is the denominator of the compression rate; X positions count
    as one bit each.
    """
    return ts.pattern_count * ts.width
