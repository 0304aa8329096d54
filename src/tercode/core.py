"""Ternary test-set representation: parsing, flattening, block partitioning.

A test set is a T x n grid over {0,1,X} where X marks a don't-care
position.  For coding purposes the grid is read row-major into one long
symbol string which is then cut into fixed-length input blocks, padding
the tail block with X.  The blocks are one read-only (blocks, K) uint8
matrix of the symbols' ASCII codes, one row per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import EmptyInput, IllegalCharacter, RaggedRows

TEST_ALPHABET = "01X"

_NORMALIZE = str.maketrans("x", "X")
# what is left of a row after deleting every legal symbol
_DELETE_ALPHABET = str.maketrans("", "", TEST_ALPHABET)


@dataclass(frozen=True)
class TestSet:
    """An immutable T x n pattern grid over {0,1,X}."""

    patterns: tuple[str, ...]

    def __post_init__(self):
        if not self.patterns:
            raise EmptyInput("test set has no patterns")
        width = len(self.patterns[0])
        if width < 1:
            raise EmptyInput("test set has zero-width patterns")
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


def parse_test_set(text: str | IO[str] | Iterable[str]) -> TestSet:
    """Parse a test-set file: one pattern per line over {0,1,X,x}.

    Lines starting with '#' and blank lines are skipped; 'x' is
    normalized to 'X'.  Raises RaggedRows, IllegalCharacter or
    EmptyInput on malformed input.
    """
    if hasattr(text, "read"):
        lines = text.read().splitlines()
    elif isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [line.rstrip("\n") for line in text]

    rows = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.translate(_NORMALIZE))
    if not rows:
        raise EmptyInput("no patterns found in input")
    return TestSet(tuple(rows))


def write_test_set(ts: TestSet) -> str:
    """Render a test set back to its file form (canonical 'X', newline-terminated)."""
    return "".join(row + "\n" for row in ts.patterns)


def flatten(ts: TestSet) -> str:
    """Concatenate the patterns row-major into one symbol string."""
    return "".join(ts.patterns)


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
