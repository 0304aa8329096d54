"""Matching semantics, greedy covering, Huffman coding, encode/decode.

An input block is a row of K symbols over {0,1,X} in the uint8 matrix of
ASCII codes that ``core.partition`` returns; it matches a vector over
{0,1,U} when no position pairs a specified 0 with a specified 1.  Each
block is encoded as the codeword of its assigned vector followed by the
block's bits at the vector's U positions: a word of |codeword| + N_U bits,
one fixed width per vector.  ``encode_all`` masks each block's row of
codeword and symbol bits down to its word, a slice of blocks at a time,
and packs the words with ``np.packbits``; ``decode`` unpacks them once
and walks them, looking codewords up in a table and memoising the
decoded words.

Matching has one implementation, on block sets.  ``BlockStats`` turns
the block matrix into one set per (mask bit, vector symbol), each a
Python int with one bit per block; a vector's matching blocks, its
``match_set``, are the AND of the sets at its specified positions, so
one code path serves every block length.  ``match_frequencies`` assigns
blocks greedily from those raw sets for ``cover`` and the search's
fitness (the search keeps each vector's raw set across fitness calls, see
``ea``); and ``encode_all`` checks a covering against them once per vector.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .bits import unpack_bits
from .errors import (
    AllZeroFrequencies,
    DanglingBits,
    InvalidConfig,
    LengthMismatch,
    NoCodeword,
    NotMatching,
    OutputTooLarge,
    TruncatedPayload,
    UnknownCodeword,
    UnmatchedBlock,
    ZeroOriginal,
)

_MV_ONES = str.maketrans("01U", "010")
_MV_ZEROS = str.maketrans("01U", "100")

FILL_CHOICES = ("zero", "one", "random")

# The container stores K and the vector-table size as u16, and the
# original length (which bounds the block count) as u64.
MAX_K_OR_L = 0xFFFF
MAX_ORIGINAL_LENGTH = (1 << 64) - 1

# Default cap on the symbols ``decode`` produces; a header alone can
# declare up to 2^64 of them.
MAX_DECODE_SYMBOLS = 1 << 30

# blocks per slice that encode_all writes at a time
_SLICE = 1 << 16

# payload bits decode looks a codeword up by
_PEEK_BITS = 16


def mv_masks(symbols: str) -> tuple[int, int]:
    """(ones, zeros) bitmasks of a vector; leftmost symbol is the top bit."""
    return int(symbols.translate(_MV_ONES), 2), int(symbols.translate(_MV_ZEROS), 2)


@dataclass(frozen=True)
class MatchingVector:
    """A fixed-length pattern over {0,1,U}; U positions take explicit fill bits."""

    symbols: str
    n_unspecified: int = field(init=False, compare=False)
    u_positions: tuple[int, ...] = field(init=False, compare=False)
    ones_mask: int = field(init=False, compare=False)
    zeros_mask: int = field(init=False, compare=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("matching vector must not be empty")
        for ch in self.symbols:
            if ch not in "01U":
                raise ValueError(f"illegal vector symbol {ch!r}")
        u_pos = tuple(i for i, ch in enumerate(self.symbols) if ch == "U")
        ones, zeros = mv_masks(self.symbols)
        object.__setattr__(self, "n_unspecified", len(u_pos))
        object.__setattr__(self, "u_positions", u_pos)
        object.__setattr__(self, "ones_mask", ones)
        object.__setattr__(self, "zeros_mask", zeros)

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True, eq=False)
class Covering:
    """Per-block vector assignment, a read-only int64 array (a sequence of
    ints is converted), plus per-vector frequencies of use; equal by value."""

    assignment: np.ndarray
    frequencies: tuple[int, ...]

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=np.int64).view()
        assignment.flags.writeable = False
        object.__setattr__(self, "assignment", assignment)
        if sum(self.frequencies) != len(assignment):
            raise ValueError("frequencies do not sum to the block count")

    def __eq__(self, other):
        return (isinstance(other, Covering) and self.frequencies == other.frequencies
                and np.array_equal(self.assignment, other.assignment))


@dataclass(frozen=True, eq=True)
class Codebook:
    """Prefix-free map from vector index to codeword bitstring.

    Only vectors with nonzero frequency hold entries; a lone entry may
    be the empty codeword.
    """

    entries: dict[int, str]

    def __post_init__(self):
        codes = sorted(self.entries.values())
        if any(code.strip("01") for code in codes):
            raise ValueError("a codeword holds a symbol other than 0 and 1")
        for a, b in zip(codes, codes[1:]):
            if b.startswith(a):
                raise ValueError(f"codebook is not prefix-free: {a!r}, {b!r}")

    def codeword(self, index: int) -> str:
        try:
            return self.entries[index]
        except KeyError:
            raise NoCodeword(f"vector {index} has no codeword") from None


@dataclass(frozen=True)
class EncodedStream:
    """A compressed block sequence plus everything needed to decode it.

    ``mv_table`` lists only the vectors that hold codewords; ``codebook``
    is indexed by table position.  ``original_length`` is the unpadded
    symbol count the decoder must trim to.  The container's limits hold
    here: K and the table size are at most ``MAX_K_OR_L`` (u16 fields),
    ``original_length`` fits a u64, a codeword holds at most 255 bits (a
    length byte), and ``pattern_width`` is None or a positive divisor of
    ``original_length``.
    """

    payload: bytes
    payload_bits: int
    block_count: int
    k: int
    mv_table: tuple[MatchingVector, ...]
    codebook: Codebook
    original_length: int
    pattern_width: int | None = None

    def __post_init__(self):
        if len(self.payload) != (self.payload_bits + 7) // 8:
            raise ValueError("payload byte count disagrees with payload_bits")
        if self.original_length > self.block_count * self.k:
            raise ValueError("original_length exceeds the decoded size")
        # every block must hold an original symbol, or decode would emit
        # up to block_count * k symbols only to trim them away
        if self.block_count and (self.block_count - 1) * self.k >= self.original_length:
            raise ValueError("a block holds no original symbol")
        if self.k > MAX_K_OR_L or len(self.mv_table) > MAX_K_OR_L:
            raise ValueError(f"K and the table size must be at most {MAX_K_OR_L}")
        if self.original_length > MAX_ORIGINAL_LENGTH:
            raise ValueError(f"original_length must be at most {MAX_ORIGINAL_LENGTH}")
        if any(len(v) != self.k for v in self.mv_table):
            raise ValueError(f"a table vector is not {self.k} symbols long")
        width = self.pattern_width
        if width is not None and (width < 1 or self.original_length % width):
            raise ValueError(
                f"pattern width {width} does not divide {self.original_length} symbols"
            )
        for index, code in self.codebook.entries.items():
            if not 0 <= index < len(self.mv_table):
                raise ValueError(f"codebook entry {index} outside the MV table")
            if len(code) > 255:
                raise ValueError(f"codeword of {len(code)} bits exceeds 255")


class BlockStats:
    """Block sets of a block matrix, shared by many coverings.

    Building the stats once and covering many vector sets against them is
    the hot path of the evolutionary search.

    A block set is a Python int whose bit i stands for block i+1, in
    sequence order.  For each mask bit b (as in ``mv_masks``: the
    leftmost symbol is bit K-1), ``fits_zero[b]`` holds the blocks whose
    symbol there is not ``1`` and ``fits_one[b]`` those whose symbol there
    is not ``0``.  The blocks a vector matches are the AND of
    ``fits_zero`` over its 0 positions and ``fits_one`` over its 1
    positions.  ``blocks`` is the (blocks, K) uint8 matrix of ASCII codes,
    kept by reference; a sequence of equal-length strings is converted.
    """

    __slots__ = ("blocks", "k", "total", "fits_zero", "fits_one")

    def __init__(self, blocks: np.ndarray | Sequence[str]):
        if not (isinstance(blocks, np.ndarray) and blocks.dtype == np.uint8):
            k = len(blocks[0]) if len(blocks) else 0
            if any(len(block) != k for block in blocks):
                raise LengthMismatch("blocks differ in length")
            joined = "".join(blocks).encode("ascii")
            blocks = np.frombuffer(joined, dtype=np.uint8).reshape(len(blocks), k)
        self.blocks = blocks
        self.total, self.k = blocks.shape
        # mask bit b is column K-1-b
        columns = blocks[:, ::-1].T
        self.fits_zero = [_block_set(col != ord("1")) for col in columns]
        self.fits_one = [_block_set(col != ord("0")) for col in columns]

    @property
    def n_unique(self) -> int:
        """Number of distinct blocks (matrix rows), counted on each access."""
        ordered = self.blocks[np.lexsort(self.blocks.T)] if self.k else self.blocks
        changes = (ordered[1:] != ordered[:-1]).any(axis=1)
        return min(self.total, 1) + int(np.count_nonzero(changes))


# a block matrix, equal-length block strings, or the stats of either
Blocks = Union[np.ndarray, Sequence[str], BlockStats]


def _block_set(flags: np.ndarray) -> int:
    """Block set whose bit i is ``flags[i]``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _block_flags(block_set: int, total: int) -> np.ndarray:
    """Inverse of ``_block_set``: a bool array of ``total`` flags."""
    raw = np.frombuffer(block_set.to_bytes(-(-total // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=total, bitorder="little").view(bool)


def as_block_stats(blocks: Blocks) -> BlockStats:
    return blocks if isinstance(blocks, BlockStats) else BlockStats(blocks)


def _mask_bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def match_set(stats: BlockStats, ones: int, zeros: int) -> int:
    """Block set of every block the vector with masks (ones, zeros) matches:
    the AND of ``fits_zero`` over its 0 positions and ``fits_one`` over its
    1 positions, starting from all blocks."""
    if not stats.total:
        return 0  # no blocks, and no block sets to index
    hit = (1 << stats.total) - 1
    fits_zero, fits_one = stats.fits_zero, stats.fits_one
    for b in _mask_bits(zeros):
        hit &= fits_zero[b]
    for b in _mask_bits(ones):
        hit &= fits_one[b]
    return hit


def match_frequencies(
    stats: BlockStats,
    sets: Sequence[int],
    n_unspecified: Sequence[int],
) -> tuple[list[int], list[int], int, int]:
    """Assign every block to its first matching vector in rising-U order.

    ``sets[i]`` is vector i's ``match_set``.  Returns (frequencies,
    per-vector block set of the blocks it takes, unmatched block count,
    1-based index of the first unmatched block or 0).
    """
    freqs = [0] * len(sets)
    hits = [0] * len(sets)
    unassigned = (1 << stats.total) - 1
    # rising U count; the sort is stable, so ties keep the input order
    for idx in sorted(range(len(sets)), key=n_unspecified.__getitem__):
        if not unassigned:
            break
        hit = unassigned & sets[idx]
        if hit:
            freqs[idx] = hit.bit_count()
            hits[idx] = hit
            unassigned ^= hit
    first = (unassigned & -unassigned).bit_length()
    return freqs, hits, unassigned.bit_count(), first


def cover(blocks: Blocks, mvs: Sequence[MatchingVector]) -> Covering:
    """Greedy covering: vectors sorted by rising U count, first match wins.

    Raises UnmatchedBlock (with the 1-based block index) when some block
    matches no vector at all.
    """
    stats = as_block_stats(blocks)
    for v in mvs:
        if stats.k and len(v) != stats.k:
            raise LengthMismatch(f"vector length {len(v)} vs block length {stats.k}")
    freqs, hits, unmatched, first = match_frequencies(
        stats,
        [match_set(stats, v.ones_mask, v.zeros_mask) for v in mvs],
        [v.n_unspecified for v in mvs],
    )
    if unmatched:
        raise UnmatchedBlock(first)
    assign = np.zeros(stats.total, dtype=np.int64)
    for idx, hit in enumerate(hits):
        if hit:
            assign[_block_flags(hit, stats.total)] = idx
    return Covering(assign, tuple(freqs))


def huffman_code_lengths(frequencies: Sequence[int]) -> dict[int, int]:
    """Optimal codeword length per nonzero-frequency index.

    Deterministic: the merge queue orders by (weight, earliest index
    contained in the subtree).  Each merge adds one bit to every leaf of
    both merged subtrees, so the work is the sum of the codeword lengths.
    A single coded index gets length 0.
    """
    live = [(f, i, [i]) for i, f in enumerate(frequencies) if f > 0]
    if not live:
        raise AllZeroFrequencies("every frequency is zero")
    lengths = {i: 0 for _, i, _ in live}
    heapq.heapify(live)
    while len(live) > 1:
        fa, ea, a = heapq.heappop(live)
        fb, eb, b = heapq.heappop(live)
        a += b
        for leaf in a:
            lengths[leaf] += 1
        heapq.heappush(live, (fa + fb, min(ea, eb), a))
    return lengths


def build_huffman(frequencies: Sequence[int]) -> Codebook:
    """Canonical Huffman codebook: codewords assigned in (length, index) order."""
    lengths = huffman_code_lengths(frequencies)
    order = sorted(lengths, key=lambda i: (lengths[i], i))
    entries: dict[int, str] = {}
    code = 0
    prev_len = lengths[order[0]]
    for index in order:
        length = lengths[index]
        code <<= length - prev_len
        entries[index] = format(code, f"0{length}b") if length else ""
        code += 1
        prev_len = length
    return Codebook(entries)


def encode_all(
    blocks: Blocks,
    covering: Covering,
    codebook: Codebook,
    mvs: Sequence[MatchingVector],
    fill: str = "zero",
    rng: random.Random | None = None,
    original_length: int | None = None,
    pattern_width: int | None = None,
) -> EncodedStream:
    """Encode each block as its vector's codeword followed by the block's
    symbols at the vector's U positions, and pack the concatenation.

    An X at a U position takes the fill policy's bit ('0' by default);
    random fill draws one ``rng.getrandbits(1)`` per such X, in payload
    order.  Raises InvalidConfig, before encoding anything, for a fill
    policy outside ``FILL_CHOICES`` or random fill without an rng.  Each
    vector with a codeword is then checked once against its blocks, as
    block sets; for the first block in sequence order that cannot be
    encoded, the vector's length decides LengthMismatch, then the block's
    bit in its ``match_set`` NotMatching, else NoCodeword.

    The payload is written ``_SLICE`` blocks at a time: one
    ``bytes.translate`` turns the slice's symbols into bits, each block's
    row of codeword bits and symbol bits is masked down to its word, and
    the masked cells, read row by row, are the slice's payload.  Bits past
    a slice's last full byte carry into the next, so the bytes equal
    ``bits.pack_bits`` of the whole payload.  A symbol other than 0, 1 and
    X at a U position raises ValueError.
    """
    if fill not in FILL_CHOICES:
        raise InvalidConfig(f"unknown fill policy {fill!r}; choose from {FILL_CHOICES}")
    if fill == "random" and rng is None:
        raise InvalidConfig("random fill requires an rng")
    stats = as_block_stats(blocks)
    indices = covering.assignment
    if stats.total != len(indices):
        raise ValueError(f"covering assigns {len(indices)} of {stats.total} blocks")
    # a block is good when its vector is in range, K long, holds a codeword
    # and matches it (the assignment may contradict the frequencies).  Row
    # i + n of ``codes`` is vector i's codeword, left-aligned in ``top`` bits;
    # with a block's K bits after it, row i + n of ``keep`` marks the word
    good, n = 0, len(mvs)
    top = max(map(len, codebook.entries.values()), default=0)
    codes = np.zeros((2 * n, top), dtype=np.uint8)
    keep = np.zeros((2 * n, top + stats.k), dtype=bool)
    for i, code in codebook.entries.items():
        if -n <= i < n and len(mvs[i]) == stats.k:
            v, held = mvs[i], indices == i
            good |= _block_set(held) & match_set(stats, v.ones_mask, v.zeros_mask)
            codes[i + n, : len(code)] = [int(b) for b in code]
            keep[i + n, : len(code)] = True
            keep[i + n, [top + p for p in v.u_positions]] = True
    bad = ((1 << stats.total) - 1) & ~good
    if bad:
        first = (bad & -bad).bit_length() - 1
        i = int(indices[first])
        v = mvs[i]
        if len(v) != stats.k:
            raise LengthMismatch(f"vector length {len(v)} vs block length {stats.k}")
        if not match_set(stats, v.ones_mask, v.zeros_mask) >> first & 1:
            block = stats.blocks[first].tobytes().decode("latin-1")
            raise NotMatching(f"vector {v.symbols} does not match block {block}")
        raise NoCodeword(f"vector {i} has no codeword")
    # symbol code -> payload bit; 2 marks an X to draw, 3 a foreign symbol
    bit_of = bytearray(b"\3" * 256)
    bit_of[ord("0")], bit_of[ord("1")] = 0, 1
    bit_of[ord("X")] = {"zero": 0, "one": 1, "random": 2}[fill]
    chunks, carry = [], np.zeros(0, dtype=np.uint8)
    for lo in range(0, stats.total, _SLICE):
        hi = min(lo + _SLICE, stats.total)
        bits = np.frombuffer(stats.blocks[lo:hi].tobytes().translate(bit_of),
                             dtype=np.uint8).reshape(hi - lo, stats.k)
        rows = indices[lo:hi] + n
        words = np.concatenate([codes[rows], bits], axis=1)[keep[rows]]
        out = np.concatenate([carry, words])
        if fill == "random":
            draws = np.flatnonzero(out == 2)
            out[draws] = [rng.getrandbits(1) for _ in range(len(draws))]
        if out.max(initial=0) > 1:
            raise ValueError("a block holds a symbol other than 0, 1 and X")
        full = len(out) - len(out) % 8
        chunks.append(np.packbits(out[:full]).tobytes())
        carry = out[full:]
    payload_bits = 8 * sum(map(len, chunks)) + len(carry)
    chunks.append(np.packbits(carry).tobytes())
    k = stats.k if stats.total else len(mvs[0]) if mvs else 0
    table_indices = sorted(codebook.entries)
    remap = {orig: pos for pos, orig in enumerate(table_indices)}
    return EncodedStream(
        payload=b"".join(chunks),
        payload_bits=payload_bits,
        block_count=stats.total,
        k=k,
        mv_table=tuple(mvs[i] for i in table_indices),
        codebook=Codebook({remap[i]: c for i, c in codebook.entries.items()}),
        original_length=stats.total * k if original_length is None else original_length,
        pattern_width=pattern_width,
    )


def decode(stream: EncodedStream, max_symbols: int = MAX_DECODE_SYMBOLS) -> str:
    """Reconstruct the fully specified bit string of ``original_length`` bits.

    Unpacks the payload once and walks it: each codeword names a vector,
    whose U positions are then filled from the next N_U payload bits.
    Raises OutputTooLarge, before decoding anything, when
    ``original_length`` exceeds ``max_symbols``; UnknownCodeword when the
    next ``max_len`` bits start with no codeword, TruncatedPayload when
    the payload ends inside a codeword or its fill bits, and DanglingBits
    when bits are left after the last block.

    The codeword is looked up by the next ``min(max_len, 16)`` payload
    bits, the peek, in a table filled as the walk meets each peek; a
    missing peek probes each codeword length in rising order, and its
    result is kept only when the codeword lies inside a full-width peek,
    so codewords longer than 16 bits and the last bits of the payload are
    always probed.  The table holds at most min(2^16, ``block_count``)
    entries.  Each decoded block is memoised by its payload word
    (codeword + fill bits), at most one entry per block.
    """
    if stream.original_length > max_symbols:
        raise OutputTooLarge(
            f"stream declares {stream.original_length} symbols, "
            f"more than the limit of {max_symbols}"
        )
    table = {code: pos for pos, code in stream.codebook.entries.items()}
    lengths = sorted({len(code) for code in table})
    max_len = lengths[-1] if lengths else 0
    peek_len = min(max_len, _PEEK_BITS)
    # each vector as a %-template whose slots are its U positions
    templates = [
        (v.symbols.replace("U", "%s"), v.n_unspecified) for v in stream.mv_table
    ]
    bits = unpack_bits(stream.payload, stream.payload_bits)
    n_bits = len(bits)
    pos = 0
    # peek -> (codeword length, codeword + fill length, template)
    peeks: dict[str, tuple[int, int, str]] = {}
    blocks: dict[str, str] = {}
    out: list[str] = []
    for _ in range(stream.block_count):
        peek = bits[pos : pos + peek_len]
        hit = peeks.get(peek)
        if hit is None:
            # a slice cut short by the payload's end cannot equal a codeword:
            # a code is prefix-free and shorter lengths were tried first
            for length in lengths:
                entry = table.get(bits[pos : pos + length])
                if entry is not None:
                    break
            else:
                if pos + max_len <= n_bits:
                    raise UnknownCodeword(
                        f"no codeword matches payload prefix of {max_len} bits"
                    )
                raise TruncatedPayload(f"payload ends inside a codeword at bit {n_bits}")
            template, n_u = templates[entry]
            hit = (length, length + n_u, template)
            # then the probe read only bits of the peek, so the peek decides it
            if length <= peek_len and len(peek) == peek_len:
                peeks[peek] = hit
        length, end, template = hit
        word = bits[pos : pos + end]
        if len(word) < end:
            raise TruncatedPayload(f"payload ends inside fill bits at bit {n_bits}")
        block = blocks.get(word)
        if block is None:
            block = blocks[word] = template % tuple(word[length:])
        out.append(block)
        pos += end
    if pos < n_bits:
        raise DanglingBits(f"{n_bits - pos} undecoded payload bits")
    if out:
        # every block holds an original symbol, so only the last is trimmed
        out[-1] = out[-1][: stream.original_length - (len(out) - 1) * stream.k]
    return "".join(out)


def compression_rate(original_bits: int, payload_bits: int) -> float:
    """Percentage saved: 100 * (original - payload) / original; may be negative."""
    if original_bits <= 0:
        raise ZeroOriginal("original size must be positive")
    return 100.0 * (original_bits - payload_bits) / original_bits


def huffman_cost(frequencies: Sequence[int]) -> int:
    """Sum of F * |codeword| over an optimal prefix code of the nonzero
    frequencies, without building the code.

    Every Huffman merge adds one level above both merged subtrees, so each
    leaf's weight is counted once per merge above it, that is once per bit
    of its codeword: the sum of the merge weights is sum(F * length) of
    the Huffman code, and every optimal code has that cost.  0 when fewer
    than two frequencies are nonzero (a lone codeword is empty).
    """
    heap = [f for f in frequencies if f > 0]
    heapq.heapify(heap)
    cost = 0
    for _ in range(len(heap) - 1):
        merged = heapq.heappop(heap) + heap[0]
        heapq.heapreplace(heap, merged)
        cost += merged
    return cost


def payload_bits_for(
    frequencies: Sequence[int], n_unspecified: Sequence[int]
) -> int:
    """Total payload size for a covering: sum of F * (|codeword| + N_U)."""
    if not any(f > 0 for f in frequencies):
        raise AllZeroFrequencies("every frequency is zero")
    return huffman_cost(frequencies) + sum(
        f * n for f, n in zip(frequencies, n_unspecified)
    )


# Scale 2^T of the merge's integer Kraft-dual bound.  Flooring loses less
# than 2^-T bit per leaf, so under one bit for any table the format allows.
_DUAL_SCALE = 16


def _dual_multiplier(weights: Sequence[int]) -> int:
    """The multiplier lambda * 2^T at which the Kraft-dual bound of
    ``weights`` (three or more, all positive) peaks; see
    ``merge_subsumed_frequencies``.

    The bound is concave in lambda with slope sum(2^-l_k) - 1, where l_k is
    the length that minimises leaf k's term; l_k rises from l to l + 1 as
    lambda passes w_k * 2^(l+1).  The sweep passes those breakpoints in
    rising order, from every length at 1, and stops where the slope is no
    longer positive.  Any lambda gives an exact bound, so the float slope
    only decides how tight it is.
    """
    heap = [(w << 2, 1) for w in weights]
    heapq.heapify(heap)
    kraft = len(heap) / 2
    while kraft > 1:
        lam, length = heap[0]
        kraft -= 0.5 ** (length + 1)
        heapq.heapreplace(heap, (lam << 1, length + 1))
    return lam << _DUAL_SCALE


def _dual_term(weight: int, lam: int) -> int:
    """min over l >= 1 of weight * l * 2^T + floor(lam / 2^l).

    Raising l by one adds weight * 2^T - ceil(a / 2), where
    a = floor(lam / 2^l) falls as l grows.  So the sum falls until the
    first l with a <= weight * 2^(T+1), that is with
    floor(lam / (weight * 2^(T+1) + 1)) < 2^l, and never falls after it.
    """
    scaled = weight << _DUAL_SCALE
    length = max(1, (lam // ((scaled << 1) + 1)).bit_length())
    return scaled * length + (lam >> length)


def merge_subsumed_frequencies(
    frequencies: Sequence[int],
    ones: Sequence[int],
    zeros: Sequence[int],
    n_unspecified: Sequence[int],
) -> tuple[list[int], dict[int, int]]:
    """Greedy frequency merge: drop vector j into a subsuming vector i when
    the total payload (with fresh Huffman lengths) strictly shrinks.

    Candidate pairs are scanned by rising (j, i); every accepted drop
    restarts the scan, so the result is a deterministic fixed point.
    Returns the merged frequencies and the {dropped: absorber} map.

    Pricing.  A drop moves F_j onto i, so the fill bits grow by
    extra = F_j * (N_U[i] - N_U[j]) (never negative: i's specified
    positions are among j's) and the drop is taken iff
    huffman_cost(after) + extra < huffman_cost(before).  Three cases are
    decided without pricing, all exactly:

    - F_i == 0: the drop only renames a leaf, so the Huffman cost stays
      and the fill bits cannot fall.  Vectors at zero frequency therefore
      never take part, as droppers or absorbers.
    - extra >= F_i + F_j: splitting the merged leaf of an optimal code for
      the state after the drop into two children i and j gives a code for
      the state before it that costs exactly F_i + F_j more, so
      huffman_cost(before) <= huffman_cost(after) + F_i + F_j, and the
      drop cannot make the payload shrink.
    - The Kraft-dual bound of the state after the drop reaches
      huffman_cost(before) - extra, so huffman_cost(after) does too.

    The bound.  Take any lambda >= 0 and any prefix code over n >= 2
    leaves of weights w_k.  Every length l_k is at least 1, and Kraft
    gives sum(2^-l_k) <= 1, so

        sum(w_k * l_k) >= sum(w_k * l_k + lambda * 2^-l_k) - lambda
                       >= sum(min over l >= 1 of (w_k * l + lambda * 2^-l))
                          - lambda,

    and in particular huffman_cost(w) is at least the right-hand side.  It
    is computed in integers scaled by 2^T (T = ``_DUAL_SCALE``), with
    lambda * 2^T an integer and each lambda * 2^(T-l) floored
    (``_dual_term``); flooring only lowers a lower bound, so the integer
    bound B(w) is at most huffman_cost(w) * 2^T.  B is a sum of one term
    per leaf, so B(after) is B(before) minus the terms of F_i and F_j plus
    the term of F_i + F_j: three terms per candidate instead of a code.
    A lone leaf has length 0, not 1, so B is used only while three or
    more vectors are live and the state after a drop keeps two leaves.  A
    drop with B(after) >= (huffman_cost(before) - extra) * 2^T is
    rejected.  lambda is picked once per call, where B of the starting
    frequencies peaks (``_dual_multiplier``): picking it again after every
    accepted drop rejects more drops but costs more than it saves.

    ``n_unspecified`` must count the positions that neither mask sets.
    """
    freqs = list(frequencies)
    redirect: dict[int, int] = {}
    live = [j for j, f in enumerate(freqs) if f > 0]
    absorbers = {
        j: [
            i for i in live
            if i != j and not (ones[i] & ~ones[j]) and not (zeros[i] & ~zeros[j])
        ]
        for j in live
    }
    current = huffman_cost(freqs)
    leaves = len(live)
    lam = _dual_multiplier([freqs[j] for j in live]) if leaves > 2 else 0
    terms = [_dual_term(f, lam) if f else 0 for f in freqs]
    bound = sum(terms) - lam
    improved = True
    while improved:
        improved = False
        for j in live:
            fj = freqs[j]
            if not fj:
                continue
            for i in absorbers[j]:
                fi = freqs[i]
                if not fi:
                    continue
                extra = fj * (n_unspecified[i] - n_unspecified[j])
                if extra >= fi + fj:
                    continue
                if leaves > 2:
                    merged = _dual_term(fi + fj, lam)
                    after = bound - terms[i] - terms[j] + merged
                    if after >= (current - extra) << _DUAL_SCALE:
                        continue
                freqs[i], freqs[j] = fi + fj, 0
                cost = huffman_cost(freqs)
                if cost + extra < current:
                    current = cost
                    redirect[j] = i
                    if leaves > 2:
                        bound, terms[i] = after, merged
                    leaves -= 1
                    improved = True
                    break
                freqs[i], freqs[j] = fi, fj
            if improved:
                break
    resolved = {}
    for j in redirect:
        target = redirect[j]
        while target in redirect:
            target = redirect[target]
        resolved[j] = target
    return freqs, resolved


def subsume_merge(
    covering: Covering,
    mvs: Sequence[MatchingVector],
    k: int,
) -> Covering:
    """Optional post-pass over a covering: fold vectors whose blocks are all
    matched by a wider vector, whenever that lowers the payload size.
    Folded vectors keep their index at frequency zero.
    """
    for v in mvs:
        if len(v.symbols) != k:
            raise LengthMismatch(f"vector length {len(v.symbols)} != {k}")
    freqs, redirect = merge_subsumed_frequencies(
        covering.frequencies,
        [v.ones_mask for v in mvs],
        [v.zeros_mask for v in mvs],
        [v.n_unspecified for v in mvs],
    )
    if not redirect:
        return covering
    target = np.arange(len(mvs))
    target[list(redirect)] = list(redirect.values())
    return Covering(target[covering.assignment], tuple(freqs))
