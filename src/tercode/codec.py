"""Matching semantics, greedy covering, Huffman coding, encode/decode.

An input block is a row of K symbols over {0,1,X} in the uint8 matrix of
ASCII codes that ``core.partition`` returns; it matches a vector, a
string of K symbols over {0,1,U}, when no position pairs a specified 0
with a specified 1.  ``mv_masks`` is the one check of a vector's
symbols, run by ``match_set`` on a memo miss; ``EncodedStream`` checks
its table the same way.  Each block is encoded as the codeword of its
assigned vector followed by the block's bits at the vector's U
positions: a word of |codeword| + N_U bits, one fixed width per vector.
A codebook is a plain dict from vector index to codeword, and the
``EncodedStream`` that ``encode_all`` returns holds the coded vectors in
index order, one codeword each.  ``encode_all`` ORs each block's bits
into its vector's template row, a slice of blocks at a time, and packs
the cells below 4, its word, with ``np.packbits``; ``decode`` finds the
word starts with lockstep walkers whose chains of words join, as a
prefix code resynchronises, and gathers each block's fill bits through
an offset table, one row per vector.

Matching has one implementation, on block sets.  ``BlockStats`` turns
the block matrix into one set per (mask bit, vector symbol), each a
Python int with one bit per block; a vector's matching blocks, its
``match_set``, are the AND of the sets at its specified positions, taken
four at a time from a memo on the stats keyed by 4-symbol substrings, so
one code path serves every block length.  ``match_frequencies`` assigns
blocks greedily from those raw sets for ``cover`` and the search's
fitness (the search keeps each vector's raw set across fitness calls, see
``ea``); and ``encode_all`` checks a covering against them once per vector.
A covering is its assignment, an int64 array of each block's vector
index; ``frequencies`` derives the per-vector counts from it.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    check_field_types,
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

# blocks per slice that encode_all writes at a time up to K=12; above
# that, a slice holds at most 12 * _SLICE symbols
_SLICE = 1 << 16

# cap on the payload bits between decode walkers' starts, bits in a span, cells in a gather
_CHUNK = 1 << 9
_SPAN = 1 << 20
_FILL = 1 << 16


def rng_words(rng: random.Random, m: int) -> np.ndarray:
    """The next m 32-bit Mersenne Twister words of ``rng`` as a uint32
    array, from one ``getrandbits(32 * m)``: CPython packs m whole words,
    least significant first, and consumes exactly m.  Its ``getrandbits(1)``
    is a word's top bit, and ``choice`` of 3 items redraws ``word >> 30``
    while it is 3, so ``words >> 31`` and ``words >> 30`` replay those calls,
    rng state included.  This relies on CPython internals; tests pin them.
    """
    return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")


def mv_masks(symbols: str) -> tuple[int, int]:
    """(ones, zeros) bitmasks of a vector; leftmost symbol is the top bit.

    Raises ValueError, naming the vector, when it is empty or holds a
    symbol other than 0, 1 and U.
    """
    if not symbols or symbols.strip("01U"):
        raise ValueError(f"matching vector {symbols!r} is not a nonempty string of 0, 1 and U")
    return int(symbols.translate(_MV_ONES), 2), int(symbols.translate(_MV_ZEROS), 2)


@dataclass(frozen=True)
class EncodedStream:
    """A compressed block sequence plus everything needed to decode it.

    ``mv_table`` holds the coded vectors, each K symbols over {0,1,U}, and
    ``codewords`` one prefix-free codeword of 0s and 1s per vector, in
    table order; both, and the payload, are frozen.
    ``original_length`` is the unpadded symbol count the decoder must trim
    to; it sets the block count.  The container's limits hold here: K,
    ``original_length`` and ``payload_bits`` are ints, the first two at
    least 1 and the last at least 0, K and the table size at most
    ``MAX_K_OR_L`` (u16 fields), ``original_length`` fits a u64, a codeword
    holds at most 255 bits (a length byte), and ``pattern_width`` is None or
    a positive int that divides it, so every stream can be written.
    """

    payload: bytes
    payload_bits: int
    k: int
    mv_table: tuple[str, ...]
    codewords: tuple[str, ...]
    original_length: int
    pattern_width: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "payload", bytes(self.payload))
        object.__setattr__(self, "mv_table", tuple(self.mv_table))
        object.__setattr__(self, "codewords", tuple(self.codewords))
        check_field_types(self, ValueError)
        if len(self.payload) != (self.payload_bits + 7) // 8:
            raise ValueError("payload byte count disagrees with payload_bits")
        if self.k < 1 or self.original_length < 1 or self.payload_bits < 0:
            raise ValueError("K and original_length must be at least 1, payload_bits >= 0")
        if self.k > MAX_K_OR_L or len(self.mv_table) > MAX_K_OR_L:
            raise ValueError(f"K and the table size must be at most {MAX_K_OR_L}")
        if self.original_length > MAX_ORIGINAL_LENGTH:
            raise ValueError(f"original_length must be at most {MAX_ORIGINAL_LENGTH}")
        if set(map(len, self.mv_table)) - {self.k} or "".join(self.mv_table).strip("01U"):
            bad = next(v for v in self.mv_table if len(v) != self.k or v.strip("01U"))
            raise ValueError(f"table vector {bad!r} is not {self.k} symbols of 0, 1 and U")
        width = self.pattern_width
        if width is not None and (width < 1 or self.original_length % width):
            raise ValueError(
                f"pattern width {width} does not divide {self.original_length} symbols"
            )
        if len(self.codewords) != len(self.mv_table):
            raise ValueError("the table needs exactly one codeword per vector")
        codes = sorted(self.codewords)
        if "".join(codes).strip("01"):
            raise ValueError("a codeword holds a symbol other than 0 and 1")
        for a, b in zip(codes, codes[1:]):
            if b.startswith(a):
                raise ValueError(f"codewords are not prefix-free: {a!r}, {b!r}")
        longest = max(map(len, codes), default=0)
        if longest > 255:
            raise ValueError(f"codeword of {longest} bits exceeds 255")

    @property
    def block_count(self) -> int:
        """ceil(original_length / K): every block holds an original symbol."""
        return -(-self.original_length // self.k)


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
    positions within ``full``, the set of every block.  ``blocks`` is
    ``core.partition``'s (blocks, K) uint8 matrix of ASCII codes, kept by
    reference, or ValueError; its sets are read from a contiguous copy.

    ``groups[g]`` memoises ``match_set``'s AND over mask bits 4g to 4g+3,
    keyed by the vector's substring [K-4g-4, K-4g) (clipped at 0: the
    leftmost group may be short).  It holds at most 3^4 - 1 = 80 keys, all
    but all-U, each added once, the first time asked for, so at most 2.5
    bytes per block symbol in all.
    """

    __slots__ = ("blocks", "k", "total", "fits_zero", "fits_one", "full", "groups", "_plan")

    def __init__(self, blocks: np.ndarray):
        if not (isinstance(blocks, np.ndarray) and blocks.dtype == np.uint8
                and blocks.ndim == 2 and blocks.shape[1]):
            raise ValueError("blocks must be a (blocks, K >= 1) uint8 matrix")
        self.blocks = blocks
        self.total, self.k = blocks.shape
        self.full = (1 << self.total) - 1
        # mask bit b is column K-1-b
        columns = np.ascontiguousarray(blocks[:, ::-1].T)
        self.fits_zero = [_block_set(col != ord("1")) for col in columns]
        self.fits_one = [_block_set(col != ord("0")) for col in columns]
        self.groups: list[dict[str, int]] = [{} for _ in range(0, self.k, 4)]
        # per group: its substring's slice, the all-U substring and the memo
        self._plan = [(slice(max(hi - 4, 0), hi), "U" * min(hi, 4), memo)
                      for hi, memo in zip(range(self.k, 0, -4), self.groups)]

    @property
    def n_unique(self) -> int:
        """Number of distinct blocks (matrix rows), counted on each access."""
        ordered = self.blocks[np.lexsort(self.blocks.T)]
        changes = (ordered[1:] != ordered[:-1]).any(axis=1)
        return min(self.total, 1) + int(np.count_nonzero(changes))


def _block_set(flags: np.ndarray) -> int:
    """Block set whose bit i is ``flags[i]``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _block_flags(block_set: int, total: int) -> np.ndarray:
    """Inverse of ``_block_set``: a bool array of ``total`` flags."""
    raw = np.frombuffer(block_set.to_bytes(-(-total // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=total, bitorder="little").view(bool)


def match_set(stats: BlockStats, symbols: str) -> int:
    """Block set of every block the vector ``symbols`` matches: the AND of
    ``fits_zero`` over its 0 positions and ``fits_one`` over its 1
    positions, one AND per group of 4 symbols that is not all U, from the
    group's memo.  A hit needs no masks; a miss, or a length other than K,
    runs ``mv_masks``, so a bad symbol raises its ValueError before the
    length raises LengthMismatch."""
    if len(symbols) != stats.k:
        mv_masks(symbols)
        raise LengthMismatch(f"vector length {len(symbols)} vs block length {stats.k}")
    hit = stats.full
    for cut, blank, memo in stats._plan:
        key = symbols[cut]
        if key == blank:
            continue
        part = memo.get(key)
        if part is None:
            mv_masks(symbols)
            # position p of the vector is mask bit K-1-p
            sets = [(stats.fits_one if s == "1" else stats.fits_zero)[stats.k - 1 - p]
                    for p, s in enumerate(key, cut.start) if s != "U"]
            part = memo[key] = functools.reduce(operator.and_, sets)
        hit &= part
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
    unassigned = stats.full
    # rising U count; the sort is stable, so ties keep the input order
    for idx in sorted(range(len(sets)), key=n_unspecified.__getitem__):
        hits[idx] = hit = unassigned & sets[idx]
        freqs[idx] = hit.bit_count()
        unassigned ^= hit
    first = (unassigned & -unassigned).bit_length()
    return freqs, hits, unassigned.bit_count(), first


def cover(stats: BlockStats, mvs: Sequence[str]) -> np.ndarray:
    """Greedy covering: vectors sorted by rising U count, first match wins.

    Returns the read-only int64 assignment.  Raises UnmatchedBlock (with
    the first one's 1-based index and the count) when blocks match no vector.
    """
    _, hits, unmatched, first = match_frequencies(
        stats, [match_set(stats, v) for v in mvs], [v.count("U") for v in mvs]
    )
    if unmatched:
        raise UnmatchedBlock(first, unmatched)
    assign = np.zeros(stats.total, dtype=np.int64)
    for idx, hit in enumerate(hits):
        if hit:
            assign[_block_flags(hit, stats.total)] = idx
    assign.flags.writeable = False
    return assign


def frequencies(assignment: np.ndarray, n_vectors: int) -> list[int]:
    """Blocks per vector index in [0, n_vectors), as Python ints."""
    return np.bincount(assignment, minlength=n_vectors).tolist()


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


def build_huffman(frequencies: Sequence[int]) -> dict[int, str]:
    """Canonical Huffman codebook, from each nonzero-frequency index to its
    codeword: codewords assigned in (length, index) order."""
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
    return entries


def encode_all(
    stats: BlockStats,
    assignment: np.ndarray,
    codebook: dict[int, str],
    mvs: Sequence[str],
    fill: str = "zero",
    rng: random.Random | None = None,
    original_length: int | None = None,
    pattern_width: int | None = None,
) -> EncodedStream:
    """Encode each block as its vector's codeword followed by the block's
    symbols at the vector's U positions, and pack the concatenation.

    An X at a U position takes the fill policy's bit ('0' by default);
    random fill takes one ``rng.getrandbits(1)`` per such X, in payload
    order, drawn a slice at a time through ``rng_words``.  Raises
    InvalidConfig, before encoding anything, for a fill policy outside
    ``FILL_CHOICES`` or random fill without an rng, then
    ValueError unless there are ceil(``original_length`` / K) blocks, one
    assigned index each, every index and codebook key lies in
    [0, len(mvs)) and no codeword is over 255 bits.  Each vector with a
    codeword is then checked once against its blocks, as block sets; for
    the first block in sequence order that cannot be encoded, the vector's
    length decides LengthMismatch, then the block's bit in its
    ``match_set`` NotMatching, else NoCodeword.  Other codebooks that
    ``EncodedStream`` refuses raise ValueError once the payload is written.

    The payload is written ``_SLICE`` blocks at a time, or at K > 12
    ``_SLICE`` * 12 // K blocks (at least one), so that a slice's
    matrices do not grow with K: one ``bytes.translate`` turns the slice's
    symbols into bits, each block's bits are ORed into a copy of its
    vector's template row (codeword bits, then 0 at each U and 4 at each
    specified position), and the cells below 4, read row by row, are the
    slice's payload.  Bits past a slice's last full byte carry into the
    next, so the bytes equal ``container.pack_bits`` of the whole payload.
    A symbol other than 0, 1 and X at a U position raises ValueError.
    """
    if fill not in FILL_CHOICES:
        raise InvalidConfig(f"unknown fill policy {fill!r}; choose from {FILL_CHOICES}")
    if fill == "random" and rng is None:
        raise InvalidConfig("random fill requires an rng")
    if original_length is None:
        original_length = stats.total * stats.k
    if -(-original_length // stats.k) != stats.total:
        raise ValueError(f"{stats.total} blocks do not hold {original_length} symbols")
    good, n = 0, len(mvs)
    if stats.total != len(assignment):
        raise ValueError(f"assignment covers {len(assignment)} of {stats.total} blocks")
    if stats.total and not (assignment.min() >= 0 and assignment.max() < n):
        raise ValueError(f"assignment names a vector outside the {n} given")
    if any(not 0 <= i < n for i in codebook):
        raise ValueError(f"codebook names a vector outside the {n} given")
    top = max(map(len, codebook.values()), default=0)
    if top > 255:
        raise ValueError(f"codeword of {top} bits exceeds 255")
    # a block is good when its vector is K long, holds a codeword and matches
    # it.  Row i of ``cells`` is vector i's word template: its codeword in the
    # first |codeword| of ``top`` cells, then K cells, 0 at each U; all else 4
    cells = np.full((n, top + stats.k), 4, dtype=np.uint8)
    for i, code in codebook.items():
        v = mvs[i]
        if len(v) != stats.k:
            mv_masks(v)  # a bad symbol outranks a bad length, as in match_set
            continue
        good |= _block_set(assignment == i) & match_set(stats, v)
        cells[i, : len(code)] = [b == "1" for b in code]
        cells[i, top:] = 4 * (np.frombuffer(v.encode("ascii"), dtype=np.uint8) != ord("U"))
    bad = stats.full & ~good
    if bad:
        first = (bad & -bad).bit_length() - 1
        i = int(assignment[first])
        v = mvs[i]
        if len(v) != stats.k:
            raise LengthMismatch(f"vector length {len(v)} vs block length {stats.k}")
        if not match_set(stats, v) >> first & 1:
            block = stats.blocks[first].tobytes().decode("latin-1")
            raise NotMatching(f"vector {v} does not match block {block}")
        raise NoCodeword(f"vector {i} has no codeword")
    # symbol code -> payload bit; 2 marks an X to draw, 3 a foreign symbol
    bit_of = bytearray(b"\3" * 256)
    bit_of[ord("0")], bit_of[ord("1")] = 0, 1
    bit_of[ord("X")] = {"zero": 0, "one": 1, "random": 2}[fill]
    chunks, carry = [], np.zeros(0, dtype=np.uint8)
    step = max(1, _SLICE * 12 // max(stats.k, 12))
    for lo in range(0, stats.total, step):
        hi = min(lo + step, stats.total)
        bits = np.frombuffer(stats.blocks[lo:hi].tobytes().translate(bit_of),
                             dtype=np.uint8).reshape(hi - lo, stats.k)
        rows = cells[assignment[lo:hi]]
        rows[:, top:] |= bits
        out = np.concatenate([carry, rows[rows < 4]])
        if fill == "random":
            draws = np.flatnonzero(out == 2)
            out[draws] = rng_words(rng, len(draws)) >> 31
        if out.max(initial=0) > 1:
            raise ValueError("a block holds a symbol other than 0, 1 and X")
        full = len(out) - len(out) % 8
        chunks.append(np.packbits(out[:full]).tobytes())
        carry = out[full:]
    payload_bits = 8 * sum(map(len, chunks)) + len(carry)
    chunks.append(np.packbits(carry).tobytes())
    return EncodedStream(
        payload=b"".join(chunks),
        payload_bits=payload_bits,
        k=stats.k,
        mv_table=tuple(mvs[i] for i in sorted(codebook)),
        codewords=tuple(codebook[i] for i in sorted(codebook)),
        original_length=original_length,
        pattern_width=pattern_width,
    )


def _word_starts(step, win: np.ndarray, first: int, end: int, chunk: int) -> np.ndarray:
    """Rising bit offsets of the words before ``end`` on the chain from
    ``first``, a word start; ``step(win, at)`` is the word width at ``at``.

    Walkers start every ``chunk`` bits from ``first`` and step together; a
    walker stops on a bit owned before the step (their chains join) or at
    ``end``; twins on one new bit walk on, and ``put`` gives the bits to
    the last.  The chain is walker 0's words to its stop, then the owner's
    of that bit, and so on; bits rise, so doubling hops finds it.
    """
    at = np.arange(first, end, chunk)
    m = len(at)
    ids = np.arange(m, dtype=np.min_scalar_type(-m - 1))
    owner = np.full(end + 1, -1, dtype=ids.dtype)
    owner[end], owner[at] = m, ids  # walkers past ``end`` are clipped to it
    while at.size:
        at = at + step(win, at)
        fresh = owner.take(at, mode="clip") == -1
        at, ids = at[fresh], ids[fresh]
        owner.put(at, ids)
    starts = np.flatnonzero(owner[:end] >= 0)
    walker = owner[starts]
    last = np.zeros(m, dtype=np.int64)
    np.maximum.at(last, walker, starts)
    stop = last + step(win, last)
    hop = owner.take(np.append(stop, end), mode="clip").astype(np.int64)
    on, far = np.arange(m + 1) == 0, hop
    while far[0] != m:
        on[far[on]] = True
        far = far[far]
    entry = np.append(first, np.full(m, end))
    entry[hop[:m][on[:m]]] = stop[on[:m]]
    return starts[starts >= entry[walker]]


def decode(stream: EncodedStream, max_symbols: int = MAX_DECODE_SYMBOLS) -> str:
    """Reconstruct the fully specified bit string of ``original_length`` bits.

    Raises OutputTooLarge, before decoding anything, when
    ``original_length`` exceeds ``max_symbols``; then, at the first block
    that fails, UnknownCodeword when the next ``max_len`` bits start with
    no codeword or TruncatedPayload when the payload ends inside its word;
    and DanglingBits when bits are left after the last block.

    It decodes ``_SPAN`` payload bits at a time.  Windows: ``head`` (int32,
    one ``np.repeat``) maps the 32-bit windows' next min(``max_len``, 16)
    bits to the vector whose codeword they start, -1 (a word wider than the
    payload), or -2 - t for node t of longer codewords' 16-bit digits;
    sorted deeper entries (``lo`` = node << 16 | digit, digits spanned,
    vector or -2 - node), the first below every key, lead on.  Walk and
    stitch: ``_word_starts``, walkers min(``_CHUNK``, max(64, isqrt(span
    bits) // 2)) bits apart, rounded down to the word widths' gcd: the
    lockstep steps, each of fixed numpy cost, grow with the spacing and the
    ~26 steps each walker takes to join a chain with span / spacing, so the
    best spacing grows as sqrt(span).  Fill: the offset table holds, at
    each U cell of a vector, the cell's bit in its word (|codeword| + its
    rank among the U cells), 0 elsewhere; word start + offset, as intp
    (``take`` copies other index types to intp), gathers ``_FILL`` cells at
    a time from the span's unpacked bits, and the U mask and the specified
    symbols make them the rows.  Only a span's last word can be bad.
    """
    if stream.original_length > max_symbols:
        raise OutputTooLarge(
            f"stream declares {stream.original_length} symbols, "
            f"more than the limit of {max_symbols}"
        )
    n, k, codes, mvs = stream.payload_bits, stream.k, stream.codewords, stream.mv_table
    max_len = max(map(len, codes), default=0)
    peek = min(max_len, 16)
    nodes, entries = {}, {(-1, 1 << peek, 0, -1), (0, -1, 0, -1)}  # head's end, lo's floor
    for i, code in enumerate(codes):
        node, cut = -1, peek  # peek is 16 when a codeword is longer
        while len(code) > cut:
            child = nodes.setdefault(code[:cut], len(nodes))
            entries.add((node, int(code[cut - 16 : cut], 2), 1, -2 - child))
            node, cut = child, cut + 16
        low = int(code[cut - peek :] or "0", 2) << (cut - len(code))
        entries.add((node, low, 1 << (cut - len(code)), i))
    node, digit, size, target = np.array(sorted(entries), dtype=np.int64).T
    top = np.count_nonzero(node < 0)  # head: each top entry after its gap of -1
    gap = digit[:top] - np.append(0, digit[: top - 1] + size[: top - 1])
    head = np.repeat(np.stack((np.full(top, -1), target[:top]), 1).astype(np.int32).ravel(),
                     np.stack((gap, size[:top]), 1).ravel())
    if nodes:
        lo, size, target = node[top:] << 16 | digit[top:], size[top:], target[top:]

    def bits_at(win, at, count):
        return (win.take(at >> 3, mode="clip") >> (32 - count - (at & 7))) & ((1 << count) - 1)

    def vectors(win, at):
        vec = head.take(bits_at(win, at, peek))
        if not nodes:
            return vec
        todo = np.flatnonzero(vec < -1)
        at, node = at[todo], -2 - vec[todo].astype(np.int64)
        while todo.size:
            at = at + 16
            key = node << 16 | bits_at(win, at, 16)
            i = np.searchsorted(lo, key, "right") - 1
            vec[todo] = found = np.where(key < lo[i] + size[i], target[i], -1)
            todo, at, node = todo[found < -1], at[found < -1], -2 - found[found < -1]
        return vec

    symbols = "".join(mvs).encode("ascii")
    fixed = np.frombuffer(symbols.replace(b"U", b"0"), dtype=np.uint8).reshape(-1, k)
    is_u = (np.frombuffer(symbols, dtype=np.uint8).reshape(-1, k) == ord("U")).view(np.uint8)
    # |codeword| + the U cells up to each cell; the last is the word's width
    ends = is_u.cumsum(axis=1, dtype=np.intp)
    ends += np.array([len(c) for c in codes], dtype=np.intp)[:, None]
    width = np.append(ends[:, -1], n + 1)
    offset = (ends - 1) * is_u  # a U cell's bit in its word, 0 elsewhere
    if not width[0]:
        if n:
            raise DanglingBits(f"{n} undecoded payload bits")
        return (mvs[0] * stream.block_count)[: stream.original_length]
    gcd = int(np.gcd.reduce(width[:-1])) or 1
    data = np.frombuffer(stream.payload, dtype=np.uint8)
    out, done, pos, step = [], 0, 0, max(1, _FILL // k)
    while done < stream.block_count:
        base = pos & ~7
        end = max(min(_SPAN, n - base), pos - base + 1)
        raw = np.zeros(((end + 7) >> 3) + 40, dtype=np.uint32)  # windows reach 255 bits on
        part = data[base >> 3 : ((base + end) >> 3) + 40]
        raw[: len(part)] = part
        win = raw[:-3] << 24 | raw[1:-2] << 16 | raw[2:-1] << 8 | raw[3:]
        chunk = min(_CHUNK, max(64, math.isqrt(end) // 2))
        starts = _word_starts(lambda w, a: width.take(vectors(w, a)), win, pos - base,
                              end, max(gcd, chunk - chunk % gcd))[: stream.block_count - done]
        vecs = vectors(win, starts)
        at, pos = base + int(starts[-1]), base + int(starts[-1] + width[vecs[-1]])
        if pos > n:
            if vecs[-1] < 0 and at + max_len <= n:
                raise UnknownCodeword(f"no codeword matches payload prefix of {max_len} bits")
            raise TruncatedPayload(f"payload ends inside block {done + len(vecs)} at bit {n}")
        bits = np.unpackbits(data[base >> 3 : (pos + 7) >> 3])
        for row in range(0, len(vecs), step):
            some = vecs[row : row + step]
            where = offset.take(some, axis=0)
            where += starts[row : row + step, None]
            rows = bits.take(where)
            rows &= is_u.take(some, axis=0)
            rows |= fixed.take(some, axis=0)
            out.append(str(rows.ravel()[: stream.original_length - (done + row) * k].data,
                           "ascii"))
        done += len(vecs)
        del raw, win, starts, vecs, bits, some, where, rows  # not held over the join
    if pos < n:
        raise DanglingBits(f"{n - pos} undecoded payload bits")
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
    than two frequencies are nonzero (a lone codeword is empty).  The
    merged weights come out in nondecreasing order, so over the sorted
    leaves they form a second sorted queue, and each merge takes the two
    smallest fronts of the two queues.
    """
    return _sorted_huffman_cost(_positive_sorted(frequencies))


def _positive_sorted(frequencies: Sequence[int]) -> list[int]:
    """The positive frequencies, ascending: one sort, the rest cut by bisection."""
    ranked = sorted(frequencies)
    return ranked[bisect_right(ranked, 0) :]


def _sorted_huffman_cost(leaves: list[int]) -> int:
    """``huffman_cost`` of ascending positive weights, left as they were;
    a sentinel above the total weight ends both queues."""
    n = len(leaves)
    if n < 2:
        return 0
    top = sum(leaves) + 1
    leaves.append(top)
    nodes = [top] * n
    a = b = 0
    for k in range(n - 1):
        if leaves[a] <= nodes[b]:
            x, a = leaves[a], a + 1
        else:
            x, b = nodes[b], b + 1
        if leaves[a] <= nodes[b]:
            nodes[k], a = x + leaves[a], a + 1
        else:
            nodes[k], b = x + nodes[b], b + 1
    leaves.pop()
    return sum(nodes) - top


def payload_bits_for(
    frequencies: Sequence[int], n_unspecified: Sequence[int]
) -> int:
    """Total payload size for a covering: sum of F * (|codeword| + N_U)."""
    leaves = _positive_sorted(frequencies)
    if not leaves:
        raise AllZeroFrequencies("every frequency is zero")
    return _sorted_huffman_cost(leaves) + sum(map(operator.mul, frequencies, n_unspecified))


# Scale 2^T of the merge's integer Kraft-dual bound.  Flooring loses less
# than 2^-T bit per leaf, so under one bit for any table the format allows.
_DUAL_SCALE = 16


def _dual_multiplier(weights: Sequence[int]) -> int:
    """The multiplier lambda * 2^T at which the Kraft-dual bound of
    ``weights`` (three or more, all positive) peaks; see
    ``merge_subsumed_frequencies``.

    The bound is concave in lambda with slope sum(2^-l_k) - 1, where l_k is
    the length that minimises leaf k's term; l_k rises from l to l + 1 as
    lambda passes w_k * 2^(l+1).  The peak is the first of these
    breakpoints, from every length at 1, after which the slope is <= 0.
    A weight of bit length b has exactly one of them, w * 2^(E-b+1), in
    each octave [2^E, 2^(E+1)) with E > b, so across octave E the Kraft
    sum falls by the sum over b < E of c_b * 2^-(E-b+1), c_b the weights of
    bit length b: half the fall across octave E - 1 plus c_(E-1) / 4.  The
    walk takes whole octaves until one ends at a sum <= 1, then passes
    that octave's breakpoints in rising order.  The sums are dyadic: in
    octave E each is a multiple of 2^-(E-b_min+1) below 2^(E'-E+1), with
    E' < b_max + log2(n) the last octave, so it is exact in a double for
    any table of under 2^25 blocks.  Beyond that, rounding moves lambda,
    and any lambda still gives an exact bound.
    """
    bits = [w.bit_length() for w in weights]
    count = Counter(bits)
    kraft, fall, octave = len(bits) / 2, 0.0, min(bits)
    while kraft - fall > 1:
        kraft -= fall
        fall = fall / 2 + count[octave] / 4
        octave += 1
    for lam, shift in sorted((w << (octave - b + 1), octave - b + 1)
                             for w, b in zip(weights, bits) if b < octave):
        kraft -= 0.5 ** shift
        if kraft <= 1:
            break
    return lam << _DUAL_SCALE


def _dual_term(weight: int, lam: int) -> int:
    """min over l >= 1 of weight * l * 2^T + floor(lam / 2^l).

    Raising l by one adds weight * 2^T - ceil(a / 2), where
    a = floor(lam / 2^l) falls as l grows.  So the sum falls until the
    first l with a <= weight * 2^(T+1), that is with
    floor(lam / (weight * 2^(T+1) + 1)) < 2^l, and never falls after it.
    """
    scaled = weight << _DUAL_SCALE
    length = (lam // ((scaled << 1) + 1)).bit_length() or 1
    return scaled * length + (lam >> length)


def merge_subsumed_frequencies(
    frequencies: Sequence[int],
    ones: Sequence[int],
    zeros: Sequence[int],
    n_unspecified: Sequence[int],
) -> tuple[list[int], dict[int, int], int]:
    """Greedy frequency merge: drop vector j into a subsuming vector i when
    the total payload (with fresh Huffman lengths) strictly shrinks.

    The candidates are one list of live pairs (j, i), i subsuming j, in
    rising order, scanned from the front; an accepted drop restarts the
    scan, so the result is a deterministic fixed point.  A dropped vector
    is at zero frequency, which is how the scan skips its pairs.  Returns
    (merged frequencies, {dropped: final absorber}, their ``huffman_cost``);
    a chain of drops (j into i, later i into t) resolves to t at the end.

    Pricing.  A drop moves F_j onto i, so the fill bits grow by
    extra = F_j * (N_U[i] - N_U[j]) (never negative: i's specified
    positions are among j's) and the drop is taken iff
    huffman_cost(after) + extra < huffman_cost(before).  The merge keeps
    the live weights in ascending order; a drop is priced on a copy of
    that list, with F_i and F_j deleted by bisection and F_i + F_j
    inserted, by the two-queue merge (``_sorted_huffman_cost``), and an
    accepted drop keeps the copy.  Two cases are decided without pricing,
    both exactly:

    - F_i == 0: the drop only renames a leaf, so the Huffman cost stays
      and the fill bits cannot fall.  Vectors at zero frequency therefore
      never take part, as droppers or absorbers: the list holds only
      vectors live at the start, and the scan skips a dropped one.
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
    # both masks in one int, zeros above every ones mask: i subsumes j
    # iff i's combined mask is within j's
    width = max(ones, default=0).bit_length()
    masks = [(j, ones[j] | zeros[j] << width) for j in live]
    pairs = [(j, i) for j, cj in masks for i, ci in masks if ci & cj == ci and i != j]
    ranked = _positive_sorted(freqs)
    current = _sorted_huffman_cost(ranked)
    lam = _dual_multiplier(ranked) if len(ranked) > 2 else 0
    terms = [_dual_term(f, lam) if f else 0 for f in freqs]
    bound = sum(terms) - lam
    while True:  # one scan from the front per accepted drop
        for j, i in pairs:
            fi, fj = freqs[i], freqs[j]
            if not fi or not fj:
                continue
            extra = fj * (n_unspecified[i] - n_unspecified[j])
            merged = _dual_term(fi + fj, lam)
            after = bound - terms[i] - terms[j] + merged
            if len(ranked) > 2 and after >= (current - extra) << _DUAL_SCALE:
                continue
            trial = ranked.copy()
            del trial[bisect_left(trial, fi)]
            del trial[bisect_left(trial, fj)]
            insort(trial, fi + fj)
            cost = _sorted_huffman_cost(trial)
            if cost + extra < current:
                current, bound, terms[i], ranked = cost, after, merged, trial
                freqs[i], freqs[j] = fi + fj, 0
                redirect[j] = i
                break
        else:
            break
    # i was live when j dropped into it, so i's own drop, if any, came later
    for j, i in reversed(redirect.items()):
        redirect[j] = redirect.get(i, i)
    return freqs, redirect, current


def subsume_merge(
    assignment: np.ndarray,
    mvs: Sequence[str],
    k: int,
) -> np.ndarray:
    """Optional post-pass over an assignment: fold vectors whose blocks are
    all matched by a wider vector, whenever that lowers the payload size.
    Returns the rewritten read-only assignment; folded vectors take no blocks.
    """
    masks = [mv_masks(v) for v in mvs]
    for v in mvs:
        if len(v) != k:
            raise LengthMismatch(f"vector length {len(v)} != {k}")
    _, redirect, _ = merge_subsumed_frequencies(
        frequencies(assignment, len(mvs)),
        [ones for ones, _ in masks],
        [zeros for _, zeros in masks],
        [v.count("U") for v in mvs],
    )
    target = np.arange(len(mvs), dtype=np.int64)
    target[list(redirect)] = list(redirect.values())
    merged = target[assignment]
    merged.flags.writeable = False
    return merged
