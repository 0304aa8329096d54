"""Shared test utilities: random data builders and independent oracles.

The oracles here deliberately avoid the package's mask/heap machinery:
covering is re-derived character by character and optimal prefix-code
cost is found by enumerating every full binary tree shape, so they can
catch systematic errors in the production paths.
"""

import heapq
import random
import struct
import zlib
from functools import lru_cache

import numpy as np

from tercode import (
    TestSet,
    build_huffman,
    cover,
    ea,
    encode_all,
    flatten,
    frequencies,
    original_size_bits,
    partition,
)
from tercode.codec import (
    _DUAL_SCALE,
    MAX_DECODE_SYMBOLS,
    BlockStats,
    match_set,
    mv_masks,
)
from tercode.container import MAGIC
from tercode.errors import (
    AllZeroFrequencies,
    DanglingBits,
    EmptyInput,
    IllegalCharacter,
    LengthMismatch,
    NoCodeword,
    NotMatching,
    OutputTooLarge,
    RaggedRows,
    TruncatedPayload,
    UnknownCodeword,
)

_NORMALIZE = str.maketrans("x", "X")
# what is left of a row after deleting every legal symbol
_DELETE_ALPHABET = str.maketrans("", "", "01X")


def random_test_set(rng: random.Random, max_rows=12, max_cols=16,
                    x_density=None) -> TestSet:
    rows = rng.randrange(1, max_rows + 1)
    cols = rng.randrange(1, max_cols + 1)
    if x_density is None:
        x_density = rng.random() * 0.6
    grid = []
    for _ in range(rows):
        grid.append(
            "".join(
                "X" if rng.random() < x_density else rng.choice("01")
                for _ in range(cols)
            )
        )
    return TestSet(tuple(grid))


def naive_check_patterns(patterns) -> None:
    """Reference ``TestSet`` check: every row on its own, in order, so the
    first bad row decides, and within a row a length error comes before
    an illegal symbol."""
    if not patterns:
        raise EmptyInput("test set has no patterns")
    width = len(patterns[0])
    if width < 1:
        raise EmptyInput("test set has zero-width patterns")
    for row in patterns:
        if len(row) != width:
            raise RaggedRows(
                f"pattern length {len(row)} differs from {width}"
            )
        illegal = row.translate(_DELETE_ALPHABET)
        if illegal:
            raise IllegalCharacter(f"illegal symbol {illegal[0]!r} in pattern")


def naive_parse_test_set(text) -> TestSet:
    """Reference parser: each line split off, stripped and, unless blank or
    a comment, normalised on its own, then the rows checked one by one."""
    if hasattr(text, "read"):
        text = text.read()
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.translate(_NORMALIZE))
    if not rows:
        raise EmptyInput("no patterns found in input")
    naive_check_patterns(rows)
    return TestSet(tuple(rows))


def naive_block_sets(matrix) -> tuple[list[int], list[int]]:
    """Reference ``BlockStats.fits_zero`` and ``fits_one``: for mask bit b,
    column K-1-b read block by block, bit i set when block i's symbol there
    is not ``1`` (fits_zero) or not ``0`` (fits_one)."""
    total, k = matrix.shape
    fits_zero, fits_one = [], []
    for b in range(k):
        column = [int(matrix[i, k - 1 - b]) for i in range(total)]
        fits_zero.append(sum(1 << i for i, c in enumerate(column) if c != ord("1")))
        fits_one.append(sum(1 << i for i, c in enumerate(column) if c != ord("0")))
    return fits_zero, fits_one


def random_mv_set(rng: random.Random, k: int, count: int,
                  include_all_u=True) -> list[str]:
    mvs = ["".join(rng.choice("01U") for _ in range(k)) for _ in range(count)]
    if include_all_u:
        mvs.append("U" * k)
    return mvs


def encode_test_set(ts: TestSet, k: int, mvs, fill="zero", rng=None):
    """Full pipeline: partition, cover, Huffman, encode.  Returns the stream."""
    stats = BlockStats(partition(flatten(ts), k))
    assignment = cover(stats, mvs)
    codebook = build_huffman(frequencies(assignment, len(mvs)))
    return encode_all(
        stats,
        assignment,
        codebook,
        mvs,
        fill=fill,
        rng=rng,
        original_length=original_size_bits(ts),
    )


def blocks_from(symbols, k: int = 1) -> BlockStats:
    """The stats of equal-length block strings, built from the uint8 matrix
    of their ASCII codes as ``core.partition`` makes it; ``k`` is the block
    length of an empty list."""
    k = len(symbols[0]) if symbols else k
    assert all(len(block) == k for block in symbols)
    raw = "".join(symbols).encode("ascii")
    return BlockStats(np.frombuffer(raw, dtype=np.uint8).reshape(len(symbols), k))


def block_strings(blocks) -> list[str]:
    """The blocks as strings: the rows of a block matrix or of the matrix a
    ``BlockStats`` holds, decoded."""
    if isinstance(blocks, BlockStats):
        blocks = blocks.blocks
    return [row.tobytes().decode("ascii") for row in blocks]


def matches(v: str, block: str) -> bool:
    """True iff no position pairs a 0 with a 1; X and U match anything.

    The one-block case of ``codec.match_set``."""
    if len(v) != len(block):
        raise LengthMismatch(f"vector length {len(v)} vs block length {len(block)}")
    return bool(match_set(blocks_from([block]), v))


def record_fitness(monkeypatch) -> list[float]:
    """Patch ``ea.evaluate_fitness`` to append each fitness it computes to
    the returned list.  The search's cache hits repeat computed values, so
    the list's minimum is the lowest fitness the search saw."""
    values = []
    compute = ea.evaluate_fitness

    def recording(*args, **kwargs):
        values.append(compute(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(ea, "evaluate_fitness", recording)
    return values


def char_match(block_symbols: str, mv_symbols: str) -> bool:
    """Matching re-stated on characters, independent of the mask encoding."""
    return all(
        not ((b == "1" and v == "0") or (b == "0" and v == "1"))
        for b, v in zip(block_symbols, mv_symbols)
    )


def subsumes(wider: str, narrower: str) -> bool:
    """Each specified position of ``wider`` is specified identically in
    ``narrower``, so every block the narrower vector matches, the wider
    one matches too."""
    return all(w in ("U", n) for w, n in zip(wider, narrower))


def naive_encode_bits(blocks, assignment, codebook, mvs, fill="zero", rng=None) -> str:
    """Reference payload bits: every block encoded on its own, matched by
    ``char_match``.  An X at a U position takes the fill bit, or one
    ``rng.getrandbits(1)`` per X for random fill, blocks in order.  Raises
    for the first block it cannot encode: LengthMismatch, then
    NotMatching, then NoCodeword."""
    out = []
    for block, idx in zip(block_strings(blocks), assignment):
        v = mvs[idx]
        if len(v) != len(block):
            raise LengthMismatch(f"vector {v} vs block {block}")
        if not char_match(block, v):
            raise NotMatching(f"vector {v} does not match block {block}")
        if idx not in codebook:
            raise NoCodeword(f"vector {idx} has no codeword")
        fills = ""
        for ch, sym in zip(block, v):
            if sym != "U":
                continue
            if ch == "X":
                ch = "01"[rng.getrandbits(1)] if fill == "random" else "01"[fill == "one"]
            fills += ch
        out.append(codebook[idx] + fills)
    return "".join(out)


def unpack_bits(data: bytes, n: int) -> str:
    """The first ``n`` bits of ``data`` as a '0'/'1' string, MSB-first."""
    return format(int.from_bytes(data, "big"), "b").zfill(8 * len(data))[:n]


def naive_decode(stream, max_symbols: int = MAX_DECODE_SYMBOLS) -> str:
    """Reference decoder: probes each codeword length in rising order for
    every block and fills a %-template per block, with no peek table and
    no memo.  Raises OutputTooLarge, UnknownCodeword, TruncatedPayload and
    DanglingBits under the same conditions as ``codec.decode``."""
    if stream.original_length > max_symbols:
        raise OutputTooLarge(
            f"stream declares {stream.original_length} symbols, "
            f"more than the limit of {max_symbols}"
        )
    table = {code: pos for pos, code in enumerate(stream.codewords)}
    lengths = sorted({len(code) for code in table})
    max_len = lengths[-1] if lengths else 0
    # each vector as a %-template whose slots are its U positions
    templates = [(v.replace("U", "%s"), v.count("U")) for v in stream.mv_table]
    bits = unpack_bits(stream.payload, stream.payload_bits)
    n_bits = len(bits)
    pos = 0
    out: list[str] = []
    for _ in range(stream.block_count):
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
        pos += length
        template, n_u = templates[entry]
        if pos + n_u > n_bits:
            raise TruncatedPayload(f"payload ends inside fill bits at bit {n_bits}")
        out.append(template % tuple(bits[pos : pos + n_u]))
        pos += n_u
    if pos < n_bits:
        raise DanglingBits(f"{n_bits - pos} undecoded payload bits")
    return "".join(out)[: stream.original_length]


def naive_cover(blocks, mvs):
    """Reference covering: per-block scan in rising-U order, no masks.

    Returns (assignment, frequencies) or the 1-based index of the first
    unmatched block as (None, index).
    """
    order = sorted(range(len(mvs)), key=lambda i: mvs[i].count("U"))
    assignment = []
    freqs = [0] * len(mvs)
    for index, block in enumerate(block_strings(blocks), 1):
        for idx in order:
            if char_match(block, mvs[idx]):
                assignment.append(idx)
                freqs[idx] += 1
                break
        else:
            return None, index
    return tuple(assignment), tuple(freqs)


@lru_cache(maxsize=None)
def depth_profiles(leaves: int) -> frozenset:
    """Sorted depth multisets of every full binary tree with ``leaves`` leaves."""
    if leaves == 1:
        return frozenset({(0,)})
    shapes = set()
    for left in range(1, leaves):
        for lp in depth_profiles(left):
            for rp in depth_profiles(leaves - left):
                shapes.add(tuple(sorted([d + 1 for d in lp] + [d + 1 for d in rp])))
    return frozenset(shapes)


def optimal_prefix_cost(nonzero_freqs) -> int:
    """Brute-force minimum of sum(F * codeword length) over all prefix codes.

    Any optimal prefix code is a full binary tree; for a fixed tree shape
    the best assignment pairs the largest frequency with the smallest
    depth (rearrangement inequality), so scanning sorted pairings over
    all shapes is exhaustive.
    """
    desc = sorted(nonzero_freqs, reverse=True)
    return min(
        sum(f * d for f, d in zip(desc, sorted(profile)))
        for profile in depth_profiles(len(desc))
    )


def code_lengths(codebook: dict[int, str]) -> dict[int, int]:
    return {i: len(c) for i, c in codebook.items()}


def kraft_sum(codebook: dict[int, str]) -> float:
    return sum(2.0 ** -len(c) for c in codebook.values())


def codebook_cost(codebook: dict[int, str], freqs) -> int:
    return sum(freqs[i] * len(code) for i, code in codebook.items())


def payload_bitstring(stream) -> str:
    """The payload as a '0'/'1' string, trailing pad bits stripped."""
    bits = "".join(format(byte, "08b") for byte in stream.payload)
    return bits[: stream.payload_bits]


def naive_huffman_code_lengths(frequencies) -> dict[int, int]:
    """Reference Huffman code lengths: the merge tree is built with explicit
    child links and walked from the root.

    The merge queue orders by (weight, earliest index contained in the
    subtree), as ``codec.huffman_code_lengths`` does.  A single coded index
    gets length 0.
    """
    live = [(f, i) for i, f in enumerate(frequencies) if f > 0]
    if not live:
        raise AllZeroFrequencies("every frequency is zero")
    if len(live) == 1:
        return {live[0][1]: 0}
    heap = [(f, i, i) for f, i in live]
    children: dict[int, tuple[int, int]] = {}
    next_id = len(frequencies)
    heapq.heapify(heap)
    while len(heap) > 1:
        fa, ea, a = heapq.heappop(heap)
        fb, eb, b = heapq.heappop(heap)
        children[next_id] = (a, b)
        heapq.heappush(heap, (fa + fb, min(ea, eb), next_id))
        next_id += 1
    root = heap[0][2]
    lengths: dict[int, int] = {}
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        pair = children.get(node)
        if pair is None:
            lengths[node] = depth
        else:
            stack.append((pair[0], depth + 1))
            stack.append((pair[1], depth + 1))
    return lengths


def naive_huffman_cost(frequencies) -> int:
    """Reference optimal prefix-code cost: the sum of the merge weights of
    a heap Huffman over the nonzero frequencies (0 for fewer than two)."""
    heap = [f for f in frequencies if f > 0]
    heapq.heapify(heap)
    cost = 0
    for _ in range(len(heap) - 1):
        merged = heapq.heappop(heap) + heap[0]
        heapq.heapreplace(heap, merged)
        cost += merged
    return cost


def naive_payload_bits(frequencies, n_unspecified) -> int:
    """Payload size priced from a full Huffman code: sum of F * (len + N_U)."""
    lengths = naive_huffman_code_lengths(frequencies)
    return sum(
        frequencies[i] * (length + n_unspecified[i])
        for i, length in lengths.items()
    )


def naive_merge_subsumed_frequencies(frequencies, ones, zeros, n_unspecified):
    """Reference subsumption merge: every candidate drop priced with a full
    Huffman code, every pair tested for subsumption inside the scan."""
    freqs = list(frequencies)
    n = len(freqs)
    redirect: dict[int, int] = {}
    if not any(freqs):
        return freqs, redirect
    current = naive_payload_bits(freqs, n_unspecified)
    improved = True
    while improved:
        improved = False
        for j in range(n):
            if freqs[j] == 0:
                continue
            for i in range(n):
                if i == j:
                    continue
                if (ones[i] & ~ones[j]) or (zeros[i] & ~zeros[j]):
                    continue
                candidate = list(freqs)
                candidate[i] += candidate[j]
                candidate[j] = 0
                cost = naive_payload_bits(candidate, n_unspecified)
                if cost < current:
                    freqs = candidate
                    current = cost
                    redirect[j] = i
                    improved = True
                    break
            if improved:
                break
    resolved = {}
    for j in redirect:
        target = redirect[j]
        while target in redirect:
            target = redirect[target]
        resolved[j] = target
    return freqs, resolved


def naive_dual_multiplier(weights) -> int:
    """Reference for ``codec._dual_multiplier``: every breakpoint
    w * 2^(l+1), where a leaf's best length goes from l to l + 1, taken one
    at a time off a heap, from every length at 1, until the Kraft sum
    reaches 1; returns that breakpoint scaled by 2^T."""
    heap = [(w << 2, 1) for w in weights]
    heapq.heapify(heap)
    kraft = len(heap) / 2
    while kraft > 1:
        lam, length = heap[0]
        kraft -= 0.5 ** (length + 1)
        heapq.heapreplace(heap, (lam << 1, length + 1))
    return lam << _DUAL_SCALE


def single_vector_container(
    k: int,
    block_count: int,
    original_length: int,
    width: int | None = None,
    payload_bits: int = 0,
) -> bytes:
    """A container whose one vector is all 0 with the empty codeword, so
    every block decodes from zero payload bits; the CRC is valid.  A
    ``width`` adds a WDTH record; ``payload_bits`` adds that many zero
    payload bits, which decode leaves dangling."""
    body = struct.pack(">4sBHHQQ", MAGIC, 1, k, 1, block_count, original_length)
    body += bytes((2 * k + 7) // 8)  # the vector: K symbols coded 00 = '0'
    body += bytes([0])  # codeword length 0
    body += struct.pack(">Q", payload_bits) + bytes((payload_bits + 7) // 8)
    data = body + struct.pack(">I", zlib.crc32(body))
    if width is not None:
        data += b"WDTH" + struct.pack(">IQ", 8, width)
    return data


class ScriptedRng:
    """Stands in for random.Random with pre-scripted draws, for exact
    operator tests."""

    def __init__(self, randrange=(), choice=(), random_=(), getrandbits=()):
        self._randrange = list(randrange)
        self._choice = list(choice)
        self._random = list(random_)
        self._getrandbits = list(getrandbits)

    def randrange(self, *args):
        return self._randrange.pop(0)

    def choice(self, seq):
        value = self._choice.pop(0)
        assert value in seq
        return value

    def random(self):
        return self._random.pop(0)

    def getrandbits(self, n):
        """The next scripted bit; ``getrandbits(32 * m)`` packs the next m
        as the top bits of m words, least significant word first, as the
        real rng packs the words of m ``getrandbits(1)`` calls."""
        if n == 1:
            return self._getrandbits.pop(0)
        return sum(self._getrandbits.pop(0) << (32 * i + 31) for i in range(n // 32))
