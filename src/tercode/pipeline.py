"""One compress pipeline for every method: partition, pick vectors, cover,
code, encode.

The method only decides the vectors and the codebook: ``9c`` and ``9c-hc``
use the nine fixed vectors (with the published code or a Huffman recode),
``ea`` searches for the vectors and Huffman-codes its covering.  Every layer
is called through its module attribute, so a caller can time or replace a
layer by patching that attribute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import baseline9c, codec, core, ea
from .errors import InvalidConfig, UnmatchedBlock

METHODS = ("ea", "9c", "9c-hc")


@dataclass(frozen=True)
class CompressResult:
    """The encoded stream plus the choices and measures that produced it."""

    stream: codec.EncodedStream
    mvs: tuple[str, ...]
    frequencies: tuple[int, ...]
    codebook: dict[int, str]
    evolution: ea.EvolutionReport | None

    @property
    def rate(self) -> float:
        return codec.compression_rate(self.stream.original_length, self.stream.payload_bits)


def compress(
    ts: core.TestSet,
    method: str,
    cfg: ea.EaConfig,
    fill: str = "zero",
) -> CompressResult:
    """Compress a test set with ``method`` at block length ``cfg.k``.

    ``ea`` runs ``cfg.runs`` searches and encodes with the best vector set
    (subsumption-merged when ``cfg.subsume``), or raises InvalidConfig when
    that set leaves blocks unmatched.  Random fill draws from an rng seeded
    by ``cfg.rng_seed``, so results are reproducible.
    """
    if method not in METHODS:
        raise InvalidConfig(f"unknown method {method!r}; choose from {METHODS}")
    original_bits = core.original_size_bits(ts)
    stats = codec.BlockStats(core.partition(core.flatten(ts), cfg.k))
    evolution = None
    if method == "ea":
        evolution = ea.run_many(stats, original_bits, cfg)
        mvs = tuple(ea.vector_symbols(evolution.best, cfg.k))
    else:
        mvs = baseline9c.nine_mvs(cfg.k)
    try:
        assignment = codec.cover(stats, mvs)
    except UnmatchedBlock as exc:
        # only ea gets here: the nine vectors include the all-U vector
        raise InvalidConfig(
            f"the search's best vector set leaves {exc.count} of {stats.total} "
            "blocks unmatched; reserve the all-U vector (--reserve-all-u), "
            "or raise L or the evaluation budget"
        ) from None
    if method == "ea" and cfg.subsume:
        assignment = codec.subsume_merge(assignment, mvs, cfg.k)
    freqs = codec.frequencies(assignment, len(mvs))
    if method == "9c":
        codebook = baseline9c.nine_codebook()
    else:
        codebook = codec.build_huffman(freqs)
    rng = random.Random(f"fill-{cfg.rng_seed}") if fill == "random" else None
    stream = codec.encode_all(
        stats,
        assignment,
        codebook,
        mvs,
        fill=fill,
        rng=rng,
        original_length=original_bits,
        pattern_width=ts.width,
    )
    return CompressResult(stream, mvs, tuple(freqs), codebook, evolution)
