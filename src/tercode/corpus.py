"""Synthetic clustered test-set generator for benchmarks and tests.

Rows are assembled by concatenating randomly chosen template blocks,
flipping each bit with a small probability and then overwriting
positions with X at the requested density.  Seeded, so the same spec
always yields the same file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import TestSet
from .errors import InvalidConfig, check_field_types


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a synthetic corpus: grid size, X density, cluster profile."""

    patterns: int
    width: int
    x_density: float = 0.0
    templates: int = 4
    flip_probability: float = 0.0
    template_width: int = 12
    rng_seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.patterns < 1 or self.width < 1:
            raise InvalidConfig("corpus needs at least one pattern and one column")
        if self.templates < 1 or self.template_width < 1:
            raise InvalidConfig("cluster profile needs >= 1 template of width >= 1")
        if not 0.0 <= self.x_density <= 1.0:
            raise InvalidConfig("x_density must lie in [0,1]")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise InvalidConfig("flip_probability must lie in [0,1]")


def generate_corpus(spec: CorpusSpec) -> TestSet:
    """Deterministically generate the clustered test set described by ``spec``."""
    rng = random.Random(spec.rng_seed)
    templates = [
        "".join(rng.choice("01") for _ in range(spec.template_width))
        for _ in range(spec.templates)
    ]
    chunks = math.ceil(spec.width / spec.template_width)
    rows = []
    for _ in range(spec.patterns):
        base = "".join(rng.choice(templates) for _ in range(chunks))[: spec.width]
        symbols = []
        for ch in base:
            if rng.random() < spec.flip_probability:
                ch = "1" if ch == "0" else "0"
            if rng.random() < spec.x_density:
                ch = "X"
            symbols.append(ch)
        rows.append("".join(symbols))
    return TestSet(tuple(rows))
