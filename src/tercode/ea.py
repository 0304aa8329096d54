"""Evolutionary search for a good matching-vector set.

An individual is its genome: a string of L*K genes over {0,1,U}, whose
slice [i*K, (i+1)*K) is vector i.  The operators take the ``EaConfig``,
which owns K, the all-U reservation and the crossover mode.  Fitness is
the compression rate reached by covering and Huffman-coding the blocks of
one ``codec.BlockStats`` with those vectors, K taken from the stats, so
evaluation is pure and the only randomness lives in making individuals.
Selection is elitist: the best S of S parents plus C children survive,
which makes the best-fitness series nondecreasing.

A run keeps fitness only in its cache from genome to fitness, and per
vector string the vector's raw match set (``codec.match_set``) and its U
count, plus its masks when the run merges subsumed vectors, the only
step that reads them: a child shares almost every vector with a parent,
so a fitness call mostly does L dict lookups and one AND per vector in
``codec.match_frequencies``.  Once that vector cache holds more than
(S + C) * L entries after a generation, it keeps only the survivors'
vectors, so it never exceeds (S + 2C) * L entries of about
ceil(blocks / 8) bytes each.

When the all-U reservation is on, the last vector is pinned to all U and
no operator touches it, so every individual can cover every block
sequence and the infeasibility penalty is unreachable.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, fields, replace

import numpy as np

from .baseline9c import nine_mvs
from .codec import (
    MAX_K_OR_L,
    BlockStats,
    compression_rate,
    match_frequencies,
    match_set,
    merge_subsumed_frequencies,
    mv_masks,
    payload_bits_for,
    rng_words,
)
from .errors import InvalidConfig, LengthMismatch, check_field_types

GENE_ALPHABET = "01U"
_GENE_CODES = np.frombuffer(GENE_ALPHABET.encode("ascii"), dtype=np.uint8)

# Fitness of an individual that leaves blocks uncovered, minus their count,
# unless a feasible rate can reach it (a payload over 11x the original
# size); ``infeasible_base`` then goes below every feasible rate.
INFEASIBLE_BASE = -1000.0


@dataclass
class EaConfig:
    """Search parameters; defaults follow the reference experiment setup."""

    k: int = 12
    l: int = 64
    population_size: int = 10
    children_per_generation: int = 5
    p_crossover: float = 0.3
    p_mutation: float = 0.3
    p_inversion: float = 0.1
    stagnation_limit: int = 500
    max_evaluations: int | None = None
    rng_seed: int = 0
    reserve_all_u: bool = True
    runs: int = 5
    subsume: bool = False
    uniform_crossover: bool = False
    seed_nine_code: bool = False

    def __post_init__(self):
        check_field_types(self, minimum=dict.fromkeys(
            ("k", "l", "population_size", "children_per_generation",
             "stagnation_limit", "runs", "max_evaluations"), 1))
        if self.k > MAX_K_OR_L or self.l > MAX_K_OR_L:
            raise InvalidConfig(f"k and l must be <= {MAX_K_OR_L}")
        probs = (self.p_crossover, self.p_mutation, self.p_inversion)
        if any(not 0 <= p <= 1 for p in probs) or sum(probs) > 1 + 1e-12:
            raise InvalidConfig("operator probabilities must lie in [0,1] and sum to <= 1")
        if self.seed_nine_code and self.k % 2:
            raise InvalidConfig("nine-code seeding needs an even block length")

    @property
    def n_genes(self) -> int:
        return self.k * self.l

    @property
    def evaluation_budget(self) -> int:
        """``max_evaluations``, or 100 * S * C when it is None; derived on
        each read, so it follows S and C through ``dataclasses.replace``."""
        if self.max_evaluations is not None:
            return self.max_evaluations
        return 100 * self.population_size * self.children_per_generation

    @classmethod
    def from_file(cls, path: str, **overrides) -> "EaConfig":
        """Load key=value lines (whole-line '#' comments allowed) into a
        config; keyword ``overrides`` win over the file's values.  A byte
        that is not UTF-8 reads as U+FFFD, so it is refused outside comments."""
        names = {f.name for f in fields(cls)}
        values = {}
        with open(path, encoding="utf-8", errors="replace") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InvalidConfig(f"{path}:{lineno}: expected key=value")
                key, _, text = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in names:
                    raise InvalidConfig(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _parse_value(text.strip())
        return cls(**{**values, **overrides})


def _parse_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise InvalidConfig(f"cannot parse config value {text!r}") from None


def vector_symbols(genes: str, k: int) -> list[str]:
    """The genome's K-symbol vectors in order.

    Raises LengthMismatch unless the genes split into one or more of them.
    """
    if k < 1 or not genes or len(genes) % k:
        raise LengthMismatch(
            f"{len(genes)} genes do not split into vectors of {k} symbols"
        )
    return [genes[i : i + k] for i in range(0, len(genes), k)]


def _free_genes(cfg: EaConfig) -> int:
    """Genes the operators draw or change: all but the reserved tail vector."""
    return cfg.n_genes - cfg.k if cfg.reserve_all_u else cfg.n_genes


def _reserve(genes: str, cfg: EaConfig) -> str:
    """The free genes of ``genes`` followed by the reserved all-U tail, if any."""
    free = _free_genes(cfg)
    return genes[:free] + "U" * (cfg.n_genes - free)


def random_individual(cfg: EaConfig, rng: random.Random) -> str:
    """Uniform random genes; the reserved tail vector is pinned to all U.

    Genes and rng state are those of one ``rng.choice(GENE_ALPHABET)`` per
    free gene, which keeps the first word whose top two bits are below 3
    (``codec.rng_words``): a word yields at most one gene, so drawing as
    many words as genes are missing never draws one too many.
    """
    genes, missing = [], _free_genes(cfg)
    while missing:
        codes = rng_words(rng, missing) >> 30
        codes = codes[codes < 3]
        genes.append(_GENE_CODES[codes].tobytes())
        missing -= len(codes)
    return _reserve(b"".join(genes).decode("ascii"), cfg)


def crossover(a: str, b: str, rng: random.Random, cfg: EaConfig) -> tuple[str, str]:
    """Two children exchanging parent genes: one cut point by default,
    per-gene coin flips when ``cfg.uniform_crossover`` is set."""
    n = len(a)
    if cfg.uniform_crossover:
        picks = (rng_words(rng, n) >> 31).tolist()  # n getrandbits(1) draws
        g1 = "".join(a[i] if p else b[i] for i, p in enumerate(picks))
        g2 = "".join(b[i] if p else a[i] for i, p in enumerate(picks))
    elif n < 2:
        g1, g2 = a, b
    else:
        p = rng.randrange(1, n)
        g1 = a[:p] + b[p:]
        g2 = b[:p] + a[p:]
    return _reserve(g1, cfg), _reserve(g2, cfg)


def mutate(a: str, rng: random.Random, cfg: EaConfig) -> str:
    """Redraw one non-reserved gene uniformly (it may keep its old value)."""
    free = _free_genes(cfg)
    if free == 0:
        return a
    pos = rng.randrange(free)
    return _reserve(a[:pos] + rng.choice(GENE_ALPHABET) + a[pos + 1 :], cfg)


def invert(a: str, rng: random.Random, cfg: EaConfig) -> str:
    """Reverse the gene order between two uniformly drawn positions."""
    n = len(a)
    i, j = rng.randrange(n), rng.randrange(n)
    p, q = min(i, j), max(i, j)
    return _reserve(a[:p] + a[p : q + 1][::-1] + a[q + 1 :], cfg)


def vector_entry(stats: BlockStats, symbols: str, subsume: bool = False) -> tuple[int, ...]:
    """(match set, U count) of one K-gene vector, then its ``mv_masks``
    (ones, zeros) when ``subsume`` is set."""
    entry = match_set(stats, symbols), symbols.count("U")
    return entry + mv_masks(symbols) if subsume else entry


def infeasible_base(
    n_blocks: int, n_vectors: int, k: int, original_bits: int
) -> float:
    """Fitness of a genome that leaves blocks unmatched, before their count
    is subtracted: INFEASIBLE_BASE, or 1 below the lowest feasible rate when
    that is lower.  A feasible payload is at most n_blocks * (k + n_vectors
    - 1) bits: each block pays at most k fill bits and a codeword of at most
    n_vectors - 1 bits, and the subsumption merge only shrinks it.
    """
    lowest = compression_rate(original_bits, n_blocks * (k + n_vectors - 1))
    return min(INFEASIBLE_BASE, lowest - 1)


def evaluate_fitness(
    genes: str,
    stats: BlockStats,
    original_bits: int,
    subsume: bool = False,
    vectors: dict[str, tuple[int, ...]] | None = None,
) -> float:
    """Compression rate of the genome's vectors over the blocks of ``stats``.

    K is the block length, and the genes must split into K-symbol vectors
    (LengthMismatch otherwise) over 0, 1 and U (ValueError otherwise, from
    ``codec.match_set``).  Infeasible coverings yield
    ``infeasible_base`` minus the unmatched block count instead of an
    error, so the search can rank near-feasible individuals below every
    feasible one.  ``vectors`` maps vector strings to their
    ``vector_entry`` and is filled as a side effect; pass the same dict
    only with the same blocks and the same ``subsume``.
    """
    if vectors is None:
        vectors = {}
    # a vector met for the first time, even twice in one genome, is built once
    entries = [vectors.get(s) or vectors.setdefault(s, vector_entry(stats, s, subsume))
               for s in vector_symbols(genes, stats.k)]
    sets, n_us, *masks = zip(*entries)
    freqs, _, unmatched, _ = match_frequencies(stats, sets, n_us)
    if unmatched:
        base = infeasible_base(stats.total, len(entries), stats.k, original_bits)
        return base - unmatched
    if subsume and stats.total:  # with no block, payload_bits_for raises
        freqs, _, cost = merge_subsumed_frequencies(freqs, *masks, n_us)
        return compression_rate(original_bits, cost + sum(map(operator.mul, freqs, n_us)))
    return compression_rate(original_bits, payload_bits_for(freqs, n_us))


@dataclass
class RunStats:
    """One evolve() run condensed for reporting."""

    seed: int
    rate: float
    generations: int
    evaluations: int
    termination: str


@dataclass
class EvolutionReport:
    """Outcome of one or several evolution runs.

    Stores the winning run's best genome and best-fitness history and one
    ``RunStats`` per run; every other figure is derived from those.  The
    winner is the first run with the highest rate.
    """

    best: str
    history: list[float]
    per_run: list[RunStats]

    @property
    def best_rate(self) -> float:
        """The best genome's fitness, the last entry of ``history``."""
        return self.history[-1]

    @property
    def run_rates(self) -> list[float]:
        return [r.rate for r in self.per_run]

    @property
    def mean_rate(self) -> float:
        return math.fsum(self.run_rates) / len(self.run_rates)

    @property
    def generations(self) -> int:
        return sum(r.generations for r in self.per_run)

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.per_run)


def evolve(
    stats: BlockStats,
    original_bits: int,
    cfg: EaConfig,
) -> EvolutionReport:
    """One elitist evolution run, bit-for-bit reproducible from the seed.

    Per generation, C child slots are filled by drawing an operator per
    slot (crossover fills two slots when two remain) on uniformly chosen
    parents; the residual probability mass clones a parent unchanged.
    Survivors are the best S of S+C, incumbents winning ties.  The run
    stops after ``stagnation_limit`` generations without improvement or
    once ``cfg.evaluation_budget`` fitness lookups occurred (cache hits
    count: caching only skips recomputation and cannot change the
    outcome).  Raises LengthMismatch unless the blocks are ``cfg.k`` long.
    Returns a one-run report.
    """
    if stats.total == 0:
        raise InvalidConfig("cannot evolve against an empty block sequence")
    if stats.k != cfg.k:
        raise LengthMismatch(f"blocks of length {stats.k} searched with K={cfg.k}")
    rng = random.Random(cfg.rng_seed)
    cache: dict[str, float] = {}
    vectors: dict[str, tuple[int, ...]] = {}
    # pruned to the population's vectors past this size, so it never holds
    # more than (S + 2C) * L entries: C children add at most C * L
    vector_limit = (cfg.population_size + cfg.children_per_generation) * cfg.l
    evaluations = 0

    def evaluate(genomes: list[str]) -> None:
        nonlocal evaluations
        for genes in genomes:
            evaluations += 1
            if genes not in cache:
                cache[genes] = evaluate_fitness(
                    genes, stats, original_bits, subsume=cfg.subsume, vectors=vectors
                )

    population = [random_individual(cfg, rng) for _ in range(cfg.population_size)]
    if cfg.seed_nine_code:
        injected = "".join(nine_mvs(cfg.k))[: cfg.n_genes]
        population[0] = _reserve(injected + population[0][len(injected) :], cfg)
    evaluate(population)
    # the sorts are stable and put incumbents first, so population[0] is the
    # best genome so far and changes only on a strict gain
    population.sort(key=cache.__getitem__, reverse=True)
    history = [cache[population[0]]]
    stagnant = 0
    termination = "max_evaluations"
    while evaluations < cfg.evaluation_budget:
        if stagnant >= cfg.stagnation_limit:
            termination = "stagnation"
            break
        children: list[str] = []
        while len(children) < cfg.children_per_generation:
            roll = rng.random()
            if roll < cfg.p_crossover:
                first, second = crossover(
                    rng.choice(population), rng.choice(population), rng, cfg
                )
                children.append(first)
                if len(children) < cfg.children_per_generation:
                    children.append(second)
            elif roll < cfg.p_crossover + cfg.p_mutation:
                children.append(mutate(rng.choice(population), rng, cfg))
            elif roll < cfg.p_crossover + cfg.p_mutation + cfg.p_inversion:
                children.append(invert(rng.choice(population), rng, cfg))
            else:
                children.append(rng.choice(population))
        evaluate(children)
        pool = sorted(population + children, key=cache.__getitem__, reverse=True)
        population = pool[: cfg.population_size]
        if len(vectors) > vector_limit:
            live = {s for genes in population for s in vector_symbols(genes, cfg.k)}
            vectors = {s: e for s, e in vectors.items() if s in live}
        if cache[population[0]] > history[-1]:
            stagnant = 0
        else:
            stagnant += 1
        history.append(cache[population[0]])
    run = RunStats(cfg.rng_seed, history[-1], len(history) - 1, evaluations, termination)
    return EvolutionReport(population[0], history, [run])


def run_many(
    stats: BlockStats,
    original_bits: int,
    cfg: EaConfig,
) -> EvolutionReport:
    """``cfg.runs`` independent evolve() runs with seeds derived from
    ``cfg.rng_seed``; the report joins their ``per_run`` lists and takes
    ``best`` and ``history`` from the first run with the highest rate."""
    seed_source = random.Random(cfg.rng_seed)
    seeds = [seed_source.randrange(2**62) for _ in range(cfg.runs)]
    reports = [
        evolve(stats, original_bits, replace(cfg, rng_seed=seed)) for seed in seeds
    ]
    winner = max(reports, key=lambda r: r.best_rate)
    return EvolutionReport(
        best=winner.best,
        history=winner.history,
        per_run=[run for r in reports for run in r.per_run],
    )
