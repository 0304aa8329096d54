"""Evolutionary search for a good matching-vector set.

An individual is a string of L*K genes over {0,1,U}; gene slice
[i*K, (i+1)*K) is vector i.  Fitness is the compression rate reached by
covering and Huffman-coding the block sequence with those vectors, so
evaluation is pure and the only randomness lives in the generation of
individuals.  Selection is elitist: the best S of S parents plus C
children survive, which makes the best-fitness series nondecreasing.

A run caches fitness per genome, and per vector string the vector's raw
match set (``codec.match_set``), its U count and its masks: a child
shares almost every vector with a parent, so a fitness call mostly does
L dict lookups and one AND per vector in ``codec.match_frequencies``.
Once that cache holds more than (S + C) * L entries after a generation,
it keeps only the survivors' vectors, so it never exceeds (S + 2C) * L
entries of about ceil(blocks / 8) bytes each.

When the all-U reservation is on, the last vector is pinned to all U and
no operator touches it, so every individual can cover every block
sequence and the infeasibility penalty is unreachable.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, fields, replace
from typing import Sequence

from .baseline9c import nine_mvs
from .codec import (
    BlockStats,
    as_block_stats,
    compression_rate,
    match_frequencies,
    match_set,
    merge_subsumed_frequencies,
    mv_masks,
    payload_bits_for,
)
from .errors import InvalidConfig

GENE_ALPHABET = "01U"

# Fitness assigned to individuals whose vectors leave blocks uncovered;
# always below any reachable compression rate.
INFEASIBLE_BASE = -1000.0

# The container stores K and the vector count as u16.
MAX_K_OR_L = 0xFFFF


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
        for name in ("k", "l", "population_size", "children_per_generation",
                     "stagnation_limit", "runs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        if self.k < 1 or self.l < 1:
            raise InvalidConfig("k and l must be >= 1")
        if self.k > MAX_K_OR_L or self.l > MAX_K_OR_L:
            raise InvalidConfig(f"k and l must be <= {MAX_K_OR_L}")
        if self.population_size < 1 or self.children_per_generation < 1:
            raise InvalidConfig("population and children counts must be >= 1")
        probs = (self.p_crossover, self.p_mutation, self.p_inversion)
        if any(p < 0 or p > 1 for p in probs) or sum(probs) > 1 + 1e-12:
            raise InvalidConfig("operator probabilities must lie in [0,1] and sum to <= 1")
        if self.stagnation_limit < 1:
            raise InvalidConfig("stagnation_limit must be >= 1")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise InvalidConfig("max_evaluations must be >= 1")
        if self.runs < 1:
            raise InvalidConfig("runs must be >= 1")
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
        """Load key=value lines ('#' comments allowed) into a config;
        keyword ``overrides`` win over the file's values."""
        names = {f.name for f in fields(cls)}
        values = {}
        with open(path, encoding="utf-8") as handle:
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


@dataclass
class Individual:
    """An ordered vector set as a gene string, plus its cached fitness."""

    genes: str
    k: int
    reserve_all_u: bool
    fitness: float | None = None

    @property
    def n_vectors(self) -> int:
        return len(self.genes) // self.k

    def vector_symbols(self) -> list[str]:
        return [
            self.genes[i * self.k : (i + 1) * self.k]
            for i in range(self.n_vectors)
        ]


def _reimpose_reservation(genes: str, k: int, reserved: bool) -> str:
    if not reserved:
        return genes
    return genes[:-k] + "U" * k


def random_individual(cfg: EaConfig, rng: random.Random) -> Individual:
    """Uniform random genes; the reserved tail vector is pinned to all U."""
    body = cfg.n_genes - cfg.k if cfg.reserve_all_u else cfg.n_genes
    genes = "".join(rng.choice(GENE_ALPHABET) for _ in range(body))
    if cfg.reserve_all_u:
        genes += "U" * cfg.k
    return Individual(genes, cfg.k, cfg.reserve_all_u)


def crossover(
    a: Individual,
    b: Individual,
    rng: random.Random,
    uniform: bool = False,
) -> tuple[Individual, Individual]:
    """Two children exchanging parent genes: one cut point by default,
    per-gene coin flips in uniform mode."""
    n = len(a.genes)
    if uniform:
        picks = [rng.getrandbits(1) for _ in range(n)]
        g1 = "".join(a.genes[i] if p else b.genes[i] for i, p in enumerate(picks))
        g2 = "".join(b.genes[i] if p else a.genes[i] for i, p in enumerate(picks))
    elif n < 2:
        g1, g2 = a.genes, b.genes
    else:
        p = rng.randrange(1, n)
        g1 = a.genes[:p] + b.genes[p:]
        g2 = b.genes[:p] + a.genes[p:]
    g1 = _reimpose_reservation(g1, a.k, a.reserve_all_u)
    g2 = _reimpose_reservation(g2, a.k, a.reserve_all_u)
    return (
        Individual(g1, a.k, a.reserve_all_u),
        Individual(g2, a.k, a.reserve_all_u),
    )


def mutate(a: Individual, rng: random.Random) -> Individual:
    """Redraw one non-reserved gene uniformly (it may keep its old value)."""
    body = len(a.genes) - a.k if a.reserve_all_u else len(a.genes)
    if body == 0:
        return Individual(a.genes, a.k, a.reserve_all_u)
    pos = rng.randrange(body)
    ch = rng.choice(GENE_ALPHABET)
    return Individual(
        a.genes[:pos] + ch + a.genes[pos + 1 :], a.k, a.reserve_all_u
    )


def invert(a: Individual, rng: random.Random) -> Individual:
    """Reverse the gene order between two uniformly drawn positions."""
    n = len(a.genes)
    i, j = rng.randrange(n), rng.randrange(n)
    p, q = min(i, j), max(i, j)
    genes = a.genes[:p] + a.genes[p : q + 1][::-1] + a.genes[q + 1 :]
    genes = _reimpose_reservation(genes, a.k, a.reserve_all_u)
    return Individual(genes, a.k, a.reserve_all_u)


def _clone(a: Individual) -> Individual:
    return Individual(a.genes, a.k, a.reserve_all_u)


VectorEntry = tuple[int, int, int, int]


def vector_entry(stats: BlockStats, symbols: str) -> VectorEntry:
    """(match set, U count, ones, zeros) of one K-gene vector."""
    ones, zeros = mv_masks(symbols)
    return match_set(stats, ones, zeros), symbols.count("U"), ones, zeros


def evaluate_fitness(
    ind: Individual,
    blocks: Sequence[str] | BlockStats,
    original_bits: int,
    subsume: bool = False,
    vectors: dict[str, VectorEntry] | None = None,
) -> float:
    """Compression rate of the individual's vector set over ``blocks``.

    Infeasible coverings yield INFEASIBLE_BASE minus the unmatched block
    count instead of an error, so the search can rank near-feasible
    individuals.  ``vectors`` maps vector strings to their
    ``vector_entry`` and is filled as a side effect; pass the same dict
    only with the same blocks.
    """
    stats = as_block_stats(blocks)
    if vectors is None:
        vectors = {}
    genes, k = ind.genes, ind.k
    entries = []
    for i in range(0, len(genes), k):
        symbols = genes[i : i + k]
        entry = vectors.get(symbols)
        if entry is None:
            entry = vectors[symbols] = vector_entry(stats, symbols)
        entries.append(entry)
    sets, n_us, ones, zeros = zip(*entries)
    freqs, _, unmatched, _ = match_frequencies(stats, sets, n_us)
    if unmatched:
        return INFEASIBLE_BASE - unmatched
    if subsume:
        freqs, _ = merge_subsumed_frequencies(freqs, ones, zeros, n_us)
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

    Stores the winning run's best individual and best-fitness history,
    one ``RunStats`` per run and the lowest fitness seen; every other
    figure is derived from those.  The winner is the first run with the
    highest rate.
    """

    best: Individual
    history: list[float]
    per_run: list[RunStats]
    min_fitness_evaluated: float

    @property
    def best_fitness(self) -> float:
        return self.best.fitness

    best_rate = best_fitness

    @property
    def run_rates(self) -> list[float]:
        return [r.rate for r in self.per_run]

    @property
    def mean_rate(self) -> float:
        return statistics.fmean(self.run_rates)

    @property
    def generations(self) -> int:
        return sum(r.generations for r in self.per_run)

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.per_run)

    @property
    def termination(self) -> str:
        return max(self.per_run, key=lambda r: r.rate).termination


def evolve(
    blocks: Sequence[str] | BlockStats,
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
    outcome).
    Returns a one-run report.
    """
    stats = as_block_stats(blocks)
    if stats.total == 0:
        raise InvalidConfig("cannot evolve against an empty block sequence")
    rng = random.Random(cfg.rng_seed)
    cache: dict[str, float] = {}
    vectors: dict[str, VectorEntry] = {}
    # pruned to the population's vectors past this size, so it never holds
    # more than (S + 2C) * L entries: C children add at most C * L
    vector_limit = (cfg.population_size + cfg.children_per_generation) * cfg.l
    evaluations = 0
    min_seen = float("inf")

    def fitness(ind: Individual) -> float:
        nonlocal evaluations, min_seen
        evaluations += 1
        value = cache.get(ind.genes)
        if value is None:
            value = evaluate_fitness(
                ind, stats, original_bits, subsume=cfg.subsume, vectors=vectors
            )
            cache[ind.genes] = value
        ind.fitness = value
        if value < min_seen:
            min_seen = value
        return value

    population = [random_individual(cfg, rng) for _ in range(cfg.population_size)]
    if cfg.seed_nine_code:
        injected = "".join(v.symbols for v in nine_mvs(cfg.k))[: cfg.n_genes]
        genes = injected + population[0].genes[len(injected) :]
        genes = _reimpose_reservation(genes, cfg.k, cfg.reserve_all_u)
        population[0] = Individual(genes, cfg.k, cfg.reserve_all_u)
    for ind in population:
        fitness(ind)
    population.sort(key=lambda ind: -ind.fitness)
    best = population[0]
    history = [best.fitness]
    generations = 0
    stagnant = 0
    termination = "max_evaluations"
    while evaluations < cfg.evaluation_budget:
        if stagnant >= cfg.stagnation_limit:
            termination = "stagnation"
            break
        children: list[Individual] = []
        while len(children) < cfg.children_per_generation:
            roll = rng.random()
            if roll < cfg.p_crossover:
                first, second = crossover(
                    rng.choice(population),
                    rng.choice(population),
                    rng,
                    uniform=cfg.uniform_crossover,
                )
                children.append(first)
                if len(children) < cfg.children_per_generation:
                    children.append(second)
            elif roll < cfg.p_crossover + cfg.p_mutation:
                children.append(mutate(rng.choice(population), rng))
            elif roll < cfg.p_crossover + cfg.p_mutation + cfg.p_inversion:
                children.append(invert(rng.choice(population), rng))
            else:
                children.append(_clone(rng.choice(population)))
        for child in children:
            fitness(child)
        pool = population + children
        pool.sort(key=lambda ind: -ind.fitness)
        population = pool[: cfg.population_size]
        if len(vectors) > vector_limit:
            live = {symbols for ind in population for symbols in ind.vector_symbols()}
            vectors = {s: e for s, e in vectors.items() if s in live}
        generations += 1
        if population[0].fitness > best.fitness:
            best = population[0]
            stagnant = 0
        else:
            stagnant += 1
        history.append(best.fitness)
    run = RunStats(cfg.rng_seed, best.fitness, generations, evaluations, termination)
    return EvolutionReport(best, history, [run], min_seen)


def run_many(
    blocks: Sequence[str] | BlockStats,
    original_bits: int,
    cfg: EaConfig,
) -> EvolutionReport:
    """``cfg.runs`` independent evolve() runs with seeds derived from
    ``cfg.rng_seed``; the report joins their ``per_run`` lists and takes
    ``best`` and ``history`` from the first run with the highest rate."""
    stats = as_block_stats(blocks)
    seed_source = random.Random(cfg.rng_seed)
    seeds = [seed_source.randrange(2**62) for _ in range(cfg.runs)]
    reports = [
        evolve(stats, original_bits, replace(cfg, rng_seed=seed)) for seed in seeds
    ]
    winner = max(reports, key=lambda r: r.best_fitness)
    return EvolutionReport(
        best=winner.best,
        history=winner.history,
        per_run=[run for r in reports for run in r.per_run],
        min_fitness_evaluated=min(r.min_fitness_evaluated for r in reports),
    )
