import dataclasses
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tercode import (
    EaConfig,
    compression_rate,
    crossover,
    ea,
    evaluate_fitness,
    evolve,
    flatten,
    invert,
    mutate,
    original_size_bits,
    partition,
    random_individual,
    run_many,
)
from tercode.codec import BlockStats, match_set, mv_masks
from tercode.corpus import CorpusSpec, generate_corpus
from tercode.ea import INFEASIBLE_BASE, vector_entry, vector_symbols
from tercode.errors import AllZeroFrequencies, InvalidConfig, LengthMismatch

from helpers import (
    ScriptedRng,
    block_strings,
    blocks_from,
    char_match,
    naive_cover,
    naive_merge_subsumed_frequencies,
    naive_payload_bits,
    record_fitness,
)
from test_acceptance import CLUSTERED
from test_codec import SIZES_AT_WORD_EDGES, plain_match_set


class TestConfig:
    def test_defaults(self):
        cfg = EaConfig()
        assert (cfg.k, cfg.l) == (12, 64)
        assert (cfg.population_size, cfg.children_per_generation) == (10, 5)
        assert (cfg.p_crossover, cfg.p_mutation, cfg.p_inversion) == (0.3, 0.3, 0.1)
        assert cfg.stagnation_limit == 500
        assert cfg.runs == 5
        assert cfg.reserve_all_u

    def test_k_and_l_at_container_limit(self):
        # the container stores both as u16
        cfg = EaConfig(k=65535, l=65535)
        assert (cfg.k, cfg.l) == (65535, 65535)

    def test_max_evaluations_derived(self):
        assert EaConfig().max_evaluations is None
        assert EaConfig().evaluation_budget == 100 * 10 * 5
        assert EaConfig(max_evaluations=42).evaluation_budget == 42

    def test_budget_follows_replace(self):
        # the default budget is derived on read, so replacing S or C moves it
        replaced = dataclasses.replace(
            EaConfig(), population_size=20, children_per_generation=8
        )
        direct = EaConfig(population_size=20, children_per_generation=8)
        assert replaced.evaluation_budget == direct.evaluation_budget == 16000
        assert replaced == direct
        # an explicit budget is kept as given
        explicit = dataclasses.replace(EaConfig(max_evaluations=42), population_size=20)
        assert explicit.evaluation_budget == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0),
            dict(l=0),
            dict(population_size=0),
            dict(children_per_generation=0),
            dict(p_crossover=-0.1),
            dict(p_mutation=1.5),
            dict(p_mutation=float("nan")),
            dict(p_crossover=float("nan")),
            dict(p_crossover=0.5, p_mutation=0.5, p_inversion=0.5),
            dict(stagnation_limit=0),
            dict(max_evaluations=0),
            dict(max_evaluations=2.5),
            dict(max_evaluations=True),
            dict(runs=0),
            dict(k=65536),
            dict(l=65536),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(InvalidConfig):
            EaConfig(**kwargs)

    @pytest.mark.parametrize("value", [0, -1, 2.5, True])
    @pytest.mark.parametrize("name", ["k", "l", "population_size",
                                      "children_per_generation", "stagnation_limit",
                                      "runs", "max_evaluations"])
    def test_integer_fields_must_be_positive(self, name, value):
        with pytest.raises(InvalidConfig, match=f"^{name} must be an integer >= 1"):
            EaConfig(**{name: value})

    @pytest.mark.parametrize("value", ["no", 0, 1, 5, None])
    @pytest.mark.parametrize("name", ["reserve_all_u", "subsume", "uniform_crossover",
                                      "seed_nine_code"])
    def test_flags_must_be_bools(self, name, value):
        with pytest.raises(InvalidConfig, match=f"^{name} must be true or false"):
            EaConfig(**{name: value})

    @pytest.mark.parametrize("value", ["abc", "7", 1.5, True, None])
    def test_seed_must_be_an_integer(self, value):
        with pytest.raises(InvalidConfig, match="^rng_seed must be an integer"):
            EaConfig(rng_seed=value)

    def test_any_integer_seed_is_kept(self):
        assert [EaConfig(rng_seed=s).rng_seed for s in (0, -3, 2**70)] == [0, -3, 2**70]

    @pytest.mark.parametrize("value", ["0.3", None, True, False])
    @pytest.mark.parametrize("name", ["p_crossover", "p_mutation", "p_inversion"])
    def test_probabilities_must_be_numbers(self, name, value):
        with pytest.raises(InvalidConfig, match=f"^{name} must be a number, got {value!r}$"):
            EaConfig(**{name: value})

    def test_integer_probabilities_are_kept(self):
        cfg = EaConfig(p_crossover=1, p_mutation=0, p_inversion=0)
        assert (cfg.p_crossover, cfg.p_mutation, cfg.p_inversion) == (1, 0, 0)

    @pytest.mark.parametrize("line, error", [
        ("p_inversion = off", "^p_inversion must be a number, got False$"),
        ("k 4", "^{path}:2: expected key=value$"),
        ("k = four", "^cannot parse config value 'four'$"),
    ])
    def test_from_file_rejects_malformed_lines(self, tmp_path, line, error):
        path = tmp_path / "ea.conf"
        path.write_text(f"runs = 1\n{line}\n")
        with pytest.raises(InvalidConfig, match=error.format(path=re.escape(str(path)))):
            EaConfig.from_file(str(path))

    def test_from_file_reads_undecodable_bytes_as_replacement(self, tmp_path):
        path = tmp_path / "ea.conf"
        path.write_bytes(b"# Gr\xf6\xdfe\nk = 4\n")
        assert EaConfig.from_file(str(path)).k == 4
        path.write_bytes(b"k\xff = 4\n")
        with pytest.raises(InvalidConfig, match="unknown key 'k\ufffd'"):
            EaConfig.from_file(str(path))

    def test_from_file(self, tmp_path):
        path = tmp_path / "ea.conf"
        path.write_text(
            "# search settings\n"
            "k = 4\n"
            "l = 8\n"
            "population_size = 6\n"
            "p-crossover = 0.25\n"
            "reserve_all_u = false\n"
            "rng_seed = 99\n"
        )
        cfg = EaConfig.from_file(str(path))
        assert (cfg.k, cfg.l, cfg.population_size) == (4, 8, 6)
        assert cfg.p_crossover == 0.25
        assert cfg.reserve_all_u is False
        assert cfg.rng_seed == 99

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "ea.conf"
        path.write_text("banana = 1\n")
        with pytest.raises(InvalidConfig):
            EaConfig.from_file(str(path))


class TestRandomIndividual:
    def test_gene_count(self):
        cfg = EaConfig(k=12, l=64)
        genes = random_individual(cfg, random.Random(1))
        assert len(genes) == 768
        assert set(genes) <= {"0", "1", "U"}

    def test_reservation_forces_all_u(self):
        cfg = EaConfig(k=2, l=1, reserve_all_u=True)
        for seed in range(20):
            assert random_individual(cfg, random.Random(seed)) == "UU"

    def test_reserved_tail_vector(self):
        cfg = EaConfig(k=3, l=4, reserve_all_u=True)
        assert random_individual(cfg, random.Random(5))[-3:] == "UUU"

    def test_seed_determinism(self):
        cfg = EaConfig(k=5, l=6)
        a = random_individual(cfg, random.Random(7))
        b = random_individual(cfg, random.Random(7))
        assert a == b

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64), SIZES_AT_WORD_EDGES)
    def test_genes_equal_per_gene_choice(self, seed, n):
        # n free genes: one vector of n genes, or one reserved vector
        cfg = EaConfig(k=max(n, 1), l=1, reserve_all_u=not n)
        bulk, calls = random.Random(seed), random.Random(seed)
        want = "".join(calls.choice("01U") for _ in range(n))
        assert random_individual(cfg, bulk) == want + "U" * (cfg.n_genes - n)
        assert bulk.getstate() == calls.getstate()
        assert bulk.random() == calls.random()

    def test_draws_again_while_genes_are_missing(self, monkeypatch):
        # nine words in ten are rejected (top bits 11), so each round of
        # words keeps about a tenth of the genes still missing
        gen = random.Random(2)
        words = [0xC0000000 | gen.getrandbits(30) if i % 10 else
                 gen.randrange(3) << 30 | gen.getrandbits(30) for i in range(4000)]
        rounds = []
        draw = ea.rng_words
        monkeypatch.setattr(ea, "rng_words", lambda r, m: rounds.append(m) or draw(r, m))
        bulk, calls = WordRng(words), WordRng(words)
        cfg = EaConfig(k=300, l=1, reserve_all_u=False)
        want = "".join(calls.choice("01U") for _ in range(300))
        assert random_individual(cfg, bulk) == want
        assert bulk.words == calls.words  # both stopped on the same word
        assert len(rounds) > 10 and rounds[0] == 300 and sum(rounds) < len(words)


class WordRng(random.Random):
    """An rng whose words come from a list, drawn as CPython's
    ``getrandbits`` draws Mersenne Twister words: k <= 32 bits are the top
    k of one word, 32*m bits pack m words, least significant first."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def getrandbits(self, k):
        if k <= 32:
            return self.words.pop(0) >> (32 - k)
        drawn, self.words = self.words[: k // 32], self.words[k // 32 :]
        return sum(word << 32 * i for i, word in enumerate(drawn))


def free_cfg(genes: str, k: int, **kwargs) -> EaConfig:
    """The config of a genome of ``genes``, without the all-U reservation
    unless asked for."""
    kwargs.setdefault("reserve_all_u", False)
    return EaConfig(k=k, l=len(genes) // k, **kwargs)


class TestCrossover:
    def test_one_point_cut(self):
        c1, c2 = crossover("000000", "UUUUUU", ScriptedRng(randrange=[3]),
                           free_cfg("000000", 6))
        assert c1 == "000UUU"
        assert c2 == "UUU000"

    def test_identical_parents_yield_identical_children(self):
        a = "01U0"
        for seed in range(10):
            c1, c2 = crossover(a, a, random.Random(seed), free_cfg(a, 4))
            assert c1 == a
            assert c2 == a

    def test_genes_come_from_exactly_one_parent(self):
        rng = random.Random(8)
        cfg = EaConfig(k=4, l=3, reserve_all_u=False)
        for _ in range(30):
            a = random_individual(cfg, rng)
            b = random_individual(cfg, rng)
            c1, c2 = crossover(a, b, rng, cfg)
            assert len(c1) == len(a)
            assert len(c2) == len(a)
            for i in range(len(a)):
                assert c1[i] in (a[i], b[i])
                assert c2[i] in (a[i], b[i])

    def test_reservation_reimposed(self):
        cfg = EaConfig(k=2, l=3, reserve_all_u=True)
        rng = random.Random(9)
        a = random_individual(cfg, rng)
        b = random_individual(cfg, rng)
        for _ in range(20):
            c1, c2 = crossover(a, b, rng, cfg)
            assert c1[-2:] == "UU"
            assert c2[-2:] == "UU"

    def test_uniform_mode(self):
        cfg = free_cfg("0000", 4, uniform_crossover=True)
        c1, c2 = crossover("0000", "1111", ScriptedRng(getrandbits=[1, 0, 0, 1]), cfg)
        assert c1 == "0110"
        assert c2 == "1001"

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**64), st.sampled_from([1, 2, 31, 32, 33, 65, 756]))
    def test_uniform_mode_takes_one_bit_per_gene(self, seed, n):
        cfg = free_cfg("0" * n, n, uniform_crossover=True)
        a = random_individual(cfg, random.Random(seed))
        b = random_individual(cfg, random.Random(seed + 1))
        bulk, calls = random.Random(seed), random.Random(seed)
        picks = [calls.getrandbits(1) for _ in range(n)]
        c1, c2 = crossover(a, b, bulk, cfg)
        assert c1 == "".join(x if p else y for x, y, p in zip(a, b, picks))
        assert c2 == "".join(y if p else x for x, y, p in zip(a, b, picks))
        assert bulk.getstate() == calls.getstate()


class TestMutate:
    def test_changes_at_most_one_gene(self):
        rng = random.Random(10)
        cfg = EaConfig(k=4, l=4, reserve_all_u=False)
        for _ in range(50):
            a = random_individual(cfg, rng)
            child = mutate(a, rng, cfg)
            distance = sum(x != y for x, y in zip(a, child))
            assert distance <= 1
            assert set(child) <= {"0", "1", "U"}

    def test_single_gene_domain(self):
        seen = set()
        rng = random.Random(11)
        for _ in range(50):
            seen.add(mutate("0", rng, free_cfg("0", 1)))
        assert seen == {"0", "1", "U"}

    def test_reserved_genes_never_touched(self):
        rng = random.Random(12)
        cfg = free_cfg("01UU", 2, reserve_all_u=True)
        for _ in range(50):
            child = mutate("01UU", rng, cfg)
            assert child[-2:] == "UU"
        assert mutate("UU", rng, free_cfg("UU", 2, reserve_all_u=True)) == "UU"

    def test_scripted_position_and_value(self):
        child = mutate("0000", ScriptedRng(randrange=[2], choice=["U"]),
                       free_cfg("0000", 4))
        assert child == "00U0"


class TestInvert:
    def test_scripted_reversal(self):
        child = invert("01U0", ScriptedRng(randrange=[1, 3]), free_cfg("01U0", 4))
        assert child == "00U1"

    def test_equal_positions_change_nothing(self):
        child = invert("01U0", ScriptedRng(randrange=[2, 2]), free_cfg("01U0", 4))
        assert child == "01U0"

    def test_preserves_gene_multiset_without_reservation(self):
        rng = random.Random(13)
        cfg = EaConfig(k=3, l=5, reserve_all_u=False)
        for _ in range(50):
            a = random_individual(cfg, rng)
            child = invert(a, rng, cfg)
            assert sorted(child) == sorted(a)


class TestFitness:
    def test_two_cluster_example(self):
        blocks = blocks_from(["000000"] * 5 + ["111111"] * 5)
        fitness = evaluate_fitness("000000" + "111111" + "UUUUUU", blocks, 60)
        # frequencies (5,5,0), both codewords 1 bit, no fill: payload 10
        assert fitness == pytest.approx(100 * (60 - 10) / 60)

    def test_worked_example_rate(self):
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        genes = "111U" + "1110" + "0000"
        assert evaluate_fitness(genes, blocks, 40) == pytest.approx(
            100 * (40 - 20) / 40
        )

    def test_infeasible_penalty(self):
        blocks = blocks_from(["0101", "1111", "0000"])
        fitness = evaluate_fitness("0000" + "1111", blocks, 12)
        assert fitness == INFEASIBLE_BASE - 1
        assert fitness <= -1001

    def test_penalty_counts_unmatched_blocks(self):
        blocks = blocks_from(["0101", "1010", "0000"])
        assert evaluate_fitness("0000", blocks, 12) == INFEASIBLE_BASE - 2

    def test_infeasible_ranks_below_a_feasible_rate_under_the_base(self):
        # one symbol at K=12: the all-U vector pays 12 bits for 1, -1100%;
        # a feasible payload is at most 12 bits, so the base drops to -1101
        blocks = BlockStats(partition("0", 12))
        assert evaluate_fitness("U" * 12, blocks, 1) == -1100.0
        assert evaluate_fitness("1" + "U" * 11, blocks, 1) == -1102.0
        assert ea.infeasible_base(1, 1, 12, 1) == -1101.0
        assert ea.infeasible_base(3, 2, 4, 12) == INFEASIBLE_BASE

    def test_subsume_inside_fitness(self):
        blocks = blocks_from(["1111"] * 5 + ["1110"] * 3 + ["0000"] * 2)
        genes = "111U" + "1110" + "0000"
        plain = evaluate_fitness(genes, blocks, 40)
        merged = evaluate_fitness(genes, blocks, 40, subsume=True)
        assert plain == pytest.approx(50.0)
        assert merged == pytest.approx(100 * (40 - 18) / 40)

    def test_block_stats_equivalent(self):
        # stats of the strings and of partition's matrix of the same symbols
        strings = ["1111"] * 4 + ["0000"] * 4
        genes = "1111" + "0000"
        assert evaluate_fitness(genes, blocks_from(strings), 32) == evaluate_fitness(
            genes, BlockStats(partition("".join(strings), 4)), 32
        )

    @pytest.mark.parametrize("genes", ["", "000", "00000", "0000" + "11"])
    def test_genes_must_split_into_block_length_vectors(self, genes):
        with pytest.raises(LengthMismatch):
            evaluate_fitness(genes, blocks_from(["0000", "1111"]), 8)

    @pytest.mark.parametrize("subsume", [False, True])
    def test_no_blocks_have_no_code(self, subsume):
        with pytest.raises(AllZeroFrequencies):
            evaluate_fitness("UUU", BlockStats(partition("", 3)), 3, subsume)

    def test_vector_symbols(self):
        assert vector_symbols("01U" + "UUU", 3) == ["01U", "UUU"]
        with pytest.raises(LengthMismatch):
            vector_symbols("01U", 2)

    def test_vector_entry(self):
        # block i+1 is bit i of a match set
        stats = blocks_from(["101", "0X0", "XXX", "111"])
        assert vector_entry(stats, "10U") == (0b0101, 1)
        assert vector_entry(stats, "0UU") == (0b0110, 2)
        assert vector_entry(stats, "UUU") == (0b1111, 3)
        # a subsume search also keeps the (ones, zeros) masks
        assert vector_entry(stats, "10U", subsume=True) == (0b0101, 1, 0b100, 0b010)
        assert vector_entry(stats, "0UU", subsume=True) == (0b0110, 2, 0b000, 0b100)
        assert vector_entry(stats, "UUU", subsume=True) == (0b1111, 3, 0, 0)


@st.composite
def fitness_cases(draw):
    """Blocks at K 1, 12 or 65 and genomes drawn from one vector pool, so
    genomes share vectors; pool vectors are random (mostly infeasible at
    large K), a block with X turned to U, or all U."""
    k = draw(st.sampled_from((1, 12, 65)))
    blocks = draw(st.lists(st.text("01X", min_size=k, max_size=k),
                           min_size=1, max_size=30))
    pool = draw(st.lists(st.one_of(
        st.text("01U", min_size=k, max_size=k),
        st.sampled_from(blocks).map(lambda b: b.replace("X", "U")),
        st.just("U" * k),
    ), min_size=1, max_size=8))
    l = draw(st.integers(1, 6))
    genome = st.lists(st.sampled_from(pool), min_size=l, max_size=l).map("".join)
    return k, blocks, draw(st.lists(genome, min_size=1, max_size=5))


def naive_fitness(blocks, genes, k, original_bits, subsume):
    """Fitness of the block strings ``blocks``, re-derived from the
    character-level cover and full Huffman codes."""
    mvs = [genes[i : i + k] for i in range(0, len(genes), k)]
    assignment, freqs = naive_cover(blocks_from(blocks), mvs)
    if assignment is None:
        unmatched = sum(
            not any(char_match(b, v) for v in mvs) for b in blocks
        )
        lowest = compression_rate(original_bits, len(blocks) * (k + len(mvs) - 1))
        return min(INFEASIBLE_BASE, lowest - 1) - unmatched
    n_us = [v.count("U") for v in mvs]
    if subsume:
        ones, zeros = zip(*map(mv_masks, mvs))
        freqs, _ = naive_merge_subsumed_frequencies(freqs, ones, zeros, n_us)
    return compression_rate(original_bits, naive_payload_bits(freqs, n_us))


class TestVectorCache:
    @settings(max_examples=150, deadline=None)
    @given(case=fitness_cases(), subsume=st.booleans())
    def test_warm_cache_agrees_with_fresh_and_naive(self, case, subsume):
        k, blocks, genomes = case
        stats = blocks_from(blocks)
        bits = len(blocks) * k
        shared = {}

        def fitness(genes, vectors):
            return evaluate_fitness(genes, stats, bits, subsume, vectors=vectors)

        first = [fitness(genes, shared) for genes in genomes]
        warm = [fitness(genes, shared) for genes in genomes]
        fresh = [fitness(genes, None) for genes in genomes]
        naive = [naive_fitness(blocks, genes, k, bits, subsume) for genes in genomes]
        assert first == warm == fresh == naive
        assert set(shared) == {g[i : i + k] for g in genomes
                               for i in range(0, len(g), k)}

    def test_size_bounded_on_corpus_9001(self, monkeypatch):
        ts = generate_corpus(CorpusSpec(rng_seed=9001, **CLUSTERED))
        stats = BlockStats(partition(flatten(ts), 12))
        cfg = EaConfig(k=12, l=64, rng_seed=7, stagnation_limit=30,
                       max_evaluations=600, runs=1)
        original = ea.evaluate_fitness
        sizes = []

        def recording(*args, vectors, **kwargs):
            sizes.append(len(vectors))
            value = original(*args, vectors=vectors, **kwargs)
            sizes.append(len(vectors))
            return value

        monkeypatch.setattr(ea, "evaluate_fitness", recording)
        evolve(stats, original_size_bits(ts), cfg)
        s, c, l = cfg.population_size, cfg.children_per_generation, cfg.l
        assert max(sizes) <= (s + 2 * c) * l
        # the run outgrows (S + C) * L, so the pruning path is exercised
        assert max(sizes) > (s + c) * l


@st.composite
def grouped_vectors(draw, k):
    """K-symbol vectors over 0, 1 and U whose groups of 4 symbols, counted
    from the right, are often all U."""
    symbols = list(draw(st.text("01U", min_size=k, max_size=k)))
    for hi in range(k, 0, -4):
        if draw(st.booleans()):
            symbols[max(hi - 4, 0) : hi] = "U" * min(hi, 4)
    return "".join(symbols)


@st.composite
def substring_cases(draw):
    """K 1-13, 1-40 blocks and 1-12 vectors with frequent all-U groups."""
    k = draw(st.integers(1, 13))
    blocks = draw(st.lists(st.text("01X", min_size=k, max_size=k), min_size=1, max_size=40))
    return k, blocks, draw(st.lists(grouped_vectors(k), min_size=1, max_size=12))


class TestSubstringKeys:
    @settings(max_examples=80, deadline=None)
    @given(case=substring_cases(), bad=st.sampled_from("X2u _+-"), data=st.data())
    def test_match_sets_and_cache_entries(self, case, bad, data):
        k, blocks, vectors = case
        warm = blocks_from(blocks)
        # 1. the per-position AND, from cold and warm memos; an all-U group
        # is never a key
        for v in vectors:
            want = plain_match_set(blocks_from(blocks), *mv_masks(v))
            assert match_set(blocks_from(blocks), v) == want
            assert match_set(warm, v) == want
            assert match_set(warm, v) == want
        assert all(len(memo) <= 80 and key.strip("U")
                   for memo in warm.groups for key in memo)
        # 2. one illegal symbol is named with its vector, even when every
        # other group of the vector is memoised, and is never memoised
        v = data.draw(st.sampled_from(vectors))
        pos = data.draw(st.integers(0, k - 1))
        broken = v[:pos] + bad + v[pos + 1 :]
        with pytest.raises(ValueError, match=re.escape(repr(broken))):
            match_set(warm, broken)
        assert all(not key.strip("01U") for memo in warm.groups for key in memo)
        # 3, 4. a search's vector cache holds each vector's match set and U
        # count, and its masks only when the search merges subsumed vectors
        for subsume in (False, True):
            caches = []
            compute = ea.evaluate_fitness

            def recording(*args, vectors, **kwargs):
                caches.append(vectors)
                return compute(*args, vectors=vectors, **kwargs)

            cfg = EaConfig(k=k, l=3, population_size=3, children_per_generation=2,
                           max_evaluations=12, runs=1, subsume=subsume)
            with mock.patch.object(ea, "evaluate_fitness", recording):
                evolve(warm, len(blocks) * k, cfg)
            entries = {s: e for cache in caches for s, e in cache.items()}
            assert entries
            for s, entry in entries.items():
                masks = mv_masks(s) if subsume else ()
                assert entry == (plain_match_set(warm, *mv_masks(s)), s.count("U")) + masks


class TestEvolve:
    def _blocks(self):
        rng = random.Random(77)
        symbols = []
        for _ in range(60):
            base = rng.choice(["0011", "1100"])
            symbols.append(
                "".join(
                    "X" if rng.random() < 0.2 else ch for ch in base
                )
            )
        return blocks_from(symbols)

    def _cfg(self, **kwargs):
        base = dict(
            k=4,
            l=6,
            population_size=5,
            children_per_generation=4,
            stagnation_limit=8,
            max_evaluations=150,
            rng_seed=3,
            runs=1,
        )
        base.update(kwargs)
        return EaConfig(**base)

    def test_deterministic_for_fixed_seed(self):
        blocks = self._blocks()
        a = evolve(blocks, 240, self._cfg())
        b = evolve(blocks, 240, self._cfg())
        assert a.best == b.best
        assert a.history == b.history
        assert a.evaluations == b.evaluations

    def test_history_nondecreasing_and_final_at_least_initial(self):
        blocks = self._blocks()
        for seed in range(10):
            report = evolve(blocks, 240, self._cfg(rng_seed=seed))
            assert all(
                earlier <= later
                for earlier, later in zip(report.history, report.history[1:])
            )
            assert report.best_rate >= report.history[0]
            assert report.best_rate == report.per_run[0].rate

    def test_reservation_prevents_penalty(self, monkeypatch):
        blocks = self._blocks()
        computed = record_fitness(monkeypatch)
        for seed in range(10):
            computed.clear()
            evolve(blocks, 240, self._cfg(rng_seed=seed, reserve_all_u=True))
            assert min(computed) > INFEASIBLE_BASE

    @pytest.mark.parametrize("reserve", [True, False])
    def test_one_gene_search(self, reserve, monkeypatch):
        # K=1, L=1: a genome is one gene, so crossover only copies its parents
        calls = []
        cross = ea.crossover

        def recording(a, b, rng, cfg):
            children = cross(a, b, rng, cfg)
            calls.append(((a, b), children))
            return children

        monkeypatch.setattr(ea, "crossover", recording)
        blocks = blocks_from(["0", "X", "0", "1"])
        report = evolve(blocks, 4, self._cfg(k=1, l=1, reserve_all_u=reserve))
        assert calls
        for parents, children in calls:
            assert children == (("U", "U") if reserve else parents)
        assert len(report.best) == 1
        if reserve:
            assert report.best == "U"
        assert report.best_rate == evaluate_fitness(report.best, blocks, 4)

    def test_stagnation_termination(self):
        blocks = self._blocks()
        report = evolve(
            blocks, 240, self._cfg(stagnation_limit=3, max_evaluations=100000)
        )
        assert report.per_run[0].termination == "stagnation"

    def test_max_evaluations_termination(self):
        blocks = self._blocks()
        report = evolve(blocks, 240, self._cfg(max_evaluations=30))
        assert report.per_run[0].termination == "max_evaluations"
        assert report.evaluations >= 30

    def test_improvement_is_reachable(self):
        # single-cluster corpus: some seeds must improve within a few
        # generations (hill climbing by mutation is possible)
        blocks = blocks_from(["0101"] * 30)
        improved = 0
        for seed in range(100):
            cfg = EaConfig(
                k=4,
                l=2,
                population_size=4,
                children_per_generation=4,
                stagnation_limit=4,
                max_evaluations=60,
                rng_seed=seed,
                runs=1,
            )
            report = evolve(blocks, 120, cfg)
            if report.best_rate > report.history[0]:
                improved += 1
        assert improved >= 20

    @pytest.mark.parametrize("k", [4, 8])
    def test_block_length_must_be_k(self, k):
        # blocks of 6 symbols; K=4 would score 4-gene slices against them
        blocks = blocks_from(["000000", "111111", "0X0X0X"])
        cfg = self._cfg(k=k, max_evaluations=20)
        with pytest.raises(LengthMismatch):
            evolve(blocks, 18, cfg)
        with pytest.raises(LengthMismatch):
            run_many(blocks, 18, cfg)

    def test_empty_blocks_rejected(self):
        with pytest.raises(InvalidConfig):
            evolve(blocks_from([], 4), 10, self._cfg())

    def test_nine_code_seeding(self):
        from tercode import nine_mvs

        blocks = self._blocks()
        report = evolve(
            blocks, 240, self._cfg(l=12, seed_nine_code=True, max_evaluations=20)
        )
        # with the nine fixed vectors in the initial population, the fixed
        # scheme's rate is a floor for the best fitness
        nine = "".join(nine_mvs(4))
        assert report.best_rate >= report.history[0]
        assert report.history[0] > INFEASIBLE_BASE
        # deterministic and distinct from the unseeded run
        again = evolve(
            blocks, 240, self._cfg(l=12, seed_nine_code=True, max_evaluations=20)
        )
        assert report.best == again.best

    def test_nine_code_seeding_injects_vectors(self):
        from tercode import TestSet, compress, compression_rate, nine_mvs

        blocks = self._blocks()
        cfg = EaConfig(
            k=4, l=9, population_size=1, children_per_generation=1,
            max_evaluations=1, stagnation_limit=1, rng_seed=0, runs=1,
            reserve_all_u=False, seed_nine_code=True,
        )
        report = evolve(blocks, 240, cfg)
        assert report.best == "".join(nine_mvs(4))
        # its fitness equals the Huffman-recoded nine-vector rate
        ts = TestSet(tuple(block_strings(blocks)))
        stream = compress(ts, "9c-hc", EaConfig(k=4)).stream
        assert report.best_rate == pytest.approx(
            compression_rate(240, stream.payload_bits)
        )

    def test_nine_code_seeding_requires_even_k(self):
        with pytest.raises(InvalidConfig):
            EaConfig(k=5, seed_nine_code=True)


class TestRunMany:
    def _blocks(self):
        return blocks_from(["0011"] * 20 + ["1100"] * 20)

    def _cfg(self, runs):
        return EaConfig(
            k=4,
            l=4,
            population_size=4,
            children_per_generation=3,
            stagnation_limit=5,
            max_evaluations=80,
            rng_seed=5,
            runs=runs,
        )

    def test_single_run_mean_equals_max(self):
        report = run_many(self._blocks(), 160, self._cfg(1))
        assert report.mean_rate == report.best_rate == report.run_rates[0]

    def test_deterministic(self):
        a = run_many(self._blocks(), 160, self._cfg(3))
        b = run_many(self._blocks(), 160, self._cfg(3))
        assert a.run_rates == b.run_rates
        assert a.best == b.best

    def test_aggregates(self):
        report = run_many(self._blocks(), 160, self._cfg(4))
        assert len(report.run_rates) == 4
        assert len(report.per_run) == 4
        assert report.best_rate == max(report.run_rates)
        assert report.mean_rate == pytest.approx(
            sum(report.run_rates) / len(report.run_rates)
        )
        assert evaluate_fitness(report.best, self._blocks(), 160) == report.best_rate
        assert report.evaluations == sum(r.evaluations for r in report.per_run)
