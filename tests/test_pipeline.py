import pytest

from tercode import CorpusSpec, EaConfig, TestSet, codec, core, ea, generate_corpus, pipeline
from tercode.errors import InvalidConfig

from helpers import record_fitness

# 60x48 at K=12: 240 blocks, searched with four vectors, no all-U reserve
# and a budget of five evaluations, so the best set leaves blocks unmatched
CORPUS = CorpusSpec(patterns=60, width=48, x_density=0.3, templates=4,
                    flip_probability=0.05, rng_seed=1)
INFEASIBLE = EaConfig(k=12, l=4, runs=1, max_evaluations=5, reserve_all_u=False,
                      rng_seed=3)


class TestInfeasibleSearch:
    def test_best_set_leaving_blocks_unmatched_is_a_config_error(self):
        ts = generate_corpus(CORPUS)
        stats = codec.BlockStats(core.partition(core.flatten(ts), 12))
        best = ea.run_many(stats, core.original_size_bits(ts), INFEASIBLE).best
        mvs = ea.vector_symbols(best, 12)
        _, _, unmatched, _ = codec.match_frequencies(
            stats, [codec.match_set(stats, v) for v in mvs],
            [v.count("U") for v in mvs])
        assert unmatched
        with pytest.raises(InvalidConfig,
                           match=f"leaves {unmatched} of 240 blocks unmatched; "
                                 r"reserve the all-U vector \(--reserve-all-u\)"):
            pipeline.compress(ts, "ea", INFEASIBLE)

    def test_search_prefers_a_feasible_rate_below_the_infeasible_base(self, monkeypatch):
        # one symbol at K=60: every feasible vector has about 20 U, a rate
        # near -2000%, and a third of the random vectors leave the block
        # unmatched; they must rank below the feasible ones
        cfg = EaConfig(k=60, l=1, runs=1, max_evaluations=10, reserve_all_u=False,
                       rng_seed=0)
        computed = record_fitness(monkeypatch)
        result = pipeline.compress(TestSet(("0",)), "ea", cfg)
        assert result.rate == -1400.0
        assert min(computed) == -5902.0

    def test_unmatched_count_under_a_lowered_base(self):
        # seed 8 draws one vector that leaves the lone block unmatched, at
        # fitness -5902: one below the base, which drops below -1000 here
        cfg = EaConfig(k=60, l=1, runs=1, population_size=1,
                       children_per_generation=1, max_evaluations=1,
                       reserve_all_u=False, rng_seed=8)
        with pytest.raises(InvalidConfig, match="leaves 1 of 1 blocks unmatched"):
            pipeline.compress(TestSet(("0",)), "ea", cfg)

    def test_feasible_rate_below_the_infeasible_base_is_encoded(self):
        # one symbol at K=12 under the lone all-U vector: 12 payload bits
        # for 1 original bit, a rate of -1100% < ea.INFEASIBLE_BASE
        cfg = EaConfig(k=12, l=1, runs=1, max_evaluations=5, rng_seed=3)
        result = pipeline.compress(TestSet(("X",)), "ea", cfg)
        assert result.rate == -1100.0 < ea.INFEASIBLE_BASE
        assert result.stream.payload_bits == 12


def test_unknown_method_is_a_config_error():
    # the CLI's choices stop it first; only a library caller gets here
    with pytest.raises(InvalidConfig,
                       match=r"^unknown method '9C'; choose from \('ea', '9c', '9c-hc'\)$"):
        pipeline.compress(TestSet(("01",)), "9C", EaConfig(k=2))
