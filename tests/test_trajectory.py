"""Fixed-seed EA trajectory pins.

``run_many`` on acceptance corpus 9001 at the README budget (K=12, L=64,
seed 7, stagnation 30, max 600 evaluations, 5 runs) must walk the same
path on every change: the same best-fitness series of the winning run,
the same per-run rates and the same counted work.  Every fitness float
enters the selection order, so a matching or coding change that moves
any of them by one ulp shows up here.  A pin may only change together
with a deliberate change of the search or of the fitness.

The subsume pins run one short search with the subsumption merge in the
fitness (max 200 evaluations, 1 run), and pin the container that
``pipeline.compress`` writes with that config: its final
``subsume_merge`` redirect decides which vector codes each block.

The uniform-crossover pin runs two searches at the README budget with
per-gene coin flips in crossover, and pins the best genome, the history
and the CLI's ``ea_stats`` of the report.
"""

import hashlib
import json

from tercode import (
    EaConfig,
    flatten,
    original_size_bits,
    partition,
    pipeline,
    run_many,
    write_container,
)
from tercode.cli import _ea_stats
from tercode.codec import BlockStats
from tercode.corpus import CorpusSpec, generate_corpus

from test_acceptance import CLUSTERED

HISTORY_SHA256 = "f0d35da253029292e25a798390a6044786b41dc809db29236bf9fb4003808ad9"
RUN_RATES = (
    "[34.30357142857143, 30.543650793650794, 27.376984126984127, "
    "27.884920634920636, 32.87301587301587]"
)


def test_readme_budget_trajectory_on_corpus_9001():
    ts = generate_corpus(CorpusSpec(rng_seed=9001, **CLUSTERED))
    cfg = EaConfig(k=12, l=64, rng_seed=7, stagnation_limit=30, max_evaluations=600)
    report = run_many(BlockStats(partition(flatten(ts), 12)),
                      original_size_bits(ts), cfg)
    assert repr(report.run_rates) == RUN_RATES
    assert len(report.history) == 119
    assert report.history[0] == 19.648809523809526
    assert report.history[-1] == 34.30357142857143
    assert hashlib.sha256(repr(report.history).encode()).hexdigest() == HISTORY_SHA256
    assert report.evaluations == 3000
    assert report.generations == 590


CORPUS_9001 = CorpusSpec(rng_seed=9001, **CLUSTERED)
SUBSUME_CFG = dict(k=12, l=64, rng_seed=7, stagnation_limit=30,
                   max_evaluations=200, runs=1, subsume=True)
SUBSUME_HISTORY_SHA256 = (
    "bb4d8815c665c198962d32d22cd7f9b511f9d8acf7a6f29920cc86199b507dbe"
)
SUBSUME_CONTAINER_SHA256 = (
    "d99b4d61485643f25daa40e681f1211b15c4564026cc8c0cc8700c984f3fbe47"
)


def test_subsume_trajectory_on_corpus_9001():
    ts = generate_corpus(CORPUS_9001)
    report = run_many(BlockStats(partition(flatten(ts), 12)),
                      original_size_bits(ts), EaConfig(**SUBSUME_CFG))
    assert repr(report.run_rates) == "[23.883928571428573]"
    assert len(report.history) == 39
    assert report.history[0] == 20.00793650793651
    assert report.history[-1] == 23.883928571428573
    assert (hashlib.sha256(repr(report.history).encode()).hexdigest()
            == SUBSUME_HISTORY_SHA256)
    assert report.evaluations == 200
    assert report.generations == 38


def test_subsume_container_on_corpus_9001():
    result = pipeline.compress(generate_corpus(CORPUS_9001), "ea",
                               EaConfig(**SUBSUME_CFG))
    data = write_container(result.stream)
    assert len(data) == 9879
    assert hashlib.sha256(data).hexdigest() == SUBSUME_CONTAINER_SHA256


UNIFORM_BEST_SHA256 = (
    "e05c2fbdcb29117142b12319f186de4aa9d1e8b8c7c5ac48eed93134fb11589a"
)
UNIFORM_HISTORY_SHA256 = (
    "87ef927bb9aae95bacccdd0fcd098af61a95427b47b5e1528bfa06d9fd800ea6"
)
UNIFORM_EA_STATS_SHA256 = (
    "f3db37e2f8fd0b563a58e4d60c30bbc2c48c45767d6c62669ca6a4e0f8eb046c"
)


def test_uniform_crossover_trajectory_on_corpus_9001():
    ts = generate_corpus(CORPUS_9001)
    cfg = EaConfig(k=12, l=64, rng_seed=7, stagnation_limit=30, max_evaluations=600,
                   runs=2, uniform_crossover=True)
    report = run_many(BlockStats(partition(flatten(ts), 12)),
                      original_size_bits(ts), cfg)
    assert repr(report.run_rates) == "[33.82142857142857, 33.77876984126984]"
    assert len(report.history) == 119
    assert report.history[0] == 19.648809523809526
    assert hashlib.sha256(report.best.encode()).hexdigest() == UNIFORM_BEST_SHA256
    assert (hashlib.sha256(repr(report.history).encode()).hexdigest()
            == UNIFORM_HISTORY_SHA256)
    stats = json.dumps(_ea_stats(report))
    assert hashlib.sha256(stats.encode()).hexdigest() == UNIFORM_EA_STATS_SHA256
    assert report.evaluations == 1200
    assert report.generations == 236
