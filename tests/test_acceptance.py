"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

The two evolutionary criteria fix the search shape (K=12, L=64, S=10,
C=5, 5 runs) but shorten the termination budget so the whole suite
stays in CI time; the asserted properties do not depend on run length.
"""

import random

import pytest

from tercode import (
    EaConfig,
    build_huffman,
    cli,
    compress,
    compression_rate,
    cover,
    decode,
    encode_all,
    evolve,
    flatten,
    frequencies,
    nine_codebook,
    nine_mvs,
    original_size_bits,
    parse_test_set,
    partition,
    read_container,
    run_many,
    subsume_merge,
    write_container,
)
from tercode.codec import BlockStats, payload_bits_for
from tercode.corpus import CorpusSpec, generate_corpus
from tercode.ea import INFEASIBLE_BASE

from helpers import (
    codebook_cost,
    encode_test_set,
    optimal_prefix_cost,
    payload_bitstring,
    random_mv_set,
    random_test_set,
    record_fitness,
)

# ~100k-bit clustered corpus: 4 templates, flip 0.05, X density 0.3.
CLUSTERED = dict(
    patterns=420,
    width=240,
    x_density=0.3,
    templates=4,
    flip_probability=0.05,
    template_width=12,
)

# documented corpus generator seeds for the EA-vs-baseline criterion
SHOWDOWN_CORPUS_SEEDS = (9001, 9002, 9003, 9004, 9005)


def _passed(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS: {name}{suffix}")


def test_worked_example_exact():
    """Frequencies (5,3,2) for (111U, 1110, 0000): Huffman lengths (1,2,2),
    payload 20 bits; the subsumption merge drops 1110 and reaches 18."""
    blocks = BlockStats(partition(
        flatten(parse_test_set("1111\n" * 5 + "1110\n" * 3 + "0000\n" * 2)), 4
    ))
    mvs = ["111U", "1110", "0000"]
    assignment = cover(blocks, mvs)
    assert frequencies(assignment, 3) == [5, 3, 2]

    codebook = build_huffman(frequencies(assignment, 3))
    assert [len(codebook[i]) for i in range(3)] == [1, 2, 2]
    stream = encode_all(blocks, assignment, codebook, mvs)
    assert stream.payload_bits == 20

    merged = subsume_merge(assignment, mvs, 4)
    assert frequencies(merged, 3) == [8, 0, 2]
    assert [v for v, f in zip(mvs, frequencies(merged, 3)) if f] == [
        "111U", "0000"]
    merged_stream = encode_all(blocks, merged, build_huffman(frequencies(merged, 3)), mvs)
    assert merged_stream.payload_bits == 18
    _passed("worked example", "payload 20 bits, 18 after subsume merge")


def test_nine_code_fidelity():
    """The nine vectors, their fixed codewords, and the 111100 encoding are
    reproduced bit-exactly."""
    assert nine_mvs(6) == (
        "000000", "111111", "000111", "111000", "111UUU", "UUU111",
        "000UUU", "UUU000", "UUUUUU",
    )
    codebook = nine_codebook()
    assert tuple(codebook[i] for i in range(9)) == (
        "0", "10", "11000", "11001", "11010", "11011", "11100", "11101",
        "11111",
    )
    codes = list(codebook.values())
    for a in codes:
        for b in codes:
            if a is not b:
                assert not b.startswith(a)

    stream = compress(parse_test_set("111100\n"), "9c", EaConfig(k=6)).stream
    assert payload_bitstring(stream) == "11010100"
    assert stream.payload_bits == 8
    _passed("nine-code fidelity", "111100 -> 11010100")


def test_huffman_recode_dominates_fixed_code():
    """Over >=200 random corpora and K in {4,6,8,12}, the Huffman-recoded
    variant never compresses worse than the fixed code."""
    rng = random.Random(8601)
    checked = 0
    for trial in range(200):
        ts = random_test_set(rng, max_rows=18, max_cols=24,
                             x_density=rng.random())
        k = (4, 6, 8, 12)[trial % 4]
        bits = original_size_bits(ts)
        fixed = compress(ts, "9c", EaConfig(k=k)).stream
        recoded = compress(ts, "9c-hc", EaConfig(k=k)).stream
        assert compression_rate(bits, recoded.payload_bits) >= compression_rate(
            bits, fixed.payload_bits
        )
        checked += 1
    assert checked == 200
    _passed("9c+hc dominance", f"{checked} corpora, K in 4/6/8/12")


def test_huffman_cost_is_optimal():
    """For >=1000 frequency vectors with <=5 nonzero entries the coded cost
    equals the brute-force minimum over all prefix codes."""
    rng = random.Random(4242)
    for _ in range(1000):
        nonzero = rng.randrange(1, 6)
        freqs = [rng.randrange(1, 1000) for _ in range(nonzero)]
        # scatter zeros between entries; they must not affect the code
        padded = []
        for f in freqs:
            padded.extend([0] * rng.randrange(0, 3))
            padded.append(f)
        codebook = build_huffman(padded)
        cost = codebook_cost(codebook, padded)
        assert cost == optimal_prefix_cost(freqs)
    _passed("huffman optimality", "1000 frequency vectors vs tree enumeration")


def test_round_trip_every_specified_position():
    """>=500 random test sets across K in {1,2,5,8,12,13}: decoding returns
    exactly T*n bits agreeing with the source at every 0/1 position."""
    rng = random.Random(777)
    sets = 0
    for trial in range(504):
        ts = random_test_set(rng)
        k = (1, 2, 5, 8, 12, 13)[trial % 6]
        mvs = random_mv_set(rng, k, rng.randrange(1, 7))
        stream = encode_test_set(ts, k, mvs)
        decoded = decode(stream)
        flat = "".join(ts.patterns)
        assert len(decoded) == original_size_bits(ts)
        assert set(decoded) <= {"0", "1"}
        for got, want in zip(decoded, flat):
            if want != "X":
                assert got == want
        sets += 1
    assert sets >= 500
    _passed("round trip", f"{sets} test sets, K in 1/2/5/8/12/13")


def test_ea_sanity_sweep(monkeypatch):
    """50-seed sweep on the clustered ~100k-bit corpus: best-fitness series
    nondecreasing, final >= best initial rate, and the all-U reservation
    keeps every evaluation feasible."""
    ts = generate_corpus(CorpusSpec(rng_seed=60601, **CLUSTERED))
    bits = original_size_bits(ts)
    assert bits == 100800
    stats = BlockStats(partition(flatten(ts), 12))
    computed = record_fitness(monkeypatch)
    for seed in range(50):
        cfg = EaConfig(
            k=12,
            l=16,
            population_size=6,
            children_per_generation=4,
            stagnation_limit=6,
            max_evaluations=150,
            rng_seed=seed,
            runs=1,
            reserve_all_u=True,
        )
        computed.clear()
        report = evolve(stats, bits, cfg)
        assert all(
            earlier <= later
            for earlier, later in zip(report.history, report.history[1:])
        )
        assert report.best_rate >= report.history[0]
        assert min(computed) > INFEASIBLE_BASE
    _passed("ea sanity", "50 seeds on 100800-bit clustered corpus")


def test_ea_beats_nine_code_huffman_baseline():
    """On >=4 of 5 clustered corpus instantiations (seeds documented above)
    the mean EA rate with K=12, L=64, S=10, C=5 over 5 runs exceeds the
    9C+HC rate."""
    wins = 0
    details = []
    for corpus_seed in SHOWDOWN_CORPUS_SEEDS:
        ts = generate_corpus(CorpusSpec(rng_seed=corpus_seed, **CLUSTERED))
        bits = original_size_bits(ts)
        blocks = partition(flatten(ts), 12)
        stats = BlockStats(blocks)

        recoded = compress(ts, "9c-hc", EaConfig(k=12)).stream
        baseline_rate = compression_rate(bits, recoded.payload_bits)

        cfg = EaConfig(
            k=12,
            l=64,
            population_size=10,
            children_per_generation=5,
            runs=5,
            rng_seed=corpus_seed,
            stagnation_limit=30,
            max_evaluations=600,
        )
        report = run_many(stats, bits, cfg)
        details.append(
            f"seed {corpus_seed}: ea mean {report.mean_rate:.2f}% "
            f"vs 9c+hc {baseline_rate:.2f}%"
        )
        if report.mean_rate > baseline_rate:
            wins += 1
    assert wins >= 4, "\n".join(details)
    _passed("ea vs baseline", f"{wins}/5 corpora; " + "; ".join(details))


def test_container_determinism(tmp_path, capsys):
    """Identical seeds and flags give byte-identical containers; container
    round-trip is the identity on 100 random streams."""
    corpus_path = tmp_path / "corpus.txt"
    assert cli.main(
        ["gen-corpus", "--output", str(corpus_path), "--patterns", "40",
         "--width", "48", "--x-density", "0.3", "--templates", "3",
         "--flip-prob", "0.05", "--seed", "5"]
    ) == 0
    outputs = []
    for name in ("d1.tcc", "d2.tcc"):
        out = tmp_path / name
        code = cli.main(
            ["compress", "--input", str(corpus_path), "--output", str(out),
             "--method", "ea", "-K", "12", "-L", "8", "--seed", "77",
             "--runs", "2", "--population", "5", "--children", "3",
             "--stagnation", "5", "--max-evals", "100", "--report", "json"]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]

    rng = random.Random(31337)
    for _ in range(100):
        ts = random_test_set(rng)
        k = rng.randrange(1, 14)
        stream = encode_test_set(ts, k, random_mv_set(rng, k, rng.randrange(1, 6)))
        assert read_container(write_container(stream)) == stream
    _passed("container determinism", "byte-identical CLI runs; 100 round trips")
