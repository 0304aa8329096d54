"""Tests of the benchmark itself: metric names, exact counts, its checks.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import spans
import worker
from run import outputs_changed
from workloads import ROOT, prepare

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("ea.fitness_lookups", "ea.fitness_computed", "ea.generations",
          "codec.match_calls", "codec.merge_subsumed_calls", "codec.unique_blocks",
          "codec.blocks", "container.bytes")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_line(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_counts(workload, workdir):
    """Counts of one traced operation on the workload's first corpus."""
    from tercode import cli

    workdir.mkdir()
    plan = prepare(workload, 0, workdir)
    plan["ops"] = plan["ops"][:1]
    recorder = spans.Recorder()
    sampler = worker.SpeedSampler()
    sampler.start()
    try:
        with spans.installed(recorder):
            run = worker.Run(cli, plan, recorder, 0, sampler)
            passes = run.run()
    finally:
        sampler.stop()
    assert run.failures == []
    layers = spans.layer_metrics(recorder, passes)
    return {name: layers[name][0] for name in COUNTS}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    line = result_line("stream", trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    if trace:
        assert line["metrics"]["failed_ops_ratio"]["value"] == 0
        assert line["metrics"]["outputs_changed"]["value"] == 0
        assert line["metrics"]["codec.unique_blocks"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_subsume_counts_repeat_exactly(tmp_path):
    first = traced_counts("subsume", tmp_path / "a")
    assert first == traced_counts("subsume", tmp_path / "b")
    assert first["ea.fitness_lookups"] == 200
    assert first["codec.merge_subsumed_calls"] > 0


def test_corpus_9001_search_counts(tmp_path):
    first = traced_counts("search", tmp_path / "a")
    assert first == traced_counts("search", tmp_path / "b")
    assert first["ea.fitness_lookups"] == 3000
    assert first["ea.fitness_computed"] == 918


def test_patches_are_undone():
    import tercode

    before = {(m, a): getattr(getattr(tercode, m), a) for m, a, _ in spans.PATCHES}
    with spans.installed(spans.Recorder()):
        assert tercode.codec.BlockStats is not tercode.BlockStats
    assert tercode.codec.BlockStats is tercode.BlockStats
    assert before == {(m, a): getattr(getattr(tercode, m), a) for m, a, _ in spans.PATCHES}


def test_restored_grid_check():
    source = b"01X\nX10\n"
    assert worker.restored_matches(source, b"010\n110\n")
    assert not worker.restored_matches(source, b"000\n110\n")  # 0/1 position differs
    assert not worker.restored_matches(source, b"01X\n110\n")  # X left unspecified
    assert not worker.restored_matches(source, b"010\n")


def test_outputs_changed_against_pins_and_across_passes():
    pinned = {"outputs": {"a.tcc": "1", "a.json": "2"}}
    assert outputs_changed({"a.tcc": ["1"], "a.json": ["2"]}, pinned) == 0
    assert outputs_changed({"a.tcc": ["9"], "a.json": ["2"]}, pinned) == 1
    assert outputs_changed({"a.tcc": ["1"]}, pinned) == 1
    assert outputs_changed({"a.tcc": ["1", "9"]}, None) == 1


def copy_bench(tmp_path, with_src):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_sources(tmp_path):
    copy_bench(tmp_path, with_src=False)
    done = bench("--workload", "stream", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_input_pin_mismatch_aborts(tmp_path):
    copy_bench(tmp_path, with_src=True)
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["subsume"]["0"]["inputs"]["corpus-9001"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    done = bench("--workload", "subsume", "--seed", "0", "--seconds", "0", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "corpus-9001" in done.stderr
    assert "correct" not in done.stdout
