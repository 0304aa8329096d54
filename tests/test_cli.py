import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tercode
from tercode import (
    EncodedStream,
    cli,
    decode,
    parse_test_set,
    read_container,
    write_container,
)
from tercode.errors import DanglingBits, TruncatedPayload, UnknownCodeword

from helpers import single_vector_container


def run_cli(args):
    return cli.main(args)


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    code = run_cli(
        [
            "gen-corpus",
            "--output", str(path),
            "--patterns", "30",
            "--width", "48",
            "--x-density", "0.3",
            "--templates", "3",
            "--flip-prob", "0.05",
            "--template-width", "12",
            "--seed", "41",
        ]
    )
    assert code == 0
    return path


EA_SPEED_FLAGS = [
    "--runs", "2",
    "--population", "5",
    "--children", "3",
    "--stagnation", "5",
    "--max-evals", "80",
]


class TestGenCorpus:
    def test_writes_requested_grid(self, corpus_file):
        ts = parse_test_set(corpus_file.read_text())
        assert ts.pattern_count == 30
        assert ts.width == 48

    def test_same_seed_same_file(self, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            run_cli(
                ["gen-corpus", "--output", str(path), "--patterns", "10",
                 "--width", "20", "--x-density", "0.4", "--seed", "7"]
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_all_x_at_density_one(self, tmp_path):
        path = tmp_path / "x.txt"
        run_cli(
            ["gen-corpus", "--output", str(path), "--patterns", "4",
             "--width", "9", "--x-density", "1.0", "--seed", "1"]
        )
        ts = parse_test_set(path.read_text())
        assert set("".join(ts.patterns)) == {"X"}

    def test_single_template_no_flips_identical_rows(self, tmp_path):
        path = tmp_path / "t.txt"
        run_cli(
            ["gen-corpus", "--output", str(path), "--patterns", "6",
             "--width", "24", "--templates", "1", "--flip-prob", "0",
             "--x-density", "0", "--seed", "2"]
        )
        ts = parse_test_set(path.read_text())
        assert len(set(ts.patterns)) == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--patterns", "0", "corpus needs at least one pattern and one column"),
        ("--templates", "0", "cluster profile needs >= 1 template of width >= 1"),
        ("--x-density", "1.5", "x_density must lie in [0,1]"),
        ("--flip-prob", "-0.1", "flip_probability must lie in [0,1]"),
    ])
    def test_out_of_range_spec_is_a_config_error(self, tmp_path, capsys, flag, value,
                                                 message):
        path = tmp_path / "c.txt"
        args = {"--patterns": "4", "--width": "8", flag: value}
        code = run_cli(["gen-corpus", "--output", str(path),
                        *(item for pair in args.items() for item in pair)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()


class TestCompress:
    def test_9c_json_report(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "c.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "9c", "-K", "6", "--report", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "9c"
        assert report["k"] == 6
        assert report["original_bits"] == 30 * 48
        assert report["payload_bits"] > 0
        assert "duration_seconds" not in report
        stream = read_container(out.read_bytes())
        assert stream.payload_bits == report["payload_bits"]
        assert stream.pattern_width == 48

    def test_repeated_block_rate_9c(self, tmp_path, capsys):
        # one 6-bit pattern repeated: every block costs the 5-bit codeword
        path = tmp_path / "rep.txt"
        path.write_text("111000\n" * 10)
        out = tmp_path / "rep.tcc"
        run_cli(
            ["compress", "--input", str(path), "--output", str(out),
             "--method", "9c", "-K", "6", "--report", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["payload_bits"] == 50
        assert report["compression_rate"] == pytest.approx(100 * (60 - 50) / 60)

    def test_ea_method_reports_runs(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "ea.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "ea", "-K", "12", "-L", "8", "--seed", "5",
             "--report", "json", *EA_SPEED_FLAGS]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["ea_stats"]["run_rates"]) == 2
        assert report["ea_stats"]["best_rate"] >= report["ea_stats"]["mean_rate"]
        # container holds the best individual's encoding
        assert report["compression_rate"] == pytest.approx(
            report["ea_stats"]["best_rate"]
        )

    def test_odd_k_with_9c_is_usage_error(self, corpus_file, tmp_path):
        code = run_cli(
            ["compress", "--input", str(corpus_file),
             "--output", str(tmp_path / "x.tcc"), "--method", "9c", "-K", "5"]
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--p-crossover", "--p-mutation"])
    def test_nan_operator_probability_is_usage_error(self, corpus_file, tmp_path, capsys,
                                                     flag):
        output = tmp_path / "x.tcc"
        code = run_cli(["compress", "--input", str(corpus_file), "--output", str(output),
                        flag, "nan", *EA_SPEED_FLAGS])
        assert code == 2
        assert "operator probabilities" in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize("method, flag", [
        ("9c", "-K"), ("9c-hc", "-K"), ("ea", "-K"), ("ea", "-L"),
    ])
    def test_block_or_vector_count_above_u16_is_usage_error(
        self, tmp_path, capsys, method, flag
    ):
        source = tmp_path / "two.txt"
        source.write_text("0101\n1X10\n")
        output = tmp_path / "x.tcc"
        code = run_cli(
            ["compress", "--input", str(source), "--output", str(output),
             "--method", method, flag, "70000"]
        )
        assert code == 2
        assert "65535" in capsys.readouterr().err
        assert not output.exists()

    def test_infeasible_search_result_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        run_cli(["gen-corpus", "--output", str(corpus), "--patterns", "60",
                 "--width", "48", "--x-density", "0.3", "--templates", "4",
                 "--flip-prob", "0.05", "--seed", "1"])
        output = tmp_path / "x.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus), "--output", str(output),
             "-K", "12", "-L", "4", "--runs", "1", "--max-evals", "5",
             "--no-reserve-all-u", "--seed", "3"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "blocks unmatched" in err and "--reserve-all-u" in err
        assert not output.exists()

    def test_bad_input_format_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("01\n0\n")
        code = run_cli(
            ["compress", "--input", str(bad),
             "--output", str(tmp_path / "x.tcc"), "--method", "9c", "-K", "2"]
        )
        assert code == 3

    def test_missing_input_exit_code(self, tmp_path):
        code = run_cli(
            ["compress", "--input", str(tmp_path / "nope.txt"),
             "--output", str(tmp_path / "x.tcc")]
        )
        assert code == 3

    def test_undecodable_input_is_format_error(self, tmp_path, capsys):
        source = tmp_path / "latin.txt"
        source.write_bytes(b"\xff\xfe01\n")
        output = tmp_path / "x.tcc"
        code = run_cli(["compress", "--input", str(source), "--output", str(output),
                        "--method", "9c", "-K", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(source) in err
        assert not output.exists()

    def test_deterministic_output(self, corpus_file, tmp_path, capsys):
        containers = []
        reports = []
        for name in ("one.tcc", "two.tcc"):
            out = tmp_path / name
            run_cli(
                ["compress", "--input", str(corpus_file), "--output", str(out),
                 "--method", "ea", "-K", "6", "-L", "6", "--seed", "33",
                 "--report", "json", *EA_SPEED_FLAGS]
            )
            containers.append(out.read_bytes())
            reports.append(capsys.readouterr().out)
        assert containers[0] == containers[1]
        assert reports[0] == reports[1]

    def test_seed_env_fallback(self, corpus_file, tmp_path, capsys, monkeypatch):
        outputs = []
        for name, env in (("e1.tcc", "12"), ("e2.tcc", "12"), ("e3.tcc", "13")):
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
            out = tmp_path / name
            run_cli(
                ["compress", "--input", str(corpus_file), "--output", str(out),
                 "--method", "ea", "-K", "6", "-L", "4", "--report", "json",
                 *EA_SPEED_FLAGS]
            )
            capsys.readouterr()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    def test_seed_env_must_be_integer(self, corpus_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        out = tmp_path / "e.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "ea", "-K", "6", "-L", "4", *EA_SPEED_FLAGS]
        )
        assert code == 2
        assert "TERCODE_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_fill_policies(self, tmp_path, capsys):
        # 10XXXX covers via UUU111, so its first three bits travel as
        # fills and the X among them takes the fill value
        path = tmp_path / "fills.txt"
        path.write_text("10XXXX\n" * 4)
        for fill, expected in (("zero", "100111"), ("one", "101111")):
            out = tmp_path / f"{fill}.tcc"
            run_cli(
                ["compress", "--input", str(path), "--output", str(out),
                 "--method", "9c", "-K", "6", "--fill", fill]
            )
            restored = tmp_path / f"{fill}.txt"
            run_cli(
                ["decompress", "--input", str(out), "--output", str(restored)]
            )
            decoded = parse_test_set(restored.read_text())
            assert decoded.patterns == (expected,) * 4
        capsys.readouterr()
        # random fill is seed-deterministic
        outs = []
        for name in ("r1.txt", "r2.txt"):
            out = tmp_path / f"{name}.tcc"
            run_cli(
                ["compress", "--input", str(path), "--output", str(out),
                 "--method", "9c", "-K", "6", "--fill", "random", "--seed", "4"]
            )
            restored = tmp_path / name
            run_cli(
                ["decompress", "--input", str(out), "--output", str(restored)]
            )
            outs.append(restored.read_text())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_seed_9c_flag(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "s9.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "ea", "-K", "6", "-L", "10", "--seed", "2",
             "--seed-9c", "--report", "json", *EA_SPEED_FLAGS]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ea_stats"]["best_rate"] >= report["ea_stats"]["mean_rate"]

    @pytest.mark.parametrize(
        "flags, conf, evaluations",
        [
            # the default budget is 100 * S * C of the final S and C
            (["--population", "2", "--children", "1"], None, 200),
            (["--children", "1"], "population_size = 2\n", 200),
            (["--population", "2"], "children_per_generation = 1\n", 200),
            # an explicit budget wins, from a flag or from the file
            (["--population", "2", "--children", "1", "--max-evals", "50"], None, 50),
            (["--population", "2", "--children", "1"], "max_evaluations = 60\n", 60),
        ],
        ids=["flags", "file-s", "file-c", "max-evals-flag", "max-evals-file"],
    )
    def test_default_budget_follows_population_and_children(
        self, corpus_file, tmp_path, capsys, flags, conf, evaluations
    ):
        argv = ["compress", "--input", str(corpus_file),
                "--output", str(tmp_path / "o.tcc"), "--method", "ea", "-K", "6",
                "-L", "4", "--runs", "1", "--stagnation", "100000",
                "--report", "json", *flags]
        if conf is not None:
            path = tmp_path / "ea.conf"
            path.write_text(conf)
            argv += ["--config", str(path)]
        assert run_cli(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ea_stats"]["evaluations"] == evaluations
        assert report["ea_stats"]["per_run"][0]["termination"] == "max_evaluations"

    def test_config_file(self, corpus_file, tmp_path, capsys):
        conf = tmp_path / "ea.conf"
        conf.write_text("l = 4\npopulation_size = 4\nchildren_per_generation = 3\n"
                        "stagnation_limit = 4\nmax_evaluations = 50\nruns = 1\n")
        out = tmp_path / "conf.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "ea", "-K", "6", "--seed", "3", "--config", str(conf),
             "--report", "json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["l"] == 4
        assert len(report["ea_stats"]["run_rates"]) == 1

    def test_config_file_seed(self, corpus_file, tmp_path, capsys, monkeypatch):
        # the seed is --seed, else TERCODE_SEED, else the file's rng_seed, else 0
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        conf = tmp_path / "ea.conf"
        conf.write_text("rng_seed = 5\n")

        def run(name, *flags):
            out = tmp_path / name
            assert run_cli(["compress", "--input", str(corpus_file), "--output", str(out),
                            "--method", "ea", "-K", "6", "-L", "4", "--report", "json",
                            *EA_SPEED_FLAGS, *flags]) == 0
            return out.read_bytes(), json.loads(capsys.readouterr().out)["ea_stats"]

        from_file = run("file.tcc", "--config", str(conf))
        assert from_file == run("flag.tcc", "--seed", "5")
        assert from_file != run("default.tcc")
        flag_wins = run("flag-file.tcc", "--config", str(conf), "--seed", "3")
        assert flag_wins == run("flag3.tcc", "--seed", "3")
        monkeypatch.setenv(cli.SEED_ENV_VAR, "3")
        assert run("env-file.tcc", "--config", str(conf)) == flag_wins

    @pytest.mark.parametrize("value", ["2.5", "true"])
    def test_config_budget_must_be_integer(self, corpus_file, tmp_path, capsys, value):
        conf = tmp_path / "ea.conf"
        conf.write_text(f"max_evaluations = {value}\n")
        out = tmp_path / "conf.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "ea", "-K", "6", "-L", "4", "--runs", "1",
             "--config", str(conf)]
        )
        assert code == 2
        assert "max_evaluations" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["rng_seed = 1.5", "reserve_all_u = 5", "subsume = 2"])
    def test_config_seed_and_flags_must_have_their_type(self, corpus_file, tmp_path,
                                                        capsys, monkeypatch, line):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        conf = tmp_path / "ea.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "conf.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "ea", "-K", "6", "-L", "4", "--runs", "1", "--max-evals", "10",
             "--config", str(conf)]
        )
        assert code == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not out.exists()

    def test_config_probability_must_be_a_number(self, corpus_file, tmp_path, capsys):
        conf = tmp_path / "ea.conf"
        conf.write_text("p_inversion = off\nmax_evaluations = 20\nruns = 1\n")
        out = tmp_path / "conf.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "ea", "-K", "6", "-L", "4", "--config", str(conf)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: p_inversion must be a number, got False\n"
        assert not out.exists()


class TestDecompress:
    def _compress(self, corpus_file, tmp_path, extra=()):
        out = tmp_path / "c.tcc"
        code = run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "9c", "-K", "6", *extra]
        )
        assert code == 0
        return out

    def test_round_trip_specified_positions(self, corpus_file, tmp_path, capsys):
        container = self._compress(corpus_file, tmp_path)
        restored = tmp_path / "restored.txt"
        code = run_cli(
            ["decompress", "--input", str(container), "--output", str(restored)]
        )
        assert code == 0
        original = parse_test_set(corpus_file.read_text())
        decoded = parse_test_set(restored.read_text())
        assert decoded.pattern_count == original.pattern_count
        assert decoded.width == original.width
        assert "X" not in "".join(decoded.patterns)
        for row_o, row_d in zip(original.patterns, decoded.patterns):
            for want, got in zip(row_o, row_d):
                if want != "X":
                    assert got == want

    def test_width_flag_overrides(self, corpus_file, tmp_path):
        container = self._compress(corpus_file, tmp_path)
        restored = tmp_path / "r.txt"
        code = run_cli(
            ["decompress", "--input", str(container), "--output", str(restored),
             "--width", "24"]
        )
        assert code == 0
        assert parse_test_set(restored.read_text()).width == 24

    @pytest.mark.parametrize("width", [1, 3, 5, 1440], ids=["1", "K-1", "K+1", "one-row"])
    @pytest.mark.parametrize("chunk", ["1 row", "2 rows", "7 rows", "under a row"])
    def test_rows_written_whole_in_chunks(self, corpus_file, tmp_path, monkeypatch, width,
                                          chunk):
        # 30 x 48 = 1440 symbols at K=4; 7 rows leave a short last chunk
        container = self._compress(corpus_file, tmp_path, extra=("-K", "4"))
        bits = decode(read_container(container.read_bytes()))
        rows = {"1 row": 1, "2 rows": 2, "7 rows": 7, "under a row": 0}[chunk]
        monkeypatch.setattr(cli, "_WRITE_CHUNK", max(1, rows * (width + 1)))
        restored = tmp_path / "r.txt"
        assert run_cli(["decompress", "--input", str(container), "--output", str(restored),
                        "--width", str(width)]) == 0
        want = "".join(bits[i : i + width] + "\n" for i in range(0, len(bits), width))
        assert restored.read_bytes() == want.encode("ascii")

    def test_width_not_dividing_is_error(self, corpus_file, tmp_path):
        container = self._compress(corpus_file, tmp_path)
        code = run_cli(
            ["decompress", "--input", str(container),
             "--output", str(tmp_path / "r.txt"), "--width", "7"]
        )
        assert code == 3

    def test_missing_width_is_usage_error(self, tmp_path, capsys):
        # no WDTH record and no --width
        container = tmp_path / "c.tcc"
        container.write_bytes(single_vector_container(3, 2, 6))
        restored = tmp_path / "r.txt"
        code = run_cli(
            ["decompress", "--input", str(container), "--output", str(restored)]
        )
        assert code == 2
        assert "pass --width" in capsys.readouterr().err
        assert not restored.exists()

    def test_width_checked_before_decoding(self, tmp_path, monkeypatch):
        # 8 payload bits that no block reads: decoding raises DanglingBits
        dangling = single_vector_container(3, 2, 6, payload_bits=8)
        # 2**40 symbols: decoding raises OutputTooLarge, exit 4
        bomb = single_vector_container(1, 2**40, 2**40)
        decode = cli.codec.decode
        calls = []

        def recording(*args):
            calls.append(args)
            return decode(*args)

        monkeypatch.setattr(cli.codec, "decode", recording)
        container = tmp_path / "bad.tcc"
        restored = tmp_path / "r.txt"
        args = ["decompress", "--input", str(container), "--output", str(restored)]
        for data, width in ((dangling, 4), (bomb, 3)):
            container.write_bytes(data)
            assert run_cli([*args, "--width", str(width)]) == 3
        assert calls == []
        # a dividing width goes on to decode the corrupt payload
        container.write_bytes(dangling)
        assert run_cli([*args, "--width", "3"]) == 4
        assert len(calls) == 1
        assert not restored.exists()

    @pytest.mark.parametrize(
        "error, payload_bits, codewords",
        [
            (DanglingBits, "01", ("0", "1")),
            (TruncatedPayload, "1", ("0", "10")),
            (UnknownCodeword, "11", ("0", "10")),
        ],
        ids=["dangling-bits", "truncated-payload", "unknown-codeword"],
    )
    def test_undecodable_payload_is_container_error(
        self, error, payload_bits, codewords, tmp_path
    ):
        # one block of K=2 under the vectors 00 and 01
        stream = EncodedStream(
            payload=bytes([int(payload_bits.ljust(8, "0"), 2)]),
            payload_bits=len(payload_bits),
            k=2,
            mv_table=("00", "01"),
            codewords=codewords,
            original_length=2,
            pattern_width=2,
        )
        with pytest.raises(error):
            decode(stream)
        container = tmp_path / "bad.tcc"
        container.write_bytes(write_container(stream))
        restored = tmp_path / "r.txt"
        code = run_cli(
            ["decompress", "--input", str(container), "--output", str(restored)]
        )
        assert code == 4
        assert not restored.exists()

    def test_corrupt_container_exit_code(self, corpus_file, tmp_path):
        container = self._compress(corpus_file, tmp_path)
        data = bytearray(container.read_bytes())
        data[10] ^= 0xFF
        container.write_bytes(bytes(data))
        code = run_cli(
            ["decompress", "--input", str(container),
             "--output", str(tmp_path / "r.txt")]
        )
        assert code == 4

    def test_output_cap_refuses_bomb(self, tmp_path):
        # a consistent 39-byte header declaring 2**40 zero-cost symbols
        container = tmp_path / "bomb.tcc"
        container.write_bytes(single_vector_container(1, 2**40, 2**40))
        restored = tmp_path / "r.txt"
        code = run_cli(
            ["decompress", "--input", str(container), "--output", str(restored),
             "--width", "1"]
        )
        assert code == 4
        assert not restored.exists()

    def test_max_symbols_flag(self, corpus_file, tmp_path):
        container = self._compress(corpus_file, tmp_path)
        restored = tmp_path / "r.txt"
        args = ["decompress", "--input", str(container), "--output", str(restored)]
        assert run_cli([*args, "--max-symbols", str(30 * 48 - 1)]) == 4
        assert not restored.exists()
        assert run_cli([*args, "--max-symbols", str(30 * 48)]) == 0
        assert parse_test_set(restored.read_text()).pattern_count == 30

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_nonpositive_max_symbols_is_usage_error(self, corpus_file, tmp_path, cap):
        container = self._compress(corpus_file, tmp_path)
        restored = tmp_path / "r.txt"
        for source in (container, tmp_path / "missing.tcc"):
            # checked before the file is read: a missing one is not exit 3
            assert run_cli(["decompress", "--input", str(source), "--output",
                            str(restored), "--max-symbols", cap]) == 2
        assert not restored.exists()


@pytest.mark.parametrize("command", [
    ["compress", "--input", "{dir}", "--output", "{tmp}/x.tcc"],
    ["compress", "--input", "{corpus}", "--output", "{dir}", "--method", "9c-hc"],
    ["decompress", "--input", "{dir}", "--output", "{tmp}/x.txt"],
    ["stats", "--input", "{dir}"],
], ids=["compress-input", "compress-output", "decompress-input", "stats-input"])
def test_directory_is_file_error(command, corpus_file, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    names = {"dir": folder, "tmp": tmp_path, "corpus": corpus_file}
    capsys.readouterr()
    assert run_cli([arg.format(**names) for arg in command]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "folder"]
    assert not any(folder.iterdir())


class TestHeaderChecks:
    @pytest.mark.parametrize(
        "data",
        [
            single_vector_container(3, 0, 0),
            single_vector_container(3, 2, 6, width=0),
            single_vector_container(3, 2, 6, width=4),
        ],
        ids=["no-symbols", "width-0", "width-not-dividing"],
    )
    @pytest.mark.parametrize("command", ["stats", "decompress"])
    def test_inconsistent_header_is_container_error(self, command, data, tmp_path):
        container = tmp_path / "bad.tcc"
        container.write_bytes(data)
        restored = tmp_path / "restored.txt"
        args = [command, "--input", str(container)]
        if command == "decompress":
            args += ["--output", str(restored)]
        assert run_cli(args) == 4
        assert not restored.exists()


class TestStats:
    def test_reports_overhead(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "c.tcc"
        run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "9c", "-K", "6"]
        )
        capsys.readouterr()
        code = run_cli(["stats", "--input", str(out), "--report", "json"])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["container_bytes"] == len(out.read_bytes())
        assert info["payload_bytes"] == (info["payload_bits"] + 7) // 8
        assert info["header_overhead_bytes"] == (
            info["container_bytes"] - info["payload_bytes"]
        )
        assert info["original_bits"] == 30 * 48
        assert info["pattern_width"] == 48

    def test_table_lists_the_json_fields(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "c.tcc"
        run_cli(
            ["compress", "--input", str(corpus_file), "--output", str(out),
             "--method", "9c", "-K", "6"]
        )
        capsys.readouterr()
        run_cli(["stats", "--input", str(out), "--report", "json"])
        info = json.loads(capsys.readouterr().out)
        assert run_cli(["stats", "--input", str(out)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        # one row per JSON field, in order; the rate with two decimals and a %
        assert [key for key, _ in rows] == list(info)
        table = dict(rows)
        assert table["compression_rate"] == f"{info['compression_rate']:.2f}%"
        assert all(table[key] == str(value) for key, value in info.items()
                   if key != "compression_rate")


class TestCompare:
    def test_rates_match_individual_compress_runs(
        self, corpus_file, tmp_path, capsys
    ):
        code = run_cli(
            ["compare", "--input", str(corpus_file), "-K", "6", "-L", "6",
             "--seed", "9", "--report", "json", *EA_SPEED_FLAGS]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        by_method = {row["method"]: row for row in rows}
        assert set(by_method) == {"9c", "9c-hc", "ea"}
        assert (
            by_method["9c-hc"]["compression_rate"]
            >= by_method["9c"]["compression_rate"]
        )
        ea_row = by_method["ea"]
        assert ea_row["ea_stats"]["best_rate"] >= ea_row["ea_stats"]["mean_rate"]

        for method in ("9c", "9c-hc", "ea"):
            out = tmp_path / f"{method}.tcc"
            run_cli(
                ["compress", "--input", str(corpus_file), "--output", str(out),
                 "--method", method, "-K", "6", "-L", "6", "--seed", "9",
                 "--report", "json", *EA_SPEED_FLAGS]
            )
            single = json.loads(capsys.readouterr().out)
            assert single["compression_rate"] == pytest.approx(
                by_method[method]["compression_rate"]
            )
            assert single["payload_bits"] == by_method[method]["payload_bits"]

    def test_table_output(self, corpus_file, capsys):
        code = run_cli(
            ["compare", "--input", str(corpus_file), "-K", "6", "-L", "4",
             "--seed", "1", *EA_SPEED_FLAGS]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "9c-hc" in text
        assert "ea (mean)" in text
        assert "ea (best)" in text

    def test_method_flag_is_a_usage_error(self, corpus_file):
        # compare always runs all three methods, so it takes no --method
        with pytest.raises(SystemExit) as err:
            run_cli(["compare", "--input", str(corpus_file), "--method", "9c"])
        assert err.value.code == 2


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tercode", "gen-corpus",
             "--output", str(tmp_path / "m.txt"),
             "--patterns", "3", "--width", "6", "--seed", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "m.txt").exists()

    def test_round_trips_leave_numpy_ma_unloaded(self, corpus_file, tmp_path):
        # np.unique imports numpy.ma on first use (about 15 ms and 1.2 MB
        # of peak RSS on a 2-core Xeon, Python 3.11, numpy 2.4); no
        # command of a round trip may need it, nor statistics (3-6 ms with
        # the fractions and decimal modules it loads)
        hc, ea = str(tmp_path / "hc.tcc"), str(tmp_path / "ea.tcc")
        runs = [
            ["compress", "--input", str(corpus_file), "--output", hc,
             "--method", "9c-hc", "-K", "12", "--seed", "3"],
            ["decompress", "--input", hc, "--output", str(tmp_path / "hc.txt")],
            ["compress", "--input", str(corpus_file), "--output", ea,
             "--method", "ea", "-K", "12", "-L", "8", "--subsume", "--fill", "random",
             "--seed", "3", *EA_SPEED_FLAGS],
            ["decompress", "--input", ea, "--output", str(tmp_path / "ea.txt")],
        ]
        script = ("import json, sys\n"
                  "from tercode import cli\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert cli.main(argv) == 0, argv\n"
                  "print(sorted({'numpy.ma', 'statistics'} & set(sys.modules)))\n")
        src = str(Path(tercode.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["compress", "--no-such-flag"])
        assert err.value.code == 2


class TestParserCache:
    """``main`` builds its parser once per process."""

    def test_no_state_carried_between_calls(self, corpus_file, tmp_path, capsys,
                                            monkeypatch):
        # after a call that sets --subsume, --seed, --report and the EA
        # budget, a plain compress writes what a freshly built parser's does
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)

        def compress(name, *flags):
            out = tmp_path / name
            assert run_cli(["compress", "--input", str(corpus_file),
                            "--output", str(out), *flags]) == 0
            report = capsys.readouterr().out.splitlines()
            return out.read_bytes(), [line for line in report
                                      if not line.startswith("duration")]

        compress("first.tcc", "--subsume", "--seed", "5", "--report", "json",
                 *EA_SPEED_FLAGS)
        cached = compress("cached.tcc")
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert compress("fresh.tcc") == cached
        assert cached[1][0] == "method            ea"

    def test_help_follows_columns(self, capsys, monkeypatch):
        # help is formatted when printed, at the width COLUMNS gives then
        cli.build_parser()
        helps = {}
        for columns in (40, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as err:
                cli.main(["compress", "--help"])
            assert err.value.code == 0
            helps[columns] = capsys.readouterr().out
        seed_help = "rng seed (fallback: $TERCODE_SEED, then the config file, then 0)"
        assert seed_help in helps[200] and seed_help not in helps[40]
        assert len(helps[40].splitlines()) > len(helps[200].splitlines())


# sha256 of the JSON of cli_surface(), keys sorted
CLI_SURFACE_SHA256 = "e3b766713d1e0f0730480458567e1790869c142ae60d552bbc370cb943f2fa21"


def cli_surface() -> dict:
    """What a user sees of each subcommand's options, read from the parser's
    actions: ``format_help()`` headings differ between Python 3.10 and 3.11,
    and its wrapping follows COLUMNS."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {
        name: [[a.option_strings, a.metavar or a.dest.upper(), a.default,
                a.type.__name__ if a.type else None,
                list(a.choices) if a.choices else None, a.required, a.help]
               for a in parser._actions]
        for name, parser in commands.items()
    }


def test_cli_surface_is_pinned():
    # option strings, shown metavar, default, type, choices, required and
    # help of every option of the five subcommands
    surface = cli_surface()
    assert sorted(surface) == ["compare", "compress", "decompress", "gen-corpus", "stats"]
    text = json.dumps(surface, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_SURFACE_SHA256, text
