"""Byte-identity pins for the CLI's containers and reports.

A small seeded corpus is compressed by every method at K=12 (one-word
masks) and K=70 (masks spanning two 64-bit words), once with random
fill, and run through ``compare``.  Its rows are runs of 35 equal bits
with flips and X, so the nine half-block vectors match at both block
lengths and the K=70 search (seeded with them) covers blocks with more
than the all-U vector.  The sha256 of each container and of
each ``--report json`` output is pinned, and so are two ``--report table``
outputs, the ``compare`` table and both ``stats`` reports of one
container, so any change to matching, covering, coding, the fill rng's
draw order or the report layout shows up here.  A pin may only change
together with a deliberate format or behaviour change.
"""

import hashlib
import random

import pytest

from tercode import TestSet, cli, write_test_set

EA_TINY = ["-L", "8", "--runs", "2", "--population", "4", "--children", "2",
           "--stagnation", "5", "--max-evals", "30"]

CORPUS_SHA256 = "84997c6f7371b21deae137f26de6642a9e17fdb6cd439689e3c4525c1c9c4356"

# name -> (argv after the input/output flags, container sha256, report sha256)
CASES = {
    "9c-k12": (
        ["--method", "9c", "-K", "12"],
        "8fa442547d58d439dfc0426984a5d475611c452d451fb598b77fcfe8090b5732",
        "bb1d1291f4e6ddff90a32a9125b0b49e7f2681198c1644f95a8d361985c39da3",
    ),
    "9c-hc-k12": (
        ["--method", "9c-hc", "-K", "12"],
        "196d723a8841b19d7da094eaf2378181f7f19c4892f486cce11f4dd4e55b4bcd",
        "d24b86be935f9feb3bca37bd7e35c1e9e5c13018543a3c52dc02f363419e39d6",
    ),
    "ea-k12": (
        ["--method", "ea", "-K", "12", "--seed", "3", *EA_TINY],
        "8a37331bc035258d8c9d76db48c644abf0055be2ee95c61d45f40d6e2db69055",
        "e46bd5f16f9049f619935efce5151fc74ef41406cd858a69b2bc8052f8434cbd",
    ),
    "9c-k70": (
        ["--method", "9c", "-K", "70"],
        "3da29e3de00a1d5cdf794f5f603304315c14d12f50ab34b08853d8b21f52fc96",
        "9f534de3bee68bf087f0044459017eb0fe424ac2d3ed378cf514b7097a1cc461",
    ),
    "9c-hc-k70": (
        ["--method", "9c-hc", "-K", "70"],
        "28571b81ff31a869401c013aeedef9cb544c3a6587b8a3ac68f92828245ae999",
        "fc03c8adb85bbe9bb91684c6e9d590034421b0952e12a604656c35148ed20f8a",
    ),
    "ea-k70": (
        ["--method", "ea", "-K", "70", "--seed", "3", "--seed-9c", *EA_TINY],
        "ab442e02c81412b47056ded051375cdd57d6d96cfd33f8f4df224166abbd3f33",
        "3a6afdf44b17bab283b7a053665f0236ab1e52847978a9d29844c36bb4576bef",
    ),
    "9c-hc-k12-random-fill": (
        ["--method", "9c-hc", "-K", "12", "--fill", "random",
         "--seed", "5"],
        "bdbde115b2460010ec134c24d2287c9625b21a7c8d94034e611e2984a223b777",
        "d24b86be935f9feb3bca37bd7e35c1e9e5c13018543a3c52dc02f363419e39d6",
    ),
}

COMPARE_SHA256 = "b6843f6fa3e574296bdb8dad8c969927ff51234888a6c5da6ac00ce7904f9655"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_corpus() -> TestSet:
    """40 rows of four 35-bit runs; 3% of bits flipped, 30% set to X."""
    rng = random.Random(2024)
    rows = []
    for _ in range(40):
        bits = "".join(rng.choice("01") * 35 for _ in range(4))
        row = []
        for ch in bits:
            if rng.random() < 0.03:
                ch = "1" if ch == "0" else "0"
            row.append("X" if rng.random() < 0.3 else ch)
        rows.append("".join(row))
    return TestSet(tuple(rows))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    ts = _run_corpus()
    path = tmp_path_factory.mktemp("golden") / "corpus.txt"
    path.write_text(write_test_set(ts), encoding="utf-8")
    assert _sha(path.read_bytes()) == CORPUS_SHA256
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_compress_outputs_are_pinned(name, corpus, tmp_path, capsys):
    flags, container_sha, report_sha = CASES[name]
    output = tmp_path / "out.tcc"
    argv = ["compress", "--input", str(corpus), "--output", str(output),
            "--report", "json", *flags]
    assert cli.main(argv) == 0
    report = capsys.readouterr().out
    assert (_sha(output.read_bytes()), _sha(report.encode("utf-8"))) == (
        container_sha, report_sha)


def test_compare_report_is_pinned(corpus, capsys):
    argv = ["compare", "--input", str(corpus), "--report", "json", "-K", "12",
            "--seed", "3", *EA_TINY]
    assert cli.main(argv) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == COMPARE_SHA256



# Table reports, pinned with their duration line removed:
# name -> (argv after the input/output flags, report sha256)
TABLE_CASES = {
    "9c-hc-k12": (
        ["--method", "9c-hc", "-K", "12"],
        "6db761192939b9d26b3b4d21b07b87b94ef4680006bbda36bfc8620a673e91c8",
    ),
    "ea-k12": (
        ["--method", "ea", "-K", "12", "--seed", "3", *EA_TINY],
        "118740ad4f67a74c7d97a4b13a5b2c5162a0042d3634745601114cc7bde7a1b7",
    ),
}

COMPARE_TABLE_SHA256 = "0eeabb6d3fcecf61c0c73a629c4bd84cf2a78156b4fcef86d2f812ad3c4333f3"


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_compress_table_reports_are_pinned(name, corpus, tmp_path, capsys):
    flags, report_sha = TABLE_CASES[name]
    argv = ["compress", "--input", str(corpus), "--output",
            str(tmp_path / "out.tcc"), *flags]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("duration ")]
    assert len(kept) == len(lines) - 1
    assert _sha("".join(kept).encode("utf-8")) == report_sha


def test_compare_table_is_pinned(corpus, capsys):
    argv = ["compare", "--input", str(corpus), "-K", "12", "--seed", "3",
            *EA_TINY]
    assert cli.main(argv) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == COMPARE_TABLE_SHA256


# ``stats`` of the 9c-hc-k12 container: (--report json sha256, table sha256)
STATS_SHA256 = (
    "8a2ca57343a66969ddc9fa04578f0c093f9e93267b16dca480b511a1358459a8",
    "58dc10cec26f9453fbfbb1f5dcd518eb47520ac17a6f33c0a7d9d3b5c10ab3bd",
)


def test_stats_outputs_are_pinned(corpus, tmp_path, capsys):
    container = tmp_path / "out.tcc"
    argv = ["compress", "--input", str(corpus), "--output", str(container),
            *CASES["9c-hc-k12"][0]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    outputs = []
    for report in ("json", "table"):
        assert cli.main(["stats", "--input", str(container), "--report", report]) == 0
        outputs.append(_sha(capsys.readouterr().out.encode("utf-8")))
    assert tuple(outputs) == STATS_SHA256
