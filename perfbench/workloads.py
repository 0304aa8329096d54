"""The benchmark's workloads: seeded corpora and the CLI commands run on them.

Every corpus uses the acceptance-test cluster profile (30% X, 4 templates
of width 12, flip probability 0.05).  Workload seed ``s`` gives corpus
generator seeds ``9001 + 5*s + i``, so the default seed 0 reproduces the
acceptance corpora 9001-9005.  The stream corpus stacks five segments,
each from its own generator seed: one template set decides much of the
9c-hc rate and speed, and five of them vary less from seed to seed.  The
program only ever sees the files written here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0

# The README budget: 5 runs of S=10, C=5, capped at 600 lookups each.
EA_ARGS = ["--method", "ea", "-K", "12", "-L", "64", "--seed", "7",
           "--stagnation", "30", "--max-evals", "600"]

WORKLOADS = {
    # Fitness is nearly all of compress time; five varied inputs per pass.
    "search": {"corpora": 5, "segments": 1, "patterns": 420, "width": 240,
               "args": EA_ARGS},
    # Same fitness layer, dominated by the subsumption merge.  Compress time
    # varies by up to 1.7x between corpora, so five of them make a pass.
    "subsume": {"corpora": 5, "segments": 1, "patterns": 420, "width": 240,
                "args": EA_ARGS + ["--subsume", "--runs", "1", "--max-evals", "200"]},
    # No search: parse, partition, cover, encode and decode on 5.04 Mbit.
    "stream": {"corpora": 1, "segments": 5, "patterns": 420, "width": 2400,
               "args": ["--method", "9c-hc", "-K", "12", "--seed", "7"]},
}

CLUSTER_PROFILE = {"x_density": 0.3, "templates": 4, "flip_probability": 0.05,
                   "template_width": 12}


def corpus_seeds(workload: str, seed: int) -> list[list[int]]:
    """Generator seeds of each corpus file's segments."""
    spec = WORKLOADS[workload]
    base = 9001 + 5 * seed
    return [[base + j * spec["segments"] + i for i in range(spec["segments"])]
            for j in range(spec["corpora"])]


def prepare(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's corpora and a warm-up corpus into ``workdir``.

    Returns the plan the worker process executes: one operation per
    corpus, with the sha256 of every input file.
    """
    from tercode import core, corpus

    spec = WORKLOADS[workload]

    def write(name: str, patterns: int, width: int, rng_seeds: list[int]) -> tuple[Path, str]:
        data = b"".join(
            core.write_test_set(corpus.generate_corpus(corpus.CorpusSpec(
                patterns=patterns, width=width, rng_seed=rng_seed, **CLUSTER_PROFILE))
            ).encode("ascii")
            for rng_seed in rng_seeds)
        path = workdir / name
        path.write_bytes(data)
        return path, hashlib.sha256(data).hexdigest()

    warmup, _ = write("warmup.txt", 20, 48, [seed])
    ops = []
    for gen_seeds in corpus_seeds(workload, seed):
        name = f"corpus-{gen_seeds[0]}"
        path, digest = write(f"{name}.txt", spec["patterns"], spec["width"], gen_seeds)
        ops.append({
            "name": name,
            "input": str(path),
            "input_sha256": digest,
            "bits": len(gen_seeds) * spec["patterns"] * spec["width"],
            "container": str(workdir / f"{name}.tcc"),
            "restored": str(workdir / f"{name}.out.txt"),
        })
    return {"workload": workload, "args": spec["args"], "warmup": str(warmup), "ops": ops}
