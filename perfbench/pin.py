"""Record the sha256 of every input and output for a range of seeds.

    python3 perfbench/pin.py --seeds 0-19 [--workload NAME ...]

Runs one untraced pass of each workload per seed and adds its digests to
pins.json.  A run at a pinned seed aborts when an input differs from its
pin and counts every differing container or JSON report in
outputs_changed.  This script only adds pins: it stops with an error when
a digest disagrees with one already pinned.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from report import seed_range
from run import PINS, RUN_DEADLINE_S, start_worker
from workloads import ROOT, SRC, WORKLOADS, prepare


def pin_one(workload: str, seed: int) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        plan = prepare(workload, seed, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        result = start_worker(plan_path, workdir / "result.json",
                              time.monotonic() + RUN_DEADLINE_S, "--seconds", "0")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result["failures"]:
        sys.exit(f"{workload} seed {seed}: {result['failures']}")
    return {"inputs": {op["name"]: op["input_sha256"] for op in plan["ops"]},
            "outputs": {name: digests[0] for name, digests in result["outputs"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    for workload in args.workload or sorted(WORKLOADS):
        for seed in seed_range(args.seeds):
            digests = pin_one(workload, seed)
            old = pins.setdefault(workload, {}).setdefault(str(seed), digests)
            if old != digests:
                sys.exit(f"{workload} seed {seed} disagrees with its pins; not changed")
            print(f"pinned {workload} seed {seed}", flush=True)
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
