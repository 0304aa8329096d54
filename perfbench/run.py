"""Benchmark entry point.

    python3 perfbench/run.py --workload {search,subsume,stream} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Writes the workload's seeded
corpora, checks them against ``pins.json``, times set-up in fresh
processes, runs the workload in one fresh, single-threaded worker
process, checks every output and prints one JSON object as the last line
of standard output: end-to-end metrics with ``--trace 0``, per-layer
metrics from the traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import DEFAULT_SEED, ROOT, SRC, WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
SPANS_DIR = ROOT / ".perfbench-out"
# Extra set-up-only processes; setup_s is the median over these and the worker.
SETUP_PROBES = 8
RUN_DEADLINE_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The run cannot produce a result."""


def machine_facts(numpy_version: str) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy_version}


def load_pins(workload: str, seed: int) -> dict | None:
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed))


def start_worker(plan_path: Path, result_path: Path, deadline: float, *extra) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker could start")
    command = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
               "--result", str(result_path), *extra]
    try:
        done = subprocess.run(command, env={**os.environ, **THREAD_ENV}, timeout=timeout,
                              stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def outputs_changed(outputs: dict[str, list[str]], pinned: dict | None) -> int:
    """Outputs whose digest differs from its pin, or, unpinned, across passes."""
    changed = 0
    for name, digests in outputs.items():
        if pinned is not None:
            changed += digests != [pinned["outputs"].get(name)]
        else:
            changed += len(digests) != 1
    if pinned is not None:
        changed += len(set(pinned["outputs"]) - set(outputs))
    return changed


def kbit_per_s(plan: dict, seconds: dict[str, list[float]]) -> float:
    """kbit of one pass over the corpora per second of its operations.

    Each corpus counts once, at its mean time over the run, so corpora
    that got one more operation before time ran out weigh no more.
    """
    ops = [op for op in plan["ops"] if seconds.get(op["name"])]
    if not ops:
        raise BenchError("no operation succeeded")
    return (sum(op["bits"] for op in ops) / 1000.0
            / sum(statistics.fmean(seconds[op["name"]]) for op in ops))


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Returns (result line, machine facts)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    plan = prepare(workload, seed, workdir)
    pinned = load_pins(workload, seed)
    if pinned is not None:
        for op in plan["ops"]:
            if pinned["inputs"].get(op["name"]) != op["input_sha256"]:
                raise BenchError(f"input {op['name']} differs from its pinned sha256; "
                                 "tercode.corpus changed what is measured")
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    setups = []
    for probe in range(SETUP_PROBES):
        probe_result = start_worker(plan_path, workdir / f"probe-{probe}.json", deadline,
                                    "--setup-only")
        setups.append(probe_result["setup_s"])
    extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        extra += ["--spans", str(SPANS_DIR / f"{workload}-seed{seed}.jsonl")]
    result = start_worker(plan_path, workdir / "result.json", deadline, *extra)
    setups.append(result["setup_s"])

    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    failed = len(result["failures"])
    changed = outputs_changed(result["outputs"], pinned)
    compress = kbit_per_s(plan, result["compress_s"])
    if trace:
        metrics = dict(result["layers"])
        metrics["failed_ops_ratio"] = (failed / result["attempted"], "ratio")
        metrics["outputs_changed"] = (changed, "count")
        metrics["trace.compress_kbit_per_s"] = (compress, "kbit/s")
    else:
        rates = result["rates"].values()
        metrics = {
            "compress_kbit_per_s": (compress, "kbit/s"),
            "decompress_kbit_per_s": (kbit_per_s(plan, result["decompress_s"]), "kbit/s"),
            "payload_pct": (100.0 - statistics.fmean(rates), "%"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(f"checks: passes={result['passes']} speed={result['speed']:.3f} failed_ops_ratio="
          f"{failed / result['attempted']:.4f} outputs_changed={changed} "
          f"pinned={pinned is not None}")
    line = {
        "correct": failed == 0 and changed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return line, machine_facts(result["numpy"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tercode" / "__init__.py").is_file():
        print(f"error: no tercode sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        line, facts = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine: " + json.dumps(facts))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
