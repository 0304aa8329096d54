"""Run the benchmark's workloads and print every metric with its unit.

    python3 perfbench/report.py [--workload NAME ...] [--seeds 0-9] \
        [--seconds N] [--no-trace] [--out FILE]

For each workload: one untraced run per seed (end-to-end metrics), then
one traced run at the first seed (per-layer metrics).  With several
seeds it prints each end-to-end metric's median and the distance
between its first and third quartile as a share of the median: the
spread that BENCHMARK.json's bounds must cover three times over.  The
tracing overhead is the traced compress_kbit_per_s against the untraced
median.  Runs are made one at a time; a run that fails stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One run.py invocation: (result line, machine facts, wall seconds)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=180,
                          cwd=HERE.parent)
    wall = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    facts = json.loads(lines[-2].removeprefix("machine: "))
    return json.loads(lines[-1]), facts, wall


def summarize(series: list[float]) -> dict:
    median = statistics.median(series)
    summary = {"median": median, "runs": len(series)}
    if len(series) >= 2 and median:
        q1, _, q3 = statistics.quantiles(series, n=4)
        summary["spread"] = (q3 - q1) / abs(median)
    return summary


def report_workload(workload: str, seeds: list[int], seconds: int, trace: bool) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in seeds:
        line, facts, wall = run_once(workload, seed, seconds, 0)
        runs.append({"seed": seed, "wall_s": wall, **line})
        print(f"  {workload} seed {seed}: correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']} wall={wall:.1f}s",
              flush=True)
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {"machine": facts, "runs": runs,
           "end_to_end": {name: {"unit": units[name], **summarize(series)}
                          for name, series in values.items()}}
    if trace:
        line, _, wall = run_once(workload, seeds[0], seconds, 1)
        out["traced"] = {"seed": seeds[0], "wall_s": wall, **line}
        traced = line["metrics"]["trace.compress_kbit_per_s"]["value"]
        untraced = out["end_to_end"]["compress_kbit_per_s"]["median"]
        out["trace_overhead_pct"] = 100.0 * (untraced - traced) / untraced
    return out


def print_workload(workload: str, result: dict) -> None:
    print(f"== {workload}")
    for name, metric in result["end_to_end"].items():
        spread = f"  spread {metric['spread']:.4f}" if "spread" in metric else ""
        print(f"  {name:28} {metric['median']:14.6g} {metric['unit']:7}"
              f" median of {metric['runs']}{spread}")
    failed = sum(run["failed"] for run in result["runs"])
    attempted = sum(run["attempted"] for run in result["runs"])
    print(f"  {'failed_ops_ratio (untraced)':28} {failed / attempted:14.6g} ratio")
    if "traced" in result:
        for name, metric in result["traced"]["metrics"].items():
            print(f"  {name:28} {metric['value']:14.6g} {metric['unit']}")
        print(f"  {'trace_overhead_pct':28} {result['trace_overhead_pct']:14.6g} %")


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="0", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", help="also write the results as JSON")
    args = parser.parse_args(argv)
    results = {}
    for workload in args.workload or names:
        results[workload] = report_workload(workload, seed_range(args.seeds), args.seconds,
                                            not args.no_trace)
    for workload, result in results.items():
        print_workload(workload, result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
