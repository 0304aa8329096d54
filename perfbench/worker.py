"""Worker process: time set-up, then run a workload plan until time is up.

run.py starts this in a fresh, single-threaded process, one at a time.
Set-up is the import of tercode plus one warm-up compress/decompress on
a tiny corpus; the operations after it each drive the CLI in-process
through ``tercode.cli.main`` with stdout captured.  One operation
compresses one corpus and then decompresses the container.  A run makes
one whole pass over the corpora, then goes on while the next operation
(a whole pass when traced, so that counts per pass are exact) is
expected to end within ``--seconds``.  Every time is reported in
reference seconds (see SpeedSampler).  The result is written as one JSON
file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import spans
from workloads import SRC

# Decompressing an acceptance corpus takes about 40 ms, so untraced runs
# repeat it until this much time has gone into one container and take the
# batch's mean as one sample.
DECOMPRESS_BATCH_S = 1.0

# The cores of a small shared box switch between a fast state and one
# about 1.5x slower every second or so, and the share of slow time drifts
# by 50% within an hour.  The sampler times PROBE_LOOPS iterations of a
# fixed loop every SAMPLE_S; a region's wall time is scaled by
# REFERENCE_PROBE_S over the mean probe time inside it.
SAMPLE_S = 0.01
PROBE_LOOPS = 2000
REFERENCE_PROBE_S = 1e-4


class SpeedSampler:
    """Samples the core's speed from a SIGALRM timer during the whole run.

    Python runs the handler in the main thread between bytecodes, so the
    probes interleave with the measured commands and cost about 1% of
    their time.
    """

    def __init__(self):
        self.probes: list[float] = []

    def _probe(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        self.probes.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.probes)

    def seconds_since(self, mark: tuple[float, int]) -> float:
        """Reference seconds since ``mark``: wall time at the reference speed."""
        start, first = mark
        wall = time.perf_counter() - start
        probes = self.probes[first:] or self.probes[-1:]
        if not probes:
            raise RuntimeError("timed region ended before the first speed probe")
        return wall * REFERENCE_PROBE_S / statistics.fmean(probes)

    def speed(self) -> float:
        """Mean speed over the run as a share of the reference speed."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probes)


def call_cli(cli, argv, span, sampler):
    """Run one CLI command; returns (exit code or error text, seconds, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        mark = sampler.mark()
        try:
            with span:
                code = cli.main(argv)
        except (Exception, SystemExit):
            code = traceback.format_exc()
        elapsed = sampler.seconds_since(mark)
    return code, elapsed, out.getvalue()


def restored_matches(source: bytes, restored: bytes) -> bool:
    """True iff ``restored`` is fully specified and agrees at every 0/1 of ``source``."""
    import numpy as np

    src = np.frombuffer(source, dtype=np.uint8)
    out = np.frombuffer(restored, dtype=np.uint8)
    if src.shape != out.shape:
        return False
    free = src == ord("X")
    filled = out[free]
    return bool(np.array_equal(src[~free], out[~free])
                and np.all((filled == ord("0")) | (filled == ord("1"))))


class Run:
    """Accumulates samples, failures and output digests of one worker run."""

    def __init__(self, cli, plan, recorder, seconds, sampler):
        self.cli = cli
        self.plan = plan
        self.recorder = recorder
        self.seconds = seconds
        self.sampler = sampler
        self.attempted = 0
        self.failures: list[str] = []
        self.compress_s: dict[str, list[float]] = defaultdict(list)
        self.decompress_s: dict[str, list[float]] = defaultdict(list)
        self.rates: dict[str, float] = {}
        self.outputs: dict[str, set] = defaultdict(set)
        self.sources = {op["name"]: Path(op["input"]).read_bytes() for op in plan["ops"]}

    def span(self, name):
        return self.recorder.span(name) if self.recorder else contextlib.nullcontext()

    def fail(self, op, step, detail):
        self.failures.append(f"{op['name']} {step}: {detail}")

    def compress(self, op) -> bool:
        argv = ["compress", "--input", op["input"], "--output", op["container"],
                "--report", "json", *self.plan["args"]]
        self.attempted += 1
        code, elapsed, report = call_cli(self.cli, argv, self.span("cli.compress"),
                                         self.sampler)
        if code != 0:
            self.fail(op, "compress", code)
            return False
        self.compress_s[op["name"]].append(elapsed)
        self.rates[op["name"]] = json.loads(report)["compression_rate"]
        container = Path(op["container"]).read_bytes()
        self.outputs[op["name"] + ".tcc"].add(hashlib.sha256(container).hexdigest())
        self.outputs[op["name"] + ".json"].add(
            hashlib.sha256(report.encode("utf-8")).hexdigest())
        return True

    def decompress(self, op) -> None:
        argv = ["decompress", "--input", op["container"], "--output", op["restored"]]
        spent, reps = 0.0, 0
        while True:
            self.attempted += 1
            code, elapsed, _ = call_cli(self.cli, argv, self.span("cli.decompress"),
                                        self.sampler)
            if code != 0:
                self.fail(op, "decompress", code)
                return
            if not restored_matches(self.sources[op["name"]],
                                    Path(op["restored"]).read_bytes()):
                self.fail(op, "decompress", "restored grid disagrees with its source")
                return
            spent += elapsed
            reps += 1
            if self.recorder or spent >= DECOMPRESS_BATCH_S:
                self.decompress_s[op["name"]].append(spent / reps)
                return

    def operate(self, op, index: int) -> None:
        if self.recorder:
            self.recorder.op = f"{op['name']}#{index}"
        if self.compress(op):
            self.decompress(op)

    def run(self) -> int:
        """Runs until the time is up; returns the number of whole passes."""
        ops = self.plan["ops"]
        started = time.perf_counter()
        done = 0
        step = len(ops) if self.recorder else 1
        while True:
            for op in ops if done == 0 else ops[done % len(ops):][:step]:
                self.operate(op, done // len(ops))
                done += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / done * step > self.seconds:
                return done // len(ops)


def warm_up(cli, plan) -> None:
    """One small compress/decompress with the workload's own method."""
    warmup = plan["warmup"]
    container = warmup + ".tcc"
    argv = ["compress", "--input", warmup, "--output", container, "--report", "json",
            *plan["args"], "--runs", "1", "--max-evals", "20"]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0 or cli.main(
                ["decompress", "--input", container, "--output", warmup + ".out"]) != 0:
            raise RuntimeError("warm-up command failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="JSONL file for the traced spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))

    sampler = SpeedSampler()
    sampler.start()
    try:
        mark = sampler.mark()
        sys.path.insert(0, str(SRC))
        import numpy
        from tercode import cli

        warm_up(cli, plan)
        result = {"setup_s": sampler.seconds_since(mark)}
        if not args.setup_only:
            result.update(run_plan(cli, plan, args, sampler))
            result["numpy"] = numpy.__version__
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["speed"] = sampler.speed()
    finally:
        sampler.stop()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_plan(cli, plan, args, sampler) -> dict:
    recorder = None
    installed = contextlib.nullcontext()
    if args.trace:
        recorder = spans.Recorder()
        installed = spans.installed(recorder)
    run = Run(cli, plan, recorder, args.seconds, sampler)
    with installed:
        passes = run.run()
    result = {
        "passes": passes,
        "attempted": run.attempted,
        "failures": run.failures,
        "compress_s": run.compress_s,
        "decompress_s": run.decompress_s,
        "rates": run.rates,
        "outputs": {name: sorted(digests) for name, digests in run.outputs.items()},
    }
    if recorder:
        result["layers"] = spans.layer_metrics(recorder, passes)
        if args.spans:
            recorder.write(args.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
