"""Span recorder for the traced run, and the wrappers that feed it.

The wrappers patch module attributes of tercode from the benchmark's side,
so the program carries no instrumentation of its own.  Each span holds
(name, start, end, parent span, operation); spans stay in memory until
the run ends.  A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  ea and codec each hold their own
# reference to the matching and merge functions, so both are patched.
# Only ea's payload_bits_for is timed: codec's copy runs inside the merge.
PATCHES = [
    ("core", "parse_test_set", "core.parse"),
    ("core", "flatten", "core.partition"),
    ("core", "partition", "core.partition"),
    ("codec", "cover", "codec.cover"),
    ("codec", "match_frequencies", "codec.match"),
    ("ea", "match_frequencies", "codec.match"),
    ("ea", "payload_bits_for", "codec.payload_bits"),
    ("ea", "merge_subsumed_frequencies", "codec.merge_subsumed"),
    ("codec", "merge_subsumed_frequencies", "codec.merge_subsumed"),
    ("codec", "subsume_merge", "codec.subsume_merge"),
    ("codec", "encode_all", "codec.encode"),
    ("codec", "decode", "codec.decode"),
    ("container", "write_container", "container.write"),
    ("container", "read_container", "container.read"),
    ("ea", "evaluate_fitness", "ea.fitness"),
    ("ea", "run_many", "ea.search"),
]


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        def timed(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(result)
            return result

        return timed

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (span count, inclusive seconds, self seconds)."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child_time[index]
        return {name: (calls[name], inclusive[name], own[name]) for name in calls}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


@contextmanager
def installed(recorder: Recorder):
    """Patch tercode's layer functions to record spans; undo on exit.

    BlockStats is timed through a subclass, because codec.as_block_stats
    checks isinstance against whatever codec.BlockStats names.
    """
    import tercode

    counts = recorder.counts

    def after(name):
        if name == "container.write":
            return lambda data: counts.update({"container.bytes": len(data)})
        if name == "ea.search":
            return lambda report: counts.update({
                "ea.fitness_lookups": report.evaluations,
                "ea.generations": report.generations,
            })
        return None

    base = tercode.codec.BlockStats

    class TimedBlockStats(base):
        def __init__(self, blocks):
            with recorder.span("codec.block_stats"):
                super().__init__(blocks)
            counts.update({"codec.blocks": self.total,
                           "codec.unique_blocks": self.n_unique})

    saved = [(tercode.codec, "BlockStats", base)]
    tercode.codec.BlockStats = TimedBlockStats
    try:
        for module_name, attr, name in PATCHES:
            module = getattr(tercode, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(original, name, after(name)))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(recorder: Recorder, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per pass over the workload's operations."""
    totals = recorder.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] // passes

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / passes

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / passes

    def count(name):
        return recorder.counts[name] // passes

    lookups = count("ea.fitness_lookups")
    computed = calls("ea.fitness")
    match_calls = calls("codec.match")
    return {
        "core.parse_s": (inclusive("core.parse"), "s"),
        "core.partition_s": (inclusive("core.partition"), "s"),
        "codec.block_stats_s": (inclusive("codec.block_stats"), "s"),
        "codec.cover_s": (own("codec.cover"), "s"),
        "codec.encode_s": (inclusive("codec.encode"), "s"),
        "codec.unique_blocks": (count("codec.unique_blocks"), "count"),
        "codec.blocks": (count("codec.blocks"), "count"),
        "codec.decode_s": (inclusive("codec.decode"), "s"),
        "container.read_s": (inclusive("container.read"), "s"),
        "cli.decompress_self_s": (own("cli.decompress"), "s"),
        "codec.match_s": (inclusive("codec.match"), "s"),
        "codec.match_calls": (match_calls, "count"),
        "codec.match_ms_per_call": (
            1000.0 * inclusive("codec.match") / match_calls if match_calls else 0.0, "ms"),
        "codec.payload_bits_s": (inclusive("codec.payload_bits"), "s"),
        "codec.merge_subsumed_s": (inclusive("codec.merge_subsumed"), "s"),
        "codec.merge_subsumed_calls": (calls("codec.merge_subsumed"), "count"),
        "codec.subsume_merge_s": (inclusive("codec.subsume_merge"), "s"),
        "ea.search_s": (inclusive("ea.search"), "s"),
        "ea.fitness_self_s": (own("ea.fitness"), "s"),
        "ea.operator_self_s": (own("ea.search"), "s"),
        "ea.fitness_lookups": (lookups, "count"),
        "ea.fitness_computed": (computed, "count"),
        "ea.cache_hit_ratio": (1.0 - computed / lookups if lookups else 0.0, "ratio"),
        "ea.generations": (count("ea.generations"), "count"),
        "container.write_s": (inclusive("container.write"), "s"),
        "container.bytes": (count("container.bytes"), "count"),
        "cli.compress_self_s": (own("cli.compress"), "s"),
    }
