"""Command-line front end: compress, decompress, stats, compare, gen-corpus.

Exit codes: 0 success, 2 usage/configuration error, 3 input format or
file error, 4 container error.  The seed is --seed, else the TERCODE_SEED
environment variable, else (compress and compare) the config file's
rng_seed, else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

from . import codec, container, core, corpus, ea, pipeline
from .errors import ContainerError, InvalidConfig, ParseError, TercodeError

SEED_ENV_VAR = "TERCODE_SEED"
_WRITE_CHUNK = 1 << 18  # characters of whole rows that decompress joins per write

# the exit code of the first entry an error is an instance of; any other
# TercodeError or OSError (a missing file, a directory) exits 3
_EXIT_CODES = ((InvalidConfig, 2), (ContainerError, 4))


def _mv_usage(result: pipeline.CompressResult) -> list[dict]:
    return [
        {
            "mv": result.mvs[index],
            "frequency": freq,
            "codeword_length": len(result.codebook[index]),
        }
        for index, freq in enumerate(result.frequencies)
        if freq
    ]


def _ea_stats(report: ea.EvolutionReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "run_rates": report.run_rates,
        "mean_rate": report.mean_rate,
        "best_rate": report.best_rate,
        "generations": report.generations,
        "evaluations": report.evaluations,
        "per_run": [dataclasses.asdict(r) for r in report.per_run],
    }


def _run_report(
    method: str,
    result: pipeline.CompressResult,
    container_bytes: int | None = None,
) -> dict:
    """Describe one compress run as its JSON report.

    The report holds no duration, so that fixed seeds yield byte-identical
    reports; only the table shows one.
    """
    return {
        "method": method,
        "k": result.stream.k,
        "l": len(result.mvs),
        "original_bits": result.stream.original_length,
        "payload_bits": result.stream.payload_bits,
        "compression_rate": result.rate,
        "mv_usage": _mv_usage(result),
        "ea_stats": _ea_stats(result.evolution),
        "container_bytes": container_bytes,
    }


def _print_table(report: dict, duration: float) -> None:
    print(f"method            {report['method']}")
    print(f"block length K    {report['k']}")
    print(f"vector count L    {report['l']}")
    print(f"original bits     {report['original_bits']}")
    print(f"payload bits      {report['payload_bits']}")
    print(f"compression rate  {report['compression_rate']:.2f}%")
    if report["container_bytes"] is not None:
        print(f"container bytes   {report['container_bytes']}")
    print(f"duration          {duration:.3f}s")
    ea_stats = report["ea_stats"]
    if ea_stats:
        rates = ", ".join(f"{r:.2f}" for r in ea_stats["run_rates"])
        print(f"ea runs           [{rates}]")
        print(f"ea mean rate      {ea_stats['mean_rate']:.2f}%")
        print(f"ea best rate      {ea_stats['best_rate']:.2f}%")
        print(f"ea generations    {ea_stats['generations']}")
        print(f"ea evaluations    {ea_stats['evaluations']}")
    if report["mv_usage"]:
        print("used vectors (mv, frequency, codeword length):")
        for row in report["mv_usage"]:
            print(f"  {row['mv']}  {row['frequency']}  {row['codeword_length']}")


def _resolve_seed(seed: int | None, default: int | None = 0) -> int | None:
    """``seed`` (the --seed flag), else TERCODE_SEED, else ``default``."""
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise InvalidConfig(f"{SEED_ENV_VAR} must be an integer, got {env!r}")


def _ea_config(args) -> ea.EaConfig:
    """Explicit flags override the config file; flags left at their None
    default fall back to the file and then to the built-in defaults.  Each
    EA flag stores into the ``EaConfig`` field it names; TERCODE_SEED
    stands in for an absent --seed.  The config is built once, so the
    default evaluation budget follows the final population and children
    counts."""
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(ea.EaConfig)}
    flags["rng_seed"] = _resolve_seed(args.rng_seed, default=None)
    values = {key: val for key, val in flags.items() if val is not None}
    if args.config:
        return ea.EaConfig.from_file(args.config, **values)
    return ea.EaConfig(**values)


def _load_test_set(path: str) -> core.TestSet:
    try:
        with open(path, encoding="utf-8") as handle:
            return core.parse_test_set(handle)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def cmd_compress(args) -> int:
    started = time.perf_counter()
    ts = _load_test_set(args.input)
    result = pipeline.compress(ts, args.method, _ea_config(args), args.fill)
    data = container.write_container(result.stream)
    with open(args.output, "wb") as handle:
        handle.write(data)
    report = _run_report(args.method, result, len(data))
    if args.report == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_table(report, time.perf_counter() - started)
    return 0


def cmd_decompress(args) -> int:
    if args.max_symbols < 1:
        raise InvalidConfig(f"--max-symbols must be at least 1, got {args.max_symbols}")
    with open(args.input, "rb") as handle:
        stream = container.read_container(handle.read())
    width = args.width if args.width is not None else stream.pattern_width
    if width is None:
        raise InvalidConfig(
            "pattern width unknown: pass --width (container has no width record)"
        )
    if width < 1 or stream.original_length % width:
        raise ParseError(
            f"width {width} does not divide the decoded length "
            f"{stream.original_length}"
        )
    bits = codec.decode(stream, args.max_symbols)
    # a chunk at a time: the file's whole text and its encoding are two more copies
    chunk = max(1, _WRITE_CHUNK // (width + 1)) * width
    with open(args.output, "w", encoding="utf-8") as handle:
        for i in range(0, len(bits), chunk):
            rows = range(i, min(i + chunk, len(bits)), width)
            handle.write("\n".join([bits[j : j + width] for j in rows]) + "\n")
    print(f"wrote {len(bits) // width} patterns of width {width} to {args.output}")
    return 0


def cmd_stats(args) -> int:
    with open(args.input, "rb") as handle:
        data = handle.read()
    stream = container.read_container(data)
    payload_bytes = (stream.payload_bits + 7) // 8
    info = {
        "container_bytes": len(data),
        "payload_bits": stream.payload_bits,
        "payload_bytes": payload_bytes,
        "header_overhead_bytes": len(data) - payload_bytes,
        "k": stream.k,
        "effective_vectors": len(stream.mv_table),
        "block_count": stream.block_count,
        "original_bits": stream.original_length,
        "compression_rate": codec.compression_rate(
            stream.original_length, stream.payload_bits
        ),
        "pattern_width": stream.pattern_width,
    }
    if args.report == "json":
        print(json.dumps(info, indent=2))
    else:
        for key, value in info.items():
            if key == "compression_rate":
                print(f"{key:22} {value:.2f}%")
            else:
                print(f"{key:22} {value}")
    return 0


def cmd_compare(args) -> int:
    ts = _load_test_set(args.input)
    cfg = _ea_config(args)
    reports = [
        _run_report(method, pipeline.compress(ts, method, cfg, args.fill))
        for method in ("9c", "9c-hc", "ea")
    ]
    if args.report == "json":
        print(json.dumps(reports, indent=2))
        return 0
    ea_stats = reports[2]["ea_stats"]
    print(
        f"original bits {reports[0]['original_bits']}   "
        f"K={cfg.k}  L={cfg.l}  seed={cfg.rng_seed}"
    )
    print(f"{'method':10} {'payload':>10} {'rate':>8}")
    for r in reports[:2]:
        print(f"{r['method']:10} {r['payload_bits']:>10} {r['compression_rate']:7.2f}%")
    print(f"{'ea (mean)':10} {'-':>10} {ea_stats['mean_rate']:7.2f}%")
    print(
        f"{'ea (best)':10} {reports[2]['payload_bits']:>10} "
        f"{ea_stats['best_rate']:7.2f}%"
    )
    return 0


def cmd_gen_corpus(args) -> int:
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(corpus.CorpusSpec)}
    values["rng_seed"] = _resolve_seed(args.rng_seed)
    ts = corpus.generate_corpus(corpus.CorpusSpec(**values))
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(core.write_test_set(ts))
    print(
        f"wrote {ts.pattern_count} patterns of width {ts.width} "
        f"({core.original_size_bits(ts)} bits) to {args.output}"
    )
    return 0


def _add_ea_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-K", dest="k", type=int, default=None,
                        help="input block length (default 12)")
    parser.add_argument("-L", dest="l", type=int, default=None,
                        help="number of vectors for ea (default 64)")
    parser.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int, default=None,
                        help=f"rng seed (fallback: ${SEED_ENV_VAR}, then the config "
                             "file, then 0)")
    parser.add_argument("--fill", choices=codec.FILL_CHOICES, default="zero",
                        help="value taken by X at transmitted fill positions")
    parser.add_argument("--report", choices=("table", "json"), default="table")
    parser.add_argument("--runs", type=int, default=None, help="EA repetitions (default 5)")
    parser.add_argument("--population", dest="population_size", metavar="POPULATION",
                        type=int, default=None, help="population size S")
    parser.add_argument("--children", dest="children_per_generation", metavar="CHILDREN",
                        type=int, default=None, help="children per generation C")
    parser.add_argument("--p-crossover", type=float, default=None)
    parser.add_argument("--p-mutation", type=float, default=None)
    parser.add_argument("--p-inversion", type=float, default=None)
    parser.add_argument("--stagnation", dest="stagnation_limit", metavar="STAGNATION",
                        type=int, default=None,
                        help="stop after this many generations without improvement")
    parser.add_argument("--max-evals", dest="max_evaluations", metavar="MAX_EVALS",
                        type=int, default=None, help="cap on fitness evaluations per run")
    parser.add_argument("--reserve-all-u", action=argparse.BooleanOptionalAction,
                        default=None, help="pin the last vector to all U")
    parser.add_argument("--subsume", action="store_true", default=None,
                        help="fold subsumed vectors when it shrinks the payload")
    parser.add_argument("--uniform-crossover", action="store_true", default=None)
    parser.add_argument("--seed-9c", dest="seed_nine_code", action="store_true",
                        default=None,
                        help="inject the nine fixed vectors into the initial population")
    parser.add_argument("--config", default=None, help="key=value config file")


@functools.cache  # help text is formatted when printed, so it still follows COLUMNS
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tercode",
        description="Block-code compression for ternary test sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a test-set file into a container")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--method", choices=pipeline.METHODS, default="ea")
    _add_ea_flags(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="restore the fully specified test set")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--width", type=int, default=None,
                   help="pattern width (defaults to the container's record)")
    p.add_argument("--max-symbols", type=int, default=codec.MAX_DECODE_SYMBOLS,
                   help="refuse containers that decode to more symbols "
                        f"(default {codec.MAX_DECODE_SYMBOLS})")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("stats", help="show size and table facts of a container")
    p.add_argument("--input", required=True)
    p.add_argument("--report", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("compare", help="run 9c, 9c-hc and ea side by side")
    p.add_argument("--input", required=True)
    _add_ea_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-corpus", help="generate a clustered synthetic test set")
    p.add_argument("--output", required=True)
    p.add_argument("--patterns", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--x-density", type=float, default=0.0)
    p.add_argument("--templates", type=int, default=4)
    p.add_argument("--flip-prob", dest="flip_probability", metavar="FLIP_PROB",
                   type=float, default=0.0)
    p.add_argument("--template-width", type=int, default=12)
    p.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int, default=None)
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TercodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), 3)


if __name__ == "__main__":
    sys.exit(main())
