"""``python -m repro bench``: run the bench suite and gate on baselines.

Exit codes: 0 = measured (and, with ``--check``, no regression);
1 = at least one gated metric regressed; 2 = usage error (missing
baseline, unreadable input).

Typical uses::

    repro bench                         # measure, print, no gate
    repro bench --check                 # measure, compare vs committed
                                        # BENCH_campaign.json, exit 1 on
                                        # regression
    repro bench --check --input f.jsonl # gate a pre-measured file
                                        # (no timing runs -- deterministic,
                                        # used by tests and CI replays)
    repro bench --out /tmp/bench.jsonl  # also write the versioned file
"""

from __future__ import annotations

import os
import sys

from .benches import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    measure_adaptive_suite,
    measure_cache_suite,
    measure_campaign_suite,
)
from .compare import (
    DEFAULT_TOLERANCE,
    compare_baselines,
    regressions,
    render_comparison,
)
from .schema import read_bench, write_bench

#: Default committed baseline per suite.
SUITE_BASELINES = {
    "campaign": ("BENCH_campaign.json",),
    "adaptive": ("BENCH_adaptive.json",),
    "cache": ("BENCH_cache.json",),
    "all": ("BENCH_campaign.json", "BENCH_adaptive.json",
            "BENCH_cache.json"),
}


def run_bench(args) -> int:
    """Entry point for the ``bench`` subcommand (argparse namespace)."""
    suite = args.suite
    if args.input:
        try:
            meta, current = read_bench(args.input)
        except (OSError, ValueError) as error:
            print(f"error: cannot read {args.input}: {error}",
                  file=sys.stderr)
            return 2
        origin = args.input
        if meta is not None:
            print(f"input: {args.input} (bench {meta.get('bench', '?')}, "
                  f"schema v{meta.get('schema_version', '?')})")
        else:
            print(f"input: {args.input} (legacy file, no bench_meta)")
    else:
        current = []
        print(f"measuring suite '{suite}' "
              f"(trials={args.trials}, seed={args.seed})")
        if suite in ("campaign", "all"):
            records, _results = measure_campaign_suite(
                trials=args.trials, seed=args.seed,
                jobs=args.jobs or None, verbose=True)
            current.extend(records)
        if suite in ("adaptive", "all"):
            records, _details = measure_adaptive_suite(
                seed=args.seed, verbose=True)
            current.extend(records)
        if suite in ("cache", "all"):
            records, _details = measure_cache_suite(
                trials=args.trials, seed=args.seed, verbose=True)
            current.extend(records)
        origin = "(measured)"
    if args.out:
        write_bench(args.out, f"bench/{suite}", current, seed=args.seed)
        print(f"wrote {len(current) + 1} records to {args.out}")
    if not args.check:
        return 0

    baseline_paths = ([args.baseline] if args.baseline
                      else list(SUITE_BASELINES[suite]))
    baseline_records: list[dict] = []
    for path in baseline_paths:
        if not os.path.exists(path):
            print(f"error: baseline {path} not found "
                  "(run the benchmarks/ suite to regenerate it)",
                  file=sys.stderr)
            return 2
        _meta, records = read_bench(path)
        baseline_records.extend(records)
    checks = compare_baselines(current, baseline_records,
                               tolerance=args.tolerance)
    print()
    print(render_comparison(checks, args.tolerance))
    failed = regressions(checks)
    if failed:
        print(f"\nbench gate FAILED: {len(failed)} metric(s) regressed "
              f"vs {', '.join(baseline_paths)} (current: {origin})",
              file=sys.stderr)
        return 1
    return 0


def add_bench_arguments(parser) -> None:
    """Attach the bench subcommand's flags to an argparse parser."""
    parser.add_argument("--suite", default="campaign",
                        choices=sorted(SUITE_BASELINES),
                        help="which bench suite to run (default: campaign;"
                             " 'adaptive' and 'all' take minutes)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline and "
                             "exit 1 on regression")
    parser.add_argument("--baseline", default="",
                        help="baseline bench file (default: the suite's "
                             "committed BENCH_*.json)")
    parser.add_argument("--input", default="",
                        help="gate this pre-measured bench file instead "
                             "of running measurements")
    parser.add_argument("--out", default="",
                        help="write the measured records as a versioned "
                             "bench file")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help=f"trials per campaign mode (default "
                             f"{DEFAULT_TRIALS}, matching the committed "
                             "baselines)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel mode "
                             "(0 = bench default)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="fractional noise tolerance before a worse "
                             "metric counts as a regression "
                             f"(default {DEFAULT_TOLERANCE})")
