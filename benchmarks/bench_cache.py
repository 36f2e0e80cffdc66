"""Ledger cache: a repeated ``--store`` answered without running.

A fixed-trial ``campaign``/``fig8 --store`` first asks the run ledger
whether the identical campaign is already stored; a hit is answered
from the stored result summary without executing a single trial.  The
bench gate holds that path to its promise: a hit lands on the *same*
content-addressed run id a real run stores, executes zero trials, and
costs a small fraction of running and storing the campaign.

This bench times the same spec two ways -- ``direct`` (empty ledger:
run + store, what a first ``--store`` costs) and ``cached`` (the
identical spec again) -- through :func:`repro.eval.spec.run_stored`.

The measurement itself lives in :func:`repro.bench.benches.
measure_cache_suite`, shared with ``python -m repro bench --suite
cache``; the gated headline is ``cached_speedup`` (higher is better).

Run:  pytest benchmarks/bench_cache.py -s
Exports: BENCH_cache.json (versioned: bench_meta header, one record
per mode, summary).
"""

from conftest import TRIALS

from repro.bench import measure_cache_suite, write_bench

SEED = 2006


def test_cache_hit():
    print()
    records, details = measure_cache_suite(trials=TRIALS, seed=SEED,
                                           verbose=True)

    # The hit is the run a direct store wrote, not a look-alike.
    assert details["cached_run"] == details["direct_run"]

    # A cache hit costs no trials and beats re-running by a wide margin.
    cached = next(r for r in records if r.get("mode") == "cached")
    assert cached["trials_executed"] == 0
    summary = next(r for r in records
                   if r["kind"] == "cache_bench_summary")
    assert summary["cached_speedup"] > 2.0

    write_bench("BENCH_cache.json", "ledger_cache", records,
                seed=SEED, trials=TRIALS)
