"""Bench schema, baseline comparison, and the ``repro bench`` gate."""

import json

import pytest

from repro.__main__ import main
from repro.bench import (
    SCHEMA_VERSION,
    compare_baselines,
    environment_fingerprint,
    read_bench,
    regressions,
    render_comparison,
    write_bench,
)

CAMPAIGN_RECORDS = [
    {"kind": "campaign_bench", "mode": "serial", "trials": 60,
     "trials_per_sec": 25.0},
    {"kind": "campaign_bench", "mode": "checkpointed", "trials": 60,
     "trials_per_sec": 100.0},
    {"kind": "campaign_bench_summary", "checkpoint_speedup": 4.0,
     "profile_overhead": 1.5},
]


def test_write_read_roundtrip(tmp_path):
    path = str(tmp_path / "bench.jsonl")
    write_bench(path, "campaign_throughput", CAMPAIGN_RECORDS,
                seed=2006, trials=60)
    meta, body = read_bench(path)
    assert meta["kind"] == "bench_meta"
    assert meta["schema_version"] == SCHEMA_VERSION
    assert meta["bench"] == "campaign_throughput"
    assert meta["seed"] == 2006
    assert meta["trials"] == 60
    assert set(meta["environment"]) == set(environment_fingerprint())
    assert body == CAMPAIGN_RECORDS


def test_read_legacy_file_without_meta(tmp_path):
    path = tmp_path / "legacy.json"
    path.write_text("".join(json.dumps(r) + "\n"
                            for r in CAMPAIGN_RECORDS))
    meta, body = read_bench(str(path))
    assert meta is None
    assert body == CAMPAIGN_RECORDS


def test_compare_no_regression_when_equal():
    checks = compare_baselines(CAMPAIGN_RECORDS, CAMPAIGN_RECORDS,
                               tolerance=0.0)
    assert checks
    assert regressions(checks) == []


def test_compare_flags_lower_throughput():
    current = json.loads(json.dumps(CAMPAIGN_RECORDS))
    current[1]["trials_per_sec"] = 10.0       # checkpointed: 100 -> 10
    checks = compare_baselines(current, CAMPAIGN_RECORDS, tolerance=0.5)
    failed = regressions(checks)
    assert [c.key for c in failed] == ["checkpointed"]
    assert failed[0].metric == "trials_per_sec"
    assert failed[0].direction == "higher"
    report = render_comparison(checks, 0.5)
    assert "REGRESSED" in report
    assert "1 regression(s)" in report


def test_compare_lower_is_better_direction():
    # profile_overhead growing is a regression; shrinking is not.
    worse = json.loads(json.dumps(CAMPAIGN_RECORDS))
    worse[2]["profile_overhead"] = 4.0
    failed = regressions(compare_baselines(worse, CAMPAIGN_RECORDS,
                                           tolerance=0.5))
    assert [c.metric for c in failed] == ["profile_overhead"]
    better = json.loads(json.dumps(CAMPAIGN_RECORDS))
    better[2]["profile_overhead"] = 1.0
    assert regressions(compare_baselines(better, CAMPAIGN_RECORDS,
                                         tolerance=0.5)) == []


def test_compare_skips_metrics_missing_on_either_side():
    baseline = json.loads(json.dumps(CAMPAIGN_RECORDS))
    del baseline[2]["profile_overhead"]       # baseline predates metric
    checks = compare_baselines(CAMPAIGN_RECORDS, baseline, tolerance=0.0)
    assert all(c.metric != "profile_overhead" for c in checks)
    assert regressions(checks) == []
    # A mode present only in the baseline is skipped entirely.
    checks = compare_baselines(CAMPAIGN_RECORDS[:1] + CAMPAIGN_RECORDS[2:],
                               CAMPAIGN_RECORDS, tolerance=0.0)
    assert all(c.key != "checkpointed" for c in checks)


def test_tolerance_bounds():
    current = json.loads(json.dumps(CAMPAIGN_RECORDS))
    current[1]["trials_per_sec"] = 60.0       # 40% below baseline
    assert regressions(compare_baselines(current, CAMPAIGN_RECORDS,
                                         tolerance=0.5)) == []
    assert regressions(compare_baselines(current, CAMPAIGN_RECORDS,
                                         tolerance=0.3))


def _bench_files(tmp_path):
    baseline = str(tmp_path / "baseline.jsonl")
    write_bench(baseline, "campaign_throughput", CAMPAIGN_RECORDS,
                seed=2006)
    return baseline


def test_cli_gate_passes_on_identical_input(tmp_path):
    baseline = _bench_files(tmp_path)
    current = str(tmp_path / "current.jsonl")
    write_bench(current, "campaign_throughput", CAMPAIGN_RECORDS,
                seed=2006)
    assert main(["bench", "--check", "--input", current,
                 "--baseline", baseline]) == 0


def test_cli_gate_fails_on_regressed_input(tmp_path, capsys):
    baseline = _bench_files(tmp_path)
    regressed_records = json.loads(json.dumps(CAMPAIGN_RECORDS))
    regressed_records[1]["trials_per_sec"] = 1.0
    current = str(tmp_path / "regressed.jsonl")
    write_bench(current, "campaign_throughput", regressed_records,
                seed=2006)
    assert main(["bench", "--check", "--input", current,
                 "--baseline", baseline]) == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "bench gate FAILED" in captured.err


def test_cli_gate_reads_legacy_baseline(tmp_path):
    baseline = tmp_path / "legacy.json"
    baseline.write_text("".join(json.dumps(r) + "\n"
                                for r in CAMPAIGN_RECORDS))
    current = str(tmp_path / "current.jsonl")
    write_bench(current, "campaign_throughput", CAMPAIGN_RECORDS)
    assert main(["bench", "--check", "--input", current,
                 "--baseline", str(baseline)]) == 0


def test_cli_usage_errors(tmp_path):
    current = str(tmp_path / "current.jsonl")
    write_bench(current, "campaign_throughput", CAMPAIGN_RECORDS)
    missing = str(tmp_path / "missing.json")
    assert main(["bench", "--check", "--input", current,
                 "--baseline", missing]) == 2
    assert main(["bench", "--check", "--input",
                 str(tmp_path / "nope.jsonl")]) == 2


def test_cli_writes_versioned_output(tmp_path):
    source = str(tmp_path / "in.jsonl")
    write_bench(source, "campaign_throughput", CAMPAIGN_RECORDS)
    out = str(tmp_path / "out.jsonl")
    assert main(["bench", "--input", source, "--out", out]) == 0
    meta, body = read_bench(out)
    assert meta["schema_version"] == SCHEMA_VERSION
    assert body == CAMPAIGN_RECORDS


def test_committed_baselines_are_versioned_and_self_consistent():
    # The committed baselines gate CI; they must parse under the
    # versioned schema and pass their own gate at zero tolerance.
    for path in ("BENCH_campaign.json", "BENCH_adaptive.json",
                 "BENCH_cache.json"):
        meta, body = read_bench(path)
        assert meta is not None, path
        assert meta["schema_version"] == SCHEMA_VERSION
        checks = compare_baselines(body, body, tolerance=0.0)
        assert checks, path
        assert regressions(checks) == []


@pytest.mark.parametrize("suite", ["campaign", "adaptive", "cache", "all"])
def test_cli_suite_choices_parse(suite):
    from repro.__main__ import build_parser

    args = build_parser().parse_args(["bench", "--suite", suite])
    assert args.suite == suite
