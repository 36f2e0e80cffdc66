"""Baseline comparison: which bench metrics regressed, by how much.

The gate is deliberately simple and explicit: a table of *gated
metrics* keyed by record kind (and a discriminator field where one
kind holds several rows, e.g. ``campaign_bench``'s ``mode``).  Each
metric has a direction -- ``higher`` is better for throughput,
``lower`` for trial budgets -- and regresses when the new value falls
outside ``tolerance`` of the baseline in the bad direction.

Timing benches are noisy (CI machines, laptops on battery), so the
default tolerance is loose: the gate exists to catch step-function
regressions (an accidental O(n^2), a hook left enabled on the hot
path), not 5% jitter.  Metrics present in only one of the two files
are skipped: baselines predating a new datapoint stay green until
they are regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default fractional tolerance before a worse value counts as a
#: regression (0.5 = new value may be up to 50% worse than baseline).
DEFAULT_TOLERANCE = 0.5

#: (kind, discriminator field or None) -> tuple of (metric, direction).
GATED_METRICS: dict[tuple[str, str | None], tuple[tuple[str, str], ...]] = {
    ("campaign_bench", "mode"): (("trials_per_sec", "higher"),),
    ("campaign_bench_summary", None): (
        ("checkpoint_speedup", "higher"),
        ("parallel_speedup", "higher"),
        ("taint_off_ratio", "higher"),
        ("profile_overhead", "lower"),
        ("atlas_overhead", "lower"),
        # The block JIT's headline numbers: absolute jit-on throughput
        # plus its speedups over both interpreter baselines, so a future
        # PR cannot silently regress the compiler.
        ("jit_trials_per_sec", "higher"),
        ("jit_serial_speedup", "higher"),
        ("jit_speedup", "higher"),
    ),
    ("adaptive_bench", "technique"): (("adaptive_trials", "lower"),),
    # A repeated `--store` answered from the ledger must stay orders
    # of magnitude cheaper than running and storing the campaign.
    ("cache_bench_summary", None): (("cached_speedup", "higher"),),
    ("adaptive_bench_summary", None): (
        ("trials_saved_percent", "higher"),
    ),
}


@dataclass(frozen=True)
class MetricCheck:
    """One gated metric compared between baseline and current."""

    kind: str
    key: str           # discriminator value ("" for singleton kinds)
    metric: str
    direction: str     # "higher" or "lower" is better
    baseline: float
    current: float
    regressed: bool

    @property
    def label(self) -> str:
        return (f"{self.kind}[{self.key}].{self.metric}" if self.key
                else f"{self.kind}.{self.metric}")

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return 1.0
        return self.current / self.baseline


def _index(records: list[dict]) -> dict[tuple[str, str], dict]:
    indexed: dict[tuple[str, str], dict] = {}
    for record in records:
        kind = record.get("kind")
        for (gated_kind, field), _metrics in GATED_METRICS.items():
            if kind != gated_kind:
                continue
            key = str(record.get(field, "")) if field else ""
            indexed[(kind, key)] = record
    return indexed


def is_regression(baseline: float, current: float, direction: str,
                  tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """The gate rule, shared with ``obs history``: a higher-is-better
    metric regresses when it falls more than ``tolerance`` below the
    baseline, a lower-is-better one when it rises more than
    ``tolerance`` above it."""
    if direction == "higher":
        return current < baseline * (1.0 - tolerance)
    return current > baseline * (1.0 + tolerance)


def compare_baselines(current: list[dict], baseline: list[dict],
                      tolerance: float = DEFAULT_TOLERANCE
                      ) -> list[MetricCheck]:
    """Compare every gated metric present in both record sets."""
    current_index = _index(current)
    baseline_index = _index(baseline)
    checks: list[MetricCheck] = []
    for (kind, field), metrics in GATED_METRICS.items():
        keys = sorted(
            key for gated_kind, key in baseline_index
            if gated_kind == kind and (kind, key) in current_index)
        for key in keys:
            base_record = baseline_index[(kind, key)]
            new_record = current_index[(kind, key)]
            for metric, direction in metrics:
                base = base_record.get(metric)
                new = new_record.get(metric)
                if not isinstance(base, (int, float)) or \
                        not isinstance(new, (int, float)):
                    continue
                regressed = is_regression(float(base), float(new),
                                          direction, tolerance)
                checks.append(MetricCheck(
                    kind=kind, key=key, metric=metric,
                    direction=direction, baseline=float(base),
                    current=float(new), regressed=regressed))
    return checks


def regressions(checks: list[MetricCheck]) -> list[MetricCheck]:
    return [check for check in checks if check.regressed]


def render_comparison(checks: list[MetricCheck],
                      tolerance: float) -> str:
    """The gate's verdict as a table, regressions first."""
    from ..eval.report import render_table

    if not checks:
        return ("no comparable metrics between current run and baseline "
                "(different bench suites?)")
    ordered = sorted(checks, key=lambda c: (not c.regressed, c.label))
    rows = [
        [check.label,
         check.direction,
         f"{check.baseline:10.2f}",
         f"{check.current:10.2f}",
         f"{check.ratio:5.2f}x",
         "REGRESSED" if check.regressed else "ok"]
        for check in ordered
    ]
    failed = len(regressions(checks))
    verdict = (f"{failed} regression(s)" if failed
               else "no regressions")
    return render_table(
        ["metric", "better", "baseline", "current", "ratio", ""],
        rows,
        title=f"Bench gate: {verdict} at tolerance "
              f"{100 * tolerance:.0f}% ({len(checks)} metrics compared)",
    )
