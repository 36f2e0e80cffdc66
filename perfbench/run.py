"""Benchmark runner: one workload, timed end to end, outputs checked.

Usage::

    python3 perfbench/run.py --workload paper-cells --seed 0 --seconds 15 --trace 0

Workloads: ``paper-cells``, ``forensics``, ``faultmodels``, ``fig9`` (see
``workloads.py`` and ``README.md``).  A pass runs every cell of the
workload once, each in a fresh child process, one at a time.  Passes
repeat while another one fits in ``--seconds``; a pass is never cut, so
there is always at least one.  Every cell's outputs are compared with
``reference.json``.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs one untraced pass and one traced pass and reports the
per-layer metrics from the traced pass's spans, plus the tracing
overhead.  The spans are written to ``.perfbench/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count cells (Figure-9 grid cells for ``fig9``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from isolate import ROOT, run_cell
from workloads import INPUT_SETS, WORKLOADS, cells, reference_key

REFERENCE = ROOT / "perfbench" / "reference.json"
OUT = ROOT / ".perfbench"

#: Hard ceiling on one run; cells that would start later fail as timed out.
RUN_BUDGET_S = 170.0
CELL_TIMEOUT_S = 120.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("trials_per_s", "1/s"),
              ("sim_instr_per_s", "instr/s"), ("peak_rss_mb", "MB"))

#: Per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("proc.import_s", "s"), ("proc.rss_mb", "MB"),
    ("lang.compile_s", "s"), ("lang.ir_instrs", "count"),
    ("lang.rss_mb", "MB"),
    ("transform.protect_s", "s"), ("transform.regalloc_s", "s"),
    ("transform.protect_instrs", "count"), ("transform.rss_mb", "MB"),
    ("sim.machine.build_s", "s"), ("sim.machine.rss_mb", "MB"),
    ("sim.jit.compile_s", "s"), ("sim.jit.source_bytes", "B"),
    ("sim.jit.bytes_per_instr", "B/instr"), ("sim.jit.rss_mb", "MB"),
    ("faults.golden_s", "s"), ("faults.checkpoints", "count"),
    ("faults.trials_s", "s"), ("faults.trial_ms.p50", "ms"),
    ("faults.trial_ms.p99", "ms"), ("faults.hang_trials", "count"),
    ("faults.hang_s", "s"), ("faults.landed_ratio", "ratio"),
    ("faults.opcode.campaign_s", "s"), ("faults.wildjump.campaign_s", "s"),
    ("faults.rss_mb", "MB"),
    ("sim.taint.trials_s", "s"), ("sim.taint.rss_mb", "MB"),
    ("obs.forensics_s", "s"), ("obs.registry.store_s", "s"),
    ("obs.registry.bytes", "B"), ("obs.rss_mb", "MB"),
    ("sim.timing.run_s", "s"), ("sim.timing.instrs", "count"),
    ("sim.timing.rss_mb", "MB"),
    ("trace.overhead_s", "s"), ("trace.untraced_targets", "count"),
)

#: Span-name prefixes of each layer, most specific first.
LAYERS = ("sim.machine", "sim.jit", "sim.taint", "sim.timing", "lang",
          "transform", "faults", "obs")


# ------------------------------------------------------------ reference
def check_cell(cell: dict, expected: dict | None) -> list[dict]:
    """Verdict per checked unit of one cell: a campaign cell is one unit,
    the fig9 cell one unit per grid cell.  Each verdict says whether the
    unit completed, matched, and how many runs/instructions it verified.
    A cell with no record (``expected`` None) is one unmatched unit."""
    data = cell["data"] if cell["ok"] else None
    if cell["id"] == "fig9" and expected is not None:
        got = data["outputs"] if data else {}
        return [{"id": unit, "done": data is not None,
                 "match": got.get(unit) == expected[unit],
                 "runs": 1, "instructions": expected[unit]["instructions"]}
                for unit in sorted(expected)]
    if data is None:
        return [{"id": cell["id"], "done": False, "match": False,
                 "runs": 0, "instructions": 0}]
    return [{"id": cell["id"], "done": True,
             "match": data["outputs"] == expected,
             "runs": data["runs"], "instructions": data["run_instructions"]}]


# ------------------------------------------------------------ passes
def run_pass(specs: list[dict], records: dict, scratch,
             deadline: float, trace: bool) -> dict:
    start = time.monotonic()
    results = []
    for spec in specs:
        remaining = deadline - time.monotonic()
        if remaining < 1.0:
            now = time.monotonic()
            results.append({"id": spec["id"], "ok": False, "data": None,
                            "reason": "timeout: run budget exhausted",
                            "spawn_t": now, "end_t": now, "maxrss_mb": 0.0})
            continue
        results.append(run_cell(dict(spec, trace=trace), scratch,
                                timeout=min(CELL_TIMEOUT_S, remaining)))
    wall = max(c["end_t"] for c in results) - start
    verdicts, setup, latencies = [], 0.0, []
    for spec, cell in zip(specs, results):
        cell["verdicts"] = check_cell(cell, records.get(reference_key(spec)))
        verdicts.extend(cell["verdicts"])
        data = cell["data"] or {}
        if "setup_s" in data:
            setup += data["setup_s"]
        elif data.get("setup_end") is not None:
            setup += data["setup_end"] - cell["spawn_t"]
            stamps = [data["setup_end"]] + data["trial_stamps"]
            latencies.extend(b - a for a, b in zip(stamps, stamps[1:]))
        else:
            setup += cell["end_t"] - cell["spawn_t"]
    good = [v for v in verdicts if v["done"] and v["match"]]
    return {
        "cells": results, "verdicts": verdicts, "latencies": latencies,
        "metrics": {
            "wall_s": wall,
            "setup_s": setup,
            "trials_per_s": sum(v["runs"] for v in good) / wall,
            "sim_instr_per_s": sum(v["instructions"] for v in good) / wall,
            "peak_rss_mb": max(c["maxrss_mb"] for c in results),
        },
    }


# ------------------------------------------------------------ layers
def _self_costs(spans: list[dict]) -> list[tuple[float, float]]:
    """(self seconds, self peak-RSS rise in MB) per span."""
    child_s = [0.0] * len(spans)
    child_mb = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
            child_mb[span["parent"]] += span["rss_end"] - span["rss_start"]
    return [(s["end"] - s["start"] - cs, s["rss_end"] - s["rss_start"] - cm)
            for s, cs, cm in zip(spans, child_s, child_mb)]


def _layer(name: str) -> str:
    return next(layer for layer in LAYERS if name.startswith(layer + "."))


def _percentile_ms(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100,
                                method="inclusive")[pct - 1] * 1e3


def layer_metrics(untraced: dict, traced: dict) -> dict:
    seconds: dict[str, float] = {}
    count: dict[str, float] = {}
    layer_mb: dict[str, float] = {}
    hang_s = jit_bytes = jit_base = 0.0
    trials = landed = hangs = 0
    untraced_targets = 0
    for cell in traced["cells"]:
        data = cell["data"] or {}
        spans = data.get("spans", [])
        untraced_targets = max(untraced_targets, len(data.get("untraced", [])))
        cell_mb: dict[str, float] = {}
        protect_instrs = cell_jit = 0
        for span, (self_s, self_mb) in zip(spans, _self_costs(spans)):
            name = span["name"]
            seconds[name] = seconds.get(name, 0.0) + self_s
            layer = _layer(name)
            cell_mb[layer] = cell_mb.get(layer, 0.0) + self_mb
            for key in ("instrs", "checkpoints", "source_bytes"):
                if key in span:
                    count[f"{name}.{key}"] = (count.get(f"{name}.{key}", 0)
                                              + span[key])
            if name == "transform.protect":
                protect_instrs += span.get("instrs", 0)
            elif name == "sim.jit.compile":
                cell_jit += span.get("source_bytes", 0)
            elif span.get("hang"):
                hang_s += self_s
        if cell_jit:
            jit_bytes += cell_jit
            jit_base += protect_instrs
        for layer, mb in cell_mb.items():
            layer_mb[layer] = max(layer_mb.get(layer, 0.0), mb)
        count["ledger_bytes"] = (count.get("ledger_bytes", 0)
                                 + data.get("ledger_bytes", 0))
        outputs = data.get("outputs", {})
        if "never_landed" in outputs:  # a register-SEU campaign
            trials += outputs["trials"]
            landed += outputs["trials"] - outputs["never_landed"]
            hangs += outputs["outcomes"].get("Hang", 0)
    cells_done = [c for c in traced["cells"]
                  if "import_done" in (c["data"] or {})]
    s = seconds.get
    metrics = {
        "proc.import_s": sum(c["data"]["import_done"] - c["spawn_t"]
                             for c in cells_done),
        "proc.rss_mb": max([c["data"]["import_rss_mb"] for c in cells_done],
                           default=0.0),
        "lang.compile_s": s("lang.build", 0.0) + s("lang.compile", 0.0),
        "lang.ir_instrs": count.get("lang.compile.instrs", 0),
        "transform.protect_s": s("transform.protect", 0.0),
        "transform.regalloc_s": s("transform.regalloc", 0.0),
        "transform.protect_instrs": count.get("transform.protect.instrs", 0),
        "sim.machine.build_s": s("sim.machine.build", 0.0),
        "sim.jit.compile_s": s("sim.jit.compile", 0.0),
        "sim.jit.source_bytes": count.get("sim.jit.compile.source_bytes", 0),
        "sim.jit.bytes_per_instr": jit_bytes / jit_base if jit_base else 0.0,
        "faults.golden_s": s("faults.golden", 0.0),
        "faults.checkpoints": count.get("faults.golden.checkpoints", 0),
        "faults.trials_s": s("faults.trial", 0.0) + s("faults.campaign", 0.0),
        "faults.trial_ms.p50": _percentile_ms(untraced["latencies"], 50),
        "faults.trial_ms.p99": _percentile_ms(untraced["latencies"], 99),
        "faults.hang_trials": hangs,
        "faults.hang_s": hang_s,
        "faults.landed_ratio": landed / trials if trials else 0.0,
        "faults.opcode.campaign_s": s("faults.opcode.campaign", 0.0),
        "faults.wildjump.campaign_s": s("faults.wildjump.campaign", 0.0),
        "sim.taint.trials_s": s("sim.taint.trial", 0.0),
        "obs.forensics_s": s("obs.forensics", 0.0),
        "obs.registry.store_s": s("obs.registry.store", 0.0),
        "obs.registry.bytes": count.get("ledger_bytes", 0),
        "sim.timing.run_s": s("sim.timing.run", 0.0),
        "sim.timing.instrs": count.get("sim.timing.run.instrs", 0),
        "trace.overhead_s": (traced["metrics"]["wall_s"]
                             - untraced["metrics"]["wall_s"]),
        "trace.untraced_targets": untraced_targets,
    }
    for layer in LAYERS:
        metrics[f"{layer}.rss_mb"] = layer_mb.get(layer, 0.0)
    return metrics


# ------------------------------------------------------------ report
def _print_pass(label: str, result: dict) -> None:
    print(f"{label}:")
    for cell in result["cells"]:
        verdicts = cell["verdicts"]
        matched = sum(v["done"] and v["match"] for v in verdicts)
        state = "ok" if cell["ok"] else f"FAILED ({cell['reason']})"
        print(f"  {cell['id']:22s} {cell['end_t'] - cell['spawn_t']:7.2f}s "
              f"rss {cell['maxrss_mb']:7.1f} MB  {state}; reference "
              f"{matched}/{len(verdicts)} match")
        jit = [s for s in (cell["data"] or {}).get("spans", [])
               if s["name"] == "sim.jit.compile"]
        if jit:
            seconds = sum(s["end"] - s["start"] for s in jit)
            source = sum(s.get("source_bytes", 0) for s in jit)
            rise = sum(s["rss_end"] - s["rss_start"] for s in jit)
            print(f"  {'':22s} sim.jit.compile {seconds:.2f}s, "
                  f"{source / 1e6:.1f} MB source, peak RSS +{rise:.0f} MB")


def _write_trace(workload: str, passes: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    spans = [dict(span, cell=cell["id"])
             for result in passes for cell in result["cells"]
             for span in (cell["data"] or {}).get("spans", [])]
    timings = [{k: cell[k] for k in ("id", "ok", "reason", "spawn_t",
                                     "end_t", "maxrss_mb")}
               for result in passes for cell in result["cells"]]
    (OUT / f"trace-{workload}.json").write_text(
        json.dumps({"workload": workload, "cells": timings, "spans": spans}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    records = json.loads(REFERENCE.read_text())["records"]
    input_set = args.seed % INPUT_SETS
    specs = cells(args.workload, input_set)
    print(f"workload {args.workload}, seed {args.seed} -> input set "
          f"{input_set} of {INPUT_SETS}")
    scratch = OUT / f"tmp-{os.getpid()}"
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    passes: list[dict] = []
    try:
        while True:
            passes.append(run_pass(specs, records, scratch,
                                   deadline, trace=False))
            _print_pass(f"pass {len(passes)}", passes[-1])
            slowest = max(p["metrics"]["wall_s"] for p in passes)
            if (args.trace or time.monotonic() - start + slowest
                    > args.seconds):
                break
        if args.trace:
            traced = run_pass(specs, records, scratch,
                              deadline, trace=True)
            _print_pass("traced pass", traced)
            _write_trace(args.workload, [traced])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    every = passes + ([traced] if args.trace else [])
    verdicts = [v for p in every for v in p["verdicts"]]
    failed = [v for v in verdicts if not (v["done"] and v["match"])]
    correct = all(v["match"] for v in verdicts if v["done"])
    if args.trace:
        values = layer_metrics(passes[0], traced)
        names = PER_LAYER
    else:
        values = {name: statistics.median(p["metrics"][name] for p in passes)
                  for name, _ in END_TO_END}
        names = END_TO_END
    for name, unit in names:
        print(f"  {name:28s} {values[name]:16.6g} {unit}")
    print(f"reference check: {len(verdicts) - len(failed)}/{len(verdicts)} "
          f"verified, fail_rate {len(failed)}/{len(verdicts)}, outputs "
          f"{'match' if correct else 'DIFFER'}")
    print(json.dumps({
        "correct": correct, "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
