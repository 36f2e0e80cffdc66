"""Child-process entry: run one cell and write its result as JSON.

Usage (from ``isolate.run_cell``)::

    python3 perfbench/cell.py SPEC.json OUT.json

The spec names the cell kind and, with ``"reference": true``, asks for
the reference outputs instead of a measured run.  Everything goes through
public names of the ``repro`` package, so refactors that keep that API do
not break the benchmark.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import repro
import repro.eval
import repro.faults
import repro.obs
import repro.sim.timing
import repro.transform
import repro.workloads

# proc.import_s runs from the parent's spawn to here.
IMPORT_DONE = time.monotonic()
IMPORT_RSS_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TrialClock:
    """The minimal ``run_campaign`` monitor: ``begin`` runs after the
    golden run and checkpoints, ``trial_done`` after every trial."""

    def __init__(self) -> None:
        self.begun: float | None = None
        self.stamps: list[float] = []

    def begin(self, total=None) -> None:
        self.begun = time.monotonic()

    def trial_done(self, completed: int) -> None:
        self.stamps.append(time.monotonic())


def _technique(spec: dict):
    return repro.Technique(spec["technique"])


def _model_outputs(result) -> dict:
    return {"trials": result.trials,
            "outcomes": {o.value: n for o, n in sorted(
                result.counts.items(), key=lambda item: item[0].value)},
            "golden_instructions": result.golden_instructions}


def _done(result, outputs: dict, setup_end: float, stamps=()) -> dict:
    return {"outputs": outputs, "setup_end": setup_end,
            "trial_stamps": list(stamps), "runs": result.trials,
            "run_instructions": result.trials * result.golden_instructions}


def measure_seu(spec: dict) -> dict:
    machine = repro.eval.prepare_machine(spec["benchmark"], _technique(spec))
    clock = TrialClock()
    result = repro.run_campaign(machine.program, trials=spec["trials"],
                                seed=spec["seed"], machine=machine,
                                monitor=clock)
    return _done(result, result.summary_dict(), clock.begun, clock.stamps)


def measure_forensics(spec: dict) -> dict:
    machine = repro.eval.prepare_machine(spec["benchmark"], _technique(spec))
    clock = TrialClock()
    log = repro.obs.CampaignLog({"benchmark": spec["benchmark"],
                                 "technique": spec["technique"]})
    result = repro.run_campaign(machine.program, trials=spec["trials"],
                                seed=spec["seed"], machine=machine,
                                log=log, taint=True, monitor=clock)
    report = repro.obs.analyze_log(log)
    classified = sum(len(members) for members in report.groups.values())
    if classified != result.trials:
        raise RuntimeError(f"forensics classified {classified} of "
                           f"{result.trials} trials")
    ledger = os.path.join(spec["scratch"], "ledger-" + spec["id"]
                          .replace("/", "_"))
    repro.obs.store_campaign(
        repro.obs.RunRegistry(ledger),
        workload={"benchmark": spec["benchmark"]},
        technique=spec["technique"], seed=spec["seed"], result=result,
        log=log, program=machine.program)
    done = _done(result, result.summary_dict(), clock.begun, clock.stamps)
    done["ledger_bytes"] = sum(
        os.path.getsize(os.path.join(top, name))
        for top, _, names in os.walk(ledger) for name in names)
    return done


def _model_binary(spec: dict):
    program = repro.protect(repro.workloads.build(spec["benchmark"]),
                            _technique(spec))
    if spec["kind"] == "wildjump":
        program = repro.transform.apply_cfc(program)
    return repro.allocate_program(program)


def _model_campaign(spec: dict):
    return {"opcode": repro.faults.run_opcode_campaign,
            "wildjump": repro.faults.run_wild_jump_campaign}[spec["kind"]]


def measure_model(spec: dict) -> dict:
    binary = _model_binary(spec)
    setup_end = time.monotonic()
    result = _model_campaign(spec)(binary, trials=spec["trials"],
                                   seed=spec["seed"])
    return _done(result, _model_outputs(result), setup_end)


def measure_fig9(spec: dict) -> dict:
    """``repro fig9`` in-process; setup is every stretch before a cell's
    first cycle-simulated instruction."""
    simulator = repro.sim.timing.TimingSimulator
    timed_run = simulator.run
    stretches = {"setup": 0.0, "last": spec["spawn_t"]}

    def run(self, *args, **kwargs):
        start = time.monotonic()
        stretches["setup"] += start - stretches["last"]
        try:
            return timed_run(self, *args, **kwargs)
        finally:
            stretches["last"] = time.monotonic()

    simulator.run = run
    results = repro.eval.evaluate_performance()
    cells = {f"{bench}/{tech.value}": {"cycles": cell.cycles,
                                       "instructions": cell.instructions}
             for (bench, tech), cell in results.cells.items()}
    return {"outputs": cells, "setup_s": stretches["setup"],
            "runs": len(cells),
            "run_instructions": sum(c["instructions"]
                                    for c in cells.values())}


def reference(spec: dict) -> dict:
    """Outputs from an engine other than the one under test.

    Register-SEU cells replay every trial from instruction 0 on the
    interpreter (no JIT, no checkpoints); taint does not change outcomes,
    so forensics cells use the same path.  The extension fault models
    have only one engine at this revision, so their record pins its
    outputs for later engines.  Figure 9 instruction counts come from the
    functional interpreter's golden run; cycles from the timing model,
    which has no hardware reference in this repository.
    """
    kind = spec["kind"]
    if kind in ("seu", "forensics"):
        result = repro.run_campaign(
            repro.eval.prepare(spec["benchmark"], _technique(spec)),
            trials=spec["trials"], seed=spec["seed"],
            max_instructions=repro.eval.MAX_INSTRUCTIONS, jit=False,
            checkpoint_interval=0)
        return {"outputs": result.summary_dict()}
    if kind in ("opcode", "wildjump"):
        result = _model_campaign(spec)(_model_binary(spec),
                                       trials=spec["trials"],
                                       seed=spec["seed"])
        return {"outputs": _model_outputs(result)}
    cells = {}
    for bench in repro.PAPER_BENCHMARKS:
        for tech in repro.PAPER_TECHNIQUES:
            program = repro.eval.prepare(bench, tech)
            golden = repro.Machine(
                program, max_instructions=repro.eval.MAX_INSTRUCTIONS).run()
            timed = repro.sim.timing.TimingSimulator(repro.Machine(
                program, max_instructions=repro.eval.MAX_INSTRUCTIONS)).run()
            cells[f"{bench}/{tech.value}"] = {
                "cycles": timed.cycles, "instructions": golden.instructions}
    return {"outputs": cells}


MEASURE = {"seu": measure_seu, "forensics": measure_forensics,
           "opcode": measure_model, "wildjump": measure_model,
           "fig9": measure_fig9}


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    tracer = None
    try:
        if spec.get("reference"):
            data = reference(spec)
        else:
            if spec.get("trace"):
                import spans

                tracer = spans.Tracer(spec["id"])
                tracer.install()
            data = MEASURE[spec["kind"]](spec)
            data["import_done"] = IMPORT_DONE
            data["import_rss_mb"] = IMPORT_RSS_MB
    except MemoryError:
        data = {"error": "MemoryError"}
    except Exception as exc:  # noqa: BLE001 - the cell's failure reason
        data = {"error": f"{type(exc).__name__}: {exc}"}
    if tracer is not None:
        data["spans"] = tracer.spans
        data["untraced"] = tracer.untraced
    data["end_t"] = time.monotonic()
    tmp = sys.argv[2] + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(data, handle)
    os.replace(tmp, sys.argv[2])
    return 1 if data.get("error") else 0


if __name__ == "__main__":
    raise SystemExit(main())
