"""Spans recorded from outside the program, around calls into each layer.

Installed only in the traced pass.  Each wrapped call records its name,
start, end, parent span, cell id and the process's peak RSS at both ends,
plus a few counts read off its arguments or result.  Spans stay in memory
and leave the process with the cell's result.

Targets are looked up by their public names.  One that no longer exists is
listed in ``Tracer.untraced`` and its layer reads as untraced; the run goes
on without it.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time

from repro import RunStatus


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _instrs(result, args, kwargs) -> dict:
    return {"instrs": result.num_instructions()}


def _jit_bytes(result, args, kwargs) -> dict:
    return {"source_bytes": sum(len(src) for src in result.sources.values())}


def _checkpoints(result, args, kwargs) -> dict:
    return {"checkpoints": len(args[0].snapshots)}


def _trial(result, args, kwargs) -> dict:
    return {"hang": result.status is RunStatus.HANG}


def _timing(result, args, kwargs) -> dict:
    return {"instrs": result.instructions}


def _trial_name(args, kwargs) -> str:
    taint = kwargs.get("taint", args[2] if len(args) > 2 else None)
    return "faults.trial" if taint is None else "sim.taint.trial"


#: (module, attribute path, span name or namer, counts) for every wrapped
#: public entry point.  A dotted attribute path names a method.
TARGETS = (
    ("repro.workloads", "build", "lang.build", None),
    ("repro.workloads", "Workload.compile", "lang.compile", _instrs),
    ("repro", "protect", "transform.protect", _instrs),
    ("repro", "allocate_program", "transform.regalloc", None),
    ("repro", "Machine.__init__", "sim.machine.build", None),
    ("repro.sim.jit", "compile_program", "sim.jit.compile", _jit_bytes),
    ("repro", "run_campaign", "faults.campaign", None),
    ("repro.faults", "golden_run", "faults.golden", None),
    ("repro.faults", "CheckpointStore.build", "faults.golden", _checkpoints),
    ("repro.faults", "CheckpointStore.run_with_fault", _trial_name, _trial),
    ("repro.faults", "run_opcode_campaign", "faults.opcode.campaign", None),
    ("repro.faults", "run_wild_jump_campaign", "faults.wildjump.campaign",
     None),
    ("repro.obs", "analyze_log", "obs.forensics", None),
    ("repro.obs", "store_campaign", "obs.registry.store", None),
    ("repro.sim.timing", "TimingSimulator.run", "sim.timing.run", _timing),
)


class Tracer:
    """Collects the spans of one cell process."""

    def __init__(self, cell: str) -> None:
        self.cell = cell
        self.spans: list[dict] = []
        self.untraced: list[str] = []
        self._open: list[int] = []

    def wrap(self, fn, name, counts=None):
        spans, open_ = self.spans, self._open
        cell = self.cell

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name if isinstance(name, str)
                    else name(args, kwargs),
                    "cell": cell, "parent": open_[-1] if open_ else None,
                    "rss_start": peak_rss_mb(), "start": time.monotonic()}
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                span["rss_end"] = peak_rss_mb()
                open_.pop()
            if counts is not None:
                span.update(counts(result, args, kwargs))
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, counts in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.untraced.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(original, name, counts)
            if owners:
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped)


def _rebind(original, wrapped) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``wrapped``, so ``from x import f`` call sites see the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
