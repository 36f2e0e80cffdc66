"""Campaign specs: one declarative description, one execution path.

A :class:`CampaignSpec` is everything that determines a campaign's
*results*: the workload (a suite benchmark or a mini-C source file),
the technique, the fault model, the seed, and either a fixed trial
budget or the adaptive stopping knobs.  ``jobs`` rides along as an
execution hint but never enters the stored identity -- campaigns are
bit-identical for any jobs value.

:func:`run_spec` is the single spec-to-run path; the ``campaign`` CLI
and the Figure-8 harness both call it.  Their ``--store`` paths go
through :func:`run_stored`, which first asks the ledger whether the
campaign already ran: :func:`expected_identity` predicts the exact
identity axes (workload, technique, config, code sha256) that
:func:`repro.obs.registry.store_campaign` will write, and
:func:`find_cached` scans the ledger for a stored manifest carrying
them.  A hit is answered from the stored result summary without
executing a single trial.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.campaign import CampaignResult

#: The only fault model the simulator injects today (single-event
#: upsets in architectural registers); the field exists so specs stay
#: forward-compatible when more models land.
FAULT_MODELS = ("register-seu",)

#: Metrics the adaptive stopping rule may target (mirrors
#: ``repro.stats.sequential.METRIC_OUTCOMES``).
METRICS = ("unace", "sdc", "segv", "failure", "detected")

#: The serial runner's default trial budget cap, matching
#: ``run_campaign`` / ``run_parallel_campaign``.  Suite workloads use
#: the larger ``eval.pipeline.MAX_INSTRUCTIONS`` via their prepared
#: machines, exactly as the Figure-8 harness does.
_DEFAULT_MAX_INSTRUCTIONS = 10_000_000


class SpecError(ValueError):
    """A campaign spec that cannot be validated or executed."""


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, declaratively.

    Exactly one of ``workload`` (suite benchmark name) or ``source``
    (mini-C file path) names the program.  ``adaptive=False`` runs a
    fixed ``trials`` budget; ``adaptive=True`` runs the sequential
    engine with the stopping knobs and ignores ``trials``.
    """

    technique: str = "swiftr"
    workload: str = ""
    source: str = ""
    fault_model: str = "register-seu"
    seed: int = 0
    trials: int = 250
    adaptive: bool = False
    metric: str = "unace"
    ci_width: float = 0.025
    confidence: float = 0.95
    max_trials: int = 4000
    #: Worker processes *within* the campaign; results are identical
    #: for any value, so it never enters a stored identity.
    jobs: int = 1

    def __post_init__(self) -> None:
        from ..transform import Technique

        try:
            Technique(self.technique)
        except ValueError:
            choices = ", ".join(t.value for t in Technique)
            raise SpecError(f"unknown technique {self.technique!r} "
                            f"(choices: {choices})") from None
        if bool(self.workload) == bool(self.source):
            raise SpecError(
                "a spec names exactly one program: a suite 'workload' "
                "or a 'source' file path")
        if self.workload:
            from ..workloads import WORKLOADS

            if self.workload not in WORKLOADS:
                raise SpecError(
                    f"unknown workload {self.workload!r} "
                    "(see `python -m repro workloads`)")
        if self.fault_model not in FAULT_MODELS:
            raise SpecError(
                f"unknown fault model {self.fault_model!r} "
                f"(supported: {', '.join(FAULT_MODELS)})")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise SpecError(f"trials must be a positive integer, "
                            f"got {self.trials!r}")
        if self.metric not in METRICS:
            raise SpecError(f"unknown metric {self.metric!r} "
                            f"(choices: {', '.join(METRICS)})")
        if not 0.0 < self.ci_width < 1.0:
            raise SpecError(f"ci_width out of (0, 1): {self.ci_width!r}")
        if not 0.0 < self.confidence < 1.0:
            raise SpecError(
                f"confidence out of (0, 1): {self.confidence!r}")
        if not isinstance(self.max_trials, int) or self.max_trials < 1:
            raise SpecError(f"max_trials must be a positive integer, "
                            f"got {self.max_trials!r}")
        if not isinstance(self.jobs, int) or self.jobs < 0:
            raise SpecError(f"jobs must be a non-negative integer, "
                            f"got {self.jobs!r}")

    def workload_dict(self) -> dict:
        """The manifest/telemetry workload axis, matching what the
        direct CLI paths store: ``{"benchmark": name}`` for suite
        workloads (fig8) and ``{"source": path}`` for files
        (campaign)."""
        if self.workload:
            return {"benchmark": self.workload}
        return {"source": self.source}

    def log_context(self) -> dict:
        """Per-trial telemetry context, byte-compatible with the
        direct CLI and Figure-8 campaign logs."""
        return dict(self.workload_dict(), technique=self.technique,
                    seed=self.seed)


# ---------------------------------------------------------------- run_spec
@dataclass
class SpecRun:
    """What :func:`run_spec` hands back: the aggregate result plus the
    adaptive details when the spec asked for them.  ``cached`` marks a
    result answered from the ledger by :func:`run_stored` (zero trials
    ran; ``result`` was rebuilt from the stored summary)."""

    result: CampaignResult
    adaptive: object | None = None      # AdaptiveResult | None
    cached: bool = False


def run_spec(spec: CampaignSpec, program, *, machine=None, log=None,
             monitor=None, taint: bool = False, profile=None,
             atlas=None, jit: bool | None = None) -> SpecRun:
    """Execute one spec on its protected binary ``program``.

    Fixed specs go through
    :func:`~repro.faults.parallel.run_parallel_campaign` (which falls
    through to the serial runner for ``jobs<=1``); adaptive specs go
    through :func:`~repro.stats.sequential.run_adaptive_campaign`.
    Pass a prepared ``machine`` (suite workloads: the cached
    :func:`~repro.eval.pipeline.prepare_machine` simulator) to reuse
    it and its instruction budget.  The instrumentation hooks (``log``,
    ``monitor``, ``taint``, ``profile``, ``atlas``, ``jit``) thread
    straight through and never change outcomes.
    """
    if spec.adaptive:
        if taint:
            raise SpecError("taint tracing is not supported with "
                            "adaptive campaigns")
        if profile is not None:
            raise SpecError("profiling is not supported with adaptive "
                            "campaigns (batch sizes depend on observed "
                            "variance)")
        if atlas is not None:
            raise SpecError("adaptive atlases anchor post-hoc from the "
                            "campaign log, not an accumulator")
        from ..stats import AdaptiveConfig, run_adaptive_campaign

        config = AdaptiveConfig(ci_width=spec.ci_width,
                                confidence=spec.confidence,
                                metric=spec.metric,
                                max_trials=spec.max_trials)
        adaptive = run_adaptive_campaign(
            program, config=config, seed=spec.seed, jobs=spec.jobs,
            machine=machine, log=log,
            max_instructions=_DEFAULT_MAX_INSTRUCTIONS,
            monitor=monitor, jit=jit)
        return SpecRun(result=adaptive.result, adaptive=adaptive)
    from ..faults import run_parallel_campaign

    result = run_parallel_campaign(
        program, trials=spec.trials, seed=spec.seed, jobs=spec.jobs,
        max_instructions=_DEFAULT_MAX_INSTRUCTIONS, machine=machine,
        log=log, taint=taint, profile=profile, monitor=monitor,
        jit=jit, atlas=atlas)
    return SpecRun(result=result)


# ------------------------------------------------------------------ ledger
def run_stored(registry, spec: CampaignSpec, program, *, log,
               tag: str = "", probe: bool = True, **hooks):
    """The ``--store`` path: ``(SpecRun, StoredRun)`` for ``spec``.

    With ``probe`` (and a fixed-trial spec) the ledger is asked first:
    a stored run with the same predicted identity is answered without
    running a trial -- its result is rebuilt from the manifest's
    ``results`` summary and ``tag`` is recorded on it.  Otherwise the
    spec runs through :func:`run_spec` (``hooks`` pass straight
    through) and is stored with ``log`` as its trial artifact.

    Callers clear ``probe`` when they asked for outputs only a real
    run produces (telemetry, taint streams, profiles, atlases).
    Adaptive specs always run: a hit could not rebuild their batches.
    """
    from ..obs.registry import StoredRun, store_campaign

    run_id = (find_cached(registry, spec, program)
              if probe and not spec.adaptive else None)
    if run_id is None:
        run = run_spec(spec, program, log=log, **hooks)
        weights = None
        if run.adaptive is not None:
            weights = {r["stratum"]: r["weight"]
                       for r in run.adaptive.stratum_dicts()}
        return run, store_campaign(
            registry, workload=spec.workload_dict(),
            technique=spec.technique, seed=spec.seed, result=run.result,
            log=log, program=program, weights=weights,
            adaptive=run.adaptive, tag=tag)
    if tag:
        registry.tag(run_id, tag)
    manifest = registry.manifest(run_id)
    result = CampaignResult.from_summary(manifest["results"])
    return (SpecRun(result=result, cached=True),
            StoredRun(run_id=run_id, path=registry.run_dir(run_id),
                      created=False, manifest=manifest))


def expected_identity(spec: CampaignSpec, program) -> dict:
    """The four manifest identity axes a stored run of the fixed-trial
    ``spec`` on ``program`` will carry: workload, technique, config,
    code sha256 -- predicted without running it.

    The config mirrors what the runners capture at run time
    (``CampaignResult.config``) plus what
    :func:`~repro.obs.registry.store_campaign` adds; the cache-probe
    round-trip test in ``tests/test_spec.py`` pins this agreement.
    """
    from ..obs.registry import program_sha256

    workload = spec.workload_dict()
    return {
        "workload": {key: workload[key] for key in sorted(workload)},
        "technique": spec.technique,
        "config": {
            "checkpoint_interval": None,
            "fault_model": spec.fault_model,
            "presampled_sites": False,
            "seed": spec.seed,
            "trials": spec.trials,
        },
        "code_sha256": program_sha256(program),
    }


def find_cached(registry, spec: CampaignSpec, program) -> str | None:
    """The stored run id whose manifest identity matches the
    fixed-trial ``spec`` on binary ``program``, or ``None``.

    Run ids are content-addressed over *results*, so they cannot be
    predicted from a spec; instead every present manifest that survives
    a cheap ledger-entry prefilter (workload label, technique, seed) is
    loaded and compared on the full identity axes.  Any producer's runs
    count: a ``fig8 --store`` cell answers a later re-run of that cell.
    """
    from ..obs.registry import RegistryError, _workload_label

    expected = expected_identity(spec, program)
    label = _workload_label({"workload": expected["workload"]})
    for entry in registry.entries():
        if not entry.get("present"):
            continue
        if entry.get("workload", label) != label:
            continue
        if entry.get("technique", spec.technique) != spec.technique:
            continue
        if entry.get("seed", spec.seed) != spec.seed:
            continue
        try:
            manifest = registry.manifest(entry["run"])
        except RegistryError:
            continue
        if all(manifest.get(axis) == expected[axis]
               for axis in expected):
            return entry["run"]
    return None
