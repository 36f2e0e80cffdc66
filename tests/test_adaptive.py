"""Adaptive campaigns: fault-space stratification, sequential engine."""

import time

import pytest

from repro.faults import (
    INJECTABLE_GPRS,
    Outcome,
    run_campaign,
    sample_sites,
)
from repro.obs.campaign_log import CampaignLog
from repro.sim import Machine
from repro.sim.jit import attach_jit
from repro.stats import (
    AdaptiveConfig,
    run_adaptive_campaign,
    run_adaptive_suite,
    sequential,
)
from repro.stats.space import profile_fault_space
from repro.transform import Technique, allocate_program, protect

import random


@pytest.fixture
def swiftr_binary(simple_program):
    return allocate_program(protect(simple_program, Technique.SWIFTR))


def _config(**overrides):
    base = dict(ci_width=0.08, confidence=0.95, metric="unace",
                batch_size=48, seed_trials=2, max_trials=600,
                profile_samples=8, phases=2)
    base.update(overrides)
    return AdaptiveConfig(**base)


# ------------------------------------------------------------- fault space
def test_fault_space_partitions_population(simple_program):
    machine = Machine(simple_program)
    space = profile_fault_space(machine, samples=8, phases=2)
    golden = space.golden_instructions
    assert space.population == golden * len(INJECTABLE_GPRS) * 64
    assert sum(s.sites for s in space.strata.values()) == space.population
    assert sum(space.weight(key) for key in space.strata) == \
        pytest.approx(1.0)


def test_fault_space_sample_lands_in_its_stratum(simple_program):
    machine = Machine(simple_program)
    space = profile_fault_space(machine, samples=8, phases=2)
    rng = random.Random(42)
    for key in space.strata:
        for site in space.sample(key, rng, 20):
            assert space.stratum_of(site) == key
            assert site.dynamic_index < space.golden_instructions
            assert site.reg_index in INJECTABLE_GPRS
            assert 0 <= site.bit < 64


def test_fault_space_rejects_empty_run(simple_program):
    machine = Machine(simple_program)
    with pytest.raises(ValueError):
        profile_fault_space(machine, 0)


# -------------------------------------------------------------- sequential
def test_elapsed_counts_jit_compile(swiftr_binary, monkeypatch):
    """Like run_campaign's, the adaptive clock starts before the JIT
    attach and checkpoint build."""
    def slow_attach(machine):
        time.sleep(0.2)
        return attach_jit(machine)

    monkeypatch.setattr(sequential, "attach_jit", slow_attach)
    result = run_adaptive_campaign(
        swiftr_binary, config=_config(batch_size=8, max_trials=8), seed=5)
    assert result.result.elapsed_seconds >= 0.2


def test_adaptive_campaign_stops_at_target(swiftr_binary):
    result = run_adaptive_campaign(swiftr_binary, config=_config(), seed=5)
    assert result.target_met
    assert result.trials < result.config.max_trials
    assert result.trials == sum(b.trials for b in result.batches)
    assert result.batches[-1].met
    assert result.estimate.half_width <= result.config.ci_width
    # Every stratum was seeded before stopping was allowed.
    assert all(c.trials > 0 for c in result.cells.values())


def test_adaptive_campaign_deterministic(swiftr_binary):
    first = run_adaptive_campaign(swiftr_binary, config=_config(), seed=5)
    second = run_adaptive_campaign(swiftr_binary, config=_config(), seed=5)
    assert first.trials == second.trials
    assert str(first.estimate) == str(second.estimate)
    assert first.result.counts == second.result.counts
    shifted = run_adaptive_campaign(swiftr_binary, config=_config(), seed=6)
    # Different seed -> different realized sites (counts almost surely
    # differ; trial totals may coincide).
    assert (shifted.result.counts != first.result.counts
            or shifted.trials != first.trials)


def test_adaptive_jobs_invariance(swiftr_binary):
    log1, log2 = CampaignLog(), CampaignLog()
    serial = run_adaptive_campaign(swiftr_binary, config=_config(),
                                   seed=7, jobs=1, log=log1)
    sharded = run_adaptive_campaign(swiftr_binary, config=_config(),
                                    seed=7, jobs=2, log=log2)
    assert serial.trials == sharded.trials
    assert serial.result.counts == sharded.result.counts
    assert serial.result.recoveries == sharded.result.recoveries
    assert [r.to_dict() for r in log1.records] == \
        [r.to_dict() for r in log2.records]


def test_adaptive_cap_hit_with_unreachable_target(swiftr_binary):
    config = _config(ci_width=0.0001, max_trials=64)
    result = run_adaptive_campaign(swiftr_binary, config=config, seed=1)
    assert not result.target_met
    assert result.trials == 64


def test_adaptive_estimates_are_post_stratified(swiftr_binary):
    result = run_adaptive_campaign(swiftr_binary, config=_config(), seed=5)
    arm = result.arm_estimate("campaign", (Outcome.UNACE,))
    suite = result.suite_estimate((Outcome.UNACE,))
    # Single arm: per-arm and suite estimates coincide, and both equal
    # the engine's stopping estimate (metric is unACE).
    assert arm.value == pytest.approx(suite.value, abs=1e-12)
    assert arm.value == pytest.approx(result.estimate.value, abs=1e-12)
    # Per-stratum outcome counts account for every trial exactly once.
    strata = result.arm_strata["campaign"]
    assert sum(s.trials for s in strata) == result.trials
    assert sum(sum(s.outcomes.values()) for s in strata) == result.trials


def test_adaptive_batch_telemetry_shape(swiftr_binary):
    result = run_adaptive_campaign(swiftr_binary, config=_config(), seed=5)
    dicts = result.batch_dicts({"technique": "swiftr"})
    assert len(dicts) == len(result.batches)
    for record in dicts:
        assert record["kind"] == "adaptive_batch"
        assert record["technique"] == "swiftr"
        assert record["metric"] == "unace"
        assert 0.0 <= record["estimate"] <= 1.0
    assert dicts[-1]["met"] is True
    assert dicts[-1]["total_trials"] == result.trials


def test_adaptive_suite_two_arms(simple_program, swiftr_binary):
    machines = [("plain", Machine(simple_program)),
                ("swiftr", Machine(swiftr_binary))]
    result = run_adaptive_suite(machines, config=_config(ci_width=0.12),
                                seed=3)
    assert set(result.arm_results) == {"plain", "swiftr"}
    assert result.trials == sum(r.trials for r in
                                result.arm_results.values())
    with pytest.raises(ValueError):
        result.result  # ambiguous with two arms
    suite = result.suite_estimate((Outcome.UNACE,))
    arms = [result.arm_estimate(name, (Outcome.UNACE,))
            for name in ("plain", "swiftr")]
    # Equal-weight suite: the estimate is the mean of the arm values.
    assert suite.value == pytest.approx(sum(a.value for a in arms) / 2,
                                        abs=1e-12)


def test_adaptive_suite_requires_arms():
    with pytest.raises(ValueError):
        run_adaptive_suite([], config=_config())


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(ci_width=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(metric="nonsense")
    with pytest.raises(ValueError):
        AdaptiveConfig(batch_size=0)


# ---------------------------------------------------- fixed-campaign seam
def test_run_campaign_sites_bit_identical(swiftr_binary):
    """Explicit site lists reproduce seeded sampling exactly -- the
    contract the adaptive engine relies on for jobs-invariance."""
    log_seeded, log_sites = CampaignLog(), CampaignLog()
    seeded = run_campaign(swiftr_binary, trials=40, seed=9, log=log_seeded)
    sites = sample_sites(9, seeded.golden_instructions, 40)
    explicit = run_campaign(swiftr_binary, sites=sites, log=log_sites)
    assert explicit.counts == seeded.counts
    assert explicit.recoveries == seeded.recoveries
    assert explicit.never_landed == seeded.never_landed
    assert [r.to_dict() for r in log_sites.records] == \
        [r.to_dict() for r in log_seeded.records]
