"""Fault-provenance taint tracing: soundness, zero-cost gating, export."""

import hashlib
import json

import pytest

from repro.faults import FaultSite, run_campaign, run_with_fault
from repro.faults.injector import CheckpointStore, golden_run
from repro.faults.outcomes import Outcome, classify
from repro.faults.parallel import run_parallel_campaign
from repro.isa.opcodes import Opcode
from repro.isa.operands import MASK64
from repro.obs import CampaignLog
from repro.sim import Machine, RunStatus, TaintTracker
from repro.transform import Technique, allocate_program, protect


@pytest.fixture
def noft_binary(simple_program):
    return allocate_program(simple_program)


@pytest.fixture
def swiftr_binary(simple_program):
    return allocate_program(protect(simple_program, Technique.SWIFTR))


@pytest.fixture
def trump_binary(simple_program):
    return allocate_program(protect(simple_program, Technique.TRUMP))


def _probe_sites(golden_instructions):
    """A deterministic grid of sites over the registers the allocator
    actually uses (it assigns from r24 down) and a spread of icounts."""
    step = max(golden_instructions // 7, 1)
    for dynamic_index in range(2, golden_instructions - 1, step):
        for reg_index in (20, 22, 24, 25, 26, 27, 28):
            for bit in (0, 5, 40):
                yield FaultSite(dynamic_index=dynamic_index,
                                reg_index=reg_index, bit=bit)


def _same_result(a, b):
    return (a.status is b.status and a.output == b.output
            and a.exit_code == b.exit_code
            and a.instructions == b.instructions
            and a.recoveries == b.recoveries)


# ----------------------------------------------------------- zero-cost gate
def test_taint_is_off_by_default(noft_binary):
    machine = Machine(noft_binary)
    assert machine.taint is None
    golden = golden_run(machine)
    assert golden.status is RunStatus.EXITED
    assert machine.taint is None


def test_injector_detaches_tracker(noft_binary):
    machine = Machine(noft_binary)
    golden = golden_run(machine)
    site = FaultSite(dynamic_index=golden.instructions // 2,
                     reg_index=26, bit=3)
    run_with_fault(machine, site, taint=TaintTracker())
    assert machine.taint is None          # detached even after tracing


# ------------------------------------------------- tracing changes nothing
@pytest.mark.parametrize("technique",
                         [None, Technique.SWIFTR, Technique.TRUMP])
def test_tracing_does_not_perturb_results(simple_program, technique):
    program = (simple_program if technique is None
               else protect(simple_program, technique))
    binary = allocate_program(program)
    machine = Machine(binary)
    golden = golden_run(machine)
    for site in _probe_sites(golden.instructions):
        plain = run_with_fault(machine, site)
        traced = run_with_fault(machine, site, taint=TaintTracker())
        assert _same_result(plain, traced), site
        assert classify(golden, plain) is classify(golden, traced)


def test_checkpointed_tracing_matches_full_replay(swiftr_binary):
    machine = Machine(swiftr_binary)
    store = CheckpointStore(machine, interval=40)
    golden = store.build()
    for site in _probe_sites(golden.instructions):
        plain = run_with_fault(machine, site)
        traced = store.run_with_fault(site, taint=TaintTracker())
        assert _same_result(plain, traced), site


# ------------------------------------------------------------- flip seeding
def test_flip_seeds_created_event(noft_binary):
    machine = Machine(noft_binary)
    machine.reset()
    assert machine.run(5).status is RunStatus.PAUSED
    tracker = TaintTracker()
    machine.taint = tracker
    try:
        machine.flip_register_bit(26, 7)
    finally:
        machine.taint = None
    assert tracker.regs[26] == 1 << 7
    assert tracker.created["event"] == "created"
    assert tracker.created["reg"] == 26
    assert tracker.created["bit"] == 7
    assert tracker.counts == {"created": 1}


# ----------------------------------------------------- locked known cases
def test_known_repaired_by_vote(swiftr_binary):
    """A SWIFT-R vote that repaired a corrupted copy is attributed to
    the voting instruction, with role ``vote``."""
    machine = Machine(swiftr_binary)
    golden = golden_run(machine)
    hit = None
    for site in _probe_sites(golden.instructions):
        tracker = TaintTracker()
        faulty = run_with_fault(machine, site, taint=tracker)
        if (classify(golden, faulty) is Outcome.UNACE
                and tracker.first_repair is not None
                and tracker.first_repair["event"] == "voted-out"):
            hit = (site, tracker)
            break
    assert hit is not None, "no vote-repaired trial in the probe grid"
    site, tracker = hit
    repair = tracker.first_repair
    assert repair["role"] == "vote"
    assert repair["icount"] > site.dynamic_index
    assert "instr" in repair and "loc" in repair
    assert tracker.counts.get("voted-out", 0) >= 1


def test_known_escape_via_store(noft_binary):
    """An unprotected SDC's taint stream names the store (or output)
    instruction that let the corruption out."""
    machine = Machine(noft_binary)
    golden = golden_run(machine)
    hit = None
    for site in _probe_sites(golden.instructions):
        tracker = TaintTracker()
        faulty = run_with_fault(machine, site, taint=tracker)
        if (classify(golden, faulty) is Outcome.SDC
                and tracker.first_escape is not None):
            hit = tracker
            break
    assert hit is not None, "no escaping SDC in the probe grid"
    escape = hit.first_escape
    assert escape["event"] in ("stored", "escaped-to-output")
    assert "instr" in escape and "loc" in escape
    if escape["event"] == "stored":
        assert escape["segment"] in ("global", "heap", "stack")


# -------------------------------------------------------- propagation rules
def test_binop_and_or_value_sensitivity():
    tracker = TaintTracker()
    taint = 1 << 3
    # AND: a clean 0 on the other side squashes the tainted bit; a
    # clean 1 lets it through.
    assert tracker._binop_taint(Opcode.AND, 0, taint, 0, 0) == 0
    assert tracker._binop_taint(Opcode.AND, 0, taint, 1 << 3, 0) == taint
    # OR: a clean 1 dominates the tainted bit; a clean 0 exposes it.
    assert tracker._binop_taint(Opcode.OR, 0, taint, 1 << 3, 0) == 0
    assert tracker._binop_taint(Opcode.OR, 0, taint, 0, 0) == taint
    # XOR is bit-local: taint unions through.
    assert tracker._binop_taint(Opcode.XOR, 5, taint, 9, 1 << 7) == \
        taint | (1 << 7)


def test_binop_add_carries_upward():
    tracker = TaintTracker()
    taint = 1 << 8
    mask = tracker._binop_taint(Opcode.ADD, 0, taint, 0, 0)
    assert mask == MASK64 & ~((1 << 8) - 1)      # bits 8..63
    assert tracker._carry_mask(0) == 0


def test_binop_mul_zero_squashes():
    tracker = TaintTracker()
    taint = 1 << 3
    assert tracker._binop_taint(Opcode.MUL, 7, taint, 0, 0) == 0
    assert tracker._binop_taint(Opcode.MUL, 7, taint, 2, 0) == MASK64


def test_binop_shifts_move_the_mask():
    tracker = TaintTracker()
    taint = 1 << 3
    assert tracker._binop_taint(Opcode.SHL, 0, taint, 4, 0) == 1 << 7
    assert tracker._binop_taint(Opcode.SHR, 0, taint, 2, 0) == 1 << 1
    # A tainted shift amount poisons everything.
    assert tracker._binop_taint(Opcode.SHL, 0, taint, 4, 1) == MASK64
    # Arithmetic right shift drags the (tainted) sign bit down.
    sign = 1 << 63
    assert tracker._binop_taint(Opcode.SRA, 0, sign, 4, 0) == \
        MASK64 & ~(MASK64 >> 4) | (sign >> 4)


def test_binop_compare_is_one_bit():
    tracker = TaintTracker()
    assert tracker._binop_taint(Opcode.CMPLT, 0, 1 << 9, 0, 0) == 1


# ------------------------------------------------------------------ bounds
def test_event_stream_is_capped_but_counts_are_not(noft_binary):
    machine = Machine(noft_binary)
    golden = golden_run(machine)
    tracker = TaintTracker(max_events=3)
    # An early flip in a live register generates a long event stream.
    run_with_fault(machine, FaultSite(dynamic_index=4, reg_index=27,
                                      bit=0), taint=tracker)
    assert len(tracker.events) == 3
    total = sum(tracker.counts.values())
    assert total > 3
    assert tracker.dropped == total - 3 - tracker.counts.get("converged", 0)
    summary = tracker.summary()
    assert summary["events_dropped"] == tracker.dropped
    assert summary["counts"] == tracker.counts


def test_step_budget_detaches_tracing(noft_binary):
    machine = Machine(noft_binary)
    golden = golden_run(machine)
    tracker = TaintTracker(max_steps=5)
    site = FaultSite(dynamic_index=2, reg_index=27, bit=0)
    plain = run_with_fault(machine, site)
    traced = run_with_fault(machine, site, taint=tracker)
    assert tracker.exhausted
    assert tracker.summary()["truncated"]
    assert _same_result(plain, traced)    # fallback path, same outcome


# -------------------------------------------------------- campaign plumbing
def test_campaign_taint_requires_log(noft_binary):
    with pytest.raises(ValueError, match="CampaignLog"):
        run_campaign(noft_binary, trials=2, taint=True)
    with pytest.raises(ValueError, match="CampaignLog"):
        run_parallel_campaign(noft_binary, trials=4, jobs=2, taint=True)


def test_campaign_taint_matches_plain_campaign(swiftr_binary):
    plain_log = CampaignLog()
    plain = run_campaign(swiftr_binary, trials=60, seed=11, log=plain_log)
    taint_log = CampaignLog()
    traced = run_campaign(swiftr_binary, trials=60, seed=11, log=taint_log,
                          taint=True)
    assert plain.counts == traced.counts
    assert plain.recoveries == traced.recoveries
    assert plain_log.to_dicts() == taint_log.to_dicts()
    summaries = [r for r in taint_log.taint_dicts()
                 if r["kind"] == "taint_summary"]
    landed = [r for r in taint_log.to_dicts() if r["fault_landed"]]
    assert len(summaries) == 60           # one summary per trial
    assert len(landed) <= 60


def test_parallel_taint_matches_serial(swiftr_binary):
    serial_log = CampaignLog(context={"technique": "swiftr"})
    serial = run_campaign(swiftr_binary, trials=40, seed=9,
                          log=serial_log, taint=True)
    parallel_log = CampaignLog(context={"technique": "swiftr"})
    parallel = run_parallel_campaign(swiftr_binary, trials=40, seed=9,
                                     jobs=2, log=parallel_log, taint=True)
    assert serial.counts == parallel.counts
    assert serial_log.to_dicts() == parallel_log.to_dicts()
    assert serial_log.taint_dicts() == parallel_log.taint_dicts()


def test_taint_output_pinned(simple_program):
    # Pins the exported taint records of one fixed campaign across
    # revisions of the run loops (the parity tests above compare runs
    # of the same code).
    log = CampaignLog()
    run_campaign(simple_program, trials=24, seed=13, log=log, taint=True)
    records = json.dumps(log.taint_dicts(), sort_keys=True)
    digest = hashlib.sha256(records.encode()).hexdigest()
    assert digest == (
        "cddd520e7f789ecaddee45029906e19c257f20b6aac25d837d8700a2926509d9")
