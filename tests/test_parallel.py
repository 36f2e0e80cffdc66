"""Process-parallel campaigns: sharding, determinism, telemetry order."""

from repro.faults import Outcome, run_campaign, run_parallel_campaign
from repro.faults.parallel import _partition, default_jobs
from repro.faults.model import INJECTABLE_GPRS, FaultSite, sample_sites
from repro.lang import compile_source
from repro.obs.campaign_log import CampaignLog
from repro.sim import Machine
from repro.transform import Technique, allocate_program, protect


def test_partition_contiguous_and_complete():
    sites = sample_sites(0, 100, 10)
    chunks = _partition(sites, 3)
    assert [lo for lo, _ in chunks] == [0, 4, 7]
    rejoined = [site for _, shard in chunks for site in shard]
    assert rejoined == sites
    # More shards than sites: empty shards are dropped.
    assert len(_partition(sites[:2], 5)) == 2


def test_jobs2_matches_jobs1(simple_program):
    log1, log2 = CampaignLog(), CampaignLog()
    serial = run_parallel_campaign(simple_program, trials=24, seed=13,
                                   jobs=1, log=log1)
    parallel = run_parallel_campaign(simple_program, trials=24, seed=13,
                                     jobs=2, log=log2)
    assert serial == parallel
    assert log1.records == log2.records
    assert [r.trial for r in log2.records] == list(range(24))


def test_jobs2_uses_the_passed_machines_budget():
    # A budget just above the golden length turns every fault that
    # lengthens the loop into a hang.  Workers must take that budget
    # from the passed machine, not from the default max_instructions,
    # or jobs=2 classifies (and records) those trials differently.
    program = allocate_program(protect(compile_source(
        "int main() { int t = 0; "
        "for (int i = 0; i < 20; i++) { t += i; } "
        "print(t); return 0; }"), Technique.NOFT))
    budget = Machine(program).run().instructions + 2
    sites = [FaultSite(dynamic_index=budget // 2, reg_index=reg, bit=bit)
             for reg in INJECTABLE_GPRS for bit in range(5)]
    runs = []
    for jobs in (1, 2):
        log = CampaignLog()
        result = run_parallel_campaign(
            program, sites=sites, jobs=jobs, log=log,
            machine=Machine(program, max_instructions=budget))
        runs.append((result, log.records))
    (serial, serial_records), (parallel, parallel_records) = runs
    assert serial.count(Outcome.HANG)
    assert serial == parallel
    assert serial_records == parallel_records


def test_parallel_matches_plain_run_campaign(simple_program):
    # The sharded runner must agree with run_campaign itself, not just
    # with its own jobs=1 mode.
    baseline = run_campaign(simple_program, trials=24, seed=13)
    parallel = run_parallel_campaign(simple_program, trials=24, seed=13,
                                     jobs=3)
    assert baseline == parallel


def test_parallel_without_log_skips_telemetry(simple_program):
    result = run_parallel_campaign(simple_program, trials=10, seed=5, jobs=2)
    assert result.trials == 10
    assert sum(result.counts.values()) == 10


def test_jobs_zero_uses_all_cores(simple_program):
    assert default_jobs() >= 1
    result = run_parallel_campaign(simple_program, trials=8, seed=1, jobs=0)
    assert result.trials == 8


def test_parallel_log_context_preserved(simple_program):
    log = CampaignLog(context={"benchmark": "simple", "technique": "noft"})
    run_parallel_campaign(simple_program, trials=6, seed=2, jobs=2, log=log)
    exported = log.to_dicts()
    assert len(exported) == 6
    assert all(r["benchmark"] == "simple" for r in exported)
    assert all("fault_landed" in r for r in exported)
