"""Campaign specs, the single spec-to-run path, and the ledger cache
that answers a repeated fixed-trial ``campaign``/``fig8 --store``
without running a trial."""

import os

import pytest

from repro.eval.spec import (
    CampaignSpec,
    SpecError,
    find_cached,
    run_spec,
    run_stored,
)
from repro.lang import compile_source
from repro.obs import CampaignLog
from repro.obs.registry import RunRegistry
from repro.transform import Technique, allocate_program, protect
from repro.__main__ import main as cli_main

TINY_SOURCE = """\
int main() {
  int a = 3;
  int b = 4;
  print(a * b + 30);
  return 0;
}
"""


@pytest.fixture
def tiny_c(tmp_path):
    path = tmp_path / "tiny.c"
    path.write_text(TINY_SOURCE)
    return str(path)


@pytest.fixture
def tiny_binary():
    return allocate_program(protect(compile_source(TINY_SOURCE),
                                    Technique.SWIFTR))


def _spec(**overrides):
    base = dict(source="tiny.c", technique="swiftr", seed=7, trials=20)
    base.update(overrides)
    return CampaignSpec(**base)


def _forbid_trials(monkeypatch):
    """Make running any campaign an error: only a cache hit passes."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran; expected a ledger cache hit")

    monkeypatch.setattr("repro.faults.run_parallel_campaign", refuse)


def _dir_bytes(root):
    snapshot = {}
    for folder, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                snapshot[os.path.relpath(path, root)] = handle.read()
    return snapshot


# ------------------------------------------------------------------ specs
def test_spec_requires_exactly_one_program_axis():
    with pytest.raises(SpecError):
        CampaignSpec(technique="swiftr")          # no program at all
    with pytest.raises(SpecError):
        CampaignSpec(workload="crc32", source="x.c")


def test_spec_validates_fields():
    with pytest.raises(SpecError):
        CampaignSpec(technique="nope", workload="crc32")
    with pytest.raises(SpecError):
        CampaignSpec(workload="not-a-workload")
    with pytest.raises(SpecError):
        _spec(fault_model="cosmic-ray")
    with pytest.raises(SpecError):
        _spec(seed=True)                          # bools are not seeds
    with pytest.raises(SpecError):
        _spec(trials=0)
    with pytest.raises(SpecError):
        _spec(adaptive=True, metric="nope")
    with pytest.raises(SpecError):
        _spec(adaptive=True, ci_width=1.5)
    with pytest.raises(SpecError):
        _spec(jobs=-1)


def test_workload_dict_matches_direct_cli_conventions(tiny_c):
    assert CampaignSpec(workload="crc32").workload_dict() == {
        "benchmark": "crc32"}
    assert CampaignSpec(source=tiny_c).workload_dict() == {
        "source": tiny_c}
    assert _spec().log_context() == {"source": "tiny.c",
                                     "technique": "swiftr", "seed": 7}


# --------------------------------------------------------------- run_spec
def test_run_spec_matches_direct_campaign(tiny_binary):
    from repro.faults import run_campaign

    spec = _spec()
    via_spec = run_spec(spec, tiny_binary).result
    direct = run_campaign(tiny_binary, trials=spec.trials, seed=spec.seed)
    assert via_spec.summary_dict() == direct.summary_dict()
    assert via_spec.config == direct.config


def test_run_spec_adaptive_rejects_incompatible_hooks(tiny_binary):
    spec = _spec(adaptive=True, max_trials=50)
    with pytest.raises(SpecError):
        run_spec(spec, tiny_binary, taint=True)
    with pytest.raises(SpecError):
        run_spec(spec, tiny_binary, profile=object())


# ------------------------------------------------------------ cache probe
def test_find_cached_round_trip(tmp_path, tiny_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    spec = _spec()
    assert find_cached(registry, spec, tiny_binary) is None
    run, stored = run_stored(registry, spec, tiny_binary,
                             log=CampaignLog(spec.log_context()))
    assert stored.created and not run.cached
    assert find_cached(registry, spec, tiny_binary) == stored.run_id
    # jobs never enters the identity ...
    assert find_cached(registry, _spec(jobs=3), tiny_binary) \
        == stored.run_id
    # ... but a different seed, budget, or binary is another campaign.
    assert find_cached(registry, _spec(seed=8), tiny_binary) is None
    assert find_cached(registry, _spec(trials=21), tiny_binary) is None
    other = allocate_program(protect(compile_source(TINY_SOURCE),
                                     Technique.SWIFT))
    assert find_cached(registry, _spec(), other) is None


def test_run_stored_hit_rebuilds_the_stored_result(tmp_path, tiny_binary,
                                                   monkeypatch):
    registry = RunRegistry(str(tmp_path / "runs"))
    spec = _spec()
    first, stored = run_stored(registry, spec, tiny_binary,
                               log=CampaignLog(spec.log_context()))
    _forbid_trials(monkeypatch)
    again, hit = run_stored(registry, spec, tiny_binary,
                            log=CampaignLog(spec.log_context()))
    assert again.cached and not hit.created
    assert hit.run_id == stored.run_id
    assert again.result == first.result


def test_run_stored_probe_off_and_adaptive_specs_always_run(tmp_path,
                                                            tiny_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    for spec in (_spec(), _spec(adaptive=True, max_trials=40)):
        runs = [run_stored(registry, spec, tiny_binary,
                           log=CampaignLog(spec.log_context()),
                           probe=spec.adaptive or index == 0)
                for index in range(2)]
        assert not any(run.cached for run, _stored in runs)
        # Re-storing the identical run is still content-addressed.
        assert runs[0][1].run_id == runs[1][1].run_id


# -------------------------------------------------------------------- CLI
def _result_lines(text):
    return [line for line in text.splitlines()
            if not line.startswith(("elapsed", "ledger", "  "))]


def test_cli_campaign_store_twice_runs_zero_trials(tiny_c, tmp_path,
                                                   capsys, monkeypatch):
    runs = str(tmp_path / "runs")
    argv = ["campaign", tiny_c, "-t", "swiftr", "--trials", "30",
            "--store", "--runs-dir", runs]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert "ledger    : stored run" in first
    run_id = first.split("stored run ")[1].split()[0]
    before = _dir_bytes(os.path.join(runs, run_id))

    _forbid_trials(monkeypatch)
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert "(cache hit, 0 trials run)" in second
    assert f"ledger    : cache hit run {run_id} " in second
    assert _result_lines(second) == _result_lines(first)
    assert _dir_bytes(os.path.join(runs, run_id)) == before
    assert sorted(os.listdir(runs)) == sorted([run_id, "ledger.jsonl"])


def test_cli_campaign_cache_hit_records_tag(tiny_c, tmp_path, capsys,
                                            monkeypatch):
    runs = str(tmp_path / "runs")
    base = ["campaign", tiny_c, "--trials", "30", "--store",
            "--runs-dir", runs]
    assert cli_main([*base, "-t", "swift", "--tag", "a"]) == 0
    assert cli_main([*base, "-t", "swiftr"]) == 0
    capsys.readouterr()

    _forbid_trials(monkeypatch)
    assert cli_main([*base, "-t", "swiftr", "--tag", "b"]) == 0
    assert "cache hit run" in capsys.readouterr().out
    ledger = open(os.path.join(runs, "ledger.jsonl")).read()
    assert '"kind":"run_tagged"' in ledger and '"tag":"b"' in ledger
    assert cli_main(["obs", "diff", "a", "b", "--runs-dir", runs]) == 0
    assert "varied axis: technique" in capsys.readouterr().out


def test_cli_campaign_probe_skipped_for_trial_outputs(tiny_c, tmp_path,
                                                      capsys):
    runs = str(tmp_path / "runs")
    argv = ["campaign", tiny_c, "--trials", "20", "--store",
            "--runs-dir", runs]
    assert cli_main(argv) == 0
    atlas = str(tmp_path / "atlas.json")
    assert cli_main([*argv, "--atlas", atlas]) == 0
    out = capsys.readouterr().out
    # The trials ran (an atlas needs them); re-storing the identical
    # run is still the content-addressed hit on the same id.
    assert "0 trials run" not in out
    assert os.path.isfile(atlas)
    assert out.count("ledger    : cache hit run") == 1


def test_fig8_store_rerun_is_answered_from_the_ledger(tmp_path,
                                                      monkeypatch):
    from repro.eval import evaluate_reliability

    cell = dict(benchmarks=["crc32"], techniques=[Technique.NOFT],
                trials=12, store=True, runs_dir=str(tmp_path / "runs"))
    first = evaluate_reliability(**cell, tag="v1")
    _forbid_trials(monkeypatch)
    again = evaluate_reliability(**cell, tag="v2")
    key = ("crc32", Technique.NOFT)
    assert again.cells[key] == first.cells[key]
    registry = RunRegistry(str(tmp_path / "runs"))
    assert registry.resolve("v2/crc32/noft") \
        == registry.resolve("v1/crc32/noft")
