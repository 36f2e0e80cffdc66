"""Self-test of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider

Takes a few seconds.  It checks that a cell run through the harness
gives the same outcome counts as a direct ``run_campaign``, that a cell
forced over a memory cap is reported as failed with its reason, and that
the runner fails cleanly where there is no ``repro`` to benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from isolate import ROOT, run_cell
from run import check_cell

sys.path.insert(0, str(ROOT / "src"))

TINY = {"id": "crc32/noft", "kind": "seu", "benchmark": "crc32",
        "technique": "noft", "trials": 8, "seed": 3}


def test_cell_matches_direct_run_campaign(tmp_path):
    from repro import Technique, run_campaign
    from repro.eval import MAX_INSTRUCTIONS, prepare

    cell = run_cell(TINY, tmp_path, timeout=60)
    direct = run_campaign(prepare("crc32", Technique.NOFT), trials=8, seed=3,
                          max_instructions=MAX_INSTRUCTIONS)
    assert cell["ok"], cell["reason"]
    assert cell["data"]["outputs"] == direct.summary_dict()
    assert len(cell["data"]["trial_stamps"]) == 8
    [verdict] = check_cell(cell, direct.summary_dict())
    assert verdict["done"] and verdict["match"] and verdict["runs"] == 8


def test_cell_over_memory_cap_fails_with_reason(tmp_path):
    # crc32/SWIFT-R's JIT compile needs far more than 150 MB.
    spec = dict(TINY, id="crc32/swiftr", technique="swiftr", trials=2)
    cell = run_cell(spec, tmp_path, timeout=60, memory_cap_kib=150_000)
    assert not cell["ok"]
    assert cell["reason"] == "MemoryError"
    # Raised inside the cell's work and caught by its own handler, not
    # read back off stderr after a failed import.
    assert cell["data"] is not None
    assert cell["data"]["error"] == "MemoryError"
    [verdict] = check_cell(cell, {"trials": 2})
    assert not verdict["done"] and not verdict["match"]


def test_cell_timeout_is_a_failure(tmp_path):
    spec = dict(TINY, trials=250, benchmark="vortex", id="vortex/noft")
    cell = run_cell(spec, tmp_path, timeout=0.5)
    assert not cell["ok"]
    assert cell["reason"].startswith("timeout")


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        bench["command"] + ["--workload", "fig9", "--seed", "0",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
