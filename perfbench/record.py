"""Record the reference outputs every benchmark run is checked against.

Usage::

    python3 perfbench/record.py

Fills in whatever ``reference.json`` lacks for input sets
``0 .. INPUT_SETS-1`` of every workload.  Records are keyed by everything that
determines a cell's outputs (``workloads.reference_key``), so input sets
share the records of cells they have in common.  Each cell runs
``cell.py`` in reference mode in its own process (see
``cell.reference`` for the engines used), and the file is rewritten after
every cell, so an interrupted recording resumes where it stopped.
Recording every set from scratch takes about half an hour on one core.
"""

from __future__ import annotations

import json
import shutil
import sys

from isolate import ROOT, run_cell
from workloads import INPUT_SETS, WORKLOADS, cells, reference_key

REFERENCE = ROOT / "perfbench" / "reference.json"
SCRATCH = ROOT / ".perfbench" / "record"


def save(records: dict) -> None:
    tmp = REFERENCE.with_suffix(".tmp")
    tmp.write_text(json.dumps({"schema": 2, "records": records}, indent=1,
                              sort_keys=True) + "\n")
    tmp.replace(REFERENCE)


def main() -> int:
    records = (json.loads(REFERENCE.read_text())["records"]
               if REFERENCE.exists() else {})
    try:
        for index in range(INPUT_SETS):
            for workload in WORKLOADS:
                for spec in cells(workload, index):
                    key = reference_key(spec)
                    if key in records:
                        continue
                    cell = run_cell(dict(spec, reference=True), SCRATCH,
                                    timeout=3600)
                    if not cell["ok"]:
                        sys.exit(f"reference {key} failed: {cell['reason']}")
                    print(f"  {key}: {cell['end_t'] - cell['spawn_t']:.1f}s",
                          flush=True)
                    records[key] = cell["data"]["outputs"]
                    save(records)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
