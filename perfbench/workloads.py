"""The benchmark's four workloads, as lists of cells.

A cell is one unit a user runs: one ``repro campaign`` call, one
extension fault-model campaign, or the whole ``repro fig9`` grid.  Each
cell runs in its own child process (see ``isolate.py``), one at a time.

``--seed n`` selects input set ``n mod INPUT_SETS``; input set ``k`` runs
every campaign with campaign seed ``k``, except vortex/NOFT (see
``VORTEX_NOFT_SEED``).  ``reference.json`` records the outputs of every
input set, so every run is checked in full.
``fig9`` is fault-free and has no seed.
"""

from __future__ import annotations

#: Input sets with recorded reference outputs (``record.py`` records them).
INPUT_SETS = 16

#: (benchmark, technique) cells of the Figure-8 style register-SEU
#: campaigns.  equake/SWIFT-R is left out: the default engine raises
#: MemoryError on it under the 4 GB cap, and the workloads must not fail.
PAPER_CELLS = (("vortex", "noft"), ("vortex", "trump"), ("vortex", "swiftr"),
               ("equake", "noft"), ("equake", "trump"))
PAPER_TRIALS = 250

#: vortex/NOFT keeps this campaign seed in every input set.  Its wall time
#: is set by how many of its 250 trials hang (1 to 6 across seeds 0-15,
#: each running to the 20M-instruction budget in about 2 s), which swung
#: the workload's wall time by about a third from one seed to the next.
VORTEX_NOFT_SEED = 0

FORENSICS_CELLS = (("crc32", "noft"), ("crc32", "swiftr"),
                   ("adpcmdec", "noft"), ("adpcmdec", "swiftr"))
FORENSICS_TRIALS = 60

FAULTMODEL_CELLS = (("opcode", "sort", "noft"), ("opcode", "sort", "swiftr"),
                    ("wildjump", "sort", "noft"),
                    ("wildjump", "sort", "swiftr"))
FAULTMODEL_TRIALS = 120

WORKLOADS = ("paper-cells", "forensics", "faultmodels", "fig9")


def cells(workload: str, input_set: int) -> list[dict]:
    """The cell specs of ``workload`` for one input set."""
    if workload == "paper-cells":
        return [{"id": f"{b}/{t}", "kind": "seu", "benchmark": b,
                 "technique": t, "trials": PAPER_TRIALS,
                 "seed": (VORTEX_NOFT_SEED if (b, t) == ("vortex", "noft")
                          else input_set)}
                for b, t in PAPER_CELLS]
    if workload == "forensics":
        return [{"id": f"{b}/{t}", "kind": "forensics", "benchmark": b,
                 "technique": t, "trials": FORENSICS_TRIALS,
                 "seed": input_set}
                for b, t in FORENSICS_CELLS]
    if workload == "faultmodels":
        return [{"id": f"{k}/{b}/{t}", "kind": k, "benchmark": b,
                 "technique": t, "trials": FAULTMODEL_TRIALS,
                 "seed": input_set}
                for k, b, t in FAULTMODEL_CELLS]
    if workload == "fig9":
        return [{"id": "fig9", "kind": "fig9"}]
    raise ValueError(f"unknown workload {workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")


def reference_key(spec: dict) -> str:
    """The key of a cell's record in ``reference.json``: everything that
    determines its outputs."""
    if spec["kind"] == "fig9":
        return "fig9"
    return "/".join(str(spec[k]) for k in ("kind", "benchmark", "technique",
                                           "trials", "seed"))
