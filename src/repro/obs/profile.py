"""Simulator hot-path profiler: the measurement layer for the JIT.

The interpreter's cost is dominated by a handful of basic blocks (inner
loops of the guest workload times the trial count of the campaign), but
until now nothing recorded *which* blocks those are.  This module
collects, per ``(function, block)``:

* **deterministic dynamic execution counts**, per instruction index --
  a pure function of the executed trials, so ``--jobs N`` shards merge
  to exactly the serial counts and two runs with the same seed agree
  bit for bit;
* **side-exit statistics** -- how each block activation ended (taken
  branch, fallthrough, call, return, clean exit, detection, trap,
  hang) -- which is what decides whether a block is a straight-line
  trace candidate or a dispatch hub;
* **fault-mode interaction counts** -- repair-block entries
  (``ACT_RECOVER``) attributed to the block they fired in, plus how
  many trials ran under taint tracing (the run loop reports those
  instructions to the tracker, so they are *not* counted here);
* **sampled wall time** -- a countdown sampler reads the clock once
  every ``sample_every`` instructions and attributes the elapsed slice
  to the block that tripped it.  Wall shares are noisy by design and
  excluded from every determinism guarantee; the deterministic counts
  carry the ranking.

The profiler attaches to a machine exactly like the taint tracker:
``machine.profile = SimProfiler()`` switches :meth:`Machine.run` onto the
hooked interpreter loop the tracker also uses; ``machine.profile = None``
(the default) keeps the fast loop untouched -- the only cost of the
feature existing is one attribute check per ``run()`` call, not per
instruction.  Attached, the profiler does no per-instruction work
either: each block activation reports where it started and ended, and
the per-index counts are derived from those spans.
"""

from __future__ import annotations

from itertools import accumulate
from time import perf_counter

from ..sim.events import RunHook

#: Side-exit kinds recorded per block, in report column order.
EXIT_KINDS = ("branch", "fall", "call", "ret", "exit",
              "detect", "trap", "hang")

#: Default instruction spacing of the wall-clock sampler.  At ~1M
#: interpreted instructions/sec this is a few hundred clock reads per
#: second: fine-grained enough to rank blocks, cheap enough to leave on.
DEFAULT_SAMPLE_EVERY = 4096


class SimProfiler(RunHook):
    """Accumulates per-block execution profiles across runs.

    One profiler can observe any number of runs and machines (the
    campaign runners attach one profiler around a whole campaign), and
    profilers from different shards of the same campaign merge
    associatively with :meth:`merge_from`.
    """

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        self.sample_every = max(int(sample_every), 1)
        #: (function, block) -> difference array of the per-index counts
        #: (one slot longer than the block): an activation that executed
        #: indices ``start..end-1`` adds 1 at ``start`` and -1 at ``end``.
        self._deltas: dict[tuple[str, str], list[int]] = {}
        #: (function, block) -> opcode names, parallel to index_counts.
        self.block_ops: dict[tuple[str, str], tuple[str, ...]] = {}
        #: (function, block) -> {exit kind -> count}.
        self.exits: dict[tuple[str, str], dict[str, int]] = {}
        #: (function, block) -> repair-block entries observed inside it.
        self.recoveries: dict[tuple[str, str], int] = {}
        #: (function, block) -> sampled wall seconds.
        self.wall: dict[tuple[str, str], float] = {}
        #: Trials that ran (partly) under taint tracing, whose
        #: instructions this profiler therefore did not see.
        self.taint_trials = 0
        #: function name -> whether the block JIT compiled it (None
        #: until :meth:`annotate_jit` runs; profiled execution itself
        #: always uses the hooked interpreter loop).
        self.jit_functions: dict[str, bool] | None = None
        self._countdown = self.sample_every
        self._last_sample = perf_counter()
        # The activation in progress: its key, difference array and
        # start index.
        self._key: tuple[str, str] | None = None
        self._delta: list[int] = []
        self._start = 0

    # ------------------------------------------------------------ loop hooks
    def on_block(self, function: str, block, start: int) -> None:
        key = (function, block.name)
        delta = self._deltas.get(key)
        if delta is None:
            delta = self._deltas[key] = [0] * (len(block.instrs) + 1)
            self.block_ops[key] = tuple(
                ins.op.name for ins in block.instrs)
            self.exits.setdefault(key, {})
        self._key = key
        self._delta = delta
        self._start = start
        # Wall sampler: advanced by the block's length per activation.
        self._countdown -= len(block.instrs)
        if self._countdown <= 0:
            now = perf_counter()
            self.wall[key] = (self.wall.get(key, 0.0)
                              + (now - self._last_sample))
            self._last_sample = now
            self._countdown = self.sample_every

    def on_exit(self, kind: str | None, end: int) -> None:
        delta = self._delta
        delta[self._start] += 1
        delta[end] -= 1
        if kind is not None:
            exits = self.exits[self._key]
            exits[kind] = exits.get(kind, 0) + 1

    def on_recovery(self, icount: int, loc: tuple[str, str, int]) -> None:
        key = self._key
        self.recoveries[key] = self.recoveries.get(key, 0) + 1

    def annotate_jit(self, machine) -> None:
        """Record which of ``machine``'s functions the block JIT
        compiled, so the hotspot report can show what fraction of the
        profiled dynamic instructions a ``--jit`` campaign executes in
        compiled code rather than interpreter fallback.

        This is the JIT's *static* compile decision per function
        (uncompilable functions fall back whole); the rare dynamic
        side exits -- injection pauses, mid-block resumes -- re-enter
        compiled code immediately, so function granularity is the
        honest approximation.  Profiled execution itself always runs
        the hooked interpreter loop; this only annotates.
        """
        from ..sim.jit import jit_program_for

        compiled = jit_program_for(machine)
        self.jit_functions = {
            name: compiled.tables(name)[0] is not None
            for name in machine.functions
        }

    # ------------------------------------------------------------- aggregates
    @property
    def index_counts(self) -> dict[tuple[str, str], list[int]]:
        """(function, block) -> per-instruction-index execution counts."""
        return {key: list(accumulate(delta[:-1]))
                for key, delta in self._deltas.items()}

    @property
    def total_instructions(self) -> int:
        return sum(sum(counts) for counts in self.index_counts.values())

    @property
    def total_wall(self) -> float:
        return sum(self.wall.values())

    def opcode_counts(self) -> dict[str, int]:
        """Dynamic execution count per opcode, derived from the block
        vectors (the hot loop never touches a per-opcode dict)."""
        totals: dict[str, int] = {}
        for key, counts in self.index_counts.items():
            ops = self.block_ops[key]
            for op, count in zip(ops, counts):
                if count:
                    totals[op] = totals.get(op, 0) + count
        return totals

    def merge_from(self, other: "SimProfiler") -> None:
        """Fold another shard's counts into this profiler.

        Merging is associative and order-independent for every
        deterministic field, which is what makes ``--jobs N`` profiles
        bit-identical to serial ones; wall samples simply add.
        """
        for key, delta in other._deltas.items():
            mine = self._deltas.get(key)
            if mine is None:
                self._deltas[key] = list(delta)
                self.block_ops[key] = other.block_ops[key]
            else:
                for i, count in enumerate(delta):
                    mine[i] += count
        for key, exits in other.exits.items():
            mine_exits = self.exits.setdefault(key, {})
            for kind, count in exits.items():
                mine_exits[kind] = mine_exits.get(kind, 0) + count
        for key, count in other.recoveries.items():
            self.recoveries[key] = self.recoveries.get(key, 0) + count
        for key, seconds in other.wall.items():
            self.wall[key] = self.wall.get(key, 0.0) + seconds
        self.taint_trials += other.taint_trials
        if other.jit_functions is not None:
            merged = dict(self.jit_functions or {})
            merged.update(other.jit_functions)
            self.jit_functions = merged

    # ---------------------------------------------------------------- export
    def to_records(self, context: dict | None = None) -> list[dict]:
        """JSONL-ready records: one summary, one per block, one per
        opcode.  Deterministic fields are exact; wall fields are the
        sampler's estimates."""
        index_counts = self.index_counts
        total = sum(sum(counts) for counts in index_counts.values())
        total_wall = self.total_wall
        records: list[dict] = []
        summary = {
            "kind": "profile_summary",
            "total_instructions": total,
            "blocks": len(index_counts),
            "sample_every": self.sample_every,
            "wall_seconds": round(total_wall, 6),
            "taint_trials": self.taint_trials,
        }
        if self.jit_functions is not None:
            jit_instructions = sum(
                sum(counts) for key, counts in index_counts.items()
                if self.jit_functions.get(key[0], False))
            summary["jit_instructions"] = jit_instructions
            summary["jit_coverage"] = (round(jit_instructions / total, 8)
                                       if total else 0.0)
        if context:
            summary.update(context)
        records.append(summary)
        for key in sorted(index_counts):
            counts = index_counts[key]
            instructions = sum(counts)
            record = {
                "kind": "block_profile",
                "function": key[0],
                "block": key[1],
                "instructions": instructions,
                "entries": counts[0] if counts else 0,
                "share": (round(instructions / total, 8) if total else 0.0),
                "exits": {k: v for k, v
                          in sorted(self.exits.get(key, {}).items())},
                "recoveries": self.recoveries.get(key, 0),
                "wall_seconds": round(self.wall.get(key, 0.0), 6),
                "index_counts": counts,
            }
            if self.jit_functions is not None:
                record["jit"] = self.jit_functions.get(key[0], False)
            if context:
                record.update(context)
            records.append(record)
        opcodes = self.opcode_counts()
        for op in sorted(opcodes, key=lambda o: (-opcodes[o], o)):
            record = {
                "kind": "opcode_profile",
                "op": op,
                "count": opcodes[op],
                "share": (round(opcodes[op] / total, 8) if total else 0.0),
            }
            if context:
                record.update(context)
            records.append(record)
        return records


# -------------------------------------------------------------- report
def _block_label(record: dict) -> str:
    return f"{record['function']}/{record['block']}"


def _merge_blocks(records) -> list[dict]:
    """Fold block records for the same block (e.g. one per fig8 cell)."""
    merged: dict[tuple[str, str], dict] = {}
    for record in records:
        key = (record["function"], record["block"])
        into = merged.get(key)
        if into is None:
            into = merged[key] = {
                "function": key[0], "block": key[1], "instructions": 0,
                "entries": 0, "recoveries": 0, "wall_seconds": 0.0,
                "exits": {},
            }
        into["instructions"] += record.get("instructions", 0)
        into["entries"] += record.get("entries", 0)
        into["recoveries"] += record.get("recoveries", 0)
        into["wall_seconds"] += record.get("wall_seconds", 0.0)
        if "jit" in record:
            into["jit"] = bool(into.get("jit", False) or record["jit"])
        for kind, count in record.get("exits", {}).items():
            into["exits"][kind] = into["exits"].get(kind, 0) + count
    return list(merged.values())


def _merge_opcodes(records) -> list[dict]:
    totals: dict[str, int] = {}
    for record in records:
        totals[record["op"]] = (totals.get(record["op"], 0)
                                + record.get("count", 0))
    return [{"op": op, "count": count} for op, count in totals.items()]


def hotspot_tables(records: list[dict], top: int = 10) -> list:
    """The JIT candidate report's tables over exported profile records.

    Ranks blocks by exact dynamic instruction share (the deterministic
    signal a tracing JIT would key on), annotates each with its
    side-exit mix and fault-mode interactions, and appends the
    per-opcode dynamic-share table, whose shares sum to 1.
    """
    from .emit import Table

    blocks = _merge_blocks(
        r for r in records if r.get("kind") == "block_profile")
    opcodes = _merge_opcodes(
        r for r in records if r.get("kind") == "opcode_profile")
    summaries = [r for r in records if r.get("kind") == "profile_summary"]
    if not blocks:
        return []
    total = sum(r["instructions"] for r in blocks)
    total_wall = sum(r.get("wall_seconds", 0.0) for r in blocks)
    has_jit = any("jit" in r for r in blocks)
    blocks.sort(key=lambda r: (-r["instructions"], _block_label(r)))
    rows = []
    cumulative = 0
    for rank, record in enumerate(blocks[:top], start=1):
        cumulative += record["instructions"]
        entries = record.get("entries", 0)
        exits = record.get("exits", {})
        side = " ".join(f"{kind}:{exits[kind]}" for kind in EXIT_KINDS
                        if exits.get(kind))
        wall = record.get("wall_seconds", 0.0)
        row = [
            rank,
            _block_label(record),
            record["instructions"],
            f"{100.0 * record['instructions'] / total:6.2f}",
            f"{100.0 * cumulative / total:6.2f}",
            entries,
            (f"{record['instructions'] / entries:6.1f}"
             if entries else "-"),
            (f"{100.0 * wall / total_wall:5.1f}" if total_wall else "-"),
            record.get("recoveries", 0),
        ]
        if has_jit:
            row.append("yes" if record.get("jit") else "no")
        row.append(side or "-")
        rows.append(row)
    headers = ["#", "block", "instrs", "share%", "cum%", "entries",
               "instrs/entry", "wall%", "recov"]
    if has_jit:
        headers.append("jit")
    headers.append("exits")
    main = Table(
        title=f"JIT candidates: top {min(top, len(blocks))} of "
              f"{len(blocks)} blocks by dynamic instruction share "
              f"({total} instructions)",
        columns=headers, rows=rows,
    )
    tables = [main]

    jit_cut = 0
    running = 0
    for record in blocks:
        running += record["instructions"]
        jit_cut += 1
        if running >= 0.8 * total:
            break
    notes = [f"{jit_cut} block(s) cover 80% of all dynamic instructions."]
    if has_jit and total:
        covered = sum(r["instructions"] for r in blocks if r.get("jit"))
        notes.append(
            f"JIT coverage: {100.0 * covered / total:.2f}% of dynamic "
            "instructions lie in compiled blocks; the rest run in the "
            "interpreter fallback under --jit.")
    taint_trials = sum(r.get("taint_trials", 0) for r in summaries)
    if taint_trials:
        notes.append(
            f"{taint_trials} trial(s) ran under taint tracing; their "
            "instructions executed in the traced loop and are not "
            "counted above.")
    main.notes = notes

    if opcodes:
        op_total = sum(r["count"] for r in opcodes)
        op_rows = [
            [r["op"], r["count"],
             f"{100.0 * r['count'] / op_total:6.2f}"]
            for r in sorted(opcodes,
                            key=lambda r: (-r["count"], r["op"]))
        ]
        share_sum = sum(r["count"] / op_total for r in opcodes)
        tables.append(Table(
            title=f"Per-opcode dynamic shares ({len(opcodes)} opcodes, "
                  f"shares sum to {share_sum:.6f})",
            columns=["opcode", "count", "share%"], rows=op_rows,
        ))
    return tables


def render_hotspots(records: list[dict], top: int = 10,
                    fmt: str = "text") -> str:
    """Render the JIT candidate report (see :func:`hotspot_tables`)."""
    from .emit import emit_tables

    return emit_tables(hotspot_tables(records, top=top), fmt,
                       kind="hotspots",
                       empty="(no profile records)")
