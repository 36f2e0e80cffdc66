"""Fault-provenance taint tracing (the forensics substrate).

A :class:`TaintTracker` follows the corruption introduced by one SEU
through the faulty run's dataflow: the flipped register bit is tagged at
:meth:`Machine.flip_register_bit`, and taint then propagates through
register computation, memory cells, compares and branches, and the
call/argument stacks, emitting a bounded per-trial event stream that
:mod:`repro.obs.forensics` turns into a *mechanism* for every trial
(``repaired-by-vote``, ``escaped-via-store``, ...).

Design constraints, in order:

* **Zero cost when off.**  The tracker hooks the run loop only through
  ``Machine.taint``; with the attribute ``None`` (the default) the
  machine executes its original tight loop, so campaigns without
  ``--taint`` are bit- and speed-identical to before.
* **Sound over-approximation.**  Taint is a per-register 64-bit *mask*
  of possibly-wrong bits.  Every rule over-approximates the set of bits
  that can differ from the fault-free execution, so real corruption is
  never missed; conservative residue (taint on values that happen to be
  correct) is possible and is reported honestly as such.
* **Value-sensitive squashing.**  Because the tracker runs inside the
  simulator it can read operand *values*, which makes the squashing
  mechanisms of the paper visible exactly where they act:
  ``and r, r, keep`` kills taint in the masked-off bits (MASK),
  bitwise-majority votes kill minority taint (SWIFT-R's branch-free
  style), and multiplication by a clean zero kills taint outright.
  SWIFT-R's branching votes and TRUMP's divisibility recovery repair by
  *moving from a clean copy*, which ordinary dataflow handles: the
  tainted register is overwritten from an untainted source and the
  clearing event is attributed to the instruction's :class:`Role`.

The event stream is bounded two ways: at most ``max_events`` records
are kept per trial (later ones are counted, not stored), and tracing
detaches after ``max_steps`` traced instructions so a hung faulty run
does not trace millions of loop iterations.  Aggregates (event counts,
first escape, first control divergence, residual taint) are maintained
unconditionally and exported in a final ``taint_summary`` record, so
the forensics classification never depends on the caps.
"""

from __future__ import annotations

from ..isa.instruction import Instruction, Role
from ..isa.opcodes import Opcode, OpKind
from ..isa.operands import MASK64
from ..isa.registers import Register
from .events import RunHook

#: Default per-trial cap on *stored* event records.
DEFAULT_MAX_EVENTS = 256

#: Default cap on traced dynamic instructions after the flip; beyond it
#: the run loop falls back to the untraced path (results are identical,
#: the event stream is just marked truncated).
DEFAULT_MAX_STEPS = 1_000_000

#: Roles whose stores move values inside the ECC-protected stack frame
#: (register-allocator traffic); their taint flow is tracked but they
#: are not output-boundary escapes.
_FRAME_ROLES = (Role.SPILL, Role.FRAME)

_REPAIR_EVENTS = ("voted-out", "repaired")

#: Kinds handled by the generic register-computation path.
_COMPUTE_KINDS = (OpKind.ARITH, OpKind.LOGICAL, OpKind.SHIFT,
                  OpKind.COMPARE, OpKind.MOVE)


def _loc_str(loc: tuple[str, str, int]) -> str:
    return f"{loc[0]}/{loc[1]}/{loc[2]}"


class TaintTracker(RunHook):
    """Per-trial taint state plus its bounded event stream.

    Create one tracker per trial and hand it to the injector
    (``run_with_fault(..., taint=tracker)``); after the run, dump the
    stream with :meth:`export`.  The tracker is inert until
    :meth:`on_flip` seeds it with the injected bit.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS,
                 max_steps: int = DEFAULT_MAX_STEPS) -> None:
        self.max_events = max_events
        self.max_steps = max_steps
        # Shadow taint state, mirrors of the machine's files (built at
        # flip time so the tracker needs no machine reference before).
        self.regs: list[int] = []
        self.fregs: list[int] = []
        self.mem: dict[int, int] = {}
        self.args: list[list[int]] = []
        self.ret_taint = 0
        self._pending_args: list[int] = []
        # Event stream + unconditional aggregates.
        self.events: list[dict] = []
        self.counts: dict[str, int] = {}
        self.dropped = 0
        self.steps = 0
        self.exhausted = False
        self.converged_at: int | None = None
        self.first_escape: dict | None = None
        self.first_control: dict | None = None
        self.first_wild: dict | None = None
        self.first_repair: dict | None = None
        self.created: dict | None = None

    # ------------------------------------------------------------ events
    def _emit(self, event: str, icount: int, loc: tuple[str, str, int],
              instr: Instruction | None, **extra) -> dict:
        self.counts[event] = self.counts.get(event, 0) + 1
        record = {"kind": "taint", "event": event, "icount": icount,
                  "loc": _loc_str(loc)}
        if instr is not None:
            record["instr"] = repr(instr)
            record["role"] = instr.role.value
        record.update(extra)
        if len(self.events) < self.max_events:
            self.events.append(record)
        else:
            self.dropped += 1
        return record

    # ------------------------------------------------------- lifecycle
    def on_flip(self, machine, reg_index: int, bit: int) -> None:
        """Seed the taint state with the injected bit (called by
        :meth:`Machine.flip_register_bit`)."""
        self.regs = [0] * len(machine.regs)
        self.fregs = [0] * len(machine.fregs)
        self.mem = {}
        self.args = [[0] * len(frame) for frame in machine.arg_stack]
        self.ret_taint = 0
        self.regs[reg_index] = 1 << bit
        loc = machine.current_location() or ("?", "?", 0)
        self.created = self._emit("created", machine.icount, loc, None,
                                  reg=reg_index, bit=bit)

    def on_converged(self, icount: int) -> None:
        """The faulty state provably re-joined the golden run: every
        remaining taint bit is dead (called by the checkpointed injector
        when it splices the golden suffix)."""
        self.converged_at = icount
        self.regs = [0] * len(self.regs)
        self.fregs = [0] * len(self.fregs)
        self.mem = {}
        self.counts["converged"] = self.counts.get("converged", 0) + 1

    def on_recovery(self, icount: int, loc: tuple[str, str, int]) -> None:
        self._emit("recovery-entered", icount, loc, None)

    def on_detect(self, icount: int, loc: tuple[str, str, int]) -> None:
        self._emit("detected", icount, loc, None)

    def on_call(self) -> None:
        self.args.append(self._pending_args)
        self._pending_args = []

    def on_ret(self, dest: int, dest_float: bool) -> None:
        if self.args:
            self.args.pop()
        if dest >= 0:
            if dest_float:
                self.fregs[dest] = MASK64 if self.ret_taint else 0
            else:
                self.regs[dest] = self.ret_taint
        self.ret_taint = 0

    # ------------------------------------------------------- propagation
    def _operand(self, machine, operand) -> tuple[int, int]:
        """(value, taint mask) of an integer-file operand."""
        if isinstance(operand, Register):
            slot = machine.slot_of(operand)
            return machine.regs[slot], self.regs[slot]
        return operand.value, 0

    def _source_taint(self, machine, operand) -> int:
        if isinstance(operand, Register):
            slot = machine.slot_of(operand)
            return (self.fregs[slot] if operand.is_float
                    else self.regs[slot])
        return 0

    def _write(self, machine, instr: Instruction, new_taint: int,
               src_taint: int, icount: int, loc) -> None:
        """Set the destination's taint and emit propagate/clear events."""
        dest = instr.dest
        slot = machine.slot_of(dest)
        file = self.fregs if dest.is_float else self.regs
        old = file[slot]
        file[slot] = new_taint
        if new_taint:
            if not old:
                self._emit("propagated", icount, loc, instr)
            return
        if not old and not src_taint:
            return
        # Taint died here: attribute the clearing to the instruction.
        role = instr.role
        if role is Role.VOTE:
            event = "voted-out"
        elif role is Role.RECOVERY:
            event = "repaired"
        elif role is Role.MASK:
            event = "masked"
        elif old and not src_taint:
            event = "overwritten"
        else:
            event = "masked"
        record = self._emit(event, icount, loc, instr)
        if event in _REPAIR_EVENTS and self.first_repair is None:
            self.first_repair = record

    def _escape(self, record: dict) -> None:
        if self.first_escape is None:
            self.first_escape = record

    @staticmethod
    def _carry_mask(taint: int) -> int:
        """Every bit at or above the lowest tainted bit (add/sub carries
        only travel upward)."""
        if not taint:
            return 0
        low = taint & -taint
        return MASK64 & ~(low - 1)

    def before_step(self, machine, instr: Instruction, icount: int,
                    loc: tuple[str, str, int]) -> None:
        """Propagate taint for ``instr`` using the machine's pre-execution
        state; called by the hooked run loop immediately before the
        compiled step executes."""
        self.steps += 1
        if self.steps >= self.max_steps:
            self.exhausted = True
        op = instr.op
        kind = op.kind

        if kind in _COMPUTE_KINDS:
            if instr.dest is None:
                return
            if op is Opcode.LI:
                self._write(machine, instr, 0, 0, icount, loc)
                return
            if len(instr.srcs) == 1:
                _va, ta = self._operand(machine, instr.srcs[0])
                if op is Opcode.NEG:
                    new = self._carry_mask(ta)   # borrow travels upward
                else:                            # MOV / NOT: bit-local
                    new = ta
                self._write(machine, instr, new, ta, icount, loc)
                return
            va, ta = self._operand(machine, instr.srcs[0])
            vb, tb = self._operand(machine, instr.srcs[1])
            union = ta | tb
            if not union:
                self._write(machine, instr, 0, 0, icount, loc)
                return
            new = self._binop_taint(op, va, ta, vb, tb)
            self._write(machine, instr, new, union, icount, loc)
            return

        if kind is OpKind.LOAD:
            self._load(machine, instr, icount, loc, float_dest=False)
            return

        if kind is OpKind.STORE:
            self._store(machine, instr, icount, loc, float_value=False)
            return

        if kind is OpKind.BRANCH:
            _va, ta = self._operand(machine, instr.srcs[0])
            _vb, tb = self._operand(machine, instr.srcs[1])
            if not (ta | tb):
                return
            if instr.is_protection:
                # A protection check *reading* the taint is the detection
                # mechanism at work, not a divergence.
                self._emit("checked", icount, loc, instr)
            else:
                record = self._emit("branched", icount, loc, instr)
                if self.first_control is None:
                    self.first_control = record
            return

        if kind is OpKind.CALL:
            self._pending_args = [
                self._source_taint(machine, src) for src in instr.srcs
            ]
            return

        if kind is OpKind.RET:
            self.ret_taint = (self._source_taint(machine, instr.srcs[0])
                              if instr.srcs else 0)
            return

        if kind is OpKind.PARAM:
            idx = instr.srcs[0].value
            taint = 0
            if self.args and idx < len(self.args[-1]):
                taint = self.args[-1][idx]
            if instr.dest.is_float:
                taint = MASK64 if taint else 0
            self._write(machine, instr, taint, taint, icount, loc)
            return

        if kind is OpKind.IO:
            if not instr.srcs:           # DETECT carries no operand
                return
            taint = self._source_taint(machine, instr.srcs[0])
            if taint:
                record = self._emit("escaped-to-output", icount, loc, instr)
                self._escape(record)
            return

        if kind is OpKind.FP:
            self._fp_step(machine, instr, icount, loc)
            return

        if kind is OpKind.FMEM:
            if op is Opcode.FLOAD:
                self._load(machine, instr, icount, loc, float_dest=True)
            else:
                self._store(machine, instr, icount, loc, float_value=True)
            return
        # JUMP and NOP carry no dataflow.

    # FCMP*/CVTFI live under OpKind.FP but write an integer destination.
    def _fp_step(self, machine, instr: Instruction, icount: int, loc) -> None:
        taint = 0
        for src in instr.srcs:
            taint |= self._source_taint(machine, src)
        if instr.dest is None:
            return
        if instr.dest.is_float:
            new = MASK64 if taint else 0
        elif instr.op is Opcode.CVTFI:
            new = MASK64 if taint else 0     # full value, not a 0/1 flag
        else:
            new = 1 if taint else 0          # FP compares: 0/1 result
        self._write(machine, instr, new, taint, icount, loc)

    def _load(self, machine, instr: Instruction, icount: int, loc,
              float_dest: bool) -> None:
        base_slot = machine.slot_of(instr.srcs[0])
        if self.regs[base_slot]:
            record = self._emit("wild-address", icount, loc, instr)
            if self.first_wild is None:
                self.first_wild = record
            self._write(machine, instr, MASK64, MASK64, icount, loc)
            return
        addr = (machine.regs[base_slot] + instr.srcs[1].signed) & MASK64
        cell = self.mem.get(addr, 0)
        if cell:
            self._emit("loaded", icount, loc, instr, addr=addr)
        new = (MASK64 if cell else 0) if float_dest else cell
        self._write(machine, instr, new, cell, icount, loc)

    def _store(self, machine, instr: Instruction, icount: int, loc,
               float_value: bool) -> None:
        base_slot = machine.slot_of(instr.srcs[0])
        taint = self._source_taint(machine, instr.srcs[2])
        addr = (machine.regs[base_slot] + instr.srcs[1].signed) & MASK64
        if self.regs[base_slot]:
            # The address itself is corrupt: the value lands somewhere it
            # should not, and the intended cell silently keeps its stale
            # contents -- untrackable precisely, so flag it globally.
            self.mem[addr] = MASK64
            record = self._emit("wild-store", icount, loc, instr, addr=addr)
            if self.first_wild is None:
                self.first_wild = record
            return
        if taint:
            self.mem[addr] = MASK64 if float_value else taint
            segment = machine.memory.segment_of(addr)
            record = self._emit("stored", icount, loc, instr,
                                addr=addr, segment=segment)
            if instr.role not in _FRAME_ROLES:
                self._escape(record)
        elif self.mem.pop(addr, 0):
            self._emit("overwritten", icount, loc, instr, addr=addr)

    def _binop_taint(self, op: Opcode, va: int, ta: int,
                     vb: int, tb: int) -> int:
        """Taint mask of a two-source integer operation (some source is
        tainted).  Rules over-approximate: a cleared bit is provably
        equal to the fault-free value."""
        if op is Opcode.AND:
            # A tainted bit survives only if the other side lets it
            # through (is 1, or is itself tainted).
            return (ta & (vb | tb)) | (tb & (va | ta))
        if op is Opcode.OR:
            # A tainted bit survives only if the other side fails to
            # dominate it (is 0, or is itself tainted).
            inv_a = MASK64 & ~va
            inv_b = MASK64 & ~vb
            return (ta & (inv_b | tb)) | (tb & (inv_a | ta))
        if op is Opcode.XOR:
            return ta | tb
        if op in (Opcode.ADD, Opcode.SUB):
            return self._carry_mask(ta | tb)
        if op is Opcode.MUL:
            # Multiplication by a provably clean zero squashes anything.
            if (not ta and va == 0) or (not tb and vb == 0):
                return 0
            return MASK64
        if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
            if tb:
                return MASK64            # corrupt shift amount
            shift = vb & 63
            if op is Opcode.SHL:
                return (ta << shift) & MASK64
            if op is Opcode.SHR:
                return ta >> shift
            spread = ta >> shift
            if ta & (1 << 63) and shift:
                spread |= MASK64 & ~(MASK64 >> shift)
            return spread
        if op.kind is OpKind.COMPARE:
            return 1                     # 0/1 result, possibly flipped
        return MASK64                    # DIV, REM: no bitwise structure

    # ---------------------------------------------------------- export
    def residual(self) -> tuple[int, int]:
        """(tainted registers, tainted memory cells) still live."""
        regs = sum(1 for t in self.regs if t) + sum(
            1 for t in self.fregs if t)
        return regs, len(self.mem)

    def summary(self) -> dict:
        residual_regs, residual_mem = self.residual()
        return {
            "kind": "taint_summary",
            "counts": dict(sorted(self.counts.items())),
            "events_dropped": self.dropped,
            "traced_steps": self.steps,
            "truncated": self.exhausted,
            "converged_icount": self.converged_at,
            "residual_regs": residual_regs,
            "residual_mem": residual_mem,
            "created": self.created,
            "first_escape": self.first_escape,
            "first_control": self.first_control,
            "first_wild": self.first_wild,
            "first_repair": self.first_repair,
        }

    def export(self, trial: int) -> list[dict]:
        """The trial's event records plus its closing summary record."""
        records = []
        for event in self.events:
            record = dict(event)
            record["trial"] = trial
            records.append(record)
        summary = self.summary()
        summary["trial"] = trial
        records.append(summary)
        return records
