"""In-order superscalar timing model with a small data cache.

The paper measures execution time on a PPC970, a wide out-of-order
machine, and observes that software-TMR costs far less than 3x because
the redundant instructions are independent and soak up spare ILP slots
(Section 7.2).  This model reproduces that mechanism with the standard
scoreboard approximation:

* up to ``width`` instructions issue per cycle, in program order;
* an instruction stalls until its source registers are ready;
* results become ready ``latency`` cycles after issue (per-opcode
  latencies from :mod:`repro.isa.opcodes`);
* loads hit a direct-mapped data cache or pay ``miss_penalty``;
* taken branches and calls/returns insert small front-end bubbles.

The timing executor re-runs the functional closures of a compiled
:class:`~repro.sim.machine.Machine` while keeping the scoreboard, so
cycle counts always correspond to the real executed path.  It is used
fault-free only (the paper's performance runs inject no faults).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..isa.instruction import Role
from ..isa.opcodes import Opcode, OpKind
from ..isa.operands import Imm, MASK64
from ..isa.registers import Register
from .events import GuestTrap, RunStatus, TrapKind
from .machine import (
    ACT_CALL,
    ACT_DETECT,
    ACT_EXIT,
    ACT_RECOVER,
    ACT_RET,
    Machine,
)


@dataclass(frozen=True)
class TimingConfig:
    """Microarchitectural parameters of the modeled core."""

    width: int = 4                 # issue width (PPC970 is 4-5 wide)
    cache_sets: int = 512          # direct-mapped D-cache: 512 x 64B = 32 KiB
    line_bytes: int = 64
    #: Effective L1-hit load-to-use latency.  The PPC970 is out of order
    #: and hides most of its raw 3-5 cycle L1 latency behind independent
    #: work; an in-order scoreboard has no such slack, so the effective
    #: hit latency is calibrated low to compensate (see DESIGN.md).
    load_hit_latency: int = 1
    miss_penalty: int = 30
    taken_branch_penalty: int = 1
    call_penalty: int = 2


@dataclass
class TimingResult:
    """Cycle-level outcome of one fault-free execution."""

    cycles: int
    instructions: int
    loads: int = 0
    load_misses: int = 0
    status: RunStatus = RunStatus.EXITED
    role_counts: dict[str, int] = field(default_factory=dict)
    #: Per-function issue-cycle attribution (oprofile-style; only
    #: populated when the simulator runs with ``profile=True``).
    function_cycles: dict[str, int] = field(default_factory=dict)
    function_instructions: dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def miss_rate(self) -> float:
        return self.load_misses / self.loads if self.loads else 0.0


# Metadata kinds (must match Machine._PLAIN .. Machine._RET).
_PLAIN, _LOAD, _STORE, _BRANCH, _JUMP, _CALL, _RET = range(7)

#: Offset distinguishing float-register slots in the ready map.
_FLOAT_SLOT_BASE = Machine._FLOAT_SLOT_BASE


class TimingSimulator:
    """Executes a compiled machine while accounting cycles."""

    def __init__(self, machine: Machine, config: TimingConfig | None = None):
        self.machine = machine
        self.config = config or TimingConfig()

    def run(self, profile: bool = False) -> TimingResult:
        machine = self.machine
        machine.reset()
        fn_cycles: dict[str, int] = {}
        fn_instrs: dict[str, int] = {}
        last_cycle = 0
        config = self.config
        width = config.width
        miss_penalty = config.miss_penalty
        line_shift = config.line_bytes.bit_length() - 1
        num_sets = config.cache_sets
        tags: dict[int, int] = {}

        ready: dict[int, int] = {}
        cycle = 0
        used = 0
        loads = 0
        misses = 0
        role_counts: dict[str, int] = {}
        status = RunStatus.EXITED

        func = machine.entry
        block_idx = 0
        i = 0
        icount = 0
        hard_limit = machine.max_instructions
        try:
            while True:
                block = func.blocks[block_idx]
                steps = block.steps
                metas = block.meta
                n = len(steps)
                advanced = False
                while i < n:
                    if icount >= hard_limit:
                        status = RunStatus.HANG
                        raise _Done()
                    icount += 1
                    kind, dest, srcs, latency, mem, role = metas[i]
                    # --- scoreboard: earliest issue cycle -------------------
                    earliest = cycle
                    for slot in srcs:
                        t = ready.get(slot, 0)
                        if t > earliest:
                            earliest = t
                    if earliest > cycle:
                        cycle = earliest
                        used = 0
                    elif used >= width:
                        cycle += 1
                        used = 0
                    used += 1
                    role_counts[role] = role_counts.get(role, 0) + 1
                    if profile:
                        name = func.name
                        fn_cycles[name] = (fn_cycles.get(name, 0)
                                           + cycle - last_cycle)
                        fn_instrs[name] = fn_instrs.get(name, 0) + 1
                        last_cycle = cycle
                    # --- cache ----------------------------------------------
                    if mem is not None:
                        base_slot, offset = mem
                        addr = (machine.regs[base_slot] + offset) & MASK64
                        line = addr >> line_shift
                        set_idx = line % num_sets
                        if kind == _LOAD:
                            loads += 1
                            if tags.get(set_idx) != line:
                                latency = miss_penalty
                                misses += 1
                            else:
                                latency = config.load_hit_latency
                        tags[set_idx] = line
                    if dest >= 0:
                        ready[dest] = cycle + latency
                    # --- execute functionally --------------------------------
                    act = steps[i](machine)
                    if act is None:
                        i += 1
                        continue
                    if act >= 0:
                        block_idx = act
                        i = 0
                        advanced = True
                        cycle += config.taken_branch_penalty
                        used = 0
                        break
                    if act == ACT_CALL:
                        machine.call_stack.append(
                            (func, block_idx, i + 1,
                             machine.pending_dest, machine.pending_dest_float)
                        )
                        func = machine.pending_callee
                        block_idx = 0
                        i = 0
                        advanced = True
                        cycle += config.call_penalty
                        used = 0
                        break
                    if act == ACT_RET:
                        frame = machine._return_to_caller()
                        if frame is None:
                            raise _Done()
                        func, block_idx, i, dest_slot, dest_float = frame
                        if dest_slot >= 0:
                            if dest_float:
                                dest_slot += _FLOAT_SLOT_BASE
                            ready[dest_slot] = cycle + 1
                        advanced = True
                        cycle += config.call_penalty
                        used = 0
                        break
                    if act == ACT_EXIT:
                        raise _Done()
                    if act == ACT_DETECT:
                        status = RunStatus.DETECTED
                        raise _Done()
                    if act == ACT_RECOVER:
                        machine.recoveries += 1
                        if machine.first_recovery_icount is None:
                            machine.first_recovery_icount = icount
                        i += 1
                        continue
                    raise SimulationError(f"bad step action {act}")
                if not advanced:
                    block_idx += 1
                    i = 0
                    if block_idx >= len(func.blocks):
                        raise GuestTrap(
                            TrapKind.SEGFAULT,
                            f"control fell off the end of {func.name}",
                        )
        except _Done:
            pass
        except GuestTrap:
            status = RunStatus.TRAPPED
        machine.icount = icount
        return TimingResult(
            cycles=max(cycle, 1),
            instructions=icount,
            loads=loads,
            load_misses=misses,
            status=status,
            role_counts=role_counts,
            function_cycles=fn_cycles,
            function_instructions=fn_instrs,
        )


class _Done(Exception):
    """Internal: terminate the timing loop."""


def measure_cycles(program, config: TimingConfig | None = None,
                   max_instructions: int = 10_000_000) -> TimingResult:
    """Compile and time one fault-free execution of ``program``."""
    machine = Machine(program, max_instructions=max_instructions)
    return TimingSimulator(machine, config).run()
