"""Run statuses, guest traps, and run results for the simulator.

Guest-program failures are *data*, not exceptions: a run always returns
a :class:`RunResult`.  The paper's outcome taxonomy (unACE / SDC / SEGV)
is applied later by :mod:`repro.faults.outcomes` by comparing a faulty
run's result against the golden run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class TrapKind(enum.Enum):
    """Abnormal-termination causes inside the guest."""

    SEGFAULT = "segfault"          # unmapped or misaligned memory access
    DIV_BY_ZERO = "div_by_zero"    # integer division/remainder by zero
    BAD_CONVERT = "bad_convert"    # float->int of NaN/inf
    ILLEGAL = "illegal_instruction"  # corrupted encoding failed to decode


class GuestTrap(Exception):
    """Raised internally while executing guest code; caught by the run loop."""

    def __init__(self, kind: TrapKind, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind.value}: {detail}")


class RunStatus(enum.Enum):
    """How a (segment of a) run ended."""

    EXITED = "exited"        # clean termination (EXIT or return from entry)
    TRAPPED = "trapped"      # abnormal termination (see trap_kind)
    DETECTED = "detected"    # a software check fired (SWIFT's faultDet)
    HANG = "hang"            # instruction budget exhausted
    PAUSED = "paused"        # internal: hit the step limit, resumable


@dataclass
class RunResult:
    """Everything observable about one execution."""

    status: RunStatus
    exit_code: int = 0
    trap_kind: TrapKind | None = None
    trap_detail: str = ""
    output: list = field(default_factory=list)
    instructions: int = 0
    recoveries: int = 0      # times TRUMP/SWIFT-R repair code actually fired
    #: Dynamic icount at which the first repair block was entered, or
    #: ``None`` if no repair fired.  Telemetry derives detection latency
    #: from this (see :mod:`repro.obs.campaign_log`).
    first_recovery_icount: int | None = None

    @property
    def completed(self) -> bool:
        return self.status is RunStatus.EXITED

    def output_equals(self, other: "RunResult") -> bool:
        return self.output == other.output

    def __repr__(self) -> str:
        return (
            f"<RunResult {self.status.value} exit={self.exit_code} "
            f"instrs={self.instructions} out={len(self.output)} items>"
        )


class RunHook:
    """Observer of :meth:`Machine.run`'s hooked interpreter loop.

    Attaching a hook (``machine.taint`` or ``machine.profile``) moves
    execution onto the one loop that reports these events; execution
    itself is bit-identical either way.  Every method is a no-op here, so
    an observer overrides only the events it needs.
    """

    #: ``before_step(machine, instr, icount, loc)`` -- called before each
    #: instruction executes, with the icount it will retire at and its
    #: ``(function, block, index)`` location; ``None`` skips the call.
    before_step = None
    #: Set by an observer whose step budget ran out: the loop hands the
    #: rest of the run back to :meth:`Machine.run` at the next step.
    exhausted = False

    def on_block(self, function: str, block, start: int) -> None:
        """An activation of compiled ``block`` begins at index ``start``."""

    def on_exit(self, kind: str | None, end: int) -> None:
        """The current activation ended after executing up to (not
        including) index ``end``; ``kind`` is one of the profiler's
        ``EXIT_KINDS``, or ``None`` for a pause."""

    def on_call(self) -> None:
        """A call frame was pushed; the callee runs next."""

    def on_ret(self, dest: int, dest_float: bool) -> None:
        """A callee returned into register slot ``dest`` (-1: none)."""

    def on_detect(self, icount: int, loc: tuple[str, str, int]) -> None:
        """A detection check fired at ``loc``."""

    def on_recovery(self, icount: int, loc: tuple[str, str, int]) -> None:
        """Control entered a repair block at ``loc``."""
