"""Operation classes, functional-unit kinds, and Table 1 latencies.

Table 1 of the paper:

- Integer FU latencies: 1 (add), 7 (multiply), 12 (divide)
- FP FU latencies: 4 default, 12 for divide; FP divide is not pipelined
- Branches, calls, and returns resolve on an integer ALU in 1 cycle
- Loads and stores use an address-generation unit (1 cycle) followed by
  the memory hierarchy
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.workloads.trace import OpClass


class FuKind(enum.IntEnum):
    """Functional-unit pools in the modelled core."""

    IALU = 0
    FPU = 1
    AGEN = 2


@dataclass(frozen=True)
class OpTiming:
    """Execution timing for one op class.

    Attributes:
        latency: cycles from issue to result availability (for memory ops
            this is the address-generation portion only).
        pipelined: whether a new op of this class can enter the unit every
            cycle; non-pipelined ops occupy their unit for ``latency``
            cycles.
        fu: the functional-unit pool the op executes on.
    """

    latency: int
    pipelined: bool
    fu: FuKind


#: Timing for every op class (Table 1).  Integer divide shares the ALU's
#: iterative divider and is not pipelined, matching the FP divider note.
OP_LATENCY: dict[OpClass, OpTiming] = {
    OpClass.IALU: OpTiming(latency=1, pipelined=True, fu=FuKind.IALU),
    OpClass.IMUL: OpTiming(latency=7, pipelined=True, fu=FuKind.IALU),
    OpClass.IDIV: OpTiming(latency=12, pipelined=False, fu=FuKind.IALU),
    OpClass.FADD: OpTiming(latency=4, pipelined=True, fu=FuKind.FPU),
    OpClass.FMUL: OpTiming(latency=4, pipelined=True, fu=FuKind.FPU),
    OpClass.FDIV: OpTiming(latency=12, pipelined=False, fu=FuKind.FPU),
    OpClass.LOAD: OpTiming(latency=1, pipelined=True, fu=FuKind.AGEN),
    OpClass.STORE: OpTiming(latency=1, pipelined=True, fu=FuKind.AGEN),
    OpClass.BRANCH: OpTiming(latency=1, pipelined=True, fu=FuKind.IALU),
    OpClass.CALL: OpTiming(latency=1, pipelined=True, fu=FuKind.IALU),
    OpClass.RETURN: OpTiming(latency=1, pipelined=True, fu=FuKind.IALU),
}


#: :data:`OP_LATENCY` indexed by the op's integer value, for the
#: pipeline's issue loop: no :class:`OpClass` is built per lookup.
OP_TIMING: tuple[OpTiming, ...] = tuple(OP_LATENCY[OpClass(v)] for v in range(len(OpClass)))


def fu_kind_for(op: OpClass) -> FuKind:
    """The functional-unit pool an op class executes on."""
    return OP_LATENCY[op].fu


#: Cycles between a mispredicted branch resolving and correct-path
#: instructions entering the window (front-end refill of a deep 4 GHz
#: pipeline).
MISPREDICT_REDIRECT_PENALTY = 8
