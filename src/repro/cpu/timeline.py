"""Per-instruction pipeline timelines.

When :class:`~repro.cpu.pipeline.PipelineEngine` is asked to record a
timeline, it notes the fetch, issue, completion, and retire cycle of
every instruction.  This module holds the container plus the analysis
and rendering helpers — the moral equivalent of a pipeline-viewer dump,
in plain text:

- dispatch-to-issue queueing time per instruction;
- average window occupancy via Little's law;
- a Gantt-style text rendering of any instruction range, which makes
  stalls (a load miss holding retirement, a mispredict bubble) directly
  visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.workloads.trace import OpClass, Trace

#: Stage glyphs used by the Gantt rendering.
GANTT = {"fetch": "F", "wait": ".", "execute": "E", "done": "-", "retire": "R"}


@dataclass(frozen=True)
class Timeline:
    """Cycle stamps for every instruction of one simulation.

    Attributes:
        fetch / issue / complete / retire: per-instruction cycle numbers.
        trace: the simulated trace (for op classes in rendering).
        cycles: total cycles of the run.
    """

    fetch: np.ndarray
    issue: np.ndarray
    complete: np.ndarray
    retire: np.ndarray
    trace: Trace
    cycles: int

    def __post_init__(self) -> None:
        n = len(self.trace)
        for name in ("fetch", "issue", "complete", "retire"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise SimulationError(f"timeline {name} length mismatch")
        if (self.fetch < 0).any():
            raise SimulationError("timeline has unfetched instructions")

    # ---- stage statistics ------------------------------------------------

    def queue_delays(self) -> np.ndarray:
        """Cycles each instruction waited in the window before issuing."""
        return self.issue - self.fetch

    def window_occupancy(self) -> float:
        """Average in-flight instructions (Little's law: N = λ·T)."""
        residency = (self.retire - self.fetch + 1).sum()
        return float(residency) / self.cycles

    def ordered(self) -> bool:
        """Whether retirement is in program order (a pipeline invariant)."""
        return bool((np.diff(self.retire) >= 0).all())

    # ---- rendering ---------------------------------------------------------

    def render_gantt(self, start: int, count: int = 16, max_width: int = 100) -> str:
        """Text Gantt chart of instructions [start, start+count).

        Each row is one instruction: ``F`` fetch, ``.`` waiting in the
        window, ``E`` executing, ``-`` complete but not retired, ``R``
        retire.  Rows longer than ``max_width`` cycles are clipped on the
        right.

        Raises:
            SimulationError: if the range is out of bounds.
        """
        n = len(self.trace)
        if not 0 <= start < n or count <= 0:
            raise SimulationError("gantt range out of bounds")
        end = min(n, start + count)
        base_cycle = int(self.fetch[start])
        lines = []
        for i in range(start, end):
            f = int(self.fetch[i]) - base_cycle
            s = int(self.issue[i]) - base_cycle
            c = int(self.complete[i]) - base_cycle
            r = int(self.retire[i]) - base_cycle
            width = min(r + 1, max_width)
            row = []
            for cycle in range(width):
                if cycle < f:
                    row.append(" ")
                elif cycle == f:
                    row.append(GANTT["fetch"])
                elif cycle < s:
                    row.append(GANTT["wait"])
                elif cycle < c:
                    row.append(GANTT["execute"])
                elif cycle < r:
                    row.append(GANTT["done"])
                else:
                    row.append(GANTT["retire"])
            op = OpClass(int(self.trace.op[i])).name
            lines.append(f"{i:6d} {op:7s} |{''.join(row)}")
        header = (
            f"cycles {base_cycle}.. (F=fetch, .=wait, E=execute, -=done, R=retire)"
        )
        return header + "\n" + "\n".join(lines)
