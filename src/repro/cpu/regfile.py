"""Physical register file port-traffic model.

Table 1's base machine has separate 192-entry integer and floating-point
physical register files.  For timing we assume enough rename registers
(192 each comfortably covers a 128-entry window), so the register files
never stall the pipeline; what RAMP needs from them is *activity* — read
and write port traffic — which drives their dynamic power and
electromigration current density.
"""

from __future__ import annotations

import numpy as np

from repro.config.microarch import MicroarchConfig
from repro.errors import ConfigurationError
from repro.workloads.trace import OpClass, Trace

_FP_OPS = {int(OpClass.FADD), int(OpClass.FMUL), int(OpClass.FDIV)}
_NO_DEST = {int(OpClass.STORE), int(OpClass.BRANCH)}


class RegisterFileModel:
    """Counts read/write port traffic on the INT and FP register files.

    Args:
        config: supplies the register-file sizes (for capacity checks and
            the activity-factor normalisation in stats).
    """

    def __init__(self, config: MicroarchConfig) -> None:
        if config.int_registers < config.window_size:
            raise ConfigurationError(
                "integer register file smaller than the window cannot "
                "sustain rename"
            )
        self.config = config
        self.int_reads = 0
        self.int_writes = 0
        self.fp_reads = 0
        self.fp_writes = 0

    def record_issue(self, op: int, n_sources: int, fp_dest: bool) -> None:
        """Charge the port traffic for one issuing instruction.

        FP arithmetic reads FP sources; everything else reads integer
        sources (address operands, integer data).  The destination write
        goes to the file named by ``fp_dest`` (loads may write either).
        """
        self._charge(op, n_sources, 1 if fp_dest else 0, 0 if fp_dest else 1)

    def record_trace(self, trace: Trace) -> None:
        """Charge every instruction of ``trace`` once, as :meth:`record_issue`
        would when it issues.

        A pipeline run that completes issues each instruction exactly
        once, and the traffic does not depend on when, so the run can
        charge its whole trace in one pass per op class.
        """
        n_sources = (trace.dep1 != 0).astype(np.int64) + (trace.dep2 != 0)
        for op in OpClass:
            mask = trace.op == op
            count = int(np.count_nonzero(mask))
            if count:
                fp_dests = int(np.count_nonzero(trace.fp_dest & mask))
                self._charge(int(op), int(n_sources[mask].sum()), fp_dests, count - fp_dests)

    def _charge(self, op: int, reads: int, fp_writes: int, int_writes: int) -> None:
        if op in _FP_OPS:
            self.fp_reads += reads
        else:
            self.int_reads += reads
        if op in _NO_DEST:
            return
        self.fp_writes += fp_writes
        self.int_writes += int_writes

    def traffic(self) -> tuple[int, int]:
        """Total (integer, floating-point) port events."""
        return (self.int_reads + self.int_writes, self.fp_reads + self.fp_writes)
