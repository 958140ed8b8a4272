"""Functional-unit pools with per-unit occupancy tracking.

The core has three pools (Table 1): integer ALUs, floating-point units,
and address-generation units.  A pipelined op occupies its unit for one
cycle regardless of latency; non-pipelined ops (the dividers) hold the
unit for their full latency.  Busy-cycle counts feed the per-structure
activity factors RAMP's electromigration model consumes.
"""

from __future__ import annotations

from repro.config.microarch import MicroarchConfig
from repro.cpu.isa import FuKind, OpTiming
from repro.errors import ConfigurationError


class FunctionalUnitPool:
    """A pool of identical functional units.

    Args:
        kind: which pool this is (for stats labels).
        n_units: number of units in the pool.
    """

    def __init__(self, kind: FuKind, n_units: int) -> None:
        if n_units <= 0:
            raise ConfigurationError(f"{kind.name} pool must have >= 1 unit")
        self.kind = kind
        self.n_units = n_units
        #: Per unit, the first cycle it can accept another op.
        self.free_at = [0] * n_units
        self.busy_cycles = 0
        self.issues = 0

    def try_issue(self, cycle: int, timing: OpTiming) -> bool:
        """Claim a unit for an op issuing at ``cycle``.

        Returns False when every unit is busy (structural hazard).
        """
        occupancy = 1 if timing.pipelined else timing.latency
        for i, free in enumerate(self.free_at):
            if free <= cycle:
                self.free_at[i] = cycle + occupancy
                self.busy_cycles += occupancy
                self.issues += 1
                return True
        return False

    def available(self, cycle: int) -> int:
        """How many units could accept an op at ``cycle``."""
        return sum(1 for free in self.free_at if free <= cycle)

    def utilization(self, cycles: int) -> float:
        """Busy unit-cycles as a fraction of total unit-cycles."""
        if cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / (self.n_units * cycles))


class FunctionalUnits:
    """The three pools for a given microarchitectural configuration."""

    def __init__(self, config: MicroarchConfig) -> None:
        self.pools: dict[FuKind, FunctionalUnitPool] = {
            FuKind.IALU: FunctionalUnitPool(FuKind.IALU, config.n_ialu),
            FuKind.FPU: FunctionalUnitPool(FuKind.FPU, config.n_fpu),
            FuKind.AGEN: FunctionalUnitPool(FuKind.AGEN, config.n_agen),
        }

    def try_issue(self, cycle: int, timing: OpTiming) -> bool:
        """Claim a unit in the op's pool; False on structural hazard."""
        return self.pools[timing.fu].try_issue(cycle, timing)

    def utilization(self, kind: FuKind, cycles: int) -> float:
        """Pool utilisation over the run."""
        return self.pools[kind].utilization(cycles)
