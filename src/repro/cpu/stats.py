"""Simulation statistics and per-structure activity factors.

RAMP consumes three things from the timing simulator:

1. **IPC** (performance);
2. **per-structure activity factors** — the switching-probability proxy
   in the electromigration model and the access-rate input to the Wattch
   style power model;
3. a **core/memory stall decomposition** that lets the analytical model
   rescale performance when DVS changes the clock while off-chip
   latencies stay fixed in nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.microarch import MicroarchConfig
from repro.config.technology import STRUCTURE_NAMES
from repro.errors import SimulationError


@dataclass(frozen=True)
class SimulationStats:
    """Results of one trace simulation.

    Attributes:
        instructions / cycles: run length (cycles at the base clock).
        config: the microarchitecture simulated.
        activity: per-structure activity factor in [0, 1], keyed by the
            canonical structure names of :mod:`repro.config.technology`.
        mem_stall_cycles: cycles attributed to off-chip misses blocking
            retirement (these scale with frequency under DVS).
        branch_mispredict_rate: fraction of dynamic branches mispredicted.
        l1d_miss_rate / l1i_miss_rate / l2_miss_rate: cache miss rates.
        lsq_forwards: loads satisfied by store-to-load forwarding.
        ras_mispredicts: returns whose RAS-predicted target was wrong.
    """

    instructions: int
    cycles: int
    config: MicroarchConfig
    activity: dict[str, float]
    mem_stall_cycles: int
    branch_mispredict_rate: float
    l1d_miss_rate: float
    l1i_miss_rate: float
    l2_miss_rate: float
    lsq_forwards: int = 0
    ras_mispredicts: int = 0

    def __post_init__(self) -> None:
        if self.instructions <= 0 or self.cycles <= 0:
            raise SimulationError("stats need positive instruction/cycle counts")
        missing = set(STRUCTURE_NAMES) - set(self.activity)
        if missing:
            raise SimulationError(f"activity missing structures: {sorted(missing)}")
        bad = {k: v for k, v in self.activity.items() if not 0.0 <= v <= 1.0}
        if bad:
            raise SimulationError(f"activity factors outside [0,1]: {bad}")
        if self.mem_stall_cycles > self.cycles:
            raise SimulationError("memory stalls exceed total cycles")

    @property
    def ipc(self) -> float:
        """Instructions per cycle at the base clock."""
        return self.instructions / self.cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction at the base clock."""
        return self.cycles / self.instructions

    @property
    def cpi_mem(self) -> float:
        """The memory (off-chip) component of CPI.

        Off-chip latency is fixed in nanoseconds, so this component grows
        proportionally to frequency under DVS.
        """
        return self.mem_stall_cycles / self.instructions

    @property
    def cpi_core(self) -> float:
        """The frequency-invariant (in cycles) component of CPI."""
        return (self.cycles - self.mem_stall_cycles) / self.instructions
