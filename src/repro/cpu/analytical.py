"""Analytical frequency-scaling model for DVS.

The cycle-level simulator runs in *cycles at the base clock*.  Off-chip
latencies (the L2 and main memory in Table 1 are both off chip) are fixed
in nanoseconds, so when DVS changes the core clock the off-chip portion
of CPI scales with frequency while the core portion stays constant in
cycles:

    CPI(f) = CPI_core + CPI_mem * (f / f_base)

``CPI_mem`` comes from the simulator's stall attribution (cycles where
retirement was blocked by an off-chip access).  This is the standard
leading-loads style decomposition used by DVFS performance models, and it
is what lets the DRM/DTM sweeps explore 21 frequency points per
microarchitecture with a single cycle-level simulation each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.stats import SimulationStats
from repro.errors import SimulationError


@dataclass(frozen=True)
class FrequencyScalingModel:
    """Predicts performance of one simulated run at other frequencies.

    Attributes:
        cpi_core: frequency-invariant CPI component (cycles).
        cpi_mem: off-chip CPI component at the reference frequency.
        f_base_hz: frequency at which the simulation was run.
    """

    cpi_core: float
    cpi_mem: float
    f_base_hz: float

    def __post_init__(self) -> None:
        if self.cpi_core <= 0.0:
            raise SimulationError("cpi_core must be positive")
        if self.cpi_mem < 0.0:
            raise SimulationError("cpi_mem must be non-negative")
        if self.f_base_hz <= 0.0:
            raise SimulationError("base frequency must be positive")

    @classmethod
    def from_stats(cls, stats: SimulationStats, f_base_hz: float) -> "FrequencyScalingModel":
        """Build the model from one simulation's stall decomposition."""
        return cls(
            cpi_core=stats.cpi_core, cpi_mem=stats.cpi_mem, f_base_hz=f_base_hz
        )

    def cpi_at(self, frequency_hz: float) -> float:
        """Cycles per instruction at ``frequency_hz``."""
        if frequency_hz <= 0.0:
            raise SimulationError("frequency must be positive")
        return self.cpi_core + self.cpi_mem * (frequency_hz / self.f_base_hz)

    def ipc_at(self, frequency_hz: float) -> float:
        """Instructions per cycle at ``frequency_hz``."""
        return 1.0 / self.cpi_at(frequency_hz)

    def ips_at(self, frequency_hz: float) -> float:
        """Instructions per second at ``frequency_hz``.

        Monotonically increasing in f, but sub-linear for memory-bound
        runs — raising the clock cannot speed up DRAM.  Computed as the
        reciprocal of the time per instruction, ``cpi_core / f +
        cpi_mem / f_base``: every step is a correctly rounded monotone
        operation, so the result is monotone in floating point too
        (``f / cpi_at(f)`` can drop by an ulp across a one-ulp clock
        step).
        """
        if frequency_hz <= 0.0:
            raise SimulationError("frequency must be positive")
        return 1.0 / (self.cpi_core / frequency_hz + self.cpi_mem / self.f_base_hz)

    def speedup(self, frequency_hz: float, reference_hz: float | None = None) -> float:
        """Wall-clock speedup at ``frequency_hz`` vs ``reference_hz``.

        ``reference_hz`` defaults to the model's base frequency.
        """
        ref = self.f_base_hz if reference_hz is None else reference_hz
        return self.ips_at(frequency_hz) / self.ips_at(ref)
