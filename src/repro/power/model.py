"""Combined power model: dynamic + leakage, with thermal feedback.

Leakage depends on temperature while temperature depends on total power,
so the two are solved as a fixed point: the
:class:`~repro.harness.platform.Platform` iterates power -> temperature ->
leakage until the total converges.  This module provides the per-iteration
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.dvs import OperatingPoint
from repro.config.microarch import MicroarchConfig
from repro.config.technology import TechnologyParameters, DEFAULT_TECHNOLOGY
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import LeakagePowerModel


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-structure power at one evaluation point.

    Attributes:
        dynamic: per-structure dynamic power (W).
        leakage: per-structure leakage power (W).
    """

    dynamic: dict[str, float]
    leakage: dict[str, float]

    def structure_total(self, name: str) -> float:
        """Total (dynamic + leakage) power of one structure."""
        return self.dynamic[name] + self.leakage[name]

    def totals(self) -> dict[str, float]:
        """Per-structure total power."""
        return {n: self.structure_total(n) for n in self.dynamic}

    @property
    def total_w(self) -> float:
        """Whole-core power in watts."""
        return sum(self.dynamic.values()) + sum(self.leakage.values())



class PowerModel:
    """Evaluates total per-structure power for one accounting interval.

    Args:
        technology: process parameters (defaults to the paper's 65 nm).
        dynamic_scale: global multiplier on dynamic power density (used by
            the technology-scaling study; 1.0 = the calibrated 65 nm core).
    """

    def __init__(
        self,
        technology: TechnologyParameters = DEFAULT_TECHNOLOGY,
        dynamic_scale: float = 1.0,
    ) -> None:
        self.technology = technology
        self.dynamic = DynamicPowerModel(technology, scale=dynamic_scale)
        self.leakage = LeakagePowerModel(technology)

    def evaluate(
        self,
        activity: dict[str, float],
        config: MicroarchConfig,
        op: OperatingPoint,
        temperatures: dict[str, float],
    ) -> PowerBreakdown:
        """Power breakdown given per-structure temperatures."""
        return PowerBreakdown(
            dynamic=self.dynamic.structure_power(activity, config, op),
            leakage=self.leakage.structure_power(temperatures, config, op),
        )
