"""The paper's two-pass heat-sink initialisation methodology.

Section 6.3: the heat sink's RC time constant is far larger than any
feasible simulation, so HotSpot must be initialised with the right sink
temperature.  The paper runs every simulation twice — the first run
collects average per-structure power, which feeds a steady-state solve
for the long-run sink temperature; the second (measured) run starts from
that sink state.

Here the "runs" are the per-phase power assignments: pass one averages
them by time weight and computes the steady sink temperature; pass two
(``solver.solve_with_fixed_sink``) solves each phase's temperature field
with the sink pinned there.
"""

from __future__ import annotations

from repro.errors import ThermalError
from repro.thermal.rc_network import ThermalRCNetwork
from repro.thermal.solver import SteadyStateSolver


class TwoPassThermalModel:
    """Per-phase temperatures with a correctly initialised heat sink.

    Args:
        network: the assembled thermal RC network.
    """

    def __init__(self, network: ThermalRCNetwork) -> None:
        self.network = network
        self.solver = SteadyStateSolver(network)

    def average_power(
        self, phase_powers: list[tuple[dict[str, float], float]]
    ) -> dict[str, float]:
        """Time-weighted average per-structure power across phases.

        Args:
            phase_powers: (per-block power, weight) pairs.

        Raises:
            ThermalError: if empty or the weights sum to zero.
        """
        if not phase_powers:
            raise ThermalError("no phases to average")
        total = sum(w for _, w in phase_powers)
        if total <= 0.0:
            raise ThermalError("phase weights must sum to a positive value")
        avg = {name: 0.0 for name in self.network.block_names}
        for power, weight in phase_powers:
            for name in self.network.block_names:
                avg[name] += power.get(name, 0.0) * (weight / total)
        return avg

    def sink_temperature(
        self, phase_powers: list[tuple[dict[str, float], float]]
    ) -> float:
        """Pass one: the long-run steady heat-sink temperature."""
        avg = self.average_power(phase_powers)
        full = self.solver.solve_full(avg)
        return float(full[self.network.sink_index])
