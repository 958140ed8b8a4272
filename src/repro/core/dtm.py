"""Dynamic Thermal Management comparator (Section 7.3).

DTM picks the highest-performance DVS operating point that keeps the
hottest on-chip structure at or below the thermal design point T_limit.
Unlike DRM's T_qual, T_limit is a hard instantaneous cap: DRM is allowed
to exceed its temperature as long as the *time-averaged* FIT stays within
target, while DTM ignores voltage/utilisation effects on wear-out.

The paper's Figure 4 shows that the two policies choose different
frequencies — the DTM frequency/temperature curve is steeper, the curves
cross at an application-dependent point, and each policy violates the
other's constraint on one side of the crossover.  The bench for Figure 4
uses this class side by side with the DRM oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.dvs import OperatingPoint, VoltageFrequencyCurve, DEFAULT_VF_CURVE
from repro.config.microarch import BASE_MICROARCH
from repro.constants import validate_temperature
from repro.core.decision import Decision, Oracle
from repro.errors import AdaptationError
from repro.harness.platform import Platform
from repro.harness.sweep import SimulationCache
from repro.workloads.characteristics import WorkloadProfile


@dataclass(frozen=True, kw_only=True)
class DTMDecision(Decision):
    """DTM's choice for one (application, T_limit).

    Extends the shared :class:`~repro.core.decision.Decision` record;
    ``meets_target`` is the thermal verdict (False only when even the
    slowest DVS point overheats) and ``fit`` stays ``nan`` — DTM is
    deliberately blind to wear-out.

    Attributes:
        t_limit_k: the thermal design point.
        op: the chosen operating point.
        peak_temperature_k: hottest structure temperature at the choice.
    """

    t_limit_k: float
    op: OperatingPoint
    peak_temperature_k: float


class DTMOracle(Oracle):
    """Oracle DVS-based dynamic thermal management.

    Args:
        platform / cache / vf_curve / dvs_steps: as in the DRM oracle;
        sharing the same cache and platform keeps the comparison apples
        to apples.
    """

    def __init__(
        self,
        platform: Platform | None = None,
        cache: SimulationCache | None = None,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        dvs_steps: int = 26,
    ) -> None:
        super().__init__(platform, cache, vf_curve)
        self.dvs_steps = dvs_steps

    def best(
        self, profile: WorkloadProfile, *, t_limit_k: float
    ) -> DTMDecision:
        """Highest-performance DVS point with peak temperature ≤ T_limit.

        Keyword-only: ``best(profile, t_limit_k=355.0)``.  The whole DVS
        grid is evaluated in one
        :meth:`~repro.harness.platform.Platform.evaluate_batch` call.

        Falls back to the coolest candidate (``meets_target=False``) when
        the limit is unattainable even at the DVS floor.
        """
        validate_temperature(t_limit_k, what="T_limit")
        grid = self.vf_curve.grid(self.dvs_steps)
        if not grid:
            raise AdaptationError("DVS grid is empty")
        run = self.cache.run(profile, BASE_MICROARCH)
        base = self.base_evaluation(profile)
        batch = self.platform.evaluate_batch(run, grid)
        perf = batch.ips / base.ips
        peak = batch.peak_temperature_k
        meets = peak <= t_limit_k + 1e-9
        if np.any(meets):
            chosen = np.flatnonzero(meets)
            pick = int(chosen[np.argmax(perf[chosen])])
        else:
            pick = int(np.argmin(peak))
        return DTMDecision(
            profile_name=profile.name,
            t_limit_k=t_limit_k,
            op=grid[pick],
            performance=float(perf[pick]),
            peak_temperature_k=float(peak[pick]),
            meets_target=bool(meets[pick]),
        )
