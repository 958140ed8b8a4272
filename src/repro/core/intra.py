"""Intra-application DRM (the paper's stated future work, Section 8).

The paper's oracle adapts once per application run and explicitly "does
not represent the best possible DRM control algorithm because it does not
exploit intra-application variability".  This module adds that missing
oracle: a **per-phase DVS schedule** chosen so that the *run's
time-averaged FIT* stays within target while total instruction throughput
is maximised.

Because cool phases under-consume the reliability budget, an
intra-application schedule can run hot phases faster than any single
whole-run operating point could — banking inside a single run, the same
mechanism the paper invokes across time ("higher instantaneous FIT values
are compensated by lower values at other times") applied at phase
granularity.

Two search strategies:

- **exhaustive** — enumerate the per-phase grid product (exact oracle;
  feasible for the suite's 3-phase profiles on a reduced grid);
- **greedy** — start every phase at the DVS floor and repeatedly upgrade
  the phase with the best marginal throughput-per-FIT until no upgrade
  fits the budget (scales to many phases).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config.dvs import OperatingPoint, VoltageFrequencyCurve, DEFAULT_VF_CURVE
from repro.config.microarch import BASE_MICROARCH
from repro.constants import TARGET_FIT
from repro.core.decision import Decision, Oracle
from repro.core.ramp import RampModel
from repro.errors import AdaptationError
from repro.harness.platform import Platform
from repro.harness.sweep import SimulationCache
from repro.workloads.characteristics import WorkloadProfile


@dataclass(frozen=True, kw_only=True)
class IntraDecision(Decision):
    """A per-phase DVS schedule and its outcome.

    Extends the shared :class:`~repro.core.decision.Decision` record
    (profile_name / performance / fit / meets_target) with the schedule
    specifics:

    Attributes:
        t_qual_k: qualification temperature.
        schedule: one operating point per phase, in phase order.
        strategy: "exhaustive" or "greedy".
    """

    t_qual_k: float
    schedule: tuple[OperatingPoint, ...]
    strategy: str

    @property
    def frequencies_ghz(self) -> tuple[float, ...]:
        return tuple(op.frequency_ghz for op in self.schedule)


class IntraAppOracle(Oracle):
    """Oracle DRM with per-phase DVS schedules.

    Args:
        platform / cache / vf_curve / fit_target: as in
            :class:`~repro.core.drm.DRMOracle`; share them for
            apples-to-apples comparisons.
        ramp_factory: callable mapping T_qual to a qualified
            :class:`~repro.core.ramp.RampModel` (pass
            ``DRMOracle.ramp_for`` to share qualification).
        grid_steps: per-phase DVS candidates (the product space grows as
            ``grid_steps ** n_phases`` for the exhaustive strategy).
    """

    def __init__(
        self,
        ramp_factory,
        platform: Platform | None = None,
        cache: SimulationCache | None = None,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        fit_target: float = TARGET_FIT,
        grid_steps: int = 6,
    ) -> None:
        if grid_steps < 2:
            raise AdaptationError("need at least two DVS candidates per phase")
        super().__init__(platform, cache, vf_curve)
        self.ramp_factory = ramp_factory
        self.fit_target = fit_target
        self.grid_steps = grid_steps

    def _evaluate_schedules(
        self,
        profile: WorkloadProfile,
        schedules: Sequence[tuple[OperatingPoint, ...]],
        ramp: RampModel,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(performance, fit) arrays for a batch of per-phase schedules."""
        run = self.cache.run(profile, BASE_MICROARCH)
        batch = self.platform.evaluate_batch(run, schedules)
        perf = batch.ips / self.base_evaluation(profile).ips
        return perf, ramp.application_fit_batch(batch)

    def _evaluate_schedule(
        self, profile: WorkloadProfile, schedule: list[OperatingPoint], ramp: RampModel
    ) -> tuple[float, float]:
        """(performance, fit) of one per-phase schedule."""
        perf, fit = self._evaluate_schedules(profile, [tuple(schedule)], ramp)
        return float(perf[0]), float(fit[0])

    # ------------------------------------------------------------------

    #: Exhaustive-search batch size: the grid product is streamed through
    #: the kernel in chunks this large to bound peak memory.
    _CHUNK = 2048

    def best(
        self,
        profile: WorkloadProfile,
        *,
        t_qual_k: float,
        strategy: str = "greedy",
    ) -> IntraDecision:
        """The unified entry point: ``best(profile, t_qual_k=...,
        strategy="greedy"|"exhaustive")``.

        ``strategy`` defaults to the scalable greedy search.

        Raises:
            AdaptationError: for an unknown strategy.
        """
        if strategy == "exhaustive":
            return self.best_exhaustive(profile, t_qual_k=t_qual_k)
        if strategy == "greedy":
            return self.best_greedy(profile, t_qual_k=t_qual_k)
        raise AdaptationError(
            f"unknown intra-application strategy {strategy!r}"
        )

    def best_exhaustive(
        self, profile: WorkloadProfile, *, t_qual_k: float
    ) -> IntraDecision:
        """Exact per-phase oracle over the grid product.

        The product space is streamed through
        :meth:`~repro.harness.platform.Platform.evaluate_batch` in
        chunks, with running first-occurrence winners so the choice is
        identical to the original one-schedule-at-a-time loop.

        Falls back to the minimum-FIT schedule (flagged infeasible) when
        nothing meets the target, mirroring the inter-application oracle.
        """
        ramp = self.ramp_factory(t_qual_k)
        run = self.cache.run(profile, BASE_MICROARCH)
        grid = self.vf_curve.grid(self.grid_steps)
        best: tuple[float, tuple[OperatingPoint, ...], float] | None = None
        fallback: tuple[float, tuple[OperatingPoint, ...], float] | None = None
        combos = itertools.product(grid, repeat=len(run.phases))
        while True:
            chunk = list(itertools.islice(combos, self._CHUNK))
            if not chunk:
                break
            perf, fit = self._evaluate_schedules(profile, chunk, ramp)
            ok = np.flatnonzero(fit <= self.fit_target + 1e-9)
            if ok.size:
                j = int(ok[np.argmax(perf[ok])])
                if best is None or perf[j] > best[0]:
                    best = (float(perf[j]), chunk[j], float(fit[j]))
            j = int(np.argmin(fit))
            if fallback is None or fit[j] < fallback[2]:
                fallback = (float(perf[j]), chunk[j], float(fit[j]))
        chosen, meets = (best, True) if best is not None else (fallback, False)
        if chosen is None:
            raise AdaptationError("empty schedule space")
        return IntraDecision(
            profile_name=profile.name,
            t_qual_k=t_qual_k,
            schedule=chosen[1],
            performance=chosen[0],
            fit=chosen[2],
            meets_target=meets,
            strategy="exhaustive",
        )

    def best_greedy(
        self, profile: WorkloadProfile, *, t_qual_k: float
    ) -> IntraDecision:
        """Greedy marginal-upgrade search (scales to many phases).

        Starts all phases at the DVS floor and repeatedly applies the
        single-phase frequency upgrade with the largest performance gain
        that keeps the schedule within the FIT target; each round's
        candidate upgrades are evaluated as one batch.
        """
        ramp = self.ramp_factory(t_qual_k)
        run = self.cache.run(profile, BASE_MICROARCH)
        grid = list(self.vf_curve.grid(self.grid_steps))
        levels = [0] * len(run.phases)

        def schedule_for(lv: list[int]) -> list[OperatingPoint]:
            return [grid[i] for i in lv]

        perf, fit = self._evaluate_schedule(profile, schedule_for(levels), ramp)
        feasible = fit <= self.fit_target + 1e-9
        improved = True
        while improved:
            improved = False
            upgradable = [
                i for i in range(len(levels)) if levels[i] + 1 < len(grid)
            ]
            if not upgradable:
                break
            trials = []
            for phase_idx in upgradable:
                trial = list(levels)
                trial[phase_idx] += 1
                trials.append(tuple(schedule_for(trial)))
            t_perf, t_fit = self._evaluate_schedules(profile, trials, ramp)
            ok = np.flatnonzero(
                (t_fit <= self.fit_target + 1e-9) & (t_perf > perf)
            )
            if ok.size:
                j = int(ok[np.argmax(t_perf[ok])])
                perf, fit = float(t_perf[j]), float(t_fit[j])
                levels[upgradable[j]] += 1
                feasible = True
                improved = True
        return IntraDecision(
            profile_name=profile.name,
            t_qual_k=t_qual_k,
            schedule=tuple(schedule_for(levels)),
            performance=perf,
            fit=fit,
            meets_target=feasible,
            strategy="greedy",
        )
