"""Dynamic Reliability Management: the oracle adaptation study (Sec. 4-5).

The paper evaluates DRM's *potential* with an oracle that, for each
application and each qualification point T_qual, picks the adaptation
configuration with the best performance whose application FIT stays
within the qualified target.  Three adaptation spaces:

- **Arch** — the 18 microarchitectural configurations (window size,
  ALU/FPU count) at the base voltage and frequency.  Since the base
  machine is already the most aggressive configuration, Arch can only
  throttle: its relative performance is capped at 1.0.
- **DVS** — frequency 2.5-5.0 GHz with the Pentium-M-style V(f) law, on
  the most aggressive microarchitecture.
- **ArchDVS** — the cross product.

Every microarchitecture needs one cycle-level simulation per
application; DVS points are evaluated analytically from that simulation,
then run through the power/thermal fixed point and RAMP.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from repro.config.dvs import OperatingPoint, VoltageFrequencyCurve, DEFAULT_VF_CURVE
from repro.config.microarch import BASE_MICROARCH, MicroarchConfig, arch_adaptation_space
from repro.config.technology import STRUCTURE_NAMES
from repro.constants import TARGET_FIT
from repro.core.decision import Decision, Oracle
from repro.core.qualification import QualificationPoint, calibrate
from repro.core.ramp import AppReliability, RampModel
from repro.errors import AdaptationError
from repro.harness.platform import Platform, PlatformEvaluation
from repro.harness.sweep import SimulationCache
from repro.workloads.characteristics import WorkloadProfile
from repro.workloads.suite import WORKLOAD_SUITE


class AdaptationMode(enum.Enum):
    """Which adaptation space the DRM oracle searches."""

    ARCH = "arch"
    DVS = "dvs"
    ARCHDVS = "archdvs"


@dataclass(frozen=True, kw_only=True)
class DRMDecision(Decision):
    """The oracle's choice for one (application, T_qual, mode).

    Extends the shared :class:`~repro.core.decision.Decision` record
    (profile_name / performance / fit / meets_target) with the DRM
    specifics:

    Attributes:
        t_qual_k: the qualification temperature (cost proxy).
        mode: the adaptation space searched.
        config: chosen microarchitecture.
        op: chosen operating point.
    """

    t_qual_k: float
    mode: AdaptationMode
    config: MicroarchConfig
    op: OperatingPoint


class DRMOracle(Oracle):
    """Oracle DRM search over the adaptation spaces.

    Args:
        platform: the power/thermal platform (a default one if omitted).
        cache: cycle-level simulation cache (shared across benches).
        vf_curve: DVS law.
        fit_target: the qualified processor failure rate (~4000 FIT).
        dvs_steps: DVS grid resolution.
        suite: applications used to derive p_qual (per-structure worst
            activity), per the paper's methodology.
    """

    def __init__(
        self,
        platform: Platform | None = None,
        cache: SimulationCache | None = None,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        fit_target: float = TARGET_FIT,
        dvs_steps: int = 26,
        suite: tuple[WorkloadProfile, ...] = WORKLOAD_SUITE,
    ) -> None:
        super().__init__(platform, cache, vf_curve)
        self.fit_target = fit_target
        self.dvs_steps = dvs_steps
        self.suite = suite

    # ---- qualification ------------------------------------------------

    def p_qual(self) -> dict[str, float]:
        """Per-structure worst-case activity across the suite.

        The paper fixes p_qual to the highest activity factor obtained
        across the application suite from the timing simulator; we keep
        it per structure so electromigration qualification is worst case
        for every structure individually.  Memoised.
        """
        return self._memo.get_or_compute("p_qual", self._worst_activity)

    def _worst_activity(self) -> dict[str, float]:
        worst = {name: 0.0 for name in STRUCTURE_NAMES}
        for profile in self.suite:
            run = self.cache.run(profile, BASE_MICROARCH)
            for pr in run.phases:
                for name, a in pr.stats.activity.items():
                    worst[name] = max(worst[name], a)
        return worst

    def qualification_point(self, t_qual_k: float) -> QualificationPoint:
        """Build the qualification point for a given T_qual."""
        tech = self.platform.technology
        return QualificationPoint(
            temperature_k=t_qual_k,
            voltage_v=tech.vdd_nominal_v,
            frequency_hz=tech.frequency_nominal_hz,
            activity=self.p_qual(),
        )

    def ramp_for(self, t_qual_k: float) -> RampModel:
        """The RAMP model qualified at ``t_qual_k`` (memoised)."""
        return self._memo.get_or_compute(
            ("ramp", t_qual_k),
            lambda: RampModel(
                calibrate(
                    self.qualification_point(t_qual_k),
                    fit_target=self.fit_target,
                    technology=self.platform.technology,
                )
            ),
        )

    # ---- evaluation ----------------------------------------------------

    def evaluate_candidate(
        self,
        profile: WorkloadProfile,
        config: MicroarchConfig,
        op: OperatingPoint,
        ramp: RampModel,
    ) -> tuple[float, AppReliability, PlatformEvaluation]:
        """(performance, reliability, evaluation) of one candidate."""
        run = self.cache.run(profile, config)
        evaluation = self.platform.evaluate(run, op)
        reliability = ramp.application_reliability(evaluation)
        performance = evaluation.ips / self.base_evaluation(profile).ips
        return performance, reliability, evaluation

    def candidates(self, mode: AdaptationMode) -> list[tuple[MicroarchConfig, OperatingPoint]]:
        """The adaptation space for a mode."""
        nominal = self.vf_curve.nominal
        grid = self.vf_curve.grid(self.dvs_steps)
        if mode is AdaptationMode.ARCH:
            return [(c, nominal) for c in arch_adaptation_space()]
        if mode is AdaptationMode.DVS:
            return [(BASE_MICROARCH, op) for op in grid]
        if mode is AdaptationMode.ARCHDVS:
            return [
                (c, op) for c in arch_adaptation_space() for op in grid
            ]
        raise AdaptationError(f"unknown adaptation mode {mode!r}")

    # ---- the oracle -----------------------------------------------------

    def best(
        self,
        profile: WorkloadProfile,
        *,
        t_qual_k: float,
        mode: AdaptationMode = AdaptationMode.ARCHDVS,
    ) -> DRMDecision:
        """Best-performing candidate within the FIT target.

        Keyword-only: ``best(profile, t_qual_k=370.0, mode=...)``.
        ``mode`` defaults to the full ArchDVS space.

        The whole adaptation space is evaluated through
        :meth:`~repro.harness.platform.Platform.evaluate_batch` — one
        batched grid per microarchitecture (DVS points share a
        simulation) — and the winner is selected with first-occurrence
        argmax semantics, matching the original per-candidate loop.

        If no candidate meets the target (a drastically under-designed
        processor), the oracle throttles as far as the adaptation space
        allows: it returns the best-performing candidate at the minimum
        achievable FIT, flagged ``meets_target=False``.
        """
        ramp = self.ramp_for(t_qual_k)
        cands = self.candidates(mode)
        if not cands:
            raise AdaptationError("adaptation space is empty")
        # Fetch every simulation the space needs in one call, so a cold
        # decision prepares the profile once for all its configurations.
        configs = list(dict.fromkeys(config for config, _ in cands))
        runs = self.cache.run_many([profile], configs, max_workers=1)
        base_ips = self.base_evaluation(profile).ips
        perf_parts = []
        fit_parts = []
        # The candidate list is config-major, so each groupby run is one
        # microarchitecture's full DVS sub-grid: one simulation, one
        # batched evaluation.
        for config, group in itertools.groupby(cands, key=lambda ca: ca[0]):
            ops = [op for _, op in group]
            run = runs[(profile.name, config.describe())]
            batch = self.platform.evaluate_batch(run, ops)
            perf_parts.append(batch.ips / base_ips)
            fit_parts.append(ramp.application_fit_batch(batch))
        perf = np.concatenate(perf_parts)
        fit = np.concatenate(fit_parts)
        meets = fit <= self.fit_target + 1e-9
        if np.any(meets):
            chosen = np.flatnonzero(meets)
        else:
            floor = float(fit.min()) * (1.0 + 1e-9)
            chosen = np.flatnonzero(fit <= floor)
        pick = int(chosen[np.argmax(perf[chosen])])
        config, op = cands[pick]
        return DRMDecision(
            profile_name=profile.name,
            t_qual_k=t_qual_k,
            mode=mode,
            config=config,
            op=op,
            performance=float(perf[pick]),
            fit=float(fit[pick]),
            meets_target=bool(meets[pick]),
        )
