"""Feedback DRM controllers (the paper's stated future work).

The paper evaluates DRM with an oracle that knows each application's
behaviour in advance.  Its conclusion section promises "specific adaptive
control algorithms ... that offer the promise of close to optimal choice
of adaptive configurations".  This module implements the natural first
candidate: a proportional-integral DVS controller regulated on the
reliability bank of :class:`~repro.core.budget.ReliabilityBudget` — run
epoch by epoch over an application's phases with no foreknowledge.

The controller ablation bench compares it against the oracle: it should
approach oracle performance while keeping the lifetime-average FIT at or
below target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.config.dvs import OperatingPoint, VoltageFrequencyCurve, DEFAULT_VF_CURVE
from repro.constants import FIT_DEVICE_HOURS, HOURS_PER_YEAR
from repro.core.budget import ReliabilityBudget
from repro.core.ramp import RampModel
from repro.core.redundancy import RedundancyPlan
from repro.cpu.simulator import WorkloadRun
from repro.errors import AdaptationError
from repro.harness.platform import Platform


@dataclass(frozen=True)
class ControllerEpoch:
    """One control epoch's record.

    Attributes:
        op: the operating point used during the epoch.
        fit: the FIT rate observed during the epoch.
        performance: speedup vs the base processor for this epoch's phase.
        banked: the reliability bank after the epoch (FIT-hours).
    """

    op: OperatingPoint
    fit: float
    performance: float
    banked: float


@dataclass(frozen=True)
class ControllerTrace:
    """The full closed-loop history of one controller run."""

    epochs: tuple[ControllerEpoch, ...]

    @property
    def average_fit(self) -> float:
        return sum(e.fit for e in self.epochs) / len(self.epochs)


class FeedbackDVSController:
    """PI controller stepping the DVS frequency against the FIT error.

    Each epoch the controller runs one phase of the application at its
    current frequency, observes the FIT rate RAMP reports, and moves the
    frequency proportionally to the (target − observed) error plus an
    integral term fed by the reliability bank.  Anti-windup comes free:
    the frequency is clamped to the DVS range.

    Args:
        platform: the power/thermal platform.
        ramp: a qualified RAMP model (fixes T_qual and the target).
        vf_curve: DVS law (provides the actuator range).
        kp: proportional gain in GHz per (fraction of target) error.
        ki: integral gain in GHz per (fraction of an hour's budget) banked.
        epoch_hours: wall-clock length charged to the bank per epoch.
    """

    def __init__(
        self,
        platform: Platform,
        ramp: RampModel,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        kp: float = 0.8,
        ki: float = 0.15,
        epoch_hours: float = 1.0,
    ) -> None:
        if kp < 0.0 or ki < 0.0:
            raise AdaptationError("controller gains must be non-negative")
        if epoch_hours <= 0.0:
            raise AdaptationError("epoch length must be positive")
        self.platform = platform
        self.ramp = ramp
        self.vf_curve = vf_curve
        self.kp = kp
        self.ki = ki
        self.epoch_hours = epoch_hours

    def _clamp(self, frequency_hz: float) -> float:
        return min(self.vf_curve.f_max_hz, max(self.vf_curve.f_min_hz, frequency_hz))

    def run(
        self,
        run: WorkloadRun,
        n_epochs: int,
        start_frequency_hz: float | None = None,
    ) -> ControllerTrace:
        """Drive the application for ``n_epochs`` closed-loop epochs.

        Each epoch uses the whole multi-phase evaluation of the workload
        at the current operating point (phases repeat cyclically in real
        time; their time-weighted mix is what an epoch observes).

        Raises:
            AdaptationError: if ``n_epochs`` is not positive.
        """
        if n_epochs <= 0:
            raise AdaptationError("need at least one epoch")
        target = self.ramp.qualified.fit_target
        if target <= 0.0:
            raise AdaptationError("qualified FIT target must be positive")
        budget = ReliabilityBudget(fit_target=target)
        base_eval = self.platform.evaluate(run, self.vf_curve.nominal)
        f = self._clamp(
            start_frequency_hz
            if start_frequency_hz is not None
            else self.vf_curve.f_nominal_hz
        )
        epochs = []
        for _ in range(n_epochs):
            op = self.vf_curve.operating_point(f)
            evaluation = self.platform.evaluate(run, op)
            reliability = self.ramp.application_reliability(evaluation)
            fit = reliability.total_fit
            budget.record(fit, self.epoch_hours)
            perf = evaluation.ips / base_eval.ips
            epochs.append(
                ControllerEpoch(
                    op=op, fit=fit, performance=perf, banked=budget.banked
                )
            )
            # PI update: proportional on the rate error, integral on the
            # bank (both normalised to the target so gains are unitless-ish).
            error = (target - fit) / target
            bank_term = budget.banked / (target * max(budget.elapsed_hours, 1.0))
            f = self._clamp(
                f + (self.kp * error + self.ki * bank_term) * 1e9
            )
        return ControllerTrace(epochs=tuple(epochs))


@dataclass(frozen=True)
class WearDecision:
    """One rung of the wear-aware degradation ladder.

    Attributes:
        action: ``"run"`` (execute the epoch at :attr:`op`), ``"spare"``
            (swap in a cold spare for :attr:`structure`), ``"shed"``
            (power down half of :attr:`structure`), or ``"end_of_life"``
            (no rung left — retire the chip cleanly).
        op: the chosen operating point (``run`` only).
        structure: the structure acted on (``spare``/``shed`` only).
        reason: human-readable rationale, recorded in telemetry.
    """

    action: str
    op: OperatingPoint | None = None
    structure: str | None = None
    reason: str = ""


class WearAwareController(FeedbackDVSController):
    """Degradation-ladder controller regulated on *accrued damage*.

    Where :class:`FeedbackDVSController` regulates the instantaneous FIT
    rate against the qualification target, this controller reads the
    cumulative wear state the lifetime simulator maintains and paces the
    chip so its remaining lifetime stays above target:

    1. **derate** — pick the fastest DVS operating point whose predicted
       damage for the coming epoch fits the remaining linear damage
       allowance (``elapsed · target_rate − accrued``);
    2. **spare** — when a structure's most-worn cell passes
       :attr:`shed_threshold` (or outright fails), swap in a cold spare
       from the redundancy plan, resetting that structure's wear;
    3. **shed** — with no spare left, power down half of the structure's
       slices (:func:`repro.config.microarch.shed_structure`), removing
       their EM/TDDB wear at a performance cost;
    4. **end of life** — when a cell has consumed its lifetime and no
       rung remains, declare end-of-life *cleanly* instead of crashing.

    :meth:`decide` is pure: all state (wear, spares used, sheddable set,
    candidate operating points with predicted damage rates) comes in as
    arguments, so the simulator can checkpoint and resume around it
    bit-identically.

    Args:
        platform / ramp / vf_curve / kp / ki / epoch_hours: as for
            :class:`FeedbackDVSController` (the PI path is inherited and
            still available for rate-regulated epochs).
        lifetime_target_years: required service life.  Defaults to the
            SOFR life implied by the qualified FIT target
            (``1e9 / fit_target`` hours).
        fail_threshold: damage fraction at which a cell has consumed its
            lifetime (Miner's rule: 1.0).
        shed_threshold: damage fraction at which the controller starts
            swapping/shedding pre-emptively.
        redundancy_plan: cold-spare inventory (``None`` = no spares).
    """

    def __init__(
        self,
        platform: Platform,
        ramp: RampModel,
        vf_curve: VoltageFrequencyCurve = DEFAULT_VF_CURVE,
        kp: float = 0.8,
        ki: float = 0.15,
        epoch_hours: float = 1.0,
        *,
        lifetime_target_years: float | None = None,
        fail_threshold: float = 1.0,
        shed_threshold: float = 0.85,
        redundancy_plan: RedundancyPlan | None = None,
    ) -> None:
        super().__init__(platform, ramp, vf_curve, kp, ki, epoch_hours)
        if not 0.0 < shed_threshold < fail_threshold:
            raise AdaptationError(
                "need 0 < shed_threshold < fail_threshold, got "
                f"{shed_threshold} / {fail_threshold}"
            )
        if lifetime_target_years is None:
            target = ramp.qualified.fit_target
            if target <= 0.0:
                raise AdaptationError("qualified FIT target must be positive")
            lifetime_target_years = FIT_DEVICE_HOURS / target / HOURS_PER_YEAR
        if lifetime_target_years <= 0.0:
            raise AdaptationError("lifetime target must be positive")
        self.lifetime_target_years = lifetime_target_years
        self.fail_threshold = fail_threshold
        self.shed_threshold = shed_threshold
        self.redundancy_plan = redundancy_plan

    @property
    def lifetime_target_hours(self) -> float:
        return self.lifetime_target_years * HOURS_PER_YEAR

    @property
    def target_damage_rate(self) -> float:
        """Total damage fraction per hour that exactly spends the target
        lifetime — the linear allowance the pacing rung budgets against."""
        return 1.0 / self.lifetime_target_hours

    def decide(
        self,
        *,
        elapsed_hours: float,
        epoch_hours: float,
        wear_total: float,
        wear_by_structure: Mapping[str, float],
        candidates: Sequence[tuple[OperatingPoint, float]],
        spares_used: frozenset[str] = frozenset(),
        sheddable: frozenset[str] = frozenset(),
    ) -> WearDecision:
        """Choose the next rung given the current wear state.

        Args:
            elapsed_hours: simulated hours already accrued.
            epoch_hours: length of the epoch about to run.
            wear_total: summed damage over all (mechanism, structure)
                cells — the SOFR-analogue lifetime consumption.
            wear_by_structure: each structure's *most-worn cell* damage
                fraction (the threshold rungs trigger per cell, not on
                structure sums).
            candidates: ``(operating point, predicted total damage/hour)``
                pairs for the epoch's workload at the *current* degraded
                configuration.
            spares_used: structures whose cold spare is already consumed.
            sheddable: structures :func:`shed_structure` can still shrink.

        Raises:
            AdaptationError: on an empty candidate set or bad epoch.
        """
        if not candidates:
            raise AdaptationError("need at least one candidate operating point")
        if epoch_hours <= 0.0:
            raise AdaptationError("epoch length must be positive")

        worst_structure = max(wear_by_structure, key=wear_by_structure.__getitem__)
        worst = wear_by_structure[worst_structure]
        plan = self.redundancy_plan

        if worst >= self.fail_threshold:
            if plan is not None and plan.can_swap(worst_structure, spares_used):
                return WearDecision(
                    action="spare",
                    structure=worst_structure,
                    reason=f"{worst_structure} consumed {worst:.3f} of its "
                    "lifetime; swapping in its cold spare",
                )
            return WearDecision(
                action="end_of_life",
                structure=worst_structure,
                reason=f"{worst_structure} consumed {worst:.3f} of its "
                "lifetime with no spare left",
            )
        if worst >= self.shed_threshold:
            if plan is not None and plan.can_swap(worst_structure, spares_used):
                return WearDecision(
                    action="spare",
                    structure=worst_structure,
                    reason=f"{worst_structure} at {worst:.3f} wear; swapping "
                    "pre-emptively",
                )
            if worst_structure in sheddable:
                return WearDecision(
                    action="shed",
                    structure=worst_structure,
                    reason=f"{worst_structure} at {worst:.3f} wear with no "
                    "spare; powering down half its slices",
                )

        # Pacing rung: the fastest operating point whose predicted damage
        # fits the remaining linear allowance.
        allowance = (elapsed_hours + epoch_hours) * self.target_damage_rate
        allowed = allowance - wear_total
        ranked = sorted(candidates, key=lambda c: c[0].frequency_hz, reverse=True)
        for op, rate in ranked:
            if rate * epoch_hours <= allowed:
                return WearDecision(
                    action="run",
                    op=op,
                    reason=f"fastest point within allowance ({rate:.3e}/h)",
                )
        shed_options = [s for s in sheddable]
        if shed_options:
            # Overdrawn at every operating point: shed the most-worn
            # sheddable structure to cut the damage-rate floor.
            shed_options.sort(key=lambda s: wear_by_structure.get(s, 0.0), reverse=True)
            return WearDecision(
                action="shed",
                structure=shed_options[0],
                reason="no operating point fits the lifetime allowance; "
                f"shedding {shed_options[0]}",
            )
        op, rate = ranked[-1]
        return WearDecision(
            action="run",
            op=op,
            reason=f"overdrawn; running the slowest point ({rate:.3e}/h)",
        )
