"""The RAMP engine: application-level FIT accounting (Sections 3.5-3.6).

Given a qualified reliability model and a platform evaluation (the
per-interval temperature/voltage/frequency/activity samples of one
application run), RAMP computes:

- the **instantaneous FIT** of every structure under every mechanism per
  interval (EM, SM, TDDB);
- the **time-averaged FIT** across intervals (the paper's extension of
  the SOFR averaging to time);
- the **thermal-cycling FIT** from each structure's run-average
  temperature (cycle depth is a whole-run property);
- the **SOFR total** — the application's FIT value.

Powered-down structure area (DRM's Arch adaptation) removes its share of
the EM and TDDB FIT: a gated slice has no current flow and no supply
voltage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config.technology import STRUCTURE_NAMES
from repro.constants import FIT_DEVICE_HOURS
from repro.core.failure import ALL_MECHANISMS, FailureMechanism, StressConditions
from repro.core.fit import FitAccount, time_averaged_fit
from repro.core.qualification import QualifiedReliabilityModel
from repro.errors import ReliabilityError
from repro.harness.platform import Interval, PlatformEvaluation

if TYPE_CHECKING:  # pragma: no cover - the kernel package imports nothing here
    from repro.kernels.batch import BatchEvaluation


@dataclass(frozen=True)
class AppReliability:
    """The reliability outcome of one application run.

    Attributes:
        account: per-(mechanism, structure) time-averaged FIT.
        fit_target: the qualification target it is judged against.
    """

    account: FitAccount
    fit_target: float

    @property
    def total_fit(self) -> float:
        return self.account.total

    @property
    def meets_target(self) -> bool:
        """Whether the run stays within the qualified failure rate."""
        return self.total_fit <= self.fit_target + 1e-9

    @property
    def mttf_years(self) -> float:
        return self.account.mttf_years()

    @property
    def margin(self) -> float:
        """Unused reliability budget as a fraction of the target
        (negative when the target is violated).

        Raises:
            ReliabilityError: if the recorded target is not positive.
        """
        target = self.fit_target
        if target <= 0.0:
            raise ReliabilityError("fit_target must be positive")
        return (target - self.total_fit) / target


class RampModel:
    """Evaluates FIT for intervals and whole application runs.

    Args:
        qualified: the calibrated constants from
            :func:`repro.core.qualification.calibrate`.
        mechanisms: failure mechanisms (must match the calibration).
    """

    def __init__(
        self,
        qualified: QualifiedReliabilityModel,
        mechanisms: tuple[FailureMechanism, ...] = ALL_MECHANISMS,
    ) -> None:
        calibrated = {m for m, _ in qualified.constants}
        if {m.name for m in mechanisms} != calibrated:
            raise ReliabilityError(
                "mechanism set does not match the qualified model "
                f"({sorted(calibrated)})"
            )
        self.qualified = qualified
        self.mechanisms = mechanisms
        self._cycling = [m for m in mechanisms if m.name == "TC"]
        self._instantaneous = [m for m in mechanisms if m.name != "TC"]

    # ------------------------------------------------------------------

    def _structure_fit(
        self,
        mech: FailureMechanism,
        structure: str,
        conditions: StressConditions,
        powered_fraction: float,
    ) -> float:
        constant = self.qualified.constant(mech.name, structure)
        if math.isinf(constant):
            return 0.0
        rel_fit = mech.relative_fit(conditions)
        fit = FIT_DEVICE_HOURS * rel_fit / constant
        if mech.scales_with_powered_area:
            fit *= powered_fraction
        return fit

    def interval_fit(self, interval: Interval) -> FitAccount:
        """Instantaneous FIT for one interval (EM, SM, TDDB only).

        Thermal cycling is deliberately absent: its stress (cycle depth)
        is a property of the whole run, not of an instant.
        """
        tech = self.qualified.technology
        entries: dict[tuple[str, str], float] = {}
        for mech in self._instantaneous:
            for structure, temp in interval.temperatures.items():
                conditions = StressConditions(
                    temperature_k=temp,
                    voltage_v=interval.op.voltage_v,
                    frequency_hz=interval.op.frequency_hz,
                    activity=interval.activity[structure],
                    v_nominal=tech.vdd_nominal_v,
                    f_nominal=tech.frequency_nominal_hz,
                )
                entries[(mech.name, structure)] = self._structure_fit(
                    mech,
                    structure,
                    conditions,
                    interval.config.powered_fraction(structure),
                )
        return FitAccount(entries)

    def application_reliability(self, evaluation: PlatformEvaluation) -> AppReliability:
        """Time-averaged FIT for an application run (Section 3.6).

        The scalar reference for :meth:`application_fit_batch`; the two
        agree to within ~1e-15 relative, not bit for bit (array
        ``exp``/``power`` and summation order differ), so most candidate
        rows differ in their last bits.
        """
        if not evaluation.intervals:
            raise ReliabilityError("evaluation has no intervals")
        instantaneous = FitAccount.weighted_average(
            [(self.interval_fit(iv), iv.weight) for iv in evaluation.intervals]
        )
        entries = dict(instantaneous.entries)
        # Thermal cycling from run-average temperatures.
        tech = self.qualified.technology
        avg_temps = evaluation.avg_temperature_by_structure
        some_interval = evaluation.intervals[0]
        for mech in self._cycling:
            for structure, avg_t in avg_temps.items():
                conditions = StressConditions(
                    temperature_k=avg_t,
                    voltage_v=some_interval.op.voltage_v,
                    frequency_hz=some_interval.op.frequency_hz,
                    activity=some_interval.activity[structure],
                    v_nominal=tech.vdd_nominal_v,
                    f_nominal=tech.frequency_nominal_hz,
                )
                entries[(mech.name, structure)] = self._structure_fit(
                    mech,
                    structure,
                    conditions,
                    some_interval.config.powered_fraction(structure),
                )
        return AppReliability(
            account=FitAccount(entries), fit_target=self.qualified.fit_target
        )

    # ------------------------------------------------------------------

    def _constants_array(self, mech: FailureMechanism) -> np.ndarray:
        """Calibrated proportionality constants in canonical structure
        order (``inf`` entries make the corresponding FIT vanish, exactly
        as the scalar path's early return does)."""
        return np.array(
            [self.qualified.constant(mech.name, n) for n in STRUCTURE_NAMES]
        )

    def application_fit_fields_batch(self, batch: "BatchEvaluation") -> np.ndarray:
        """Per-(mechanism, structure) time-averaged FIT for a whole batch.

        The tensor analogue of :meth:`application_reliability`, kept at
        full resolution: EM, SM and TDDB are evaluated per ``(candidate,
        interval, structure)`` cell and time-averaged per candidate;
        thermal cycling is evaluated from each candidate's run-average
        structure temperatures.  Returns shape ``(n_candidates,
        n_mechanisms, n_structures)`` with mechanisms in
        :attr:`mechanisms` order and structures in canonical
        ``STRUCTURE_NAMES`` order — the fields the cumulative-damage
        simulator (:mod:`repro.lifetime`) integrates per epoch.
        """
        tech = self.qualified.technology
        v_nom = tech.vdd_nominal_v
        f_nom = tech.frequency_nominal_hz
        pf = np.array(
            [batch.run.config.powered_fraction(n) for n in STRUCTURE_NAMES]
        )
        volt = batch.voltage_v[:, :, None]
        freq = batch.frequency_hz[:, :, None]
        avg_t = batch.avg_temperature_by_structure_k

        fields = np.zeros(
            (batch.n_candidates, len(self.mechanisms), len(STRUCTURE_NAMES))
        )
        for m_index, mech in enumerate(self.mechanisms):
            if mech.name == "TC":
                # Thermal cycling from run-average temperatures, with the
                # first interval's operating conditions (mirroring the
                # scalar path).
                rel = mech.relative_fit_batch(
                    temperature_k=avg_t,
                    voltage_v=batch.voltage_v[:, :1],
                    frequency_hz=batch.frequency_hz[:, :1],
                    activity=batch.activity[:, 0, :],
                    v_nominal=v_nom,
                    f_nominal=f_nom,
                )
                fit = FIT_DEVICE_HOURS * rel / self._constants_array(mech)
                if mech.scales_with_powered_area:
                    fit = fit * pf
                fields[:, m_index, :] = fit
                continue
            rel = mech.relative_fit_batch(
                temperature_k=batch.temperatures_k,
                voltage_v=volt,
                frequency_hz=freq,
                activity=batch.activity,
                v_nominal=v_nom,
                f_nominal=f_nom,
            )
            fit = FIT_DEVICE_HOURS * rel / self._constants_array(mech)
            if mech.scales_with_powered_area:
                fit = fit * pf
            fields[:, m_index, :] = time_averaged_fit(fit, batch.weights)
        return fields

    def application_fit_batch(self, batch: "BatchEvaluation") -> np.ndarray:
        """Time-averaged SOFR FIT for every candidate of a batch at once.

        The per-candidate total of :meth:`application_fit_fields_batch`,
        summed in mechanism order so the result stays bit-identical to
        the pre-refactor accumulation (but not to
        :meth:`application_reliability`, which it matches to ~1e-15
        relative).  Shape ``(n_candidates,)``.
        """
        fields = self.application_fit_fields_batch(batch)
        total = np.zeros(batch.n_candidates)
        for m_index in range(fields.shape[1]):
            total += fields[:, m_index, :].sum(axis=1)
        return total

    def worst_instant_fit(self, evaluation: PlatformEvaluation) -> float:
        """The highest instantaneous (EM+SM+TDDB) FIT in any interval.

        Used by the time-averaging ablation: worst-case qualification
        effectively budgets to this value, while the paper's insight is
        that the *average* is what determines lifetime consumption.
        """
        return max(self.interval_fit(iv).total for iv in evaluation.intervals)
