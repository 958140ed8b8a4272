"""Electromigration (Black's equation), Section 3.1 of the paper.

Mass transport of conductor metal atoms under the electron wind.  The
accepted MTTF model is Black's equation:

    MTTF_EM ∝ (J - J_crit)^(-n) · exp(Ea / kT)

with J the interconnect current density and J_crit the critical density
required for electromigration.  J_crit is roughly two orders of magnitude
below J in real interconnects, so J - J_crit ≈ J.  Current density
relates to the switching probability p of the line as

    J = C · Vdd · f · p / (W · H)

The paper folds the line geometry (C, W, H) into the proportionality
constant and treats all interconnects in a structure as similar, using
the structure's activity factor for p — RAMP does exactly the same, so
the relative current density is (V/V0)·(f/f0)·p.

Model constants for the copper interconnects modelled: n = 1.1,
Ea = 0.9 eV (JEDEC JEP122-A via the paper).
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import (
    BOLTZMANN_EV_PER_K,
    EM_ACTIVATION_ENERGY_EV,
    EM_CURRENT_DENSITY_EXPONENT,
)
from repro.core.failure.base import FailureMechanism, StressConditions


class Electromigration(FailureMechanism):
    """Black's-equation electromigration model for copper interconnect.

    Args:
        current_density_exponent: Black's n (1.1 for copper).
        activation_energy_ev: Ea (0.9 eV for copper).
    """

    name = "EM"
    scales_with_powered_area = True

    def __init__(
        self,
        current_density_exponent: float = EM_CURRENT_DENSITY_EXPONENT,
        activation_energy_ev: float = EM_ACTIVATION_ENERGY_EV,
    ) -> None:
        self.n = current_density_exponent
        self.ea_ev = activation_energy_ev

    def relative_mttf(self, conditions: StressConditions) -> float:
        """(J_rel)^(-n) · exp(Ea/kT); infinite at zero current density."""
        j_rel = conditions.v_ratio * conditions.f_ratio * conditions.activity
        if j_rel <= 0.0:
            return math.inf
        arrhenius = float(np.exp(
            self.ea_ev / (BOLTZMANN_EV_PER_K * conditions.temperature_k)
        ))
        return j_rel ** (-self.n) * arrhenius

    def relative_fit_batch(
        self,
        temperature_k: np.ndarray,
        voltage_v: np.ndarray,
        frequency_hz: np.ndarray,
        activity: np.ndarray,
        v_nominal: float,
        f_nominal: float,
    ) -> np.ndarray:
        """Array form of :meth:`relative_mttf` reciprocal.

        Mirrors the scalar operation order, but not bit for bit: numpy's
        array ``exp``/``power`` loops round differently from the scalar
        ``np.exp`` and ``**`` (libm), so a few per cent of elements
        differ from :meth:`relative_fit` in the last bits (≤ 5e-16
        relative).
        """
        j_rel = (voltage_v / v_nominal) * (frequency_hz / f_nominal) * activity
        arrhenius = np.exp(self.ea_ev / (BOLTZMANN_EV_PER_K * temperature_k))
        with np.errstate(divide="ignore"):
            mttf = j_rel ** (-self.n) * arrhenius
            fit = np.where(j_rel > 0.0, 1.0 / mttf, 0.0)
        return fit
