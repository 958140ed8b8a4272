"""Technology parameters and the on-chip structure inventory.

The paper models a 65 nm processor core (Table 1):

- supply voltage 1.0 V, base frequency 4.0 GHz
- core size 20.2 mm^2 (4.5 mm x 4.5 mm), not counting the L2 cache
- leakage power density 0.5 W/mm^2 at 383 K, with the exponential
  temperature dependence of Heo et al. (curve-fit constant 0.017 for 65 nm)

RAMP divides the core into a small number of architectural structures and
applies the failure models to each structure as an aggregate.  The
structure inventory below mirrors the list in Section 3 of the paper
(ALUs, FPUs, register files, branch predictor, caches, load-store queue,
instruction window) plus a residual "other" block for decode/control/clock
so the areas sum to the quoted 20.2 mm^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StructureSpec:
    """One architectural structure tracked by the power/thermal/RAMP models.

    Attributes:
        name: canonical identifier used across all subsystems.
        area_mm2: silicon area of the structure in the base configuration.
        adaptive: whether DRM's microarchitectural adaptation can power
            down part of this structure (functional units, window entries).
        peak_dynamic_w: calibrated Wattch-style maximum dynamic power at the
            base operating point (1.0 V, 4.0 GHz) when the structure is
            accessed every cycle at full width.
    """

    name: str
    area_mm2: float
    adaptive: bool
    peak_dynamic_w: float

    def __post_init__(self) -> None:
        if self.area_mm2 <= 0.0:
            raise ConfigurationError(
                f"structure {self.name!r} must have positive area"
            )
        if self.peak_dynamic_w < 0.0:
            raise ConfigurationError(
                f"structure {self.name!r} must have non-negative peak power"
            )


#: The core structure inventory.  Areas are an R10000-like split of the
#: paper's 20.2 mm^2 core; peak dynamic powers are calibrated so the 9-app
#: suite spans roughly the 15-37 W base-power range of Table 2.
STRUCTURES: tuple[StructureSpec, ...] = (
    StructureSpec("l1i", area_mm2=2.2, adaptive=False, peak_dynamic_w=6.09),
    StructureSpec("l1d", area_mm2=4.0, adaptive=False, peak_dynamic_w=9.86),
    StructureSpec("bpred", area_mm2=0.8, adaptive=False, peak_dynamic_w=2.32),
    StructureSpec("window", area_mm2=2.4, adaptive=True, peak_dynamic_w=11.02),
    StructureSpec("intreg", area_mm2=1.2, adaptive=False, peak_dynamic_w=4.93),
    StructureSpec("fpreg", area_mm2=1.2, adaptive=False, peak_dynamic_w=3.77),
    StructureSpec("ialu", area_mm2=2.4, adaptive=True, peak_dynamic_w=9.28),
    StructureSpec("fpu", area_mm2=3.2, adaptive=True, peak_dynamic_w=11.31),
    StructureSpec("agen", area_mm2=0.8, adaptive=False, peak_dynamic_w=2.61),
    StructureSpec("lsq", area_mm2=1.0, adaptive=False, peak_dynamic_w=4.06),
    StructureSpec("other", area_mm2=1.0, adaptive=False, peak_dynamic_w=2.9),
)

STRUCTURE_NAMES: tuple[str, ...] = tuple(s.name for s in STRUCTURES)

_STRUCTURES_BY_NAME = {s.name: s for s in STRUCTURES}


def structure_by_name(name: str) -> StructureSpec:
    """Look up a structure spec by its canonical name.

    Raises:
        ConfigurationError: if ``name`` is not a known structure.
    """
    try:
        return _STRUCTURES_BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown structure {name!r}; known: {sorted(_STRUCTURES_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class TechnologyParameters:
    """Process-technology parameters for the modelled 65 nm node (Table 1).

    Attributes:
        process_nm: feature size in nanometres.
        vdd_nominal_v: nominal supply voltage in volts.
        frequency_nominal_hz: base (non-adaptive) clock frequency in hertz.
        core_area_mm2: total core area excluding the L2 cache.
        leakage_density_w_per_mm2: leakage power density at
            ``leakage_reference_temp_k``.
        leakage_reference_temp_k: temperature at which the leakage density
            was characterised (383 K in the paper).
        leakage_temp_coefficient_per_k: the Heo et al. exponential curve-fit
            constant: P_leak(T) = P_ref * exp(coeff * (T - T_ref)).
    """

    process_nm: float = 65.0
    vdd_nominal_v: float = 1.0
    frequency_nominal_hz: float = 4.0e9
    core_area_mm2: float = 20.2
    leakage_density_w_per_mm2: float = 0.5
    leakage_reference_temp_k: float = 383.0
    leakage_temp_coefficient_per_k: float = 0.017

    def __post_init__(self) -> None:
        if self.vdd_nominal_v <= 0.0:
            raise ConfigurationError("nominal Vdd must be positive")
        if self.frequency_nominal_hz <= 0.0:
            raise ConfigurationError("nominal frequency must be positive")
        if self.core_area_mm2 <= 0.0:
            raise ConfigurationError("core area must be positive")
        if self.leakage_density_w_per_mm2 < 0.0:
            raise ConfigurationError("leakage density must be non-negative")

    @property
    def die_edge_mm(self) -> float:
        """Edge length of the (square) core die in millimetres."""
        return math.sqrt(self.core_area_mm2)


DEFAULT_TECHNOLOGY = TechnologyParameters()
