"""Cumulative wear state: Miner's-rule damage per (mechanism, structure).

The SOFR model (Section 3.5) collapses a run to one time-averaged FIT
number; a *trajectory* needs the full field.  :class:`WearState` holds
the accumulated damage fraction of every (mechanism, structure) cell —
Miner's rule for EM/SM/TC, the time-to-breakdown fraction for TDDB; both
accrue as ``rate · hours`` with ``rate = FIT / 1e9`` per hour (see
:mod:`repro.kernels.wear`).  A cell reaching :attr:`DamageModel.fail_threshold`
(1.0 by default) has consumed its lifetime.

Bit-identity contract: accrual is a left fold of elementwise
multiply-adds over float64 arrays, and :meth:`WearState.as_payload` /
:meth:`WearState.from_payload` round-trip through JSON via ``repr``-based
float serialization, which is exact.  Checkpoint/resume and
split-additivity (simulate(A+B) == simulate(A);simulate(B)) therefore
hold *bitwise*, not just approximately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.config.technology import STRUCTURE_NAMES
from repro.core.failure import ALL_MECHANISMS
from repro.errors import LifetimeError
from repro.kernels.wear import accrue

MECHANISM_NAMES: tuple[str, ...] = tuple(m.name for m in ALL_MECHANISMS)

_SHAPE = (len(MECHANISM_NAMES), len(STRUCTURE_NAMES))


@dataclass(frozen=True)
class DamageModel:
    """Parameters of the cumulative-damage accrual.

    Attributes:
        fail_threshold: damage fraction at which a cell has consumed its
            lifetime (Miner's rule fails at 1.0; derate below 1 to model
            qualification guard-bands).
        asymmetry_coefficient: strength of the asymmetric duty-cycle
            aging multiplier (see
            :func:`repro.kernels.wear.duty_asymmetry_factors`); 0 keeps
            the constant-stress limit SOFR-consistent.
    """

    fail_threshold: float = 1.0
    asymmetry_coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.fail_threshold <= 0.0 or not np.isfinite(self.fail_threshold):
            raise LifetimeError("fail_threshold must be positive and finite")
        if self.asymmetry_coefficient < 0.0 or not np.isfinite(
            self.asymmetry_coefficient
        ):
            raise LifetimeError("asymmetry_coefficient must be non-negative")


class WearState:
    """Accrued damage fractions, shape (n_mechanisms, n_structures).

    Mutable by design — the simulator folds epochs into one state — but
    every mutation goes through :meth:`accrue` / :meth:`reset_structure`
    so the trajectory stays auditable.

    Attributes:
        damage: float64 array, mechanisms × structures in canonical
            (``MECHANISM_NAMES``, ``STRUCTURE_NAMES``) order.
        hours: simulated hours folded in so far (``None`` to the
            constructor: none yet, a fresh state).
        epochs: number of accrual steps folded in so far.
    """

    __slots__ = ("damage", "hours", "epochs")

    def __init__(
        self,
        damage: np.ndarray | None = None,
        hours: float | None = None,
        epochs: int = 0,
    ) -> None:
        if damage is None:
            damage = np.zeros(_SHAPE)
        if hours is None:
            hours = 0.0
        damage = np.asarray(damage, dtype=np.float64)
        if damage.shape != _SHAPE:
            raise LifetimeError(
                f"damage shape {damage.shape} != {_SHAPE} "
                "(mechanisms x structures)"
            )
        if not np.all(np.isfinite(damage)) or np.any(damage < 0.0):
            raise LifetimeError("damage must be finite and non-negative")
        if hours < 0.0 or epochs < 0:
            raise LifetimeError("hours and epochs must be non-negative")
        self.damage = damage
        self.hours = float(hours)
        self.epochs = int(epochs)

    @classmethod
    def fresh(cls) -> "WearState":
        return cls()

    def copy(self) -> "WearState":
        return WearState(self.damage.copy(), self.hours, self.epochs)

    # ------------------------------------------------------------------

    def accrue(self, rates: np.ndarray, hours: float) -> None:
        """Fold one epoch at constant ``rates`` (damage/hour) for ``hours``."""
        self.damage = accrue(self.damage, np.asarray(rates, dtype=np.float64), hours)
        self.hours += hours
        self.epochs += 1

    def reset_structure(self, structure: str) -> None:
        """Zero a structure's accrued wear (a spare was swapped in)."""
        try:
            index = STRUCTURE_NAMES.index(structure)
        except ValueError:
            raise LifetimeError(f"unknown structure {structure!r}") from None
        self.damage[:, index] = 0.0

    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        """Summed damage over all cells (the SOFR-analogue scalar)."""
        return float(self.damage.sum())

    @property
    def peak(self) -> float:
        """The most-worn single cell's damage fraction."""
        return float(self.damage.max())

    def by_structure(self) -> dict[str, float]:
        """Per-structure damage (summed over mechanisms), canonical order."""
        sums = self.damage.sum(axis=0)
        return {name: float(sums[i]) for i, name in enumerate(STRUCTURE_NAMES)}

    def by_mechanism(self) -> dict[str, float]:
        """Per-mechanism damage (summed over structures), canonical order."""
        sums = self.damage.sum(axis=1)
        return {name: float(sums[i]) for i, name in enumerate(MECHANISM_NAMES)}

    def binding_cell(self) -> tuple[str, str, float]:
        """The (mechanism, structure, damage) of the most-worn cell."""
        m, s = np.unravel_index(int(self.damage.argmax()), self.damage.shape)
        return MECHANISM_NAMES[m], STRUCTURE_NAMES[s], float(self.damage[m, s])

    def failed(self, threshold: float = 1.0) -> bool:
        """Whether any cell has consumed ``threshold`` of its lifetime."""
        return bool(self.damage.max() >= threshold)

    # ------------------------------------------------------------------

    def as_payload(self) -> dict[str, Any]:
        """JSON-safe snapshot; floats round-trip bitwise via ``repr``."""
        return {
            "mechanisms": list(MECHANISM_NAMES),
            "structures": list(STRUCTURE_NAMES),
            "damage": self.damage.tolist(),
            "hours": self.hours,
            "epochs": self.epochs,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "WearState":
        """Inverse of :meth:`as_payload`; validates the axis labels.

        Raises:
            LifetimeError: if the payload's axes do not match this
                build's mechanism/structure order (a checkpoint from an
                incompatible model must not be silently reinterpreted).
        """
        try:
            mechanisms = tuple(payload["mechanisms"])
            structures = tuple(payload["structures"])
            damage = payload["damage"]
            hours = payload["hours"]
            epochs = payload["epochs"]
        except (KeyError, TypeError) as exc:
            raise LifetimeError(f"malformed wear payload: {exc}") from exc
        if mechanisms != MECHANISM_NAMES or structures != tuple(STRUCTURE_NAMES):
            raise LifetimeError(
                "wear payload axes do not match this model "
                f"(got {mechanisms} x {structures})"
            )
        return cls(np.array(damage, dtype=np.float64), float(hours), int(epochs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WearState(total={self.total:.3g}, peak={self.peak:.3g}, "
            f"hours={self.hours:g}, epochs={self.epochs})"
        )
