"""Long-horizon reliability banking.

Section 4 of the paper observes that, like energy but unlike temperature,
reliability is a *long-term* resource: lifetime is consumed at the
instantaneous FIT rate and can be budgeted over time, so a hot interval
is acceptable if cooler intervals pay it back.  This module makes that
bank explicit — it is the bookkeeping a deployed DRM controller would
maintain, and the basis of the time-averaging ablation bench.

Under the SOFR constant-rate assumption, running for ``t`` hours at FIT
``λ`` consumes ``λ·t / 1e9`` expected failures; the qualified lifetime
budget is ``fit_target · horizon / 1e9``.  The bank tracks the
difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import TARGET_FIT
from repro.errors import ReliabilityError


@dataclass
class ReliabilityBudget:
    """A running ledger of lifetime-reliability consumption.

    Attributes:
        fit_target: the qualified sustained FIT rate.
        horizon_hours: the design lifetime the target is defined over.
        elapsed_hours: operation recorded so far.
        consumed: accumulated FIT-hours (in units of FIT·hours).
    """

    fit_target: float = TARGET_FIT
    horizon_hours: float = 30.0 * 8760.0
    elapsed_hours: float = 0.0
    consumed: float = 0.0
    _history: list[tuple[float, float]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.fit_target <= 0.0 or self.horizon_hours <= 0.0:
            raise ReliabilityError("target and horizon must be positive")

    def record(self, fit: float, duration_hours: float) -> None:
        """Charge ``duration_hours`` of operation at failure rate ``fit``.

        Raises:
            ReliabilityError: on negative rates or non-positive durations.
        """
        if fit < 0.0:
            raise ReliabilityError("FIT rate cannot be negative")
        if duration_hours <= 0.0:
            raise ReliabilityError("duration must be positive")
        self.elapsed_hours += duration_hours
        self.consumed += fit * duration_hours
        self._history.append((fit, duration_hours))

    @property
    def average_fit(self) -> float:
        """Lifetime-average FIT so far (0 before any operation)."""
        if not self._history:
            return 0.0
        return self.consumed / self.elapsed_hours

    @property
    def allowed(self) -> float:
        """FIT-hours the elapsed time was entitled to consume."""
        return self.fit_target * self.elapsed_hours

    @property
    def banked(self) -> float:
        """Unused FIT-hours (negative when over-consumed)."""
        return self.allowed - self.consumed

    @property
    def on_track(self) -> bool:
        """Whether lifetime consumption is within budget so far."""
        return self.banked >= -1e-9

    def remaining_budget(self) -> float:
        """FIT-hours available for the rest of the horizon.

        Raises:
            ReliabilityError: if the horizon is already exhausted.
        """
        remaining_hours = self.horizon_hours - self.elapsed_hours
        if remaining_hours <= 0.0:
            raise ReliabilityError("lifetime horizon exhausted")
        return self.fit_target * self.horizon_hours - self.consumed

    def sustainable_fit(self) -> float:
        """The constant FIT rate affordable for the remaining horizon.

        This is the quantity a banking DRM controller regulates to: above
        the target when the bank is positive, below when in debt.
        """
        remaining_hours = self.horizon_hours - self.elapsed_hours
        if remaining_hours <= 0.0:
            raise ReliabilityError("lifetime horizon exhausted")
        return max(0.0, self.remaining_budget() / remaining_hours)
