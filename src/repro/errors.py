"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this library derive from
:class:`ReproError` so callers can catch library errors without also
swallowing programming mistakes (``TypeError`` etc. propagate unchanged).

Every :class:`ReproError` can carry a **structured context**: the
structure name, candidate index, phase, and any other keyword detail the
raise site knows.  The context travels with the exception (``.context``),
renders into the message, and serialises via :func:`error_payload` — so a
failure that crosses a process boundary or lands in an event log still
says *which* candidate of *which* phase of *which* structure went wrong,
with the full cause chain attached.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Args:
        message: human-readable description of the failure.
        **context: structured detail (``structure=``, ``candidate=``,
            ``phase=``, ...).  Keys with ``None`` values are dropped.
    """

    def __init__(self, message: str = "", **context: Any) -> None:
        self.message = message
        self.context: dict[str, Any] = {
            key: value for key, value in context.items() if value is not None
        }
        super().__init__(message)

    def __str__(self) -> str:
        if not self.context:
            return self.message
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{self.message} [{detail}]"


class ConfigurationError(ReproError):
    """An invalid processor, technology, or adaptation configuration."""


class WorkloadError(ReproError):
    """An invalid workload profile or trace-generation request."""


class SimulationError(ReproError):
    """The cycle-level simulator reached an inconsistent state."""


class ThermalError(ReproError):
    """The thermal network is singular or otherwise unsolvable."""


class ReliabilityError(ReproError):
    """A failure-model evaluation received out-of-domain parameters."""


class QualificationError(ReliabilityError):
    """Reliability qualification could not calibrate to the target FIT."""


class AdaptationError(ReproError):
    """No adaptation configuration can satisfy the requested constraint."""


class LifetimeError(ReliabilityError):
    """The cumulative-damage lifetime machinery was misused.

    Raised for malformed wear states or checkpoints, invalid mission
    schedules, and controller ladders that cannot make progress — the
    lifetime analogue of :class:`ReliabilityError`'s domain checks.
    """


class InputValidationError(ReproError):
    """An evaluation received non-finite or out-of-domain inputs.

    Raised *before* bad numbers can propagate silently into FIT sums or
    thermal solves; the context names the offending structure and phase.
    """


class SweepError(ReproError):
    """A checkpointed sweep could not run or resume."""


class ResilienceError(ReproError):
    """The fault-injection layer was misconfigured (bad plan, bad rate)."""


class ServeError(ReproError):
    """The decision service was misused or misconfigured.

    Raised for malformed decide requests (unknown kind, missing knobs,
    unknown application), bad service configuration, and protocol
    violations; the HTTP layer maps it to a 400 response.
    """


class InjectedFault(ReproError):
    """A deliberately injected fault (never raised in production paths).

    Raised (or simulated as a crash/hang) by
    :class:`repro.resilience.FaultInjector` when a fault plan is armed,
    so every failure path in the stack is exercisable on demand.
    """


class DegradedResultWarning(UserWarning):
    """A result was produced in degraded form (e.g. masked candidates).

    Emitted instead of an exception when graceful degradation salvaged
    what it could but had to mask part of a batch; the message names the
    structure/candidates involved so sweeps can report them.
    """


def error_payload(exc: BaseException) -> dict[str, Any]:
    """A JSON-ready structured record of ``exc`` and its cause chain.

    The record carries the exception type, message, any
    :class:`ReproError` context, and the ``__cause__``/``__context__``
    chain (inner-most last) — the shape event logs and fault logs store.
    """
    chain: list[dict[str, Any]] = []
    seen: set[int] = set()
    node: BaseException | None = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        record: dict[str, Any] = {
            "type": type(node).__name__,
            "message": getattr(node, "message", None) or str(node),
        }
        context = getattr(node, "context", None)
        if context:
            record["context"] = {k: repr(v) for k, v in context.items()}
        chain.append(record)
        node = node.__cause__ or node.__context__
    return {"error": chain[0], "cause_chain": chain[1:]}
