"""repro.resilience — deterministic fault injection and chaos tooling.

The stack's graceful-degradation paths (executor retry/rebuild/isolate,
store self-heal, kernel per-row salvage, sweep resume) are only
trustworthy if they are *exercised*; this package makes every failure
mode injectable on demand, deterministically, from a seeded
:class:`FaultPlan`:

    from repro.resilience import armed

    with armed("ci-default"):
        decisions = engine.drm_sweep(apps, tquals)   # crashes, hangs,
        # corrupt cache entries and a poisoned kernel row included —
        # and the decisions still come back bit-identical.

A sweep killed outright resumes from its journal with
``engine.drm_sweep(apps, tquals, resume=True)``
(:meth:`repro.engine.Engine.drm_sweep`).

See :mod:`repro.resilience.faults` for the site catalogue and
``docs/RESILIENCE.md`` for the fault taxonomy and degradation ladder.
"""

from repro.resilience.faults import (
    AGGRESSIVE,
    CHECKPOINT_TORN,
    CI_DEFAULT,
    KERNEL_POISON,
    LOG_ENV,
    NAMED_PLANS,
    PLAN_ENV,
    SENSOR_NOISE,
    SENSOR_STUCK,
    SERVE_DROP,
    SERVE_SLOW,
    SITES,
    STORE_CORRUPT,
    TELEMETRY_TORN,
    WEAR_DRIFT,
    WORKER_CRASH,
    WORKER_HANG,
    FaultInjector,
    FaultPlan,
    active_injector,
    armed,
    install,
    iter_fault_log,
)

__all__ = [
    "AGGRESSIVE",
    "CHECKPOINT_TORN",
    "CI_DEFAULT",
    "FaultInjector",
    "FaultPlan",
    "KERNEL_POISON",
    "LOG_ENV",
    "NAMED_PLANS",
    "PLAN_ENV",
    "SENSOR_NOISE",
    "SENSOR_STUCK",
    "SERVE_DROP",
    "SERVE_SLOW",
    "SITES",
    "STORE_CORRUPT",
    "TELEMETRY_TORN",
    "WEAR_DRIFT",
    "WORKER_CRASH",
    "WORKER_HANG",
    "active_injector",
    "armed",
    "install",
    "iter_fault_log",
]
