"""repro.engine — a parallel, fault-tolerant job engine for RAMP/DRM work.

The engine turns the harness's implicit workflow (simulate each
(application, configuration) pair, then run power/thermal/RAMP math on
top) into an explicit, schedulable artifact:

- :mod:`repro.engine.jobs` — typed, hashable job specs whose cache keys
  are content hashes over *all* inputs (profile, config, budgets, seed,
  schema version);
- :mod:`repro.engine.scheduler` — a deduplicating DAG scheduler that
  orders stages through declared dependencies;
- :mod:`repro.engine.executor` — process-pool execution with per-job
  timeouts, bounded retry with jittered backoff, per-job failure
  budgets, and a graceful-degradation ladder (pool rebuild, suspect
  isolation, serial fallback);
- :mod:`repro.engine.store` — a content-addressed, schema-versioned
  on-disk result store with atomic writes and two-strike corrupt-entry
  self-healing (quarantine on the second strike);
- :mod:`repro.engine.events` — structured event log and metrics.

Quickstart::

    from repro.engine import Engine
    from repro.engine.jobs import SimulateJob

    engine = Engine(store_dir=".simstore", max_workers=4)
    jobs = [SimulateJob(name) for name in ("bzip2", "twolf")]
    results = engine.run(jobs)           # {job: WorkloadRun}
    print(engine.events.render())

Because results are pure functions of the job specs, a parallel run is
bit-identical to a serial one, and a warm store short-circuits both.
"""

from __future__ import annotations

import os

from repro.engine.events import EventLog, stderr_progress
from repro.engine.executor import ExecutorConfig, JobExecutor, JobOutcome
from repro.engine.jobs import (
    DRMSearchJob,
    EngineError,
    Job,
    JobContext,
    SimulateJob,
    simulate_cache_key,
)
from repro.engine.scheduler import JobGraph
from repro.engine.store import SCHEMA_VERSION, ResultStore

__all__ = [
    "Engine",
    "EngineError",
    "EventLog",
    "ExecutorConfig",
    "Job",
    "JobContext",
    "JobExecutor",
    "JobGraph",
    "JobOutcome",
    "ResultStore",
    "SCHEMA_VERSION",
    "SimulateJob",
    "DRMSearchJob",
    "simulate_cache_key",
    "stderr_progress",
]


class Engine:
    """Facade: graph construction + scheduling + execution + accounting.

    Args:
        store_dir: directory for the persistent result store (``None``
            keeps everything in memory for this engine's lifetime).
        max_workers: parallel worker processes (``None`` = cpu count,
            ``1`` = serial in-process).
        timeout_s: default per-job wall-clock budget.
        retries: extra attempts per failing job.
        failure_budget: maximum concluded failed attempts per job across
            this engine's lifetime before it is failed fast (``None``
            disables; see :class:`ExecutorConfig`).
        events: an :class:`EventLog` to share; a fresh one otherwise.
        progress: optional progress sink (e.g. ``stderr_progress``),
            only used when ``events`` is omitted.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike | None = None,
        max_workers: int | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        failure_budget: int | None = None,
        events: EventLog | None = None,
        progress=None,
    ) -> None:
        self.events = events if events is not None else EventLog(progress=progress)
        self.store = ResultStore(store_dir) if store_dir is not None else None
        self.telemetry = None
        if self.store is not None:
            from repro.telemetry import STORE_DIRNAME, TelemetryWriter

            self.telemetry = TelemetryWriter(
                self.store.root / STORE_DIRNAME, prefix="engine"
            )
            # A shared EventLog may already stream into another engine's
            # run; the first attachment wins.
            if not self.events.has_sink:
                self.events.attach_telemetry(self.telemetry)
        self.executor = JobExecutor(
            config=ExecutorConfig(
                max_workers=max_workers,
                timeout_s=timeout_s,
                retries=retries,
                failure_budget=failure_budget,
            ),
            store=self.store,
            events=self.events,
        )
        self.outcomes: dict[str, JobOutcome] = {}

    # ---- core ----------------------------------------------------------

    def run(self, jobs) -> dict[Job, object]:
        """Execute ``jobs`` (plus their dependency closure).

        Dependencies are scheduled in waves (simulate before evaluate
        before drm/dtm), identical jobs are deduplicated, and results
        come back keyed by the *requested* job specs.  Failed jobs map to
        ``None``; inspect :attr:`outcomes` / :attr:`events` for details.
        """
        graph = JobGraph(events=self.events)
        requested = [graph.add(job) for job in jobs]
        for wave in graph.waves():
            self.outcomes.update(self.executor.execute(wave))
        return {
            job: self._result_of(job.cache_key) for job in requested
        }

    def _result_of(self, key: str):
        outcome = self.outcomes.get(key)
        if outcome is None or outcome.status == "failed":
            return None
        return outcome.result

    def result(self, job: Job):
        """The result of a previously run job (``None`` if failed)."""
        return self._result_of(job.cache_key)

    # ---- conveniences over the paper's workloads -----------------------

    def simulate_many(
        self,
        profile_names,
        configs=None,
        instructions: int | None = None,
        warmup: int | None = None,
        seed: int = 42,
    ) -> dict[tuple[str, str], object]:
        """Run (application × configuration) simulations in parallel.

        Returns ``{(app, config.describe()): WorkloadRun}``.  This is the
        Fig-2 substrate: 9 apps × 18 configs = 162 independent jobs.
        """
        from repro.config.microarch import BASE_MICROARCH
        from repro.cpu.simulator import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP

        if configs is None:
            configs = (BASE_MICROARCH,)
        jobs = [
            SimulateJob(
                profile_name=name,
                config=config,
                instructions=(
                    DEFAULT_INSTRUCTIONS if instructions is None else instructions
                ),
                warmup=DEFAULT_WARMUP if warmup is None else warmup,
                seed=seed,
            )
            for name in profile_names
            for config in configs
        ]
        results = self.run(jobs)
        return {
            (job.profile_name, job.config.describe()): result
            for job, result in results.items()
        }

    def drm_sweep(
        self,
        profile_names,
        t_quals,
        mode: str = "archdvs",
        dvs_steps: int = 26,
        instructions: int | None = None,
        warmup: int | None = None,
        seed: int = 42,
    ) -> dict[tuple[str, float], object]:
        """Parallel DRM oracle sweep; returns ``{(app, t_qual): decision}``.

        The scheduler fans the cycle-level simulations out first (they
        dominate wall time), then the per-(app, T_qual) searches run as
        pure reliability math over the warm store.
        """
        from repro.cpu.simulator import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP

        jobs = [
            DRMSearchJob(
                profile_name=name,
                t_qual_k=float(t_qual),
                mode=mode,
                dvs_steps=dvs_steps,
                instructions=(
                    DEFAULT_INSTRUCTIONS if instructions is None else instructions
                ),
                warmup=DEFAULT_WARMUP if warmup is None else warmup,
                seed=seed,
            )
            for name in profile_names
            for t_qual in t_quals
        ]
        results = self.run(jobs)
        return {
            (job.profile_name, job.t_qual_k): result
            for job, result in results.items()
        }
