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
    content_hash,
    simulate_cache_key,
)
from repro.engine.scheduler import JobGraph
from repro.engine.store import SCHEMA_VERSION, ResultStore
from repro.errors import SweepError

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
    "SWEEP_SPEC_SCHEMA",
    "simulate_cache_key",
    "stderr_progress",
    "sweep_run_id",
]


class Engine:
    """Facade: graph construction + scheduling + execution + accounting.

    Args:
        store_dir: directory for the persistent result store (``None``
            keeps everything in memory for this engine's lifetime;
            :meth:`drm_sweep` needs a store for its journal).
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
        apps,
        tquals,
        *,
        mode: str = "archdvs",
        dvs_steps: int = 26,
        instructions: int | None = None,
        warmup: int | None = None,
        seed: int = 42,
        resume: bool = False,
    ) -> dict[tuple[str, float], object]:
        """Checkpointed DRM oracle sweep; returns ``{(app, t_qual): decision}``.

        The cycle-level simulations of every pending cell fan out first
        (they dominate wall time); then each (application, T_qual) cell
        runs as pure reliability math over the warm store and appends
        one ``sweep.cell_done`` record — pointing at the decision's
        content key — to the sweep's stream under
        ``<store>/telemetry/sweep-<spec-hash>/``.

        With ``resume=True``, cells recorded on the stream are restored
        straight from the store (one ``resumed`` event each; a decision
        that no longer decodes is struck and recomputed) and only the
        rest are executed.  Without it a ``sweep.reset`` record voids the
        history and every cell is redone (finished simulations still
        short-circuit through the store).  Killing a sweep mid-run, even
        mid-append (frames are CRC-checked and torn tails skipped), costs
        only the cells that had not finished.  A completed sweep compacts
        its stream into one segment.

        Raises:
            SweepError: the engine has no store to hold the journal.
        """
        from repro.cpu.simulator import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
        from repro.engine.store import decode_drm_decision
        from repro.telemetry import STORE_DIRNAME, TelemetryWriter, compact_run

        if self.store is None:
            raise SweepError(
                "a checkpointed sweep needs a store directory for its journal"
            )
        apps = list(apps)
        tquals = [float(t) for t in tquals]
        spec = {
            "schema": SWEEP_SPEC_SCHEMA,
            "apps": sorted(apps),
            "tquals": sorted(tquals),
            "mode": mode,
            "dvs_steps": dvs_steps,
            "instructions": (
                DEFAULT_INSTRUCTIONS if instructions is None else instructions
            ),
            "warmup": DEFAULT_WARMUP if warmup is None else warmup,
            "seed": seed,
        }
        jobs = {
            (app, t_qual): DRMSearchJob(
                profile_name=app,
                t_qual_k=t_qual,
                mode=mode,
                dvs_steps=dvs_steps,
                instructions=spec["instructions"],
                warmup=spec["warmup"],
                seed=seed,
            )
            for app in apps
            for t_qual in tquals
        }
        root = self.store.root / STORE_DIRNAME
        run_id = sweep_run_id(spec)
        done = _replay(root, run_id) if resume else {}
        writer = TelemetryWriter(root, run_id=run_id)
        if not resume:
            writer.append("sweep.reset", {"reason": "fresh run"})
        writer.append("sweep.spec", spec)

        decisions: dict[tuple[str, float], object] = {}
        for cell in jobs:
            key = done.get(_cell_id(*cell))
            if key is None:
                continue
            decision, strike = self.store.load(key, decode_drm_decision)
            if decision is None:
                if strike is not None:
                    self.events.emit(
                        strike,
                        job_key=key,
                        stage="drm",
                        detail=f"journalled cell {_cell_id(*cell)}: "
                        "undecodable entry",
                    )
                continue
            decisions[cell] = decision
            self.events.emit(
                "resumed",
                job_key=key,
                stage="drm",
                detail=f"cell {_cell_id(*cell)} restored from stream",
            )

        pending = [cell for cell in jobs if cell not in decisions]
        # Fan the simulations of every pending cell out first; the
        # per-cell runs below then hit a warm store and the journal
        # advances cheaply cell by cell.
        prefetch = {
            dep.cache_key: dep
            for cell in pending
            for dep in jobs[cell].dependencies()
        }
        self.run(list(prefetch.values()))
        for cell in pending:
            job = jobs[cell]
            decision = self.run([job])[job]
            decisions[cell] = decision
            if decision is not None:
                writer.append(
                    "sweep.cell_done",
                    {"cell": _cell_id(*cell), "decision_key": job.cache_key},
                )
        if all(decision is not None for decision in decisions.values()):
            # The sweep is whole: fold its (possibly crash-littered)
            # segments into one.  Readers dedupe by seq, so a crash
            # inside the compaction itself is also survivable.
            compact_run(root, run_id, include_active=True)
        return {cell: decisions[cell] for cell in jobs}


#: Sweep spec version; bump when the spec shape (and thus run identity)
#: changes.  (Key name stays ``schema`` for hash stability.)
SWEEP_SPEC_SCHEMA = 1


def sweep_run_id(spec: dict) -> str:
    """A sweep's stream identity: stable across kill/resume."""
    return f"sweep-{content_hash(spec)[:16]}"


def _cell_id(app: str, t_qual: float) -> str:
    return f"{app}@{t_qual:g}"


def _replay(root: os.PathLike, run_id: str) -> dict[str, str]:
    """The ``{cell_id: decision_key}`` map a sweep's stream records.

    A ``sweep.reset`` record (appended by every non-resume run) clears
    everything before it; torn or damaged frames are skipped by the
    reader, so a sweep killed mid-append replays every cell whose record
    made it to disk intact.
    """
    from repro.telemetry import read_stream

    done: dict[str, str] = {}
    for record in read_stream(root, run_id=run_id, kinds=("sweep.",)):
        if record.kind == "sweep.reset":
            done.clear()
        elif record.kind == "sweep.cell_done":
            cell = record.payload.get("cell")
            key = record.payload.get("decision_key")
            if isinstance(cell, str) and isinstance(key, str):
                done[cell] = key
    return done
