"""Caching for expensive cycle-level simulations.

The DRM sweeps evaluate 9 applications x 18 microarchitectural
configurations; each (application, configuration) pair needs exactly one
cycle-level simulation, after which every DVS point is an analytical
rescale.  :class:`SimulationCache` memoises those runs in memory and,
optionally, on disk, so repeated bench invocations skip straight to the
reliability math.

The disk layer is the engine's content-addressed
:class:`~repro.engine.store.ResultStore`: entries are keyed by a SHA-256
over *all* simulation inputs (full profile, full config, budgets, seed,
schema version), not by a ``describe()``-derived filename — so two
configs can never collide, keys are always filesystem-safe, and editing a
profile invalidates its cached runs.  A corrupt or truncated entry is
struck (self-healed on the first strike, quarantined on a repeat) and the
simulation simply re-runs; a damaged cache can never crash a sweep.

For parallel population of the cache (Fig-2-style 162-simulation
sweeps), see :meth:`SimulationCache.run_many`, which routes through
:class:`repro.engine.Engine`.

For whole DRM sweeps that must survive being killed mid-run, see
:class:`DRMSweepRunner`: every finished (application, T_qual) cell is
recorded as a ``sweep.cell_done`` record on the store's telemetry
stream, and a ``resume`` run replays the stream to restore the finished
cells (emitting ``resumed`` events) and recomputes only the rest.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.cpu.simulator import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    CycleSimulator,
    WorkloadPreparation,
    WorkloadRun,
)
from repro.engine.jobs import simulate_cache_key
from repro.engine.store import (
    MemoryTier,
    ResultStore,
    decode_workload_run,
    encode_workload_run,
)
from repro.workloads.characteristics import WorkloadProfile


class SimulationCache:
    """Memoised access to cycle-level workload runs.

    Args:
        instructions / warmup / seed: forwarded to the simulator; part of
            the cache key.
        disk_dir: optional directory for the persistent content-addressed
            store (shared freely between processes and with the engine).
    """

    def __init__(
        self,
        instructions: int = DEFAULT_INSTRUCTIONS,
        warmup: int = DEFAULT_WARMUP,
        seed: int = 42,
        disk_dir: str | os.PathLike | None = None,
    ) -> None:
        self.instructions = instructions
        self.warmup = warmup
        self.seed = seed
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.store = ResultStore(self.disk_dir) if self.disk_dir is not None else None
        #: Live runs; thread-safe, so the decision service's workers
        #: share one cache (simulations run outside its lock).
        self.memory = MemoryTier()

    def _key(self, profile: WorkloadProfile, config: MicroarchConfig) -> str:
        return simulate_cache_key(
            profile, config, self.instructions, self.warmup, self.seed
        )

    def run(
        self,
        profile: WorkloadProfile,
        config: MicroarchConfig = BASE_MICROARCH,
        *,
        preparation: WorkloadPreparation | None = None,
    ) -> WorkloadRun:
        """Return the (possibly cached) cycle-level run.

        Lookup order: the memory tier, then the disk store, then a fresh
        simulation.  Undecodable store entries are struck (self-healed
        first, quarantined on a repeat) and the simulation re-runs —
        corruption degrades to recomputation, never to an exception.
        A simulation draws on ``preparation`` when given (see
        :meth:`run_many`); a cached run never touches it.
        """
        key = self._key(profile, config)
        return self.memory.get_or_compute(
            key, lambda: self._load_or_simulate(key, profile, config, preparation)
        )

    def _load_or_simulate(
        self,
        key: str,
        profile: WorkloadProfile,
        config: MicroarchConfig,
        preparation: WorkloadPreparation | None,
    ) -> WorkloadRun:
        if self.store is not None:
            run, _ = self.store.load(
                key, lambda payload: decode_workload_run(payload, profile, config)
            )
            if run is not None:
                return run
        simulator = CycleSimulator(
            config=config,
            instructions=self.instructions,
            warmup=self.warmup,
            seed=self.seed,
        )
        run = simulator.run(profile, preparation)
        if self.store is not None:
            self.store.put(key, "simulate", encode_workload_run(run))
        return run

    def run_many(
        self,
        profiles,
        configs=None,
        max_workers: int | None = None,
    ) -> dict[tuple[str, str], WorkloadRun]:
        """Populate the cache for (profile × config) pairs in parallel.

        Suite profiles only (the engine addresses them by name).  With a
        disk store the simulations fan out across worker processes and
        land in the shared store; without one, or with ``max_workers=1``,
        the pairs run serially in-process (worker memory would be
        unreachable).  The serial path prepares each profile once — its
        static program, preloaded hierarchy and traces (see
        :class:`~repro.cpu.simulator.WorkloadPreparation`) — for all of
        its configurations, and keeps none of it after returning.  Either
        way the in-memory memo ends up warm and the returned runs are
        identical to what sequential :meth:`run` calls would produce.

        Returns ``{(profile.name, config.describe()): WorkloadRun}``.
        """
        from repro.engine import Engine

        if configs is None:
            configs = (BASE_MICROARCH,)
        profiles = list(profiles)
        configs = list(configs)
        if self.store is None or max_workers == 1:
            runs = {}
            for p in profiles:
                preparation = WorkloadPreparation(
                    p, self.instructions, self.warmup, self.seed, uses=len(configs)
                )
                for c in configs:
                    runs[(p.name, c.describe())] = self.run(p, c, preparation=preparation)
            return runs
        engine = Engine(store_dir=self.disk_dir, max_workers=max_workers)
        engine.simulate_many(
            [p.name for p in profiles],
            configs,
            instructions=self.instructions,
            warmup=self.warmup,
            seed=self.seed,
        )
        # Re-read through the normal path so the memo fills from the
        # store and every entry went through the same decode checks.
        return {
            (p.name, c.describe()): self.run(p, c)
            for p in profiles
            for c in configs
        }


#: Sweep spec version; bump when the spec shape (and thus run identity)
#: changes.  (Key name stays ``schema`` for hash stability.)
SWEEP_SPEC_SCHEMA = 1


class DRMSweepRunner:
    """Checkpointed DRM oracle sweep over (application × T_qual) cells.

    Each cell runs through :class:`repro.engine.Engine` (simulations fan
    out in parallel first), and every finished cell appends one
    ``sweep.cell_done`` telemetry record — pointing at the decision's
    content key in the store — to the sweep's stream under
    ``<store>/telemetry/sweep-<spec-hash>/``.  A ``resume=True`` run
    replays the stream to restore finished cells — verifying each
    decision still decodes; a corrupt one is struck and recomputed — and
    only submits jobs for the rest, so killing a sweep mid-run (even
    mid-append: frames are CRC-checked and torn tails skipped) costs
    only the cells that had not finished.  A completed sweep compacts
    its stream into one segment.

    Args:
        store_dir: directory of the engine's result store (required —
            the telemetry stream lives inside it).
        mode / dvs_steps / instructions / warmup / seed: sweep
            parameters; all part of the stream's run identity hash.
        max_workers / timeout_s / retries / failure_budget / progress:
            forwarded to the engine.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        *,
        mode: str = "archdvs",
        dvs_steps: int = 26,
        instructions: int | None = None,
        warmup: int | None = None,
        seed: int = 42,
        max_workers: int | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        failure_budget: int | None = None,
        progress=None,
    ) -> None:
        from repro.cpu.simulator import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
        from repro.engine import Engine

        if store_dir is None:
            from repro.errors import SweepError

            raise SweepError(
                "a checkpointed sweep needs a store directory for its journal"
            )
        self.mode = mode
        self.dvs_steps = dvs_steps
        self.instructions = (
            DEFAULT_INSTRUCTIONS if instructions is None else instructions
        )
        self.warmup = DEFAULT_WARMUP if warmup is None else warmup
        self.seed = seed
        self.engine = Engine(
            store_dir=store_dir,
            max_workers=max_workers,
            timeout_s=timeout_s,
            retries=retries,
            failure_budget=failure_budget,
            progress=progress,
        )

    # ---- stream --------------------------------------------------------

    def _spec(self, apps, tquals) -> dict:
        return {
            "schema": SWEEP_SPEC_SCHEMA,
            "apps": sorted(apps),
            "tquals": sorted(float(t) for t in tquals),
            "mode": self.mode,
            "dvs_steps": self.dvs_steps,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "seed": self.seed,
        }

    @property
    def stream_root(self) -> Path:
        from repro.telemetry import STORE_DIRNAME

        return self.engine.store.root / STORE_DIRNAME

    def sweep_run_id(self, apps, tquals) -> str:
        """The sweep's stream identity: stable across kill/resume."""
        from repro.engine.jobs import content_hash

        return f"sweep-{content_hash(self._spec(apps, tquals))[:16]}"

    def _replay(self, run_id: str) -> dict[str, str]:
        """The ``{cell_id: decision_key}`` map the stream records.

        A ``sweep.reset`` record (appended by every non-resume run)
        clears everything before it; torn or damaged frames are skipped
        by the reader, so a sweep killed mid-append replays every cell
        whose record made it to disk intact.
        """
        from repro.telemetry import read_stream

        done: dict[str, str] = {}
        for record in read_stream(
            self.stream_root, run_id=run_id, kinds=("sweep.",)
        ):
            if record.kind == "sweep.reset":
                done.clear()
            elif record.kind == "sweep.cell_done":
                cell = record.payload.get("cell")
                key = record.payload.get("decision_key")
                if isinstance(cell, str) and isinstance(key, str):
                    done[cell] = key
        return done

    @staticmethod
    def _cell_id(app: str, t_qual: float) -> str:
        return f"{app}@{t_qual:g}"

    # ---- sweep ---------------------------------------------------------

    def run(
        self, apps, tquals, resume: bool = False
    ) -> dict[tuple[str, float], object]:
        """Run (or resume) the sweep; returns ``{(app, t_qual): decision}``.

        With ``resume=True``, cells recorded on the telemetry stream are
        restored straight from the store (one ``resumed`` event each) and
        only the remaining cells are executed; without it a
        ``sweep.reset`` record voids the history and every cell is redone
        (finished simulations still short-circuit through the
        content-addressed store either way).
        """
        from repro.engine.jobs import DRMSearchJob
        from repro.engine.store import decode_drm_decision
        from repro.telemetry import TelemetryWriter, compact_run

        apps = list(apps)
        tquals = [float(t) for t in tquals]
        spec = self._spec(apps, tquals)
        run_id = self.sweep_run_id(apps, tquals)
        done = self._replay(run_id) if resume else {}
        writer = TelemetryWriter(self.stream_root, run_id=run_id)
        if not resume:
            writer.append("sweep.reset", {"reason": "fresh run"})
        writer.append("sweep.spec", spec)

        jobs: dict[tuple[str, float], DRMSearchJob] = {
            (app, t_qual): DRMSearchJob(
                profile_name=app,
                t_qual_k=t_qual,
                mode=self.mode,
                dvs_steps=self.dvs_steps,
                instructions=self.instructions,
                warmup=self.warmup,
                seed=self.seed,
            )
            for app in apps
            for t_qual in tquals
        }

        decisions: dict[tuple[str, float], object] = {}
        store = self.engine.store
        for cell, job in jobs.items():
            key = done.get(self._cell_id(*cell))
            if key is None:
                continue
            decision, strike = store.load(key, decode_drm_decision)
            if decision is None:
                if strike is not None:
                    self.engine.events.emit(
                        strike,
                        job_key=key,
                        stage="drm",
                        detail=f"journalled cell {self._cell_id(*cell)}: "
                        "undecodable entry",
                    )
                done.pop(self._cell_id(*cell), None)
                continue
            decisions[cell] = decision
            self.engine.events.emit(
                "resumed",
                job_key=key,
                stage="drm",
                detail=f"cell {self._cell_id(*cell)} restored from stream",
            )

        pending = [cell for cell in jobs if cell not in decisions]
        if pending:
            # Fan the expensive cycle-level simulations out across every
            # pending cell first; the per-cell runs below then hit a warm
            # store and the journal advances cheaply cell by cell.
            prefetch: dict[str, object] = {}
            for cell in pending:
                for dep in jobs[cell].dependencies():
                    prefetch[dep.cache_key] = dep
            self.engine.run(list(prefetch.values()))
        for cell in pending:
            job = jobs[cell]
            decision = self.engine.run([job])[job]
            decisions[cell] = decision
            if decision is not None:
                done[self._cell_id(*cell)] = job.cache_key
                writer.append(
                    "sweep.cell_done",
                    {
                        "cell": self._cell_id(*cell),
                        "decision_key": job.cache_key,
                    },
                )
        if all(decision is not None for decision in decisions.values()):
            # The sweep is whole: fold its (possibly crash-littered)
            # segments into one.  Readers dedupe by seq, so a crash
            # inside the compaction itself is also survivable.
            compact_run(self.stream_root, run_id, include_active=True)
        return decisions
