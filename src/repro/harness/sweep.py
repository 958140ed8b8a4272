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
:meth:`repro.engine.Engine.drm_sweep`: every finished (application,
T_qual) cell is journalled on the store's telemetry stream, and
``resume=True`` restores the finished cells and recomputes only the
rest.
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
