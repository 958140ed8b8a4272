"""Typed, hashable job specifications with content-addressed cache keys.

A job is a *pure description* of one unit of work: every input that can
influence the result is a field (or derived from a field), and the cache
key is a SHA-256 over the canonical JSON of all of those inputs plus the
code schema version.  Two jobs with the same key are guaranteed to
produce the same result, which is what lets the scheduler dedupe them and
the store reuse results across processes and sessions.

Job specs are frozen dataclasses of primitives (plus other frozen specs),
so they are hashable, comparable, and picklable — a worker process
receives the spec, rebuilds its context locally, and returns the result.

Stages (the scheduler orders them through ``dependencies()``):

``simulate``  cycle-level timing simulation (the expensive part)
``drm``       the reliability-constrained oracle search
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass, fields
from functools import cached_property

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.cpu.simulator import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    CycleSimulator,
)
from repro.errors import ReproError
from repro.workloads.characteristics import WorkloadProfile
from repro.workloads.suite import SUITE_NAMES, workload_by_name

from repro.engine.store import SCHEMA_VERSION


class EngineError(ReproError):
    """Raised for malformed job graphs or engine misuse."""


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact floats."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def config_payload(config: MicroarchConfig) -> dict:
    """All fields of a config (stable under field addition via names)."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def profile_payload(profile: WorkloadProfile) -> dict:
    """Every generator-visible knob of a workload profile.

    The *full* profile goes into the hash — not just its name — so a
    profile edit invalidates cached simulations even when the name stays
    the same.
    """
    return {
        "name": profile.name,
        "category": profile.category,
        "mix": {op.name: p for op, p in profile.mix.items()},
        "dep_distance_mean": profile.dep_distance_mean,
        "branch": {
            "n_static": profile.branch.n_static,
            "bias": profile.branch.bias,
            "taken_fraction": profile.branch.taken_fraction,
        },
        "memory": {
            "p_hot": profile.memory.p_hot,
            "p_warm": profile.memory.p_warm,
            "hot_blocks": profile.memory.hot_blocks,
            "warm_blocks": profile.memory.warm_blocks,
            "stride_fraction": profile.memory.stride_fraction,
        },
        "code_blocks": profile.code_blocks,
        "phases": [
            {
                "name": ph.name,
                "weight": ph.weight,
                "ilp_scale": ph.ilp_scale,
                "miss_scale": ph.miss_scale,
                "fp_scale": ph.fp_scale,
            }
            for ph in profile.phases
        ],
    }


def simulate_cache_key(
    profile: WorkloadProfile,
    config: MicroarchConfig,
    instructions: int,
    warmup: int,
    seed: int,
) -> str:
    """The content hash of one cycle-level simulation.

    Shared by :class:`SimulateJob` and
    :class:`~repro.harness.sweep.SimulationCache` so both address the
    same store entries.
    """
    return content_hash(
        {
            "kind": "simulate",
            "schema": SCHEMA_VERSION,
            "profile": profile_payload(profile),
            "config": config_payload(config),
            "instructions": instructions,
            "warmup": warmup,
            "seed": seed,
        }
    )


@dataclass(frozen=True)
class JobContext:
    """Per-process execution context handed to ``Job.run``.

    Carries only what must be shared across jobs in one process: the
    store location (so jobs in worker processes read simulations that
    earlier stages persisted) and nothing that could make results depend
    on *which* process ran the job.
    """

    store_dir: str | None = None

    def simulation_cache(self, instructions: int, warmup: int, seed: int):
        from repro.harness.sweep import SimulationCache

        return SimulationCache(
            instructions=instructions,
            warmup=warmup,
            seed=seed,
            disk_dir=self.store_dir,
        )


class Job(abc.ABC):
    """One unit of work: a pure function of its spec fields.

    Class attributes:
        kind: persistence codec / payload discriminator.
        stage: scheduler stage (also the event-log timing bucket).
        timeout_s: per-job wall-clock budget; ``None`` uses the
            executor's default.  Policy, not content — deliberately not
            part of the cache key.
    """

    kind: str = "abstract"
    stage: str = "abstract"
    timeout_s: float | None = None

    @abc.abstractmethod
    def payload(self) -> dict:
        """Every input that can influence the result, JSON-ready."""

    @abc.abstractmethod
    def run(self, ctx: JobContext):
        """Execute the job (possibly in a worker process)."""

    def dependencies(self) -> tuple["Job", ...]:
        """Jobs whose results must be in the store before this one runs."""
        return ()

    @cached_property
    def cache_key(self) -> str:
        return content_hash(
            {"kind": self.kind, "schema": SCHEMA_VERSION, **self.payload()}
        )

    def describe(self) -> str:
        """Short human-readable label for progress output."""
        return f"{self.kind}:{self.cache_key[:10]}"


def _resolve_profile(name: str) -> WorkloadProfile:
    return workload_by_name(name)


@dataclass(frozen=True)
class SimulateJob(Job):
    """One cycle-level simulation of a suite application on one config."""

    profile_name: str
    config: MicroarchConfig = BASE_MICROARCH
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    seed: int = 42

    kind = "simulate"
    stage = "simulate"

    def payload(self) -> dict:
        return {
            "profile": profile_payload(_resolve_profile(self.profile_name)),
            "config": config_payload(self.config),
            "instructions": self.instructions,
            "warmup": self.warmup,
            "seed": self.seed,
        }

    @cached_property
    def cache_key(self) -> str:
        # Route through the shared helper so SimulationCache and the
        # engine always agree on the address of a simulation.
        return simulate_cache_key(
            _resolve_profile(self.profile_name),
            self.config,
            self.instructions,
            self.warmup,
            self.seed,
        )

    def run(self, ctx: JobContext):
        profile = _resolve_profile(self.profile_name)
        simulator = CycleSimulator(
            config=self.config,
            instructions=self.instructions,
            warmup=self.warmup,
            seed=self.seed,
        )
        return simulator.run(profile)

    def describe(self) -> str:
        return f"simulate:{self.profile_name}:{self.config.describe()}"


@dataclass(frozen=True)
class DRMSearchJob(Job):
    """The DRM oracle's search for one (application, T_qual, mode).

    Depends on every simulation its adaptation space needs plus the
    suite's base simulations (for p_qual), so by the time it runs, all
    cycle-level work is already in the store and the job itself is pure
    reliability math.
    """

    profile_name: str
    t_qual_k: float
    mode: str = "archdvs"
    dvs_steps: int = 26
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    seed: int = 42

    kind = "drm"
    stage = "drm"

    def payload(self) -> dict:
        return {
            "profile": profile_payload(_resolve_profile(self.profile_name)),
            "t_qual_k": self.t_qual_k,
            "mode": self.mode,
            "dvs_steps": self.dvs_steps,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "seed": self.seed,
            "platform": _default_platform_fingerprint(),
        }

    def _configs(self) -> tuple[MicroarchConfig, ...]:
        from repro.config.microarch import arch_adaptation_space

        if self.mode == "dvs":
            return (BASE_MICROARCH,)
        return arch_adaptation_space()

    def dependencies(self) -> tuple[Job, ...]:
        sims = {
            SimulateJob(
                profile_name=self.profile_name,
                config=config,
                instructions=self.instructions,
                warmup=self.warmup,
                seed=self.seed,
            )
            for config in self._configs()
        }
        # p_qual needs every suite app's base-config simulation.
        for name in SUITE_NAMES:
            sims.add(
                SimulateJob(
                    profile_name=name,
                    config=BASE_MICROARCH,
                    instructions=self.instructions,
                    warmup=self.warmup,
                    seed=self.seed,
                )
            )
        return tuple(sorted(sims, key=lambda j: j.cache_key))

    def run(self, ctx: JobContext):
        from repro.core.drm import AdaptationMode, DRMOracle

        cache = ctx.simulation_cache(self.instructions, self.warmup, self.seed)
        oracle = DRMOracle(cache=cache, dvs_steps=self.dvs_steps)
        return oracle.best(
            _resolve_profile(self.profile_name),
            t_qual_k=self.t_qual_k,
            mode=AdaptationMode(self.mode),
        )

    def describe(self) -> str:
        return f"drm:{self.profile_name}@{self.t_qual_k:.0f}K:{self.mode}"


def _default_platform_fingerprint() -> dict:
    """Fingerprint of the default platform jobs construct in workers.

    Jobs that embed power/thermal evaluation hash the platform's physical
    parameters, so a change to the modelled technology or package stack
    invalidates their cached decisions.
    """
    from repro.harness.platform import Platform

    return Platform().fingerprint()
