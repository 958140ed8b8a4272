"""The decision service: oracles behind a batcher, a cache, and a pool.

:class:`DecisionService` is the transport-independent core of
``repro.serve`` — the HTTP layer and the in-process load harness both
drive this object.  One request flows::

    decide(request)
      -> decision-tier probe            (event loop, memory only)
      -> micro-batcher                  (coalesce concurrent requests)
      -> worker pool                    (one thread-pool crossing per batch)
           -> dedupe identical compute identities within the batch
           -> decision tier, then the verified store read
           -> oracle ``best(...)``      (the miss path; the real library
              call, so served decisions are bit-identical to direct ones)

Three sharing layers make batching pay:

- requests with the **same identity** in one batch compute once
  (batch-level dedupe);
- requests for the **same application** that differ only in their
  reliability knob share one grid evaluation through the platform's
  evaluation memo (:meth:`~repro.harness.platform.Platform.enable_evaluation_memo`);
- **repeat identities** across batches hit the decision tier without
  touching an oracle at all.

Every cache here is an engine :class:`~repro.engine.store.MemoryTier` —
decisions, simulations, grid evaluations and the oracles' own memos —
over one :class:`~repro.engine.store.ResultStore` at ``store_dir``,
which simulations and decisions share.  The tiers are thread-safe, so
every worker uses the same oracle bundle: p_qual and each RAMP
calibration are computed once per service, and :meth:`prewarm` warms
what every worker reads.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Sequence

from repro.constants import TARGET_FIT
from repro.core.combined import JointOracle
from repro.core.drm import AdaptationMode, DRMOracle
from repro.core.dtm import DTMOracle
from repro.core.intra import IntraAppOracle
from repro.cpu.simulator import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
from repro.engine.events import EventLog
from repro.engine.jobs import content_hash
from repro.engine.store import MemoryTier
from repro.errors import ServeError
from repro.harness.platform import Platform
from repro.harness.sweep import SimulationCache
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    DecideRequest,
    decision_cache_key,
    decode_decision,
    encode_decision,
    profile_payload_for,
)
from repro.serve.state import ChipStateStore
from repro.workloads.suite import SUITE_NAMES, WORKLOAD_SUITE, workload_by_name


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Everything that shapes the service's answers and its hot path.

    The *decision-shaping* fields (grids, budgets, FIT target, the
    qualification suite) are folded into every cache key via
    :meth:`DecisionService.cache_context`; the *hot-path* fields
    (batching, cache sizes, worker count) cannot change an answer, only
    how fast it arrives.

    Attributes:
        dvs_steps: DVS grid resolution for the drm/dtm/joint oracles.
        intra_grid_steps: per-phase DVS candidates for the intra oracle.
        fit_target: qualified failure-rate target.
        instructions / warmup / sim_seed: cycle-level simulation budget.
        qual_apps: applications used for p_qual qualification (``None``
            = the paper's full nine-application suite).
        max_batch / max_delay_s: micro-batcher flush triggers.
        batching: coalesce concurrent requests (off = one pool crossing
            per request; the benchmark's sequential baseline).
        cache_capacity: in-memory decision LRU size (0 disables the
            decision cache entirely).
        store_dir: directory of the one result store, shared by
            decisions and simulations; ``None`` keeps everything in
            memory.
        eval_memo_capacity: platform evaluation memo size (0 disables).
        workers: worker-pool threads.
        n_shards: chip-state lock stripes.
    """

    dvs_steps: int = 26
    intra_grid_steps: int = 6
    fit_target: float = TARGET_FIT
    instructions: int = DEFAULT_INSTRUCTIONS
    warmup: int = DEFAULT_WARMUP
    sim_seed: int = 42
    qual_apps: tuple[str, ...] | None = None
    max_batch: int = 64
    max_delay_s: float = 0.005
    batching: bool = True
    cache_capacity: int = 4096
    store_dir: str | None = None
    eval_memo_capacity: int = 256
    workers: int = 4
    n_shards: int = 16

    def __post_init__(self) -> None:
        if self.qual_apps is not None:
            unknown = [a for a in self.qual_apps if a not in SUITE_NAMES]
            if unknown:
                raise ServeError(
                    f"unknown qualification app(s): {', '.join(unknown)}",
                    unknown=unknown,
                )
        if self.workers < 1:
            raise ServeError("need at least one worker thread")

    def as_dict(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["qual_apps"] = (
            list(self.qual_apps) if self.qual_apps is not None else None
        )
        return payload


@dataclasses.dataclass(frozen=True)
class ServedDecision:
    """One answered request.

    Attributes:
        request: the validated request.
        decision: the oracle's frozen decision dataclass.
        cache_key: the decision's engine-store address.
        tier: where the answer came from (``"memory"`` / ``"store"`` /
            ``"computed"`` / ``"deduped"``).
    """

    request: DecideRequest
    decision: Any
    cache_key: str
    tier: str


@dataclasses.dataclass
class _WorkItem:
    request: DecideRequest
    key: str


class OracleBundle:
    """The service's oracle set, shared by every worker thread."""

    def __init__(self, service: "DecisionService") -> None:
        cfg = service.config
        suite = service.qual_suite
        self.drm = DRMOracle(
            platform=service.platform,
            cache=service.sim_cache,
            fit_target=cfg.fit_target,
            dvs_steps=cfg.dvs_steps,
            suite=suite,
        )
        self.dtm = DTMOracle(
            platform=service.platform,
            cache=service.sim_cache,
            dvs_steps=cfg.dvs_steps,
        )
        self.joint = JointOracle(
            self.drm.ramp_for,
            platform=service.platform,
            cache=service.sim_cache,
            fit_target=cfg.fit_target,
            dvs_steps=cfg.dvs_steps,
        )
        self.intra = IntraAppOracle(
            self.drm.ramp_for,
            platform=service.platform,
            cache=service.sim_cache,
            fit_target=cfg.fit_target,
            grid_steps=cfg.intra_grid_steps,
        )

    def best(self, request: DecideRequest):
        """Dispatch one validated request to the matching oracle."""
        profile = workload_by_name(request.app)
        if request.kind == "drm":
            return self.drm.best(
                profile,
                t_qual_k=request.t_qual_k,
                mode=AdaptationMode(request.mode),
            )
        if request.kind == "dtm":
            return self.dtm.best(profile, t_limit_k=request.t_limit_k)
        if request.kind == "joint":
            return self.joint.best(
                profile,
                t_qual_k=request.t_qual_k,
                t_limit_k=request.t_limit_k,
            )
        return self.intra.best(
            profile, t_qual_k=request.t_qual_k, strategy=request.strategy
        )


class DecisionService:
    """The servable oracle frontend (see module docstring).

    Args:
        config: decision-shaping and hot-path knobs.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.platform = Platform()
        if cfg.eval_memo_capacity > 0:
            self.platform.enable_evaluation_memo(cfg.eval_memo_capacity)
        self.sim_cache = SimulationCache(
            instructions=cfg.instructions,
            warmup=cfg.warmup,
            seed=cfg.sim_seed,
            disk_dir=cfg.store_dir,
        )
        #: The one result store (the simulation cache's), which the
        #: decision tier persists to as well; ``None`` without a store_dir.
        self.store = self.sim_cache.store
        self.qual_suite = (
            WORKLOAD_SUITE
            if cfg.qual_apps is None
            else tuple(workload_by_name(a) for a in cfg.qual_apps)
        )
        #: The decision tier (``None`` when ``cache_capacity`` is 0).
        self.cache = (
            MemoryTier(cfg.cache_capacity) if cfg.cache_capacity > 0 else None
        )
        self.chips = ChipStateStore(cfg.n_shards)
        self.events = EventLog()
        self.telemetry = None
        if cfg.store_dir is not None:
            from repro.telemetry import STORE_DIRNAME, TelemetryWriter

            self.telemetry = TelemetryWriter(
                Path(cfg.store_dir) / STORE_DIRNAME, prefix="serve"
            )
            self.events.attach_telemetry(self.telemetry, prefix="serve")
        self.executor = ThreadPoolExecutor(
            max_workers=cfg.workers, thread_name_prefix="repro-serve"
        )
        self.batcher = (
            MicroBatcher(
                self._flush, max_batch=cfg.max_batch, max_delay_s=cfg.max_delay_s
            )
            if cfg.batching
            else None
        )
        self._bundle = OracleBundle(self)
        self._profile_hash = {
            app: content_hash(profile_payload_for(app)) for app in SUITE_NAMES
        }
        self._cache_context = self._build_cache_context()
        self._t0 = time.monotonic()
        self._closed = False

    # ---- identity ------------------------------------------------------

    def _build_cache_context(self) -> dict[str, Any]:
        cfg = self.config
        return {
            "platform": content_hash(self.platform.fingerprint()),
            "dvs_steps": cfg.dvs_steps,
            "intra_grid_steps": cfg.intra_grid_steps,
            "fit_target": cfg.fit_target,
            "instructions": cfg.instructions,
            "warmup": cfg.warmup,
            "sim_seed": cfg.sim_seed,
            "qual_apps": sorted(p.name for p in self.qual_suite),
        }

    def cache_context(self) -> dict[str, Any]:
        """Everything service-side that can change an answer — folded
        into every decision cache key (see
        :func:`~repro.serve.protocol.decision_cache_key`)."""
        return dict(self._cache_context)

    def cache_key_for(self, request: DecideRequest) -> str:
        return decision_cache_key(
            request,
            self._cache_context,
            profile_hash=self._profile_hash[request.app],
        )

    def oracle_bundle(self) -> OracleBundle:
        """The oracle bundle every worker thread shares.

        Exposed so tests and the load harness can make *direct*
        ``best(...)`` calls with exactly the service's parameters.
        """
        return self._bundle

    # ---- lifecycle -----------------------------------------------------

    def prewarm(self, apps: Sequence[str] | None = None) -> None:
        """Simulate ahead of traffic (call from a worker thread / CLI
        startup, never the event loop — this is the expensive part).

        Runs the cycle-level simulations for ``apps`` (default: the full
        suite) plus the qualification suite, so first requests pay
        oracle search cost, not simulation cost; p_qual is computed once
        for every worker.
        """
        names = tuple(apps) if apps is not None else SUITE_NAMES
        for app in names:
            self.sim_cache.run(workload_by_name(app))
        for profile in self.qual_suite:
            self.sim_cache.run(profile)
        self._bundle.drm.p_qual()

    async def close(self) -> None:
        """Drain the batcher and shut the worker pool down."""
        self._closed = True
        if self.batcher is not None:
            await self.batcher.close()
        self.executor.shutdown(wait=True)

    # ---- the hot path --------------------------------------------------

    async def decide(self, request: DecideRequest) -> ServedDecision:
        """Answer one request (validates, caches, batches, computes).

        Raises:
            ServeError: for a malformed request.
            ReproError subclasses: whatever the oracle raised for this
                request (other requests in the same batch are unaffected).
        """
        request.validate()
        key = self.cache_key_for(request)
        self.events.emit("submitted", job_key=key, stage=f"serve.{request.kind}")
        if self.cache is not None:
            hit = self.cache.get_memory(key)
            if hit is not None:
                self.events.emit(
                    "cache_hit", job_key=key, stage=f"serve.{request.kind}"
                )
                return self._finish(request, key, hit, "memory")
        item = _WorkItem(request=request, key=key)
        try:
            if self.batcher is not None:
                decision, tier = await self.batcher.submit(item)
            else:
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(
                    self.executor, self._compute_batch, [item]
                )
                outcome = result[0]
                if isinstance(outcome, Exception):
                    raise outcome
                decision, tier = outcome
        except Exception as exc:
            self.events.emit(
                "failed",
                job_key=key,
                stage=f"serve.{request.kind}",
                detail=type(exc).__name__,
            )
            raise
        if tier in ("memory", "store", "deduped"):
            self.events.emit(
                "cache_hit",
                job_key=key,
                stage=f"serve.{request.kind}",
                detail=tier,
            )
        else:
            self.events.emit(
                "run_finished", job_key=key, stage=f"serve.{request.kind}"
            )
        return self._finish(request, key, decision, tier)

    def _finish(
        self, request: DecideRequest, key: str, decision, tier: str
    ) -> ServedDecision:
        if request.chip_id is not None:
            self.chips.record(
                request.chip_id,
                kind=request.kind,
                app=request.app,
                request_payload=request.as_payload(),
                decision_key=key,
                cache_tier=tier,
                wear=request.wear_by_structure(),
            )
        return ServedDecision(
            request=request, decision=decision, cache_key=key, tier=tier
        )

    async def _flush(self, items: Sequence[_WorkItem]) -> list:
        """Micro-batcher flush callback: one pool crossing per batch."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self.executor, self._compute_batch, list(items)
        )

    def _compute_batch(self, items: list[_WorkItem]) -> list:
        """Worker-thread batch computation, aligned with ``items``.

        Identical cache keys compute once; a failing request poisons
        only its own slots (the exception instance is its result).
        """
        outcomes: dict[str, Any] = {}
        order: list[str] = []
        for item in items:
            if item.key not in outcomes:
                outcomes[item.key] = None
                order.append(item.key)
        by_key = {item.key: item for item in items}
        for key in order:
            try:
                outcomes[key] = self._lookup_or_compute(by_key[key])
            # repro: ignore[RPR006] fault isolation: one failing request
            # must poison only its own batch slots, not the whole batch.
            except Exception as exc:
                outcomes[key] = exc
        results = []
        delivered: set[str] = set()
        for item in items:
            outcome = outcomes[item.key]
            if isinstance(outcome, Exception) or item.key not in delivered:
                delivered.add(item.key)
                results.append(outcome)
            else:
                decision, tier = outcome
                # Identical identity computed once this batch: the
                # followers are cache hits in all but mechanism.
                results.append((decision, "deduped" if tier == "computed" else tier))
        return results

    def _lookup_or_compute(self, item: _WorkItem) -> tuple[Any, str]:
        """``(decision, tier)`` for one key: the decision tier, then the
        verified store read, then the oracle (worker thread only)."""
        request = item.request
        if self.cache is None:
            return self._bundle.best(request), "computed"
        tier = "memory"

        def load_or_compute():
            nonlocal tier
            if self.store is not None:
                decision, _ = self.store.load(
                    item.key, functools.partial(decode_decision, request.kind)
                )
                if decision is not None:
                    tier = "store"
                    return decision
            tier = "computed"
            decision = self._bundle.best(request)
            if self.store is not None:
                self.store.put(
                    item.key, request.kind, encode_decision(request.kind, decision)
                )
            return decision

        decision = self.cache.get_or_compute(item.key, load_or_compute)
        return decision, tier

    # ---- observability -------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``/statz`` body: every layer's counters in one place.

        Each call also streams one ``serve.statz`` snapshot onto the
        telemetry plane (when a store is configured), so ``repro
        report`` can render the fleet's last-known counters after the
        process is gone.
        """
        counters = dict(self.events.counters)
        memo = self.platform.evaluation_memo
        body = {
            "uptime_s": time.monotonic() - self._t0,
            "config": self.config.as_dict(),
            "requests": {
                "submitted": counters["submitted"],
                "computed": counters["run"],
                "cache_hits": counters["cached"],
                "failed": counters["failed"],
            },
            "batcher": self.batcher.stats.as_dict() if self.batcher else None,
            "decision_cache": self.cache.stats() if self.cache is not None else None,
            "simulation_cache": self.sim_cache.memory.stats(),
            "evaluation_memo": memo.stats() if memo is not None else None,
            "chips": self.chips.stats(),
            "engine": self.events.summary(),
        }
        if self.telemetry is not None:
            self.telemetry.append(
                "serve.statz",
                {
                    "uptime_s": round(body["uptime_s"], 3),
                    "requests": body["requests"],
                    "chips": body["chips"],
                },
            )
        return body

    def healthy(self) -> bool:
        """Liveness: the pool is up and the accounting invariant holds."""
        return not self._closed and self.events.accounted()
