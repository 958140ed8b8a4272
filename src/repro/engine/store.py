"""The cache hierarchy: an in-memory tier over a content-addressed store.

Every cache in the package is built from the two pieces in this module:

- :class:`MemoryTier` — a thread-safe LRU of live objects (simulations,
  decisions, grid evaluations, oracle calibrations) with hit/miss/
  eviction counters;
- :class:`ResultStore` — the content-addressed, schema-versioned
  on-disk store, whose :meth:`ResultStore.load` is the one *verified
  read* (get, decode, strike a bad decode, absolve a good one).

The store is the persistence layer of the job engine (and, through
:class:`~repro.harness.sweep.SimulationCache`, of the whole harness).
Entries are addressed purely by the content hash of the producing job's
inputs, so a result can never be attributed to the wrong inputs and the
filename is always filesystem-safe regardless of what a config's
``describe()`` string contains.

Durability rules:

- **Atomic writes** — every entry is written to a temporary file in the
  same directory and ``os.replace``d into place, so a crash mid-write can
  never leave a half-written entry under the final name.
- **Corrupt-entry self-heal** — an entry that fails to parse (truncated
  JSON, wrong envelope, bad payload) is discarded, a *heal marker* is
  recorded, and the read reports a miss: the caller re-derives the result
  from the originating job spec, and the next **verified read** (one that
  decodes all the way back into domain objects; see
  :meth:`ResultStore.load`) clears the marker.  Only if the **same key
  corrupts a second time** (marker still present) is the entry moved into
  ``quarantine/`` for autopsy.  Either way a damaged cache degrades to
  recomputation, never to an exception.
- **Schema versioning** — every envelope records the code schema version
  of the payload encoding.  A version mismatch is a miss (the stale entry
  is left in place and overwritten by the next ``put``).

Fault injection: when a :class:`~repro.resilience.FaultPlan` is armed,
``put`` may deliberately write a truncated envelope (site
``store.corrupt_payload``, at most once per key per process) so the heal
path above is exercised end-to-end instead of staying theoretical.

Layout::

    root/
      objects/ab/abcdef....json     one entry per content hash
      heal/ab/abcdef...             first-strike markers for healed keys
      quarantine/                   corrupt entries, preserved for autopsy
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable

#: Version of the persisted payload encodings.  Bump when the meaning or
#: shape of any stored payload changes; old entries then read as misses.
SCHEMA_VERSION = 1


class MemoryTier:
    """A thread-safe LRU of live objects with hit/miss counters.

    Every value cached here is a pure function of its key, so when two
    threads race to fill one key the first value stored wins and both
    callers get it.  ``None`` is the miss sentinel; do not cache it.

    Args:
        capacity: maximum entries before the least recently used is
            evicted; ``None`` means unbounded.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("memory tier capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _lookup(self, key: Hashable, count_miss: bool):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            elif count_miss:
                self._misses += 1
            return value

    def get(self, key: Hashable):
        """The cached value, or ``None`` (counted as a hit or a miss)."""
        return self._lookup(key, count_miss=True)

    def get_memory(self, key: Hashable):
        """A probe that counts hits but leaves a miss uncounted.

        For a caller that goes on to :meth:`get_or_compute` on a miss
        (the decision service probes from its event loop, then looks up
        again on a worker), so each request is counted once.
        """
        return self._lookup(key, count_miss=False)

    def put(self, key: Hashable, value):
        """Cache ``value`` unless ``key`` is cached; returns the cached value."""
        with self._lock:
            stored = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while self.capacity is not None and len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return stored

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]):
        """The cached value, or ``compute()``'s result, now cached.

        ``compute`` runs outside the lock, so concurrent misses on one
        key may both compute; every caller gets the first value stored.
        """
        value = self.get(key)
        if value is None:
            value = self.put(key, compute())
        return value

    def stats(self) -> dict[str, int | None]:
        """Hit, miss, size, capacity and eviction counters."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._entries),
                "capacity": self.capacity,
                "evictions": self._evictions,
            }


def _injector():
    """The armed fault injector, if any (lazy import keeps this module
    import-light; the common case is one dict lookup that returns None)."""
    from repro.resilience import active_injector

    return active_injector()


@dataclasses.dataclass
class StoreStats:
    """Operation counters for one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    healed: int = 0
    quarantined: int = 0
    schema_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class ResultStore:
    """A content-addressed JSON store for job results.

    Args:
        root: directory that holds the store (created on demand).
        schema_version: payload schema the caller understands; entries
            recorded under any other version read as misses.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        schema_version: int = SCHEMA_VERSION,
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.stats = StoreStats()
        self._lock = threading.Lock()
        (self.root / "objects").mkdir(parents=True, exist_ok=True)

    # ---- paths ---------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _heal_marker(self, key: str) -> Path:
        return self.root / "heal" / key[:2] / key

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # ---- operations ----------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Return the payload stored under ``key``, or ``None`` on a miss.

        A corrupt entry is self-healed on its first strike (discarded
        with a heal marker; the caller recomputes, and the next verified
        read — see :meth:`absolve` — clears the marker) and quarantined
        on its second; stale-schema entries are left in place (a
        subsequent :meth:`put` overwrites them).  All of these count as
        misses.
        """
        path = self._object_path(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("envelope is not an object")
            schema = envelope["schema"]
            payload = envelope["payload"]
            if envelope["key"] != key:
                raise ValueError(
                    f"entry records key {envelope['key']!r}, expected {key!r}"
                )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            self._strike(key)
            with self._lock:
                self.stats.misses += 1
            return None
        if schema != self.schema_version:
            with self._lock:
                self.stats.schema_misses += 1
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return payload

    def put(self, key: str, kind: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key``."""
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema": self.schema_version,
            "key": key,
            "kind": kind,
            "payload": payload,
        }
        text = json.dumps(envelope)
        injector = _injector()
        if injector is not None:
            corrupted = injector.corrupt_payload(key, text)
            if corrupted is not None:
                text = corrupted
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self.stats.writes += 1

    def contains(self, key: str) -> bool:
        """Whether an entry exists on disk (without validating it)."""
        return self._object_path(key).exists()

    def load(self, key: str, decode: Callable[[dict], Any]):
        """The verified read: ``(value, strike)`` for ``key``.

        ``value`` is the entry decoded all the way back into domain
        objects, or ``None`` on a miss.  An entry that reads but does
        not decode is struck (:meth:`invalidate`) and ``strike`` says
        what happened to it (``"healed"`` or ``"quarantined"``); it is
        ``None`` otherwise.  A good decode absolves a prior strike.
        """
        payload = self.get(key)
        if payload is None:
            return None, None
        try:
            value = decode(payload)
        except DECODE_ERRORS:
            action = self.invalidate(key)
            return None, "quarantined" if action == "quarantined" else "healed"
        self.absolve(key)
        return value, None

    def absolve(self, key: str) -> None:
        """Forgive a key's first corruption strike.

        :meth:`load` calls this once an entry has decoded all the way
        back into domain objects — only a *verified* read proves the key
        is healthy again.  (The envelope check in :meth:`get` is not
        enough: a payload can parse as JSON yet still be undecodable.)
        """
        marker = self._heal_marker(key)
        if marker.exists():
            try:
                marker.unlink()
            except OSError:
                pass

    def invalidate(self, key: str) -> str:
        """Record a corruption strike for an entry that failed to decode.

        Used when the JSON envelope was readable but the domain objects
        could not be rebuilt from it (e.g. written by incompatible code
        under the same schema number).  Same two-strike policy as
        :meth:`get`: the first strike discards the entry for re-derivation
        (``"healed"``), the second preserves it for autopsy
        (``"quarantined"``); returns what happened (``"missing"`` when
        there was no entry).
        """
        if not self._object_path(key).exists():
            return "missing"
        return self._strike(key)

    def _strike(self, key: str) -> str:
        """Apply the two-strike corruption policy to ``key``'s entry.

        First strike: drop the entry, leave a heal marker, and let the
        caller re-derive (self-heal).  Second strike (marker present):
        quarantine the entry for autopsy and clear the marker so a
        re-derived entry starts with a clean record.
        """
        path = self._object_path(key)
        marker = self._heal_marker(key)
        if marker.exists():
            self._quarantine(path)
            try:
                marker.unlink()
            except OSError:
                pass
            with self._lock:
                self.stats.quarantined += 1
            return "quarantined"
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()
        try:
            os.unlink(path)
        except OSError:
            # Someone else already removed/replaced it; a miss either way.
            pass
        with self._lock:
            self.stats.healed += 1
        return "healed"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside, preserving it for inspection."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        n = 0
        while target.exists():
            n += 1
            target = self.quarantine_dir / f"{path.stem}.{n}{path.suffix}"
        try:
            os.replace(path, target)
        except OSError:
            # Someone else already moved/removed it; a miss either way.
            pass


# ---------------------------------------------------------------------------
# Payload codecs.
#
# Each persistable job kind has an (encode, decode) pair.  Encoding never
# needs heavyweight imports; decoders lazily import the domain types so
# this module stays import-light and cycle-free (harness.sweep imports it
# at module scope).
# ---------------------------------------------------------------------------


def encode_workload_run(run) -> dict:
    """JSON payload for a :class:`~repro.cpu.simulator.WorkloadRun`."""
    return {
        "profile": run.profile.name,
        "config": _config_payload(run.config),
        "phases": [
            {
                "phase": {
                    "name": pr.phase.name,
                    "weight": pr.phase.weight,
                    "ilp_scale": pr.phase.ilp_scale,
                    "miss_scale": pr.phase.miss_scale,
                    "fp_scale": pr.phase.fp_scale,
                },
                "stats": {
                    "instructions": pr.stats.instructions,
                    "cycles": pr.stats.cycles,
                    "activity": pr.stats.activity,
                    "mem_stall_cycles": pr.stats.mem_stall_cycles,
                    "branch_mispredict_rate": pr.stats.branch_mispredict_rate,
                    "l1d_miss_rate": pr.stats.l1d_miss_rate,
                    "l1i_miss_rate": pr.stats.l1i_miss_rate,
                    "l2_miss_rate": pr.stats.l2_miss_rate,
                    "lsq_forwards": pr.stats.lsq_forwards,
                    "ras_mispredicts": pr.stats.ras_mispredicts,
                },
            }
            for pr in run.phases
        ],
    }


#: Exceptions a malformed-but-valid-JSON payload can raise while being
#: decoded back into result objects: missing keys, wrong shapes, wrong
#: scalar types, out-of-range enum values.  :meth:`ResultStore.load`
#: strikes exactly these — anything else is a bug that should surface.
DECODE_ERRORS = (
    KeyError,
    IndexError,
    TypeError,
    ValueError,
    AttributeError,
    OverflowError,
)


def decode_workload_run(payload: dict, profile=None, config=None):
    """Rebuild a ``WorkloadRun``; raises on malformed payloads.

    Args:
        payload: output of :func:`encode_workload_run`.
        profile: the profile object to attach; looked up in the workload
            suite by the recorded name when omitted.
        config: the config to attach; rebuilt from the payload when
            omitted.
    """
    from repro.config.microarch import MicroarchConfig
    from repro.cpu.simulator import PhaseResult, WorkloadRun
    from repro.cpu.stats import SimulationStats
    from repro.workloads.phases import Phase
    from repro.workloads.suite import workload_by_name

    if profile is None:
        profile = workload_by_name(payload["profile"])
    if config is None:
        config = MicroarchConfig(**payload["config"])
    phases = []
    for entry in payload["phases"]:
        phase = Phase(**entry["phase"])
        stats = SimulationStats(config=config, **entry["stats"])
        phases.append(PhaseResult(phase=phase, stats=stats))
    if not phases:
        raise ValueError("workload-run payload has no phases")
    return WorkloadRun(profile=profile, config=config, phases=tuple(phases))


def encode_drm_decision(decision) -> dict:
    return {
        "profile_name": decision.profile_name,
        "t_qual_k": decision.t_qual_k,
        "mode": decision.mode.value,
        "config": _config_payload(decision.config),
        "op": {
            "frequency_hz": decision.op.frequency_hz,
            "voltage_v": decision.op.voltage_v,
        },
        "performance": float(decision.performance),
        "fit": float(decision.fit),
        # Coerce: these may arrive as numpy scalars (np.bool_ is not
        # JSON-serializable, and exact float round-tripping needs the
        # builtin type).
        "meets_target": bool(decision.meets_target),
    }


def decode_drm_decision(payload: dict):
    from repro.config.dvs import OperatingPoint
    from repro.config.microarch import MicroarchConfig
    from repro.core.drm import AdaptationMode, DRMDecision

    return DRMDecision(
        profile_name=payload["profile_name"],
        t_qual_k=payload["t_qual_k"],
        mode=AdaptationMode(payload["mode"]),
        config=MicroarchConfig(**payload["config"]),
        op=OperatingPoint(**payload["op"]),
        performance=payload["performance"],
        fit=payload["fit"],
        meets_target=payload["meets_target"],
    )


def encode_dtm_decision(decision) -> dict:
    return {
        "profile_name": decision.profile_name,
        "t_limit_k": decision.t_limit_k,
        "op": {
            "frequency_hz": decision.op.frequency_hz,
            "voltage_v": decision.op.voltage_v,
        },
        "performance": float(decision.performance),
        "peak_temperature_k": float(decision.peak_temperature_k),
        # The payload key predates the unified Decision API; it maps onto
        # the shared meets_target field (no schema bump needed).
        "meets_limit": bool(decision.meets_target),
    }


def decode_dtm_decision(payload: dict):
    from repro.config.dvs import OperatingPoint
    from repro.core.dtm import DTMDecision

    return DTMDecision(
        profile_name=payload["profile_name"],
        t_limit_k=payload["t_limit_k"],
        op=OperatingPoint(**payload["op"]),
        performance=payload["performance"],
        peak_temperature_k=payload["peak_temperature_k"],
        # The payload key predates the unified Decision API; it maps onto
        # the shared meets_target field (no schema bump needed).
        meets_target=payload["meets_limit"],
    )


def encode_joint_decision(decision) -> dict:
    return {
        "profile_name": decision.profile_name,
        "t_qual_k": decision.t_qual_k,
        "t_limit_k": decision.t_limit_k,
        "op": {
            "frequency_hz": decision.op.frequency_hz,
            "voltage_v": decision.op.voltage_v,
        },
        "performance": float(decision.performance),
        "fit": float(decision.fit),
        "peak_temperature_k": float(decision.peak_temperature_k),
        "meets_fit": bool(decision.meets_fit),
        "meets_thermal": bool(decision.meets_thermal),
        "meets_target": bool(decision.meets_target),
    }


def decode_joint_decision(payload: dict):
    from repro.config.dvs import OperatingPoint
    from repro.core.combined import JointDecision

    return JointDecision(
        profile_name=payload["profile_name"],
        t_qual_k=payload["t_qual_k"],
        t_limit_k=payload["t_limit_k"],
        op=OperatingPoint(**payload["op"]),
        performance=payload["performance"],
        fit=payload["fit"],
        peak_temperature_k=payload["peak_temperature_k"],
        meets_fit=payload["meets_fit"],
        meets_thermal=payload["meets_thermal"],
        meets_target=payload["meets_target"],
    )


def encode_intra_decision(decision) -> dict:
    return {
        "profile_name": decision.profile_name,
        "t_qual_k": decision.t_qual_k,
        "schedule": [
            {"frequency_hz": op.frequency_hz, "voltage_v": op.voltage_v}
            for op in decision.schedule
        ],
        "strategy": decision.strategy,
        "performance": float(decision.performance),
        "fit": float(decision.fit),
        "meets_target": bool(decision.meets_target),
    }


def decode_intra_decision(payload: dict):
    from repro.config.dvs import OperatingPoint
    from repro.core.intra import IntraDecision

    schedule = tuple(OperatingPoint(**op) for op in payload["schedule"])
    if not schedule:
        raise ValueError("intra-decision payload has an empty schedule")
    return IntraDecision(
        profile_name=payload["profile_name"],
        t_qual_k=payload["t_qual_k"],
        schedule=schedule,
        strategy=payload["strategy"],
        performance=payload["performance"],
        fit=payload["fit"],
        meets_target=payload["meets_target"],
    )


def _identity_encode(value: dict) -> dict:
    return value


def _identity_decode(payload: dict) -> dict:
    return payload


def _config_payload(config) -> dict:
    return {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}


#: kind -> (encode, decode).  Job kinds without a codec are memory-cached
#: only (their results are not JSON-representable or not worth persisting).
CODECS = {
    "simulate": (encode_workload_run, decode_workload_run),
    "drm": (encode_drm_decision, decode_drm_decision),
    "dtm": (encode_dtm_decision, decode_dtm_decision),
    "joint": (encode_joint_decision, decode_joint_decision),
    "intra": (encode_intra_decision, decode_intra_decision),
    "qualification": (_identity_encode, _identity_decode),
}


def encode_result(kind: str, result):
    """Encode a job result for persistence; ``None`` if not persistable."""
    codec = CODECS.get(kind)
    if codec is None:
        return None
    return codec[0](result)


def decode_result(kind: str, payload: dict):
    """Decode a persisted payload back into a live result object.

    Raises whatever the underlying constructors raise on malformed
    payloads — callers treat any exception as a cache miss.
    """
    codec = CODECS.get(kind)
    if codec is None:
        raise KeyError(f"no codec for job kind {kind!r}")
    return codec[1](payload)
