"""``repro.serve`` — the decision service subsystem.

The paper's oracles answer one question at a time, in-process.  A fleet
deployment asks the same questions continuously, from many chips at
once, over a network.  This package turns the oracle library into a
long-running service without changing a single answer:

- :mod:`~repro.serve.protocol` — requests, wire payloads, cache keys;
- :mod:`~repro.serve.batcher` — size/deadline micro-batching;
- :mod:`~repro.serve.state` — sharded per-chip fleet state;
- :mod:`~repro.serve.service` — the transport-independent core;
- :mod:`~repro.serve.http` — stdlib asyncio HTTP/1.1 front end;
- :mod:`~repro.serve.loadgen` — seeded traffic mixes and the load
  harness that measures p50/p99/QPS.

Served decisions are **bit-identical** to direct ``best(...)`` calls:
the miss path *is* the library call, and every caching layer is the
engine's memory tier over its store, whose codecs decode exactly.
"""

from repro.serve.batcher import BatcherStats, MicroBatcher
from repro.serve.http import HttpServer
from repro.serve.loadgen import (
    DEFAULT_PARAMETERS,
    LoadHarness,
    LoadResult,
    RequestTraceGenerator,
    TrafficMix,
)
from repro.serve.protocol import (
    DECISION_KINDS,
    WIRE_SCHEMA_VERSION,
    DecideRequest,
    decision_cache_key,
    decode_decision,
    encode_decision,
)
from repro.serve.service import DecisionService, ServedDecision, ServiceConfig
from repro.serve.state import ChipState, ChipStateStore

__all__ = [
    "BatcherStats",
    "MicroBatcher",
    "HttpServer",
    "DEFAULT_PARAMETERS",
    "LoadHarness",
    "LoadResult",
    "RequestTraceGenerator",
    "TrafficMix",
    "DECISION_KINDS",
    "WIRE_SCHEMA_VERSION",
    "DecideRequest",
    "decision_cache_key",
    "decode_decision",
    "encode_decision",
    "DecisionService",
    "ServedDecision",
    "ServiceConfig",
    "ChipState",
    "ChipStateStore",
]
