"""End-to-end HTTP tests: ephemeral port, seeded traffic, chaos.

The ISSUE's acceptance assertions live here:

- 200 mixed seeded requests over HTTP complete with zero errors and the
  responses decode to decisions **bit-identical** to direct ``best(...)``
  calls;
- a second pass over the same trace has a decision-cache hit rate > 0;
- the same holds with the ``ci-default`` fault plan armed (dropped
  connections and slowed responses are retried/absorbed by the client).
"""

from __future__ import annotations

import asyncio
import json

from repro.resilience import armed
from repro.resilience.faults import SERVE_DROP, SERVE_SLOW, FaultPlan
from repro.serve import (
    DecideRequest,
    HttpServer,
    LoadHarness,
    RequestTraceGenerator,
    TrafficMix,
    decode_decision,
)
from repro.serve.loadgen import _read_response

#: Small question universe so the 200-request trace revisits identities.
TRACE_PARAMETERS = {
    "apps": ("gzip", "art"),
    "kinds": ("drm", "dtm"),
    "drm_mode": "dvs",
    "hot_set_size": 3,
    "chips": 8,
}


def make_trace(n_requests=200, seed=11, mix=TrafficMix.STATIC):
    return RequestTraceGenerator(
        mix=mix, parameters=dict(TRACE_PARAMETERS), seed=seed
    ).generate(n_requests)


async def post_decide(host, port, request: DecideRequest):
    """One raw decide round trip; returns (status, payload)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(request.as_payload()).encode("utf-8")
        writer.write(
            b"POST /v1/decide HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


async def get_json(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


class TestEndToEnd:
    def test_200_mixed_requests_bit_identical_with_cache_hits(
        self, serve_service
    ):
        trace = make_trace()
        harness = LoadHarness(concurrency=16)

        async def scenario():
            server = HttpServer(serve_service)
            await server.start()
            try:
                first = await harness.run_http(
                    "127.0.0.1", server.port, trace, mix="static"
                )
                hits_before = serve_service.cache.stats()["hits"]
                second = await harness.run_http(
                    "127.0.0.1", server.port, trace, mix="static"
                )
                hits_after = serve_service.cache.stats()["hits"]

                # Bit-identity probe: every distinct question in the
                # trace, served over the wire, decodes to exactly what a
                # direct oracle call returns.
                probes = {}
                for request in trace:
                    probes.setdefault(request.identity(), request)
                checked = 0
                for request in probes.values():
                    status, payload = await post_decide(
                        "127.0.0.1", server.port, request
                    )
                    assert status == 200
                    served = decode_decision(payload["kind"], payload["decision"])
                    direct = serve_service.oracle_bundle().best(request)
                    assert served == direct
                    checked += 1
                return first, second, hits_before, hits_after, checked
            finally:
                # Keep the session-scoped service alive for later tests:
                # only stop the listener, don't close the service.
                server._connections and [
                    t.cancel() for t in tuple(server._connections)
                ]
                if server._server is not None:
                    server._server.close()
                    await server._server.wait_closed()

        first, second, hits_before, hits_after, checked = asyncio.run(scenario())
        assert first.requests == 200 and first.errors == 0
        assert second.requests == 200 and second.errors == 0
        assert hits_after > hits_before  # second pass hit the cache
        assert checked == len({r.identity() for r in trace})
        assert first.p50_ms > 0.0 and first.qps > 0.0

    def test_chip_route_reflects_the_trace(self, serve_service):
        request = DecideRequest(
            kind="dtm", app="gzip", t_limit_k=355.0, chip_id="e2e-chip"
        )

        async def scenario():
            server = HttpServer(serve_service)
            await server.start()
            try:
                await post_decide("127.0.0.1", server.port, request)
                status, snap = await get_json(
                    "127.0.0.1", server.port, "/v1/chip/e2e-chip"
                )
                missing_status, _ = await get_json(
                    "127.0.0.1", server.port, "/v1/chip/no-such-chip"
                )
                health_status, health = await get_json(
                    "127.0.0.1", server.port, "/healthz"
                )
                statz_status, statz = await get_json(
                    "127.0.0.1", server.port, "/statz"
                )
                return status, snap, missing_status, health_status, health, \
                    statz_status, statz
            finally:
                if server._server is not None:
                    server._server.close()
                    await server._server.wait_closed()

        (status, snap, missing_status, health_status, health,
         statz_status, statz) = asyncio.run(scenario())
        assert status == 200
        assert snap["profile_mix"].get("gzip", 0) >= 1
        assert missing_status == 404
        assert health_status == 200 and health == {"status": "ok"}
        assert statz_status == 200
        assert statz["transport"]["connections_dropped"] == 0
        assert statz["requests"]["submitted"] > 0

    def test_malformed_bodies_are_400(self, serve_service):
        async def scenario():
            server = HttpServer(serve_service)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                body = b"{not json"
                writer.write(
                    b"POST /v1/decide HTTP/1.1\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                bad_json = await _read_response(reader)
                writer.close()

                bad_kind = await post_decide(
                    "127.0.0.1", server.port,
                    DecideRequest(kind="drm", app="gzip"),  # missing knob
                )
                status404, _ = await get_json(
                    "127.0.0.1", server.port, "/no/such/route"
                )
                return bad_json, bad_kind, status404
            finally:
                if server._server is not None:
                    server._server.close()
                    await server._server.wait_closed()

        bad_json, bad_kind, status404 = asyncio.run(scenario())
        assert bad_json[0] == 400
        assert bad_kind[0] == 400
        assert bad_kind[1]["error"]["type"] == "ServeError"
        assert status404 == 404


class TestChaos:
    def test_ci_default_plan_converges_bit_identically(self, serve_service):
        trace = make_trace(n_requests=200, seed=23)
        harness = LoadHarness(concurrency=16)

        async def scenario(server):
            result = await harness.run_http(
                "127.0.0.1", server.port, trace, mix="static"
            )
            probes = {}
            for request in trace:
                probes.setdefault(request.identity(), request)
            pairs = []
            for request in probes.values():
                status, payload = await post_decide(
                    "127.0.0.1", server.port, request
                )
                assert status == 200
                pairs.append(
                    (decode_decision(payload["kind"], payload["decision"]),
                     request)
                )
            return result, pairs

        with armed("ci-default"):
            server = HttpServer(serve_service)

            async def runner():
                await server.start()
                try:
                    return await scenario(server)
                finally:
                    if server._server is not None:
                        server._server.close()
                        await server._server.wait_closed()

            result, pairs = asyncio.run(runner())

        assert result.requests == 200
        assert result.errors == 0  # every drop/slow was absorbed
        for served, request in pairs:
            direct = serve_service.oracle_bundle().best(request)
            assert served == direct

    def test_drop_connection_site_fires_and_retry_succeeds(self, serve_service):
        # Force the drop site: the first response for every key is a
        # closed socket; the harness reconnects and the retry converges
        # (faults fire once per key).
        plan = FaultPlan(
            name="all-drops", seed=5, rates={SERVE_DROP: 1.0}
        )
        request = DecideRequest(kind="dtm", app="gzip", t_limit_k=357.0)
        harness = LoadHarness(concurrency=1)

        with armed(plan):
            server = HttpServer(serve_service)

            async def runner():
                await server.start()
                try:
                    return await harness.run_http(
                        "127.0.0.1", server.port, [request], mix="static"
                    )
                finally:
                    if server._server is not None:
                        server._server.close()
                        await server._server.wait_closed()

            result = asyncio.run(runner())

        assert result.requests == 1 and result.errors == 0
        assert result.retries >= 1
        assert server.connections_dropped >= 1

    def test_slow_response_site_delays_but_answers(self, serve_service):
        plan = FaultPlan(
            name="all-slow", seed=5, rates={SERVE_SLOW: 1.0}, hang_s=0.05
        )
        request = DecideRequest(kind="dtm", app="gzip", t_limit_k=358.0)
        harness = LoadHarness(concurrency=1)

        with armed(plan):
            server = HttpServer(serve_service)

            async def runner():
                await server.start()
                try:
                    return await harness.run_http(
                        "127.0.0.1", server.port, [request], mix="static"
                    )
                finally:
                    if server._server is not None:
                        server._server.close()
                        await server._server.wait_closed()

            result = asyncio.run(runner())

        assert result.requests == 1 and result.errors == 0
        assert server.responses_slowed >= 1
        assert result.p50_ms >= 50.0  # the injected 50 ms hang is visible
