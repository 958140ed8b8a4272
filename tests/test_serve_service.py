"""Decision-service core tests: protocol, cache tiers, batching, state.

The load-bearing assertion in this file is **bit-identity**: a decision
served through the full pipeline (batcher -> worker pool -> cache ->
oracle) equals, field for field, the decision a *freshly constructed*
oracle returns for the same question with the same configuration.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.drm import AdaptationMode, DRMOracle
from repro.core.dtm import DTMOracle
from repro.errors import ServeError
from repro.harness.platform import Platform
from repro.harness.sweep import SimulationCache
from repro.serve import (
    DecideRequest,
    DecisionService,
    ServiceConfig,
    decode_decision,
    encode_decision,
)
from repro.serve.protocol import decision_cache_key
from repro.serve.state import ChipStateStore
from repro.workloads.suite import workload_by_name


def run(coro):
    return asyncio.run(coro)


REQUESTS = [
    DecideRequest(kind="drm", app="gzip", t_qual_k=370.0, mode="dvs"),
    DecideRequest(kind="dtm", app="gzip", t_limit_k=355.0),
    DecideRequest(kind="joint", app="gzip", t_qual_k=370.0, t_limit_k=355.0),
    DecideRequest(kind="intra", app="gzip", t_qual_k=370.0, strategy="greedy"),
]


class TestProtocol:
    def test_payload_round_trip(self):
        for request in REQUESTS:
            again = DecideRequest.from_payload(request.as_payload())
            assert again == request

    def test_identity_excludes_chip_id(self):
        a = dataclasses.replace(REQUESTS[0], chip_id="chip-1")
        b = dataclasses.replace(REQUESTS[0], chip_id="chip-2")
        assert a.identity() == b.identity()

    def test_cache_key_differs_per_question_and_context(self):
        k_base = decision_cache_key(REQUESTS[0], {"dvs_steps": 5})
        k_other_request = decision_cache_key(REQUESTS[1], {"dvs_steps": 5})
        k_other_context = decision_cache_key(REQUESTS[0], {"dvs_steps": 7})
        assert len({k_base, k_other_request, k_other_context}) == 3
        # chip_id never reaches the key
        chipped = dataclasses.replace(REQUESTS[0], chip_id="c")
        assert decision_cache_key(chipped, {"dvs_steps": 5}) == k_base

    @pytest.mark.parametrize("payload,fragment", [
        ({"kind": "nope", "app": "gzip"}, "unknown decision kind"),
        ({"kind": "drm", "app": "nope", "t_qual_k": 370.0}, "unknown application"),
        ({"kind": "drm", "app": "gzip"}, "finite t_qual_k"),
        ({"kind": "dtm", "app": "gzip"}, "finite t_limit_k"),
        ({"kind": "joint", "app": "gzip", "t_qual_k": 370.0}, "finite t_limit_k"),
        ({"kind": "drm", "app": "gzip", "t_qual_k": float("nan"),
          "mode": "dvs"}, "finite t_qual_k"),
        ({"kind": "drm", "app": "gzip", "t_qual_k": 370.0, "mode": "warp"},
         "unknown DRM mode"),
        ({"kind": "intra", "app": "gzip", "t_qual_k": 370.0,
          "strategy": "magic"}, "unknown intra strategy"),
        ({"kind": "drm", "app": "gzip", "t_qual_k": 370.0, "bogus": 1},
         "unknown request field"),
        ({"kind": "drm", "app": "gzip", "t_qual_k": "hot"}, "must be a number"),
        ({"kind": 3, "app": "gzip"}, "must be a string"),
        ({"app": "gzip"}, "needs 'kind' and 'app'"),
        ("not-an-object", "JSON object"),
    ])
    def test_malformed_requests_raise_serve_error(self, payload, fragment):
        with pytest.raises(ServeError) as err:
            DecideRequest.from_payload(payload)
        assert fragment in str(err.value)

    def test_codec_rejects_unknown_kind(self):
        with pytest.raises(ServeError):
            encode_decision("nope", object())
        with pytest.raises(ServeError):
            decode_decision("nope", {})


class TestChipStateStore:
    def test_record_and_snapshot(self):
        chips = ChipStateStore(n_shards=4)
        for i in range(3):
            chips.record(
                "chip-7",
                kind="drm",
                app="gzip" if i < 2 else "art",
                request_payload={"kind": "drm", "app": "gzip"},
                decision_key=f"key{i}",
                cache_tier="computed" if i == 0 else "memory",
            )
        snap = chips.snapshot("chip-7")
        assert snap["requests"] == 3
        assert snap["profile_mix"] == {"art": 1, "gzip": 2}
        assert snap["kind_mix"] == {"drm": 3}
        assert snap["last_decision_key"] == "key2"
        assert snap["last_cache_tier"] == "memory"
        assert snap["first_seq"] < snap["last_seq"]
        assert chips.snapshot("never-seen") is None

    def test_sharding_is_stable_and_total(self):
        chips = ChipStateStore(n_shards=8)
        ids = [f"chip-{i}" for i in range(64)]
        for chip_id in ids:
            assert chips.shard_index(chip_id) == chips.shard_index(chip_id)
            chips.record(
                chip_id, kind="dtm", app="gzip",
                request_payload={}, decision_key="k", cache_tier="memory",
            )
        assert len(chips) == 64
        stats = chips.stats()
        assert stats["chips"] == 64
        assert stats["tracked_requests"] == 64

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            ChipStateStore(n_shards=0)


class TestServiceConfig:
    def test_unknown_qual_app_rejected(self):
        with pytest.raises(ServeError):
            ServiceConfig(qual_apps=("not-an-app",))

    def test_worker_validation(self):
        with pytest.raises(ServeError):
            ServiceConfig(workers=0)


class TestDecisionService:
    def test_all_kinds_bit_identical_to_direct_oracle_calls(
        self, serve_service, serve_config
    ):
        async def scenario():
            return await asyncio.gather(
                *(serve_service.decide(r) for r in REQUESTS)
            )

        served = run(scenario())

        # Fresh oracles, built from scratch with the service's numbers —
        # nothing shared with the service except determinism.
        cfg = serve_config
        platform = Platform()
        cache = SimulationCache(
            instructions=cfg.instructions, warmup=cfg.warmup, seed=cfg.sim_seed
        )
        suite = tuple(workload_by_name(a) for a in cfg.qual_apps)
        drm = DRMOracle(
            platform=platform, cache=cache, fit_target=cfg.fit_target,
            dvs_steps=cfg.dvs_steps, suite=suite,
        )
        dtm = DTMOracle(platform=platform, cache=cache, dvs_steps=cfg.dvs_steps)
        from repro.core.combined import JointOracle
        from repro.core.intra import IntraAppOracle

        joint = JointOracle(
            drm.ramp_for, platform=platform, cache=cache,
            fit_target=cfg.fit_target, dvs_steps=cfg.dvs_steps,
        )
        intra = IntraAppOracle(
            drm.ramp_for, platform=platform, cache=cache,
            fit_target=cfg.fit_target, grid_steps=cfg.intra_grid_steps,
        )
        profile = workload_by_name("gzip")
        direct = [
            drm.best(profile, t_qual_k=370.0, mode=AdaptationMode.DVS),
            dtm.best(profile, t_limit_k=355.0),
            joint.best(profile, t_qual_k=370.0, t_limit_k=355.0),
            intra.best(profile, t_qual_k=370.0, strategy="greedy"),
        ]
        for got, expected in zip(served, direct):
            assert got.decision == expected

    def test_repeat_requests_hit_the_memory_tier(self, serve_service):
        async def scenario():
            first = await asyncio.gather(
                *(serve_service.decide(r) for r in REQUESTS)
            )
            second = await asyncio.gather(
                *(serve_service.decide(r) for r in REQUESTS)
            )
            return first, second

        first, second = run(scenario())
        assert all(s.tier == "memory" for s in second)
        for a, b in zip(first, second):
            assert a.decision == b.decision
            assert a.cache_key == b.cache_key

    def test_identical_requests_in_one_batch_dedupe(self, serve_config):
        from repro.serve import DecisionService

        service = DecisionService(serve_config)
        request = dataclasses.replace(REQUESTS[1], t_limit_k=356.0)

        async def scenario():
            return await asyncio.gather(
                *(service.decide(request) for _ in range(5))
            )

        served = run(scenario())
        tiers = sorted(s.tier for s in served)
        assert tiers.count("computed") == 1
        assert set(tiers) <= {"computed", "deduped", "memory"}
        assert len({s.decision for s in served}) == 1
        service.executor.shutdown(wait=False)

    def test_evaluation_memo_shares_grids_across_knobs(self, serve_service):
        # Two DRM questions for the same app and mode, different T_qual:
        # the second shares the first's grid evaluation via the memo.
        r1 = DecideRequest(kind="drm", app="art", t_qual_k=365.0, mode="dvs")
        r2 = DecideRequest(kind="drm", app="art", t_qual_k=375.0, mode="dvs")

        memo = serve_service.platform.evaluation_memo

        async def scenario():
            await serve_service.decide(r1)
            before = memo.stats()["hits"]
            await serve_service.decide(r2)
            after = memo.stats()["hits"]
            return before, after

        before, after = run(scenario())
        assert after > before

    def test_chip_state_is_recorded(self, serve_service):
        request = dataclasses.replace(REQUESTS[0], chip_id="fleet-0001")

        async def scenario():
            return await serve_service.decide(request)

        run(scenario())
        snap = serve_service.chips.snapshot("fleet-0001")
        assert snap is not None
        assert snap["profile_mix"].get("gzip", 0) >= 1
        assert snap["last_kind"] == "drm"

    def test_invalid_request_raises_and_is_accounted(self, serve_service):
        bad = DecideRequest(kind="drm", app="gzip")  # missing t_qual_k

        async def scenario():
            with pytest.raises(ServeError):
                await serve_service.decide(bad)

        run(scenario())
        assert serve_service.healthy()  # accounting invariant still holds

    def test_stats_surface_every_layer(self, serve_service):
        stats = serve_service.stats()
        assert stats["requests"]["submitted"] > 0
        assert stats["batcher"]["flushes"] >= 1
        for tier in ("decision_cache", "simulation_cache", "evaluation_memo"):
            assert stats[tier]["hits"] > 0
            assert stats[tier]["misses"] > 0
        assert stats["chips"]["chips"] >= 1
        assert stats["engine"]["counters"]["submitted"] == (
            stats["requests"]["submitted"]
        )
        assert stats["uptime_s"] > 0.0

    def test_unbatched_service_answers_identically(self, serve_config, serve_service):
        unbatched = dataclasses.replace(
            serve_config, batching=False, cache_capacity=0, eval_memo_capacity=0
        )
        from repro.serve import DecisionService

        service = DecisionService(unbatched)

        async def scenario():
            return await service.decide(REQUESTS[1])

        served = run(scenario())
        assert served.tier == "computed"

        async def reference():
            return await serve_service.decide(REQUESTS[1])

        expected = run(reference())
        assert served.decision == expected.decision
        service.executor.shutdown(wait=False)

    def test_one_store_survives_a_restart(self, serve_config, tmp_path):
        config = dataclasses.replace(serve_config, store_dir=str(tmp_path))
        request = REQUESTS[1]
        first = DecisionService(config)
        empty = first.stats()
        assert empty["decision_cache"]["size"] == empty["evaluation_memo"]["size"] == 0
        computed = run(first.decide(request))
        first.executor.shutdown(wait=False)
        # Simulations and decisions share one store: no per-tier subdirs.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["objects", "telemetry"]

        # A different process: fresh memory tiers, same store.
        second = DecisionService(config)
        revived = run(second.decide(request))
        again = run(second.decide(request))
        second.executor.shutdown(wait=False)
        assert (computed.tier, revived.tier, again.tier) == ("computed", "store", "memory")
        assert revived.decision == computed.decision  # exact decode
        assert second.stats()["simulation_cache"]["misses"] == 0  # nothing simulated


def worker_p_qual(service):
    """p_qual as the calling (worker) thread's oracles see it."""
    return service.oracle_bundle().drm.p_qual()


class TestSharedBundle:
    """Every worker thread uses the service's one oracle bundle."""

    CELLS = [
        request
        for app in ("gzip", "art")
        for t in (360.0, 375.0)
        for request in (
            DecideRequest(kind="drm", app=app, t_qual_k=t, mode="dvs"),
            DecideRequest(kind="dtm", app=app, t_limit_k=t - 15.0),
            DecideRequest(kind="joint", app=app, t_qual_k=t, t_limit_k=t - 15.0),
            DecideRequest(kind="intra", app=app, t_qual_k=t, strategy="greedy"),
        )
    ]

    def test_concurrent_best_matches_a_serial_run(self, serve_config):
        def encoded(request, decision) -> str:
            return json.dumps(encode_decision(request.kind, decision), sort_keys=True)

        serial_service = DecisionService(serve_config)
        serial = [encoded(r, serial_service.oracle_bundle().best(r)) for r in self.CELLS]
        serial_service.executor.shutdown(wait=False)

        service = DecisionService(serve_config)
        bundle = service.oracle_bundle()
        # Overlapping cells, each asked four times in a scrambled order.
        order = [(i * 5) % len(self.CELLS) for i in range(4 * len(self.CELLS))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                answers = list(
                    pool.map(bundle.best, [self.CELLS[i] for i in order], timeout=600)
                )
        finally:
            sys.setswitchinterval(interval)
        for i, decision in zip(order, answers):
            assert encoded(self.CELLS[i], decision) == serial[i]
        on_workers = {
            service.executor.submit(service.oracle_bundle).result(timeout=60)
            for _ in range(4)
        }
        service.executor.shutdown(wait=False)
        assert on_workers == {bundle}

    def test_prewarm_leaves_no_calibration_to_the_workers(
        self, serve_config, monkeypatch
    ):
        from repro.core import drm as drm_module

        service = DecisionService(serve_config)
        service.prewarm(["gzip"])
        bundle = service.oracle_bundle()
        bundle.drm.ramp_for(370.0)
        p_qual = bundle.drm.p_qual()

        calibrations = []
        calibrate = drm_module.calibrate

        def counting_calibrate(*args, **kwargs):
            calibrations.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(drm_module, "calibrate", counting_calibrate)
        on_worker = service.executor.submit(worker_p_qual, service).result(timeout=60)
        served = run(service.decide(REQUESTS[0]))
        service.executor.shutdown(wait=False)
        assert served.tier == "computed"
        assert on_worker is p_qual
        assert calibrations == []
