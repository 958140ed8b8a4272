"""The cache hierarchy: memory tier, store durability, verified reads."""

import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.engine.store import (
    MemoryTier,
    ResultStore,
    decode_result,
    decode_workload_run,
    encode_result,
    encode_workload_run,
)

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestMemoryTier:
    def test_lru_eviction(self):
        tier = MemoryTier(capacity=2)
        tier.put("k1", "d1")
        tier.put("k2", "d2")
        assert tier.get("k1") == "d1"  # refresh k1
        tier.put("k3", "d3")  # evicts k2
        assert tier.get("k2") is None
        assert tier.get("k1") == "d1"
        assert len(tier) == 2
        assert tier.stats() == {
            "hits": 2, "misses": 1, "size": 2, "capacity": 2, "evictions": 1,
        }

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemoryTier(capacity=0)

    def test_probe_counts_hits_but_leaves_misses_to_the_lookup(self):
        tier = MemoryTier()
        assert tier.get_memory("k") is None
        assert tier.get_or_compute("k", lambda: "v") == "v"
        assert tier.get_memory("k") == "v"
        assert (tier.stats()["hits"], tier.stats()["misses"]) == (1, 1)

    def test_concurrent_fills_share_the_first_value(self):
        tier = MemoryTier(capacity=64)
        keys = [i % 16 for i in range(800)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fill = functools.partial(tier.get_or_compute, compute=object)
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(fill, keys, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        stats = tier.stats()
        assert stats["hits"] + stats["misses"] == len(keys)
        assert stats["size"] == 16
        for key, value in zip(keys, got):
            assert value is tier.get(key)


def _drm_decision():
    from repro.config.dvs import DEFAULT_VF_CURVE
    from repro.core.drm import AdaptationMode, DRMDecision

    return DRMDecision(
        profile_name="twolf",
        t_qual_k=370.0,
        mode=AdaptationMode.ARCHDVS,
        config=BASE_MICROARCH,
        op=DEFAULT_VF_CURVE.nominal,
        performance=1.05,
        fit=3999.5,
        meets_target=True,
    )


class TestHealLadder:
    """``ResultStore.load`` strikes bad decodes and absolves good ones."""

    @pytest.mark.parametrize("kind", ["simulate", "drm"])
    def test_bad_decode_heals_then_quarantines_and_verified_read_absolves(
        self, tmp_path, kind, test_cache
    ):
        from repro.workloads.suite import workload_by_name

        value = (
            test_cache.run(workload_by_name("twolf"))
            if kind == "simulate"
            else _drm_decision()
        )
        good = encode_result(kind, value)
        bad = {"parses": "but does not decode"}
        decode = functools.partial(decode_result, kind)
        store = ResultStore(tmp_path)

        # First bad decode: healed, so the caller recomputes and rewrites.
        store.put(KEY, kind, bad)
        assert store.load(KEY, decode) == (None, "healed")
        assert not store.contains(KEY)
        store.put(KEY, kind, good)
        # A verified read returns the value and absolves the strike...
        loaded, strike = store.load(KEY, decode)
        assert strike is None
        assert encode_result(kind, loaded) == good
        # ...so the next bad decode is a first strike again.
        store.put(KEY, kind, bad)
        assert store.load(KEY, decode) == (None, "healed")
        # Second bad decode with no verified read between: quarantined.
        store.put(KEY, kind, bad)
        assert store.load(KEY, decode) == (None, "quarantined")
        assert len(list(store.quarantine_dir.iterdir())) == 1
        assert (store.stats.healed, store.stats.quarantined) == (2, 1)
        assert store.load(KEY, decode) == (None, None)  # a plain miss


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, "qualification", {"window": 0.5})
        assert store.get(KEY) == {"window": 0.5}
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(KEY) is None
        assert store.stats.misses == 1

    def test_entries_shard_by_hash_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, "qualification", {})
        assert (tmp_path / "objects" / "ab" / f"{KEY}.json").exists()

    def test_overwrite_is_atomic_no_tmp_litter(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, "qualification", {"v": 1})
        store.put(KEY, "qualification", {"v": 2})
        assert store.get(KEY) == {"v": 2}
        leftovers = list((tmp_path / "objects" / "ab").glob("*.tmp"))
        assert leftovers == []

    def test_truncated_entry_healed_then_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, "qualification", {"v": 1})
        path = tmp_path / "objects" / "ab" / f"{KEY}.json"
        good = path.read_text()
        path.write_text(good[:17])  # truncate mid-JSON
        # First strike: entry discarded for re-derivation, not quarantined.
        assert store.get(KEY) is None
        assert store.stats.healed == 1
        assert store.stats.quarantined == 0
        assert not path.exists()
        assert not store.quarantine_dir.exists()
        # The store recovers: a fresh put works again.
        store.put(KEY, "qualification", {"v": 3})
        assert store.get(KEY) == {"v": 3}
        # Second strike before any verified decode absolved the key:
        # preserved for autopsy this time.
        path.write_text(good[:17])
        assert store.get(KEY) is None
        assert store.stats.quarantined == 1
        assert list(store.quarantine_dir.iterdir())

    def test_verified_read_absolves_first_strike(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, "qualification", {"v": 1})
        path = tmp_path / "objects" / "ab" / f"{KEY}.json"
        good = path.read_text()
        path.write_text(good[:17])
        assert store.get(KEY) is None  # strike one: healed
        store.put(KEY, "qualification", {"v": 2})
        assert store.get(KEY) == {"v": 2}
        store.absolve(KEY)  # caller verified the decode
        path.write_text(good[:17])
        assert store.get(KEY) is None  # strike record was cleared: heals again
        assert store.stats.healed == 2
        assert store.stats.quarantined == 0

    def test_wrong_envelope_key_healed_on_first_strike(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, "qualification", {"v": 1})
        src = tmp_path / "objects" / "ab" / f"{KEY}.json"
        dst = tmp_path / "objects" / "cd"
        dst.mkdir(parents=True)
        (dst / f"{OTHER}.json").write_text(src.read_text())
        assert store.get(OTHER) is None
        assert store.stats.healed == 1
        assert store.stats.quarantined == 0

    def test_schema_mismatch_is_a_miss_not_a_crash(self, tmp_path):
        old = ResultStore(tmp_path, schema_version=1)
        old.put(KEY, "qualification", {"v": 1})
        new = ResultStore(tmp_path, schema_version=2)
        assert new.get(KEY) is None
        assert new.stats.schema_misses == 1
        # Stale entry is replaced on the next write, not quarantined.
        new.put(KEY, "qualification", {"v": 2})
        assert new.get(KEY) == {"v": 2}

    def test_invalidate_follows_two_strike_policy(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.invalidate(KEY) == "missing"
        store.put(KEY, "qualification", {"v": 1})
        assert store.invalidate(KEY) == "healed"
        assert not store.contains(KEY)
        assert store.stats.healed == 1
        store.put(KEY, "qualification", {"v": 2})
        assert store.invalidate(KEY) == "quarantined"
        assert not store.contains(KEY)
        assert store.stats.quarantined == 1

    def test_quarantine_preserves_multiple_corpses(self, tmp_path):
        store = ResultStore(tmp_path)
        for _ in range(3):
            # Two strikes per corpse: heal first, quarantine second.
            store.put(KEY, "qualification", {"v": 1})
            store.invalidate(KEY)
            store.put(KEY, "qualification", {"v": 1})
            store.invalidate(KEY)
        assert len(list(store.quarantine_dir.iterdir())) == 3


class TestWorkloadRunCodec:
    def test_roundtrip_is_exact(self, test_cache):
        from repro.workloads.suite import workload_by_name

        profile = workload_by_name("twolf")
        run = test_cache.run(profile)
        payload = encode_workload_run(run)
        # Through actual JSON, as the store would do it.
        decoded = decode_workload_run(
            json.loads(json.dumps(payload)), profile, run.config
        )
        assert decoded == run

    def test_decode_rebuilds_profile_and_config_from_payload(self, test_cache):
        from repro.workloads.suite import workload_by_name

        profile = workload_by_name("twolf")
        config = MicroarchConfig(window_size=32)
        run = test_cache.run(profile, config)
        decoded = decode_workload_run(encode_workload_run(run))
        assert decoded.profile is profile
        assert decoded.config == config
        assert decoded == run

    def test_empty_phases_payload_rejected(self):
        with pytest.raises(Exception):
            decode_workload_run({"profile": "twolf",
                                 "config": {"window_size": 128},
                                 "phases": []})


class TestDecisionCodecs:
    def test_drm_decision_roundtrip(self):
        from repro.config.dvs import DEFAULT_VF_CURVE
        from repro.core.drm import AdaptationMode, DRMDecision

        decision = DRMDecision(
            profile_name="twolf",
            t_qual_k=370.0,
            mode=AdaptationMode.ARCHDVS,
            config=BASE_MICROARCH,
            op=DEFAULT_VF_CURVE.nominal,
            performance=1.05,
            fit=3999.5,
            meets_target=True,
        )
        payload = json.loads(json.dumps(encode_result("drm", decision)))
        assert decode_result("drm", payload) == decision

    def test_dtm_decision_roundtrip(self):
        from repro.config.dvs import DEFAULT_VF_CURVE
        from repro.core.dtm import DTMDecision

        decision = DTMDecision(
            profile_name="art",
            t_limit_k=360.0,
            op=DEFAULT_VF_CURVE.nominal,
            performance=0.93,
            peak_temperature_k=359.2,
            meets_target=True,
        )
        payload = json.loads(json.dumps(encode_result("dtm", decision)))
        assert decode_result("dtm", payload) == decision

    def test_unpersistable_kind_encodes_to_none(self):
        assert encode_result("evaluate", object()) is None
