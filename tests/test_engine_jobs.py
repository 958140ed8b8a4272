"""Job-spec invariants: content hashing, identity, dependency closure."""

import dataclasses

import pytest

from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.engine.jobs import (
    DRMSearchJob,
    SimulateJob,
    canonical_json,
    content_hash,
    simulate_cache_key,
)
from repro.engine.store import SCHEMA_VERSION
from repro.workloads.suite import SUITE_NAMES, workload_by_name


class TestContentHash:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_hash_differs_on_value_change(self):
        assert content_hash({"x": 1}) != content_hash({"x": 2})

    def test_float_precision_survives(self):
        a = content_hash({"x": 0.1 + 0.2})
        b = content_hash({"x": 0.30000000000000004})
        c = content_hash({"x": 0.3})
        assert a == b
        assert a != c


class TestSimulateJobKeys:
    def test_key_is_deterministic_across_instances(self):
        j1 = SimulateJob("twolf", instructions=2000, warmup=500, seed=7)
        j2 = SimulateJob("twolf", instructions=2000, warmup=500, seed=7)
        assert j1 == j2
        assert j1.cache_key == j2.cache_key
        assert hash(j1) == hash(j2)

    @pytest.mark.parametrize(
        "change",
        [
            {"profile_name": "bzip2"},
            {"config": MicroarchConfig(window_size=16)},
            {"instructions": 2001},
            {"warmup": 501},
            {"seed": 8},
        ],
    )
    def test_every_input_feeds_the_key(self, change):
        base = SimulateJob("twolf", instructions=2000, warmup=500, seed=7)
        other = dataclasses.replace(base, **change)
        assert other.cache_key != base.cache_key

    def test_key_matches_cache_helper(self):
        job = SimulateJob("art", instructions=1000, warmup=200, seed=3)
        assert job.cache_key == simulate_cache_key(
            workload_by_name("art"), BASE_MICROARCH, 1000, 200, 3
        )

    def test_key_embeds_schema_version(self, monkeypatch):
        job = SimulateJob("twolf")
        before = job.cache_key
        monkeypatch.setattr("repro.engine.store.SCHEMA_VERSION", SCHEMA_VERSION + 1)
        monkeypatch.setattr("repro.engine.jobs.SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert SimulateJob("twolf").cache_key != before

    def test_key_is_filename_safe_hex(self):
        key = SimulateJob("MPGdec").cache_key
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)


class TestDependencyClosure:
    def test_drm_depends_on_its_config_and_suite_base_sims(self):
        job = DRMSearchJob("twolf", 370.0, mode="archdvs", instructions=1000)
        deps = job.dependencies()
        assert all(isinstance(d, SimulateJob) for d in deps)
        twolf_configs = {
            d.config.describe() for d in deps if d.profile_name == "twolf"
        }
        assert len(twolf_configs) == 18  # full Arch space
        base_apps = {
            d.profile_name
            for d in deps
            if d.config == BASE_MICROARCH
        }
        assert base_apps == set(SUITE_NAMES)  # p_qual needs everyone

    def test_dvs_mode_needs_only_base_config(self):
        job = DRMSearchJob("twolf", 370.0, mode="dvs", instructions=1000)
        assert {d.config for d in job.dependencies()} == {BASE_MICROARCH}

    def test_jobs_usable_as_dict_keys(self):
        jobs = {
            SimulateJob("twolf"): 1,
            DRMSearchJob("twolf", 370.0): 2,
        }
        assert jobs[SimulateJob("twolf")] == 1
