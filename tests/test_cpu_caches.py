"""Unit tests for repro.cpu.caches."""

import pytest

from repro.cpu.caches import (
    AccessResult,
    Cache,
    HierarchyLatencies,
    Level,
    MemoryHierarchy,
    MSHRFile,
)
from repro.errors import ConfigurationError, SimulationError


class TestCacheGeometry:
    def test_l1d_geometry(self):
        c = Cache("l1d", 64 * 1024, 2)
        assert c.n_sets == 512

    def test_l2_geometry(self):
        c = Cache("l2", 1024 * 1024, 4)
        assert c.n_sets == 4096

    @pytest.mark.parametrize("kwargs", [
        dict(size_bytes=0, assoc=2),
        dict(size_bytes=1000, assoc=3),  # does not divide
        dict(size_bytes=1024, assoc=0),
    ])
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Cache("bad", block_bytes=64, **kwargs)


class TestCacheBehaviour:
    def test_first_access_misses(self):
        c = Cache("c", 4096, 2)
        assert c.lookup(1) is False

    def test_second_access_hits(self):
        c = Cache("c", 4096, 2)
        c.lookup(1)
        assert c.lookup(1) is True

    def test_lru_eviction(self):
        c = Cache("c", 2 * 64, 2)  # 1 set, 2 ways
        c.lookup(0)
        c.lookup(1)
        c.lookup(0)  # 0 is now MRU
        c.lookup(2)  # evicts 1 (LRU)
        assert c.contains(0)
        assert not c.contains(1)
        assert c.contains(2)

    def test_contains_does_not_mutate(self):
        c = Cache("c", 2 * 64, 2)
        c.lookup(0)
        c.lookup(1)
        c.contains(0)  # must NOT refresh 0's recency
        c.lookup(2)
        assert not c.contains(0)  # 0 was still LRU and got evicted

    def test_writeback_counted_on_dirty_eviction(self):
        c = Cache("c", 2 * 64, 2)
        c.lookup(0, write=True)
        c.lookup(1)
        c.lookup(2)  # evicts dirty 0
        assert c.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = Cache("c", 2 * 64, 2)
        c.lookup(0)
        c.lookup(1)
        c.lookup(2)
        assert c.writebacks == 0

    def test_miss_rate(self):
        c = Cache("c", 4096, 2)
        c.lookup(0)
        c.lookup(0)
        assert c.misses / c.accesses == pytest.approx(0.5)

    def test_miss_rate_zero_without_accesses(self):
        c = Cache("c", 4096, 2)
        assert (c.misses, c.accesses) == (0, 0)

    def test_touch_hits_without_filling(self):
        c = Cache("t", size_bytes=4 * 64, assoc=2)
        assert c.touch(5) is False
        assert (c.hits, c.misses, c.contains(5)) == (0, 0, False)
        c.lookup(5)
        assert c.touch(5, write=True) is True
        assert c.hits == 1

    def test_sets_isolate_addresses(self):
        c = Cache("c", 4 * 64, 2)  # 2 sets
        c.lookup(0)
        c.lookup(1)  # different set
        assert c.contains(0) and c.contains(1)


class TestMSHR:
    def test_allocate_and_expire(self):
        m = MSHRFile(2)
        m.try_allocate(1, cycle=0, completion=10)
        assert m.occupancy(5) == 1
        assert m.occupancy(10) == 0

    def test_merge_same_block(self):
        m = MSHRFile(2)
        first = m.try_allocate(1, 0, 10)
        second = m.try_allocate(1, 3, 99)
        assert second == first  # merged: shares the original completion
        assert m.occupancy(5) == 1
        assert m.merges == 1

    def test_full_returns_none(self):
        m = MSHRFile(1)
        m.try_allocate(1, 0, 100)
        assert m.try_allocate(2, 0, 100) is None
        assert m.full_stalls == 1

    def test_slot_freed_after_completion(self):
        m = MSHRFile(1)
        m.try_allocate(1, 0, 10)
        assert m.try_allocate(2, 10, 20) == 20

    def test_lookup_returns_completion(self):
        m = MSHRFile(2)
        m.try_allocate(7, 0, 42)
        assert m.lookup(7, 5) == 42
        assert m.lookup(7, 42) is None

    def test_completion_must_be_future(self):
        m = MSHRFile(2)
        with pytest.raises(SimulationError):
            m.try_allocate(1, 10, 10)

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            MSHRFile(0)

    def test_misses_expire_in_completion_order(self):
        m = MSHRFile(3)
        m.try_allocate(1, 0, 30)
        m.try_allocate(2, 0, 10)
        m.try_allocate(3, 5, 20)
        assert [m.occupancy(c) for c in (9, 10, 19, 20, 30)] == [3, 2, 2, 1, 0]


class TestHierarchyLatencies:
    def test_table1_defaults(self):
        lat = HierarchyLatencies()
        assert (lat.l1_hit, lat.l2_hit, lat.memory) == (2, 20, 102)

    def test_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            HierarchyLatencies(l1_hit=30, l2_hit=20)


class TestMemoryHierarchy:
    def test_inst_access_levels(self):
        h = MemoryHierarchy()
        first = h.inst_access(0)
        assert first.level == Level.MEM and first.latency == 102
        again = h.inst_access(0)
        assert again.level == Level.L1 and again.latency == 2

    def test_l2_hit_after_l1_eviction(self):
        h = MemoryHierarchy()
        h.inst_access(0)
        # Evict block 0 from the 2-way L1I set by touching two conflicting
        # blocks (same L1I set, different tags), while L2 keeps it.
        sets = h.l1i.n_sets
        h.inst_access(sets * 64)
        h.inst_access(2 * sets * 64)
        res = h.inst_access(0)
        assert res.level == Level.L2 and res.latency == 20

    def test_data_access_miss_then_hit(self):
        h = MemoryHierarchy()
        res = h.data_access(0, cycle=0)
        assert res.level == Level.MEM
        res2 = h.data_access(0, cycle=200)
        assert res2.level == Level.L1

    def test_data_access_merges_with_inflight_miss(self):
        h = MemoryHierarchy()
        h.data_access(0, cycle=0)  # miss completing at 102
        res = h.data_access(0, cycle=50)
        assert res.latency == 52  # remaining time of the in-flight miss

    def test_mshr_exhaustion_returns_none_without_side_effects(self):
        h = MemoryHierarchy(mshr_entries=1)
        h.data_access(0, cycle=0)
        blocked = h.data_access(64 * 1000, cycle=1)
        assert blocked is None
        # No tag state was installed for the refused access.
        assert not h.l1d.contains(1000)

    def test_off_chip_flag(self):
        assert AccessResult(Level.L1, 2).off_chip is False
        assert AccessResult(Level.L2, 20).off_chip is True
        assert AccessResult(Level.MEM, 102).off_chip is True

    def test_l2_shared_between_inst_and_data(self):
        h = MemoryHierarchy()
        h.data_access(0, cycle=0)  # fills L2 with block 0
        res = h.inst_access(0)
        # L1I misses but the unified L2 already has the block.
        assert res.level == Level.L2

    def test_copy_is_independent(self):
        h = MemoryHierarchy()
        for block in range(40):
            h.data_access(block * 64, cycle=0)
        h.data_access(0, cycle=200, write=True)
        twin = h.copy()
        assert (twin.l1d.hits, twin.l1d.misses) == (h.l1d.hits, h.l1d.misses)
        assert twin.dmshr.occupancy(0) == h.dmshr.occupancy(0)
        # Evict block 0 (dirty) from the copy's L1D only.
        for k in range(1, 3):
            twin.data_access(k * 64 * twin.l1d.n_sets, cycle=300 * k)
        assert twin.l1d.writebacks == 1
        assert h.l1d.writebacks == 0
        assert h.l1d.contains(0) and not twin.l1d.contains(0)
        assert h.data_access(0, cycle=1000).level == Level.L1
