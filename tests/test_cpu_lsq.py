"""Unit tests for repro.cpu.lsq (the 32-entry memory queue)."""

import pytest

from repro.cpu.lsq import LoadStoreQueue
from repro.errors import ConfigurationError, SimulationError


class TestCapacity:
    def test_default_is_table1_32(self):
        assert LoadStoreQueue().capacity == 32

    def test_full_flag(self):
        q = LoadStoreQueue(2)
        q.insert(0, is_store=False)
        assert not q.full
        q.insert(1, is_store=True)
        assert q.full

    def test_insert_when_full_raises(self):
        q = LoadStoreQueue(1)
        q.insert(0, is_store=False)
        with pytest.raises(SimulationError):
            q.insert(1, is_store=False)

    def test_duplicate_seq_raises(self):
        q = LoadStoreQueue(4)
        q.insert(0, is_store=False)
        with pytest.raises(SimulationError):
            q.insert(0, is_store=True)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            LoadStoreQueue(0)


class TestForwarding:
    def test_older_store_forwards_to_load(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)
        q.insert(1, is_store=False)
        q.set_address(0, 0x100)
        q.set_address(1, 0x100)
        assert q.forwarding_store(1, 0x100) is True
        assert q.forwards == 1

    def test_younger_store_does_not_forward(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=False)
        q.insert(1, is_store=True)
        q.set_address(1, 0x100)
        assert q.forwarding_store(0, 0x100) is False

    def test_different_address_does_not_forward(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)
        q.insert(1, is_store=False)
        q.set_address(0, 0x200)
        assert q.forwarding_store(1, 0x100) is False

    def test_store_with_unknown_address_does_not_forward(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)  # address not yet generated
        q.insert(1, is_store=False)
        assert q.forwarding_store(1, 0x100) is False

    def test_retired_store_does_not_forward(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)
        q.set_address(0, 0x100)
        q.remove(0)
        q.insert(1, is_store=False)
        assert q.forwarding_store(1, 0x100) is False

    def test_two_stores_to_one_address_after_the_older_retires(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)
        q.insert(1, is_store=True)
        q.insert(2, is_store=False)
        q.set_address(0, 0x100)
        q.set_address(1, 0x100)
        q.remove(0)
        assert q.forwarding_store(2, 0x100) is True
        q.remove(1)
        assert q.forwarding_store(2, 0x100) is False
        assert q.forwards == 1

    def test_only_stores_older_than_the_load_forward(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)
        q.insert(1, is_store=False)
        q.insert(2, is_store=True)
        q.set_address(2, 0x100)
        assert q.forwarding_store(1, 0x100) is False
        q.set_address(0, 0x100)
        assert q.forwarding_store(1, 0x100) is True
        q.remove(0)
        assert q.forwarding_store(1, 0x100) is False

    def test_store_address_known_after_a_younger_load_checked(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)
        q.insert(1, is_store=False)
        q.insert(2, is_store=False)
        q.set_address(1, 0x80)
        assert q.forwarding_store(1, 0x80) is False  # store 0 still unknown
        q.set_address(0, 0x80)
        q.set_address(2, 0x80)
        assert q.forwarding_store(2, 0x80) is True
        assert (q.searches, q.forwards) == (2, 1)

    def test_reissued_load_may_change_its_address(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)
        q.insert(1, is_store=False)
        q.set_address(0, 0x40)
        q.set_address(1, 0x80)
        q.set_address(1, 0x40)
        assert q.forwarding_store(1, 0x40) is True

    def test_loads_never_forward(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=False)
        q.set_address(0, 0x100)
        q.insert(1, is_store=False)
        assert q.forwarding_store(1, 0x100) is False


class TestBookkeeping:
    def test_remove_unknown_raises(self):
        with pytest.raises(SimulationError):
            LoadStoreQueue().remove(5)

    def test_set_address_unknown_raises(self):
        with pytest.raises(SimulationError):
            LoadStoreQueue().set_address(5, 0x0)

    def test_len_tracks_occupancy(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=False)
        q.insert(1, is_store=True)
        q.remove(0)
        assert len(q) == 1

    def test_counters(self):
        q = LoadStoreQueue()
        q.insert(0, is_store=True)
        q.set_address(0, 0x40)
        q.insert(1, is_store=False)
        q.forwarding_store(1, 0x40)
        assert q.inserts == 2
        assert q.searches == 1
