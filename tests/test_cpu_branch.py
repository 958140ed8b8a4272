"""Unit tests for repro.cpu.branch (bimodal-agree predictor + RAS)."""

import numpy as np
import pytest

from repro.cpu.branch import BimodalAgreePredictor, ReturnAddressStack
from repro.errors import ConfigurationError


class TestBimodalAgreePredictor:
    def test_2kb_budget_gives_8192_counters(self):
        assert BimodalAgreePredictor(2048).n_counters == 8192

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            BimodalAgreePredictor(0)
        with pytest.raises(ConfigurationError):
            BimodalAgreePredictor(100)  # not a power-of-two counter count

    def test_unseen_branch_predicts_not_taken(self):
        p = BimodalAgreePredictor()
        assert p.predict(0x1000) is False

    def test_learns_always_taken_branch(self):
        p = BimodalAgreePredictor()
        for _ in range(4):
            p.update(0x40, True)
        assert p.predict(0x40) is True

    def test_learns_never_taken_branch(self):
        p = BimodalAgreePredictor()
        for _ in range(4):
            p.update(0x40, False)
        assert p.predict(0x40) is False

    def test_biased_branch_low_mispredict(self):
        rng = np.random.default_rng(0)
        p = BimodalAgreePredictor()
        outcomes = rng.random(4000) < 0.98
        for o in outcomes:
            p.update(0x80, bool(o))
        assert p.mispredicts / p.lookups < 0.08

    def test_alternating_branch_mispredicts_heavily(self):
        p = BimodalAgreePredictor()
        for i in range(1000):
            p.update(0x80, i % 2 == 0)
        assert p.mispredicts / p.lookups > 0.3

    def test_independent_branches_do_not_interfere(self):
        p = BimodalAgreePredictor()
        for _ in range(8):
            p.update(0x100, True)
            p.update(0x200, False)
        assert p.predict(0x100) is True
        assert p.predict(0x200) is False

    def test_counter_saturation_bounds(self):
        p = BimodalAgreePredictor()
        for _ in range(100):
            p.update(0x10, True)
        assert int(p.counters.max()) <= 3
        assert int(p.counters.min()) >= 0

    def test_mispredict_counting(self):
        p = BimodalAgreePredictor()
        p.update(0x4, True)  # first encounter: static not-taken predicted
        assert p.mispredicts == 1
        assert p.lookups == 1

    def test_rate_zero_before_any_lookup(self):
        p = BimodalAgreePredictor()
        assert (p.mispredicts, p.lookups) == (0, 0)

    def test_update_returns_mispredict_flag(self):
        p = BimodalAgreePredictor()
        assert p.update(0x8, True) is True  # cold predict = not taken
        assert p.update(0x8, True) is False  # bias learned


class TestReturnAddressStack:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_underflow_returns_none(self):
        assert ReturnAddressStack(4).pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert len(ras) == 2
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_table1_depth_default(self):
        assert ReturnAddressStack().depth == 32

    def test_invalid_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            ReturnAddressStack(0)
