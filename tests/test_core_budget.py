"""Tests for long-horizon reliability banking."""

import pytest

from repro.core.budget import ReliabilityBudget
from repro.errors import ReliabilityError


class TestLedger:
    def test_fresh_budget_is_on_track(self):
        b = ReliabilityBudget(fit_target=4000.0)
        assert b.on_track
        assert b.average_fit == pytest.approx(0.0)
        assert b.banked == pytest.approx(0.0)

    def test_running_at_target_is_neutral(self):
        b = ReliabilityBudget(fit_target=4000.0)
        b.record(4000.0, duration_hours=100.0)
        assert b.banked == pytest.approx(0.0)
        assert b.on_track

    def test_running_cool_banks_budget(self):
        b = ReliabilityBudget(fit_target=4000.0)
        b.record(2000.0, duration_hours=10.0)
        assert b.banked == pytest.approx(20_000.0)
        assert b.on_track

    def test_running_hot_goes_into_debt(self):
        b = ReliabilityBudget(fit_target=4000.0)
        b.record(6000.0, duration_hours=10.0)
        assert b.banked == pytest.approx(-20_000.0)
        assert not b.on_track

    def test_hot_interval_compensated_by_cool_one(self):
        """The paper's key averaging claim (Section 7.1)."""
        b = ReliabilityBudget(fit_target=4000.0)
        b.record(6000.0, duration_hours=10.0)
        b.record(2000.0, duration_hours=10.0)
        assert b.on_track
        assert b.average_fit == pytest.approx(4000.0)

    def test_average_fit_time_weighted(self):
        b = ReliabilityBudget(fit_target=4000.0)
        b.record(1000.0, duration_hours=30.0)
        b.record(7000.0, duration_hours=10.0)
        assert b.average_fit == pytest.approx((1000 * 30 + 7000 * 10) / 40)

    @pytest.mark.parametrize("fit,hours", [(-1.0, 1.0), (100.0, 0.0), (100.0, -1.0)])
    def test_invalid_records_rejected(self, fit, hours):
        with pytest.raises(ReliabilityError):
            ReliabilityBudget().record(fit, hours)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ReliabilityError):
            ReliabilityBudget(fit_target=0.0)
        with pytest.raises(ReliabilityError):
            ReliabilityBudget(horizon_hours=-1.0)


class TestSustainableRate:
    def test_untouched_budget_sustains_target(self):
        b = ReliabilityBudget(fit_target=4000.0, horizon_hours=1000.0)
        assert b.sustainable_fit() == pytest.approx(4000.0)

    def test_banked_budget_raises_sustainable_rate(self):
        b = ReliabilityBudget(fit_target=4000.0, horizon_hours=1000.0)
        b.record(2000.0, 500.0)  # half the life at half rate
        assert b.sustainable_fit() == pytest.approx(6000.0)

    def test_debt_lowers_sustainable_rate(self):
        b = ReliabilityBudget(fit_target=4000.0, horizon_hours=1000.0)
        b.record(6000.0, 500.0)
        assert b.sustainable_fit() == pytest.approx(2000.0)

    def test_sustainable_rate_never_negative(self):
        b = ReliabilityBudget(fit_target=4000.0, horizon_hours=1000.0)
        b.record(100_000.0, 500.0)  # catastrophic overdraft
        assert b.sustainable_fit() == pytest.approx(0.0)

    def test_exhausted_horizon_raises(self):
        b = ReliabilityBudget(fit_target=4000.0, horizon_hours=10.0)
        b.record(4000.0, 10.0)
        with pytest.raises(ReliabilityError, match="exhausted"):
            b.sustainable_fit()
