"""Tests for time-dependent lifetime distributions and the MC series solver."""

import numpy as np
import pytest

from repro.core.fit import FitAccount
from repro.lifetime.distributions import (
    ExponentialLifetime,
    LognormalLifetime,
    WeibullLifetime,
    component_mttfs_from_account,
    series_system_mttf,
    sofr_series_mttf,
)
from repro.errors import ReliabilityError

RNG = np.random.default_rng(1)


class TestDistributions:
    @pytest.mark.parametrize(
        "dist",
        [ExponentialLifetime(), WeibullLifetime(2.0), WeibullLifetime(4.0),
         LognormalLifetime(0.5), LognormalLifetime(1.0)],
    )
    def test_mean_matches_requested_mttf(self, dist):
        samples = dist.sample(np.random.default_rng(0), mttf_hours=1000.0, size=200_000)
        assert samples.mean() == pytest.approx(1000.0, rel=0.02)

    @pytest.mark.parametrize(
        "dist",
        [ExponentialLifetime(), WeibullLifetime(3.0), LognormalLifetime(0.7)],
    )
    def test_samples_positive(self, dist):
        samples = dist.sample(np.random.default_rng(0), mttf_hours=10.0, size=1000)
        assert (samples > 0).all()

    def test_weibull_shape_one_is_exponential(self):
        w = WeibullLifetime(1.0).sample(np.random.default_rng(0), 100.0, 100_000)
        e = ExponentialLifetime().sample(np.random.default_rng(0), 100.0, 100_000)
        # Same mean and similar spread (CV ~ 1).
        assert w.std() / w.mean() == pytest.approx(e.std() / e.mean(), rel=0.05)

    def test_wearout_shapes_have_lower_spread(self):
        """Increasing hazard concentrates lifetimes around the mean."""
        w = WeibullLifetime(3.0).sample(np.random.default_rng(0), 100.0, 100_000)
        e = ExponentialLifetime().sample(np.random.default_rng(0), 100.0, 100_000)
        assert w.std() < 0.5 * e.std()

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("inf")])
    def test_invalid_mttf_rejected(self, bad):
        with pytest.raises(ReliabilityError):
            ExponentialLifetime().sample(RNG, bad, 10)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReliabilityError):
            WeibullLifetime(0.0)
        with pytest.raises(ReliabilityError):
            LognormalLifetime(-0.1)


class TestSofrSeries:
    def test_single_component(self):
        assert sofr_series_mttf([100.0]) == pytest.approx(100.0)

    def test_identical_components(self):
        assert sofr_series_mttf([100.0] * 4) == pytest.approx(25.0)

    def test_dominated_by_weakest(self):
        assert sofr_series_mttf([10.0, 1e9]) == pytest.approx(10.0, rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ReliabilityError):
            sofr_series_mttf([])
        with pytest.raises(ReliabilityError):
            sofr_series_mttf([10.0, -1.0])


class TestMonteCarloSeries:
    def test_exponential_matches_sofr(self):
        """Under the SOFR assumption the MC solver must agree with the
        closed form — the cross-check that validates the machinery."""
        mttfs = [120.0, 300.0, 80.0, 1000.0]
        result = series_system_mttf(mttfs, ExponentialLifetime(), n_samples=200_000)
        assert result.mttf_hours == pytest.approx(result.sofr_mttf_hours, rel=0.02)

    @pytest.mark.parametrize(
        "dist", [WeibullLifetime(2.0), WeibullLifetime(4.0), LognormalLifetime(0.5)]
    )
    def test_wearout_shapes_beat_sofr(self, dist):
        """The headline result: SOFR is conservative for wear-out."""
        mttfs = [120.0, 300.0, 80.0, 1000.0]
        result = series_system_mttf(mttfs, dist, n_samples=50_000)
        assert result.sofr_conservatism > 1.1

    def test_stronger_wearout_is_less_sofr_like(self):
        mttfs = [100.0] * 8
        mild = series_system_mttf(mttfs, WeibullLifetime(1.5), n_samples=50_000)
        steep = series_system_mttf(mttfs, WeibullLifetime(4.0), n_samples=50_000)
        assert steep.sofr_conservatism > mild.sofr_conservatism

    def test_deterministic_for_seed(self):
        mttfs = [50.0, 70.0]
        a = series_system_mttf(mttfs, LognormalLifetime(0.5), seed=3)
        b = series_system_mttf(mttfs, LognormalLifetime(0.5), seed=3)
        assert a.mttf_hours == b.mttf_hours

    def test_standard_error_reported(self):
        result = series_system_mttf([100.0], ExponentialLifetime(), n_samples=10_000)
        assert 0 < result.std_error_hours < result.mttf_hours

    def test_invalid_sample_count(self):
        with pytest.raises(ReliabilityError):
            series_system_mttf([100.0], ExponentialLifetime(), n_samples=0)


class TestAccountBridge:
    def test_mttfs_from_account(self):
        account = FitAccount({("EM", "fpu"): 1000.0, ("SM", "fpu"): 500.0})
        mttfs = component_mttfs_from_account(account)
        assert sorted(mttfs) == pytest.approx([1e6, 2e6])

    def test_zero_fit_components_excluded(self):
        account = FitAccount({("EM", "fpu"): 0.0, ("SM", "fpu"): 500.0})
        assert len(component_mttfs_from_account(account)) == 1

    def test_all_zero_rejected(self):
        with pytest.raises(ReliabilityError):
            component_mttfs_from_account(FitAccount({("EM", "fpu"): 0.0}))

    def test_sofr_matches_account_total(self, oracle, mpgdec_eval):
        """The MC bridge is consistent with the FIT ledger's own MTTF."""
        rel = oracle.ramp_for(400.0).application_reliability(mpgdec_eval)
        mttfs = component_mttfs_from_account(rel.account)
        assert sofr_series_mttf(mttfs) == pytest.approx(rel.account.mttf_hours(), rel=1e-9)
