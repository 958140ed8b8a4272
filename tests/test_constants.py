"""Unit tests for repro.constants."""

import math

import pytest

from repro import constants


class TestFitMttfConversions:
    def test_fit_mttf_round_trip(self):
        assert constants.fit_to_mttf_hours(constants.mttf_hours_to_fit(1234.5)) == pytest.approx(1234.5)

    def test_thirty_year_mttf_is_about_4000_fit(self):
        fit = constants.mttf_years_to_fit(30.0)
        assert 3500.0 < fit < 4000.0  # 1e9 / (30*8760) ~ 3805

    def test_target_fit_corresponds_to_about_30_years(self):
        years = constants.fit_to_mttf_years(constants.TARGET_FIT)
        assert 25.0 < years < 32.0

    def test_one_fit_is_1e9_hours(self):
        assert constants.fit_to_mttf_hours(1.0) == pytest.approx(1.0e9)

    def test_fit_increases_as_mttf_decreases(self):
        assert constants.mttf_hours_to_fit(100.0) > constants.mttf_hours_to_fit(200.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e9])
    def test_zero_or_negative_mttf_rejected(self, bad):
        with pytest.raises(ValueError):
            constants.mttf_hours_to_fit(bad)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_zero_or_negative_fit_rejected(self, bad):
        with pytest.raises(ValueError):
            constants.fit_to_mttf_hours(bad)


class TestTemperatureHelpers:
    def test_celsius_kelvin_round_trip(self):
        assert constants.celsius_to_kelvin(45.0) - 273.15 == pytest.approx(45.0)

    def test_ambient_is_45_celsius(self):
        assert constants.AMBIENT_TEMPERATURE_K - 273.15 == pytest.approx(45.0)

    def test_cycle_cold_end_below_ambient(self):
        assert constants.CYCLE_COLD_TEMPERATURE_K < constants.AMBIENT_TEMPERATURE_K

    def test_validate_temperature_passes_through(self):
        assert constants.validate_temperature(350.0) == pytest.approx(350.0)

    @pytest.mark.parametrize("bad", [100.0, 600.0, 0.0])
    def test_validate_temperature_rejects_extremes(self, bad):
        with pytest.raises(ValueError):
            constants.validate_temperature(bad)

    def test_validate_temperature_mentions_label(self):
        with pytest.raises(ValueError, match="T_test"):
            constants.validate_temperature(600.0, what="T_test")


class TestPhysicalConstants:
    def test_boltzmann_ev(self):
        assert constants.BOLTZMANN_EV_PER_K == pytest.approx(8.617e-5, rel=1e-3)

    def test_hours_per_year(self):
        assert constants.HOURS_PER_YEAR == pytest.approx(8760.0)

    def test_kT_at_operating_temperature_is_about_30_mev(self):
        kt = constants.BOLTZMANN_EV_PER_K * 350.0
        assert math.isclose(kt, 0.0302, rel_tol=0.01)
