"""Tests for the Wattch-style power model."""

import math

import pytest

from repro.config.dvs import DEFAULT_VF_CURVE, OperatingPoint
from repro.config.microarch import BASE_MICROARCH, MicroarchConfig
from repro.config.technology import DEFAULT_TECHNOLOGY, STRUCTURES
from repro.errors import ConfigurationError
from repro.power.dynamic import CLOCK_GATE_FLOOR, DynamicPowerModel
from repro.power.leakage import LeakagePowerModel
from repro.power.model import PowerModel
from tests.conftest import uniform_activity, uniform_temps

NOMINAL = DEFAULT_VF_CURVE.nominal


class TestDynamicPower:
    def setup_method(self):
        self.model = DynamicPowerModel(DEFAULT_TECHNOLOGY)

    def test_idle_structure_draws_gate_floor(self):
        powers = self.model.structure_power(uniform_activity(0.0), BASE_MICROARCH, NOMINAL)
        for spec in STRUCTURES:
            assert powers[spec.name] == pytest.approx(CLOCK_GATE_FLOOR * spec.peak_dynamic_w)

    def test_full_activity_draws_peak(self):
        powers = self.model.structure_power(uniform_activity(1.0), BASE_MICROARCH, NOMINAL)
        for spec in STRUCTURES:
            assert powers[spec.name] == pytest.approx(spec.peak_dynamic_w)

    def test_power_linear_in_activity(self):
        lo = self.model.structure_power(uniform_activity(0.2), BASE_MICROARCH, NOMINAL)
        hi = self.model.structure_power(uniform_activity(0.6), BASE_MICROARCH, NOMINAL)
        mid = self.model.structure_power(uniform_activity(0.4), BASE_MICROARCH, NOMINAL)
        for name in lo:
            assert mid[name] == pytest.approx((lo[name] + hi[name]) / 2)

    def test_v_squared_f_scaling(self):
        op = OperatingPoint(2.0e9, 0.5)
        half = self.model.structure_power(uniform_activity(0.5), BASE_MICROARCH, op)
        nominal = self.model.structure_power(uniform_activity(0.5), BASE_MICROARCH, NOMINAL)
        for name in half:
            assert half[name] == pytest.approx(nominal[name] * 0.25 * 0.5)

    def test_near_cubic_frequency_dependence_along_dvs_curve(self):
        curve = DEFAULT_VF_CURVE
        def total(f):
            op = curve.operating_point(f)
            p = self.model.structure_power(uniform_activity(0.5), BASE_MICROARCH, op)
            return sum(p.values())
        exponent = (math.log(total(5.0e9)) - math.log(total(2.5e9))) / math.log(2.0)
        assert 1.3 < exponent < 3.0

    def test_powered_down_units_draw_nothing(self):
        shrunk = MicroarchConfig(window_size=64, n_ialu=3, n_fpu=2)
        full = self.model.structure_power(uniform_activity(0.5), BASE_MICROARCH, NOMINAL)
        part = self.model.structure_power(uniform_activity(0.5), shrunk, NOMINAL)
        assert part["window"] == pytest.approx(full["window"] * 0.5)
        assert part["ialu"] == pytest.approx(full["ialu"] * 0.5)
        assert part["fpu"] == pytest.approx(full["fpu"] * 0.5)
        assert part["l1d"] == pytest.approx(full["l1d"])

    def test_missing_activity_rejected(self):
        with pytest.raises(ConfigurationError, match="missing structure"):
            self.model.structure_power({"ialu": 0.5}, BASE_MICROARCH, NOMINAL)

    def test_out_of_range_activity_rejected(self):
        bad = uniform_activity(0.5)
        bad["fpu"] = 1.5
        with pytest.raises(ConfigurationError):
            self.model.structure_power(bad, BASE_MICROARCH, NOMINAL)

    def test_invalid_gate_floor_rejected(self):
        with pytest.raises(ConfigurationError):
            DynamicPowerModel(DEFAULT_TECHNOLOGY, gate_floor=1.5)


class TestLeakagePower:
    def setup_method(self):
        self.model = LeakagePowerModel(DEFAULT_TECHNOLOGY)

    def test_reference_density(self):
        assert self.model.density_at(383.0) == pytest.approx(0.5)

    def test_exponential_temperature_dependence(self):
        # Heo et al.: P(T) = P_ref * exp(0.017 (T - T_ref)).
        assert self.model.density_at(393.0) == pytest.approx(0.5 * math.exp(0.17))
        assert self.model.density_at(353.0) == pytest.approx(0.5 * math.exp(-0.51))

    def test_total_leakage_at_reference_is_half_watt_per_mm2(self):
        powers = self.model.structure_power(uniform_temps(383.0), BASE_MICROARCH, NOMINAL)
        assert sum(powers.values()) == pytest.approx(0.5 * 20.2, rel=1e-6)

    def test_leakage_proportional_to_area(self):
        powers = self.model.structure_power(uniform_temps(383.0), BASE_MICROARCH, NOMINAL)
        for spec in STRUCTURES:
            assert powers[spec.name] == pytest.approx(0.5 * spec.area_mm2)

    def test_powered_down_slices_do_not_leak(self):
        shrunk = MicroarchConfig(n_fpu=1)
        full = self.model.structure_power(uniform_temps(360.0), BASE_MICROARCH, NOMINAL)
        part = self.model.structure_power(uniform_temps(360.0), shrunk, NOMINAL)
        assert part["fpu"] == pytest.approx(full["fpu"] * 0.25)

    def test_leakage_scales_with_voltage(self):
        low_v = OperatingPoint(3.0e9, 0.9)
        full = self.model.structure_power(uniform_temps(360.0), BASE_MICROARCH, NOMINAL)
        lowered = self.model.structure_power(uniform_temps(360.0), BASE_MICROARCH, low_v)
        for name in full:
            assert lowered[name] == pytest.approx(full[name] * 0.9)

    def test_implausible_temperature_rejected(self):
        with pytest.raises(ValueError):
            self.model.density_at(1000.0)


class TestPowerModel:
    def setup_method(self):
        self.model = PowerModel()

    def test_breakdown_totals(self):
        b = self.model.evaluate(uniform_activity(0.5), BASE_MICROARCH, NOMINAL, uniform_temps(360.0))
        assert b.total_w == pytest.approx(sum(b.dynamic.values()) + sum(b.leakage.values()))
        assert b.total_w == pytest.approx(sum(b.totals().values()))

    def test_structure_total(self):
        b = self.model.evaluate(uniform_activity(0.5), BASE_MICROARCH, NOMINAL, uniform_temps(360.0))
        assert b.structure_total("fpu") == pytest.approx(b.dynamic["fpu"] + b.leakage["fpu"])

    def test_hotter_die_leaks_more(self):
        cool = self.model.evaluate(uniform_activity(0.3), BASE_MICROARCH, NOMINAL, uniform_temps(340.0))
        hot = self.model.evaluate(uniform_activity(0.3), BASE_MICROARCH, NOMINAL, uniform_temps(390.0))
        assert sum(hot.leakage.values()) > sum(cool.leakage.values())
        assert sum(hot.dynamic.values()) == pytest.approx(sum(cool.dynamic.values()))

    def test_per_structure_temperatures_respected(self):
        temps = uniform_temps(340.0)
        temps["fpu"] = 400.0
        b = self.model.evaluate(uniform_activity(0.3), BASE_MICROARCH, NOMINAL, temps)
        # FPU leaks disproportionately given its hot spot.
        fpu_density = b.leakage["fpu"] / 3.2
        l1d_density = b.leakage["l1d"] / 4.0
        assert fpu_density > l1d_density * 2
