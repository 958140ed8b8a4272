"""Tests for the Platform (CPU -> power -> thermal wiring)."""

import pytest

from repro.config.dvs import DEFAULT_VF_CURVE
from repro.config.technology import STRUCTURE_NAMES
from repro.constants import AMBIENT_TEMPERATURE_K

NOMINAL = DEFAULT_VF_CURVE.nominal


class TestEvaluation:
    def test_one_interval_per_phase(self, platform, mpgdec_run, mpgdec_eval):
        assert len(mpgdec_eval.intervals) == len(mpgdec_run.phases)

    def test_interval_weights_sum_to_one(self, mpgdec_eval):
        assert sum(iv.weight for iv in mpgdec_eval.intervals) == pytest.approx(1.0)

    def test_temperatures_above_ambient(self, mpgdec_eval):
        for iv in mpgdec_eval.intervals:
            assert all(t > AMBIENT_TEMPERATURE_K for t in iv.temperatures.values())

    def test_all_structures_covered(self, mpgdec_eval):
        for iv in mpgdec_eval.intervals:
            assert set(iv.temperatures) == set(STRUCTURE_NAMES)
            assert set(iv.activity) == set(STRUCTURE_NAMES)

    def test_hot_app_hotter_than_cool_app(self, mpgdec_eval, twolf_eval):
        assert mpgdec_eval.peak_temperature_k > twolf_eval.peak_temperature_k
        assert mpgdec_eval.avg_power_w > twolf_eval.avg_power_w

    def test_sink_between_ambient_and_peak(self, mpgdec_eval):
        assert AMBIENT_TEMPERATURE_K < mpgdec_eval.sink_temperature_k
        assert mpgdec_eval.sink_temperature_k < mpgdec_eval.peak_temperature_k

    def test_avg_temperature_by_structure_weighted(self, mpgdec_eval):
        avg = mpgdec_eval.avg_temperature_by_structure
        for name in STRUCTURE_NAMES:
            expected = sum(
                iv.temperatures[name] * iv.weight for iv in mpgdec_eval.intervals
            )
            assert avg[name] == pytest.approx(expected)

    def test_power_breakdown_consistent(self, mpgdec_eval):
        for iv in mpgdec_eval.intervals:
            assert iv.power.total_w > 0
            assert sum(iv.power.leakage.values()) > 0
            assert sum(iv.power.dynamic.values()) > sum(iv.power.leakage.values()) * 0.2

    def test_evaluation_is_deterministic(self, platform, mpgdec_run):
        a = platform.evaluate(mpgdec_run, NOMINAL)
        b = platform.evaluate(mpgdec_run, NOMINAL)
        assert a.avg_power_w == b.avg_power_w
        assert a.peak_temperature_k == b.peak_temperature_k


class TestDVSScaling:
    def test_higher_frequency_more_power_and_heat(self, platform, mpgdec_run):
        low = platform.evaluate(mpgdec_run, DEFAULT_VF_CURVE.operating_point(3.0e9))
        high = platform.evaluate(mpgdec_run, DEFAULT_VF_CURVE.operating_point(5.0e9))
        assert high.avg_power_w > low.avg_power_w * 1.5
        assert high.peak_temperature_k > low.peak_temperature_k + 10

    def test_performance_monotone_in_frequency(self, platform, twolf_run):
        ips = [
            platform.evaluate(twolf_run, DEFAULT_VF_CURVE.operating_point(f)).ips
            for f in (2.5e9, 3.5e9, 4.5e9)
        ]
        assert ips == sorted(ips)

    def test_memory_bound_app_scales_sublinearly(self, platform, twolf_run):
        low = platform.evaluate(twolf_run, DEFAULT_VF_CURVE.operating_point(2.5e9))
        high = platform.evaluate(twolf_run, DEFAULT_VF_CURVE.operating_point(5.0e9))
        assert high.ips / low.ips < 2.0  # < the 2x clock ratio

    def test_activity_drops_with_frequency_for_memory_bound(self, platform, twolf_run):
        # More stall cycles per instruction at high f => lower per-cycle
        # activity factors.
        low = platform.evaluate(twolf_run, DEFAULT_VF_CURVE.operating_point(2.5e9))
        high = platform.evaluate(twolf_run, DEFAULT_VF_CURVE.operating_point(5.0e9))
        assert high.intervals[0].activity["ialu"] < low.intervals[0].activity["ialu"]

    def test_relative_performance_helper(self, platform, mpgdec_run, mpgdec_eval):
        fast = platform.evaluate(mpgdec_run, DEFAULT_VF_CURVE.operating_point(5.0e9))
        speedup = fast.ips / mpgdec_eval.ips
        assert 1.0 < speedup < 1.3
