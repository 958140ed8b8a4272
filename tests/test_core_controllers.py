"""Tests for the closed-loop feedback DRM controller."""

import pytest

from repro.core.controllers import FeedbackDVSController
from repro.errors import AdaptationError


@pytest.fixture(scope="module")
def controller(platform, oracle, twolf_run):
    ramp = oracle.ramp_for(370.0)
    return FeedbackDVSController(platform, ramp)


class TestConstruction:
    def test_invalid_gains_rejected(self, platform, oracle):
        ramp = oracle.ramp_for(370.0)
        with pytest.raises(AdaptationError):
            FeedbackDVSController(platform, ramp, kp=-1.0)
        with pytest.raises(AdaptationError):
            FeedbackDVSController(platform, ramp, epoch_hours=0.0)

    def test_needs_positive_epochs(self, controller, twolf_run):
        with pytest.raises(AdaptationError):
            controller.run(twolf_run, n_epochs=0)


class TestClosedLoop:
    def test_trace_has_requested_epochs(self, controller, twolf_run):
        trace = controller.run(twolf_run, n_epochs=5)
        assert len(trace.epochs) == 5

    def test_converges_near_target_from_below(self, controller, twolf_run):
        """Starting slow with headroom, the controller ramps up until the
        observed FIT approaches (without exceeding on average) the target."""
        trace = controller.run(twolf_run, n_epochs=12, start_frequency_hz=2.5e9)
        target = controller.ramp.qualified.fit_target
        late = trace.epochs[-4:]
        avg_late_fit = sum(e.fit for e in late) / len(late)
        assert avg_late_fit > 0.3 * target  # actually exploiting headroom
        assert trace.average_fit < 1.3 * target

    def test_backs_off_when_overshooting(self, platform, oracle, mpgdec_run):
        """A hot app started at max frequency must be throttled down."""
        ramp = oracle.ramp_for(345.0)
        controller = FeedbackDVSController(platform, ramp)
        trace = controller.run(mpgdec_run, n_epochs=10, start_frequency_hz=5.0e9)
        assert trace.epochs[-1].op.frequency_hz < 5.0e9
        assert trace.epochs[-1].fit < trace.epochs[0].fit

    def test_frequency_stays_in_dvs_range(self, controller, twolf_run):
        trace = controller.run(twolf_run, n_epochs=8, start_frequency_hz=2.5e9)
        for e in trace.epochs:
            assert 2.5e9 - 1 <= e.op.frequency_hz <= 5.0e9 + 1

    def test_bank_consistent_with_fits(self, controller, twolf_run):
        trace = controller.run(twolf_run, n_epochs=6)
        target = controller.ramp.qualified.fit_target
        expected = sum(
            (target - e.fit) * controller.epoch_hours for e in trace.epochs
        )
        assert trace.epochs[-1].banked == pytest.approx(expected, rel=1e-9)

    def test_performance_recorded_relative_to_base(self, controller, twolf_run):
        trace = controller.run(twolf_run, n_epochs=4, start_frequency_hz=4.0e9)
        assert trace.epochs[0].performance == pytest.approx(1.0, abs=1e-9)
