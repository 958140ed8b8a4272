"""What-if knob tests for the scaling study (single-node V/f excursions)."""

import pytest

from repro.core.scaling import ScalingScenario, ScalingStudy


@pytest.fixture(scope="module")
def study(oracle, platform):
    return ScalingStudy(oracle.ramp_for(400.0), base_platform=platform)


class TestSingleNodeWhatIfs:
    def test_overvolting_hurts_reliability(self, study, twolf_run):
        base = study.evaluate(twolf_run, ScalingScenario("base", 1.0))
        hot = study.evaluate(
            twolf_run, ScalingScenario("overvolt", 1.0, vdd_scale=1.05)
        )
        # V raises dynamic power, temperature, EM current density and —
        # above all — the TDDB term.
        assert hot.fit > base.fit * 1.5

    def test_undervolting_helps(self, study, twolf_run):
        base = study.evaluate(twolf_run, ScalingScenario("base", 1.0))
        cool = study.evaluate(
            twolf_run, ScalingScenario("undervolt", 1.0, vdd_scale=0.95)
        )
        assert cool.fit < base.fit

    def test_frequency_alone_raises_fit(self, study, twolf_run):
        base = study.evaluate(twolf_run, ScalingScenario("base", 1.0))
        fast = study.evaluate(
            twolf_run, ScalingScenario("fast", 1.0, frequency_scale=1.2)
        )
        assert fast.fit > base.fit

    def test_power_and_temperature_track_density(self, study, mpgdec_run):
        lo = study.evaluate(mpgdec_run, ScalingScenario("lo", 0.8))
        hi = study.evaluate(mpgdec_run, ScalingScenario("hi", 1.2))
        assert hi.avg_power_w > lo.avg_power_w
        assert hi.peak_temperature_k > lo.peak_temperature_k


class TestTimelineDetails:
    def test_commit_delays_non_negative(self):
        from repro.cpu.simulator import simulate_with_timeline
        from repro.workloads import microbench as ub

        _, tl = simulate_with_timeline(ub.branchy(500))
        assert (tl.retire - tl.complete >= 0).all()

    def test_gantt_clips_to_max_width(self):
        from repro.cpu.simulator import simulate_with_timeline
        from repro.workloads import microbench as ub

        _, tl = simulate_with_timeline(ub.pointer_chase(120))
        text = tl.render_gantt(start=0, count=3, max_width=30)
        for line in text.splitlines()[1:]:
            bar = line.split("|", 1)[1]
            assert len(bar) <= 30

    def test_in_order_machinery_consistent_with_stats(self):
        from repro.cpu.pipeline import PipelineEngine
        from repro.config.microarch import BASE_MICROARCH
        from repro.workloads import microbench as ub

        engine = PipelineEngine(
            ub.alu_throughput(400), BASE_MICROARCH, record_timeline=True
        )
        stats = engine.run()
        tl = engine.timeline()
        # The last retirement happens strictly before the loop's final
        # cycle count, and no stamp exceeds it.
        assert int(tl.retire.max()) < stats.cycles
        assert int(tl.fetch.min()) >= 0


class TestDVSGridDeterminism:
    def test_grid_reproducible(self):
        from repro.config.dvs import DEFAULT_VF_CURVE

        a = DEFAULT_VF_CURVE.grid(26)
        b = DEFAULT_VF_CURVE.grid(26)
        assert a == b

    def test_oracle_decisions_reproducible(self, oracle):
        from repro.core.drm import AdaptationMode
        from repro.workloads.suite import workload_by_name

        app = workload_by_name("equake")
        d1 = oracle.best(app, t_qual_k=370.0, mode=AdaptationMode.DVS)
        d2 = oracle.best(app, t_qual_k=370.0, mode=AdaptationMode.DVS)
        assert d1.op == d2.op
        assert d1.performance == d2.performance
