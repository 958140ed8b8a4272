"""The batched evaluation kernel and the unified decision API.

Covers:
- batched-vs-scalar equivalence (temperatures, powers, weights, ips, FIT)
  against the retained scalar reference path at 1e-12 relative tolerance;
- hypothesis property test over randomized schedules;
- per-row convergence masking and the ThermalError that names the
  diverging candidates;
- the ``evaluate_mixed`` crash paths (zero-phase run, zero-duration
  phase) turned into clear ``ValueError``s;
- the shared :class:`repro.core.decision.Decision` base and the
  keyword-only oracle API with its deprecation shims.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.dvs import DEFAULT_VF_CURVE
from repro.config.microarch import BASE_MICROARCH, arch_adaptation_space
from repro.core.decision import Decision
from repro.core.drm import AdaptationMode, DRMDecision
from repro.core.dtm import DTMDecision
from repro.errors import ThermalError
from repro.kernels.batch import STRUCTURE_INDEX, TEMP_TOLERANCE_K
from repro.workloads.suite import workload_by_name

#: Equivalence tolerance between the batched kernel and the scalar
#: reference: the arithmetic mirrors the scalar operation order, so the
#: only drift is libm (np.exp vs math.exp) and summation order — ULPs.
RTOL = 1e-12


def _max_discrepancy(scalar, batched):
    """Worst relative/absolute mismatch across every evaluation field."""
    worst = 0.0
    worst = max(
        worst,
        abs(scalar.sink_temperature_k - batched.sink_temperature_k)
        / scalar.sink_temperature_k,
    )
    worst = max(worst, abs(scalar.ips - batched.ips) / scalar.ips)
    worst = max(
        worst,
        abs(scalar.avg_power_w - batched.avg_power_w) / scalar.avg_power_w,
    )
    for iv_s, iv_b in zip(scalar.intervals, batched.intervals):
        worst = max(worst, abs(iv_s.weight - iv_b.weight))
        for name in iv_s.temperatures:
            worst = max(
                worst,
                abs(iv_s.temperatures[name] - iv_b.temperatures[name])
                / iv_s.temperatures[name],
            )
            worst = max(
                worst, abs(iv_s.activity[name] - iv_b.activity[name])
            )
            worst = max(
                worst,
                abs(iv_s.power.dynamic[name] - iv_b.power.dynamic[name]),
            )
            worst = max(
                worst,
                abs(iv_s.power.leakage[name] - iv_b.power.leakage[name]),
            )
    return worst


class TestStructureIndex:
    def test_canonical_order_is_dense_and_stable(self):
        positions = sorted(STRUCTURE_INDEX.values())
        assert positions == list(range(len(STRUCTURE_INDEX)))

    def test_batch_axes_follow_the_index(self, platform, mpgdec_run):
        batch = platform.evaluate_batch(
            mpgdec_run, [DEFAULT_VF_CURVE.nominal]
        )
        ev = batch.evaluation(0)
        for name, s in STRUCTURE_INDEX.items():
            assert ev.intervals[0].temperatures[name] == pytest.approx(
                float(batch.temperatures_k[0, 0, s])
            )


class TestBatchedScalarEquivalence:
    def test_dvs_grid_matches_reference(self, platform, mpgdec_run):
        grid = DEFAULT_VF_CURVE.grid(11)
        batch = platform.evaluate_batch(mpgdec_run, grid)
        for i, op in enumerate(grid):
            scalar = platform._evaluate_mixed_reference(
                mpgdec_run, [op] * len(mpgdec_run.phases)
            )
            assert _max_discrepancy(scalar, batch.evaluation(i)) < RTOL

    def test_throttled_config_matches_reference(self, platform, test_cache):
        config = arch_adaptation_space()[-1]
        run = test_cache.run(workload_by_name("twolf"), config)
        grid = DEFAULT_VF_CURVE.grid(5)
        batch = platform.evaluate_batch(run, grid)
        for i, op in enumerate(grid):
            scalar = platform._evaluate_mixed_reference(
                run, [op] * len(run.phases)
            )
            assert _max_discrepancy(scalar, batch.evaluation(i)) < RTOL

    def test_mixed_schedules_match_reference(self, platform, mpgdec_run):
        grid = DEFAULT_VF_CURVE.grid(5)
        n = len(mpgdec_run.phases)
        schedules = [
            tuple(grid[(i + p) % len(grid)] for p in range(n))
            for i in range(len(grid))
        ]
        batch = platform.evaluate_batch(mpgdec_run, schedules)
        for i, schedule in enumerate(schedules):
            scalar = platform._evaluate_mixed_reference(
                mpgdec_run, list(schedule)
            )
            assert _max_discrepancy(scalar, batch.evaluation(i)) < RTOL

    def test_batched_fit_matches_scalar_ramp(self, oracle, mpgdec_run):
        ramp = oracle.ramp_for(370.0)
        grid = DEFAULT_VF_CURVE.grid(7)
        batch = oracle.platform.evaluate_batch(mpgdec_run, grid)
        fits = ramp.application_fit_batch(batch)
        for i, op in enumerate(grid):
            scalar = ramp.application_reliability(
                oracle.platform.evaluate(mpgdec_run, op)
            ).total_fit
            assert fits[i] == pytest.approx(scalar, rel=RTOL)

    def test_wrappers_are_single_row_views(self, platform, twolf_run):
        op = DEFAULT_VF_CURVE.nominal
        via_wrapper = platform.evaluate(twolf_run, op)
        via_batch = platform.evaluate_batch(twolf_run, [op]).evaluation(0)
        assert via_wrapper == via_batch

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_random_schedules_property(self, data, platform, mpgdec_run):
        curve = DEFAULT_VF_CURVE
        n = len(mpgdec_run.phases)
        freq = st.floats(
            min_value=curve.f_min_hz, max_value=curve.f_max_hz
        )
        schedules = data.draw(
            st.lists(
                st.tuples(*[freq] * n).map(
                    lambda fs: tuple(curve.operating_point(f) for f in fs)
                ),
                min_size=1,
                max_size=6,
            )
        )
        batch = platform.evaluate_batch(mpgdec_run, schedules)
        for i, schedule in enumerate(schedules):
            scalar = platform._evaluate_mixed_reference(
                mpgdec_run, list(schedule)
            )
            assert _max_discrepancy(scalar, batch.evaluation(i)) < 1e-9


class TestConvergenceMasking:
    def test_rows_converge_at_their_own_pace(self, platform, mpgdec_run):
        grid = DEFAULT_VF_CURVE.grid(11)
        batch = platform.evaluate_batch(mpgdec_run, grid)
        assert batch.iterations.min() >= 1
        # The grid spans 2.5-5 GHz: hot rows need more iterations than
        # cool ones, which is what the per-row mask exists for.
        assert batch.iterations.max() >= batch.iterations.min()

    def test_nonconvergence_names_the_candidates(self, platform, mpgdec_run):
        grid = DEFAULT_VF_CURVE.grid(5)
        with pytest.raises(ThermalError, match=r"candidate\(s\) \["):
            platform.evaluate_batch(
                mpgdec_run, grid, max_iters=1, salvage=False
            )

    def test_tolerance_matches_scalar_path(self):
        from repro.harness import platform as platform_module

        assert platform_module._TEMP_TOLERANCE_K == TEMP_TOLERANCE_K


class TestCrashPaths:
    def test_zero_phase_run_raises_value_error(self, platform, mpgdec_run):
        from repro.cpu.simulator import WorkloadRun

        empty = WorkloadRun(
            profile=mpgdec_run.profile,
            config=mpgdec_run.config,
            phases=(),
        )
        with pytest.raises(ValueError, match="no phases"):
            platform.evaluate_mixed(empty, [])
        with pytest.raises(ValueError, match="no phases"):
            platform._evaluate_mixed_reference(empty, [])

    def test_schedule_length_mismatch_raises(self, platform, mpgdec_run):
        with pytest.raises(ValueError, match="one operating point per"):
            platform.evaluate_mixed(mpgdec_run, [DEFAULT_VF_CURVE.nominal])

    def test_zero_duration_phase_raises_value_error(
        self, platform, mpgdec_run
    ):
        class _ZeroStats:
            cpi_core = 1.0
            cpi_mem = 0.0
            instructions = 0
            activity = dict(mpgdec_run.phases[0].stats.activity)

        class _ZeroPhase:
            stats = _ZeroStats()

        class _ZeroRun:
            profile = mpgdec_run.profile
            config = mpgdec_run.config
            phases = (_ZeroPhase(),)

        with pytest.raises(ValueError, match="positive duration"):
            platform.evaluate_batch(_ZeroRun(), [DEFAULT_VF_CURVE.nominal])

    def test_empty_candidate_grid_raises(self, platform, mpgdec_run):
        with pytest.raises(ValueError, match="candidate grid is empty"):
            platform.evaluate_batch(mpgdec_run, [])


class TestDecisionAPI:
    def test_oracle_decisions_share_the_base(self, oracle, dtm_oracle):
        profile = workload_by_name("twolf")
        drm = oracle.best(profile, t_qual_k=370.0, mode=AdaptationMode.DVS)
        dtm = dtm_oracle.best(profile, t_limit_k=400.0)
        assert isinstance(drm, Decision)
        assert isinstance(dtm, Decision)
        assert drm.profile_name == dtm.profile_name == profile.name

    def test_dtm_fit_is_nan_by_contract(self, dtm_oracle):
        decision = dtm_oracle.best(
            workload_by_name("twolf"), t_limit_k=400.0
        )
        assert math.isnan(decision.fit)

    def test_dtm_meets_limit_alias_is_gone(self, dtm_oracle):
        decision = dtm_oracle.best(
            workload_by_name("twolf"), t_limit_k=400.0
        )
        assert not hasattr(decision, "meets_limit")
        assert decision.meets_target

    def test_positional_forms_rejected(self, oracle, dtm_oracle):
        profile = workload_by_name("twolf")
        with pytest.raises(TypeError, match="positional"):
            oracle.best(profile, 370.0, AdaptationMode.DVS)
        with pytest.raises(TypeError, match="positional"):
            dtm_oracle.best(profile, 400.0)

    def test_missing_keyword_raises_type_error(self, oracle, dtm_oracle):
        profile = workload_by_name("twolf")
        with pytest.raises(TypeError, match="t_qual_k"):
            oracle.best(profile)
        with pytest.raises(TypeError, match="t_limit_k"):
            dtm_oracle.best(profile)

    def test_decision_records_stay_frozen(self):
        decision = DRMDecision(
            profile_name="twolf",
            t_qual_k=370.0,
            mode=AdaptationMode.DVS,
            config=BASE_MICROARCH,
            op=DEFAULT_VF_CURVE.nominal,
            performance=1.0,
            fit=1000.0,
            meets_target=True,
        )
        with pytest.raises(AttributeError):
            decision.performance = 2.0

    def test_dtm_decision_constructs_with_meets_target(self):
        decision = DTMDecision(
            profile_name="art",
            t_limit_k=360.0,
            op=DEFAULT_VF_CURVE.nominal,
            performance=0.93,
            peak_temperature_k=359.2,
            meets_target=True,
        )
        assert decision.meets_target


class TestOracleBatchedSelection:
    """The rewired oracles must pick exactly what the scalar loops did."""

    def test_drm_selection_matches_manual_scan(self, oracle):
        profile = workload_by_name("twolf")
        decision = oracle.best(
            profile, t_qual_k=370.0, mode=AdaptationMode.DVS
        )
        ramp = oracle.ramp_for(370.0)
        best_perf, best_op = -np.inf, None
        for _, op in oracle.candidates(AdaptationMode.DVS):
            perf, reliability, _ = oracle.evaluate_candidate(
                profile, BASE_MICROARCH, op, ramp
            )
            if reliability.meets_target and perf > best_perf:
                best_perf, best_op = perf, op
        assert decision.op == best_op
        assert decision.performance == pytest.approx(best_perf, rel=RTOL)

    def test_dtm_selection_matches_manual_scan(self, dtm_oracle):
        profile = workload_by_name("MPGdec")
        decision = dtm_oracle.best(profile, t_limit_k=365.0)
        run = dtm_oracle.cache.run(profile, BASE_MICROARCH)
        base = dtm_oracle.base_evaluation(profile)
        best_perf, best_op = -np.inf, None
        for op in dtm_oracle.vf_curve.grid(dtm_oracle.dvs_steps):
            ev = dtm_oracle.platform.evaluate(run, op)
            if (
                ev.peak_temperature_k <= 365.0 + 1e-9
                and ev.ips / base.ips > best_perf
            ):
                best_perf, best_op = ev.ips / base.ips, op
        assert best_op is not None, "pick a T_limit the grid can meet"
        assert decision.op == best_op
        assert decision.performance == pytest.approx(best_perf, rel=RTOL)
