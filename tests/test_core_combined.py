"""Tests for the joint DRM+DTM oracle."""

import pytest

from repro.core.combined import JointOracle
from repro.core.drm import AdaptationMode
from repro.workloads.suite import workload_by_name

BZIP2 = workload_by_name("bzip2")
MPG = workload_by_name("MPGdec")
TWOLF = workload_by_name("twolf")


@pytest.fixture(scope="module")
def joint(oracle, platform, test_cache):
    return JointOracle(
        ramp_factory=oracle.ramp_for,
        platform=platform,
        cache=test_cache,
        dvs_steps=11,
    )


class TestJointFeasibility:
    def test_feasible_choice_satisfies_both(self, joint):
        d = joint.best(BZIP2, t_qual_k=380.0, t_limit_k=380.0)
        assert d.meets_target
        assert d.fit <= joint.fit_target + 1e-6
        assert d.peak_temperature_k <= 380.0 + 1e-6

    def test_joint_never_exceeds_either_single_policy(self, joint, oracle, dtm_oracle):
        """Intersection of feasible sets: joint f <= min(DRM f, DTM f)."""
        for temp in (360.0, 380.0, 400.0):
            j = joint.best(BZIP2, t_qual_k=temp, t_limit_k=temp)
            drm = oracle.best(BZIP2, t_qual_k=temp, mode=AdaptationMode.DVS)
            dtm = dtm_oracle.best(BZIP2, t_limit_k=temp)
            if j.meets_target and drm.meets_target and dtm.meets_target:
                assert j.op.frequency_hz <= drm.op.frequency_hz + 1e3
                assert j.op.frequency_hz <= dtm.op.frequency_hz + 1e3

    def test_binding_constraint_flips_with_regime(self, joint, oracle, dtm_oracle):
        """Below the crossover the thermal cap binds (joint == DTM);
        above it the reliability budget binds (joint == DRM)."""
        cool = joint.best(BZIP2, t_qual_k=345.0, t_limit_k=345.0)
        dtm_cool = dtm_oracle.best(BZIP2, t_limit_k=345.0)
        assert cool.op.frequency_hz == pytest.approx(dtm_cool.op.frequency_hz)
        hot = joint.best(BZIP2, t_qual_k=400.0, t_limit_k=400.0)
        drm_hot = oracle.best(BZIP2, t_qual_k=400.0, mode=AdaptationMode.DVS)
        assert hot.op.frequency_hz == pytest.approx(drm_hot.op.frequency_hz)

    def test_asymmetric_knobs(self, joint):
        """T_qual and T_limit are independent knobs: a loose thermal cap
        with a tight reliability budget behaves like pure DRM."""
        d = joint.best(TWOLF, t_qual_k=360.0, t_limit_k=420.0)
        assert d.meets_thermal  # the loose cap never binds
        assert d.fit <= joint.fit_target + 1e-6

    def test_infeasible_pair_reports_violations(self, joint):
        d = joint.best(MPG, t_qual_k=325.0, t_limit_k=326.0)
        assert not d.meets_target
        # The least-violating point is at (or near) the DVS floor.
        assert d.op.frequency_hz <= 3.0e9

    def test_performance_monotone_in_joint_relaxation(self, joint):
        tight = joint.best(BZIP2, t_qual_k=350.0, t_limit_k=350.0)
        loose = joint.best(BZIP2, t_qual_k=400.0, t_limit_k=400.0)
        assert loose.performance >= tight.performance
