"""Ablation A8: the cost of honouring DRM and DTM together (Section 7.3).

The paper's closing argument: DRM violates thermal limits on one side of
the crossover, DTM violates reliability on the other, so real systems
need both.  This bench runs the joint oracle next to each single policy
for the whole suite at a shared temperature knob, quantifying:

- how often each single policy's choice violates the other constraint;
- the performance premium the joint (both-satisfied) choice costs.
"""

from repro.config.microarch import BASE_MICROARCH
from repro.core.combined import JointOracle
from repro.core.drm import AdaptationMode
from repro.harness.reporting import format_table
from repro.workloads.suite import WORKLOAD_SUITE

from _bench_utils import run_once

TEMP = 370.0


def reproduce(drm_oracle, dtm_oracle):
    joint = JointOracle(
        ramp_factory=drm_oracle.ramp_for,
        platform=drm_oracle.platform,
        cache=drm_oracle.cache,
        dvs_steps=drm_oracle.dvs_steps,
    )
    ramp = drm_oracle.ramp_for(TEMP)
    rows = []
    for profile in WORKLOAD_SUITE:
        run = drm_oracle.cache.run(profile, BASE_MICROARCH)
        drm = drm_oracle.best(profile, t_qual_k=TEMP, mode=AdaptationMode.DVS)
        dtm = dtm_oracle.best(profile, t_limit_k=TEMP)
        j = joint.best(profile, t_qual_k=TEMP, t_limit_k=TEMP)
        drm_peak = drm_oracle.platform.evaluate(run, drm.op).peak_temperature_k
        dtm_fit = ramp.application_reliability(
            drm_oracle.platform.evaluate(run, dtm.op)
        ).total_fit
        rows.append(
            {
                "app": profile.name,
                "drm_f": drm.op.frequency_ghz,
                "dtm_f": dtm.op.frequency_ghz,
                "joint_f": j.op.frequency_ghz,
                "joint_perf": j.performance,
                "drm_breaks_thermal": drm_peak > TEMP + 1e-6,
                "dtm_breaks_fit": dtm_fit > drm_oracle.fit_target + 1e-6,
                "joint_ok": j.meets_target,
            }
        )
    return rows


def test_ablation_joint_policy(benchmark, emit, drm_oracle, dtm_oracle):
    rows = run_once(benchmark, lambda: reproduce(drm_oracle, dtm_oracle))
    text = format_table(
        ["App", "DRM f", "DTM f", "Joint f", "Joint perf",
         "DRM>T_limit?", "DTM>FIT?", "Joint OK"],
        [
            [r["app"], r["drm_f"], r["dtm_f"], r["joint_f"], r["joint_perf"],
             str(r["drm_breaks_thermal"]), str(r["dtm_breaks_fit"]),
             str(r["joint_ok"])]
            for r in rows
        ],
        title=f"Ablation A8: joint DRM+DTM policy at T = {TEMP:.0f} K",
    )
    emit("ablation_joint", text)

    # The joint choice is always within both constraints where feasible.
    feasible = [r for r in rows if r["joint_ok"]]
    assert len(feasible) >= 7
    for r in feasible:
        assert r["joint_f"] <= max(r["drm_f"], r["dtm_f"]) + 1e-9
        assert r["joint_f"] <= r["drm_f"] + 1e-9  # FIT cap respected
        assert r["joint_f"] <= r["dtm_f"] + 1e-9  # thermal cap respected
    # The paper's motivation: single policies DO violate the other
    # constraint somewhere in the suite.
    assert any(r["drm_breaks_thermal"] for r in rows)
