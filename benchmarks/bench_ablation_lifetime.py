"""Ablation A10: relaxing SOFR's constant-failure-rate assumption.

Section 3.5 admits the constant-rate assumption "is clearly inaccurate"
for wear-out and Section 8 promises time-dependent models.  This bench
takes each application's calibrated per-(structure, mechanism) FIT field,
replaces the exponential lifetimes with wear-out shapes of the *same
means* (Weibull beta = 2, 4; lognormal sigma = 0.5), and solves the
series system by Monte Carlo.

Expected: the exponential Monte Carlo matches the SOFR algebra (the
cross-check), and every wear-out shape yields a *longer* system MTTF —
quantifying how conservative the paper's SOFR-based FIT values are and,
by implication, how much additional DRM headroom a time-dependent model
would legitimise.
"""

import pytest

from repro.lifetime.distributions import (
    ExponentialLifetime,
    LognormalLifetime,
    WeibullLifetime,
    component_mttfs_from_account,
    series_system_mttf,
)
from repro.harness.reporting import format_table
from repro.workloads.suite import WORKLOAD_SUITE

from _bench_utils import run_once

T_QUAL = 400.0
APPS = ("MPGdec", "bzip2", "twolf")
DISTRIBUTIONS = (
    ExponentialLifetime(),
    WeibullLifetime(2.0),
    WeibullLifetime(4.0),
    LognormalLifetime(0.5),
)


def reproduce(drm_oracle):
    ramp = drm_oracle.ramp_for(T_QUAL)
    rows = []
    for name in APPS:
        profile = next(p for p in WORKLOAD_SUITE if p.name == name)
        rel = ramp.application_reliability(drm_oracle.base_evaluation(profile))
        mttfs = component_mttfs_from_account(rel.account)
        for dist in DISTRIBUTIONS:
            result = series_system_mttf(mttfs, dist, n_samples=30_000, seed=11)
            rows.append(
                {
                    "app": name,
                    "distribution": result.distribution,
                    "sofr_years": result.sofr_mttf_hours / 8760.0,
                    "mc_years": result.mttf_hours / 8760.0,
                    "ratio": result.sofr_conservatism,
                }
            )
    return rows


def test_ablation_lifetime_distributions(benchmark, emit, drm_oracle):
    rows = run_once(benchmark, lambda: reproduce(drm_oracle))
    text = format_table(
        ["App", "Lifetime model", "SOFR MTTF (yr)", "MC MTTF (yr)", "MC/SOFR"],
        [
            [r["app"], r["distribution"], r["sofr_years"], r["mc_years"], r["ratio"]]
            for r in rows
        ],
        title=f"Ablation A10: series-system MTTF under time-dependent lifetimes "
        f"(qualified at {T_QUAL:.0f}K)",
    )
    emit("ablation_lifetime", text)

    for r in rows:
        if r["distribution"] == "exponential":
            # The MC solver reproduces the SOFR algebra under SOFR's own
            # assumption.
            assert r["ratio"] == pytest.approx(1.0, rel=0.03), r["app"]
        else:
            # Wear-out shapes: SOFR is conservative.
            assert r["ratio"] > 1.1, (r["app"], r["distribution"])
    # Steeper wear-out = more conservatism, for every app.
    for name in APPS:
        b2 = next(r for r in rows if r["app"] == name and "beta=2" in r["distribution"])
        b4 = next(r for r in rows if r["app"] == name and "beta=4" in r["distribution"])
        assert b4["ratio"] > b2["ratio"]

