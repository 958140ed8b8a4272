"""Property-based tests (hypothesis) on core invariants.

Covers the algebraic backbone of the library: FIT/MTTF algebra, SOFR
additivity, failure-model monotonicity, qualification self-consistency,
cache/LRU invariants, the reliability bank, and the frequency-scaling
model.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.core.budget import ReliabilityBudget
from repro.core.failure import (
    ALL_MECHANISMS,
    Electromigration,
    StressConditions,
    ThermalCycling,
    TimeDependentDielectricBreakdown,
)
from repro.core.fit import FitAccount
from repro.core.qualification import QualificationPoint, calibrate
from repro.cpu.analytical import FrequencyScalingModel
from repro.cpu.branch import BimodalAgreePredictor
from repro.cpu.caches import Cache
from tests.conftest import uniform_activity

temps = st.floats(min_value=320.0, max_value=420.0)
volts = st.floats(min_value=0.7, max_value=1.3)
freqs = st.floats(min_value=1.0e9, max_value=6.0e9)
acts = st.floats(min_value=0.01, max_value=1.0)


def cond(t, v=1.0, f=4.0e9, p=0.5):
    return StressConditions(temperature_k=t, voltage_v=v, frequency_hz=f, activity=p)


class TestFitAlgebraProperties:
    @given(st.floats(min_value=1e-3, max_value=1e12))
    def test_fit_mttf_inversion(self, mttf):
        assert constants.mttf_hours_to_fit(
            constants.fit_to_mttf_hours(mttf)
        ) == pytest.approx(mttf, rel=1e-12)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20))
    def test_sofr_total_at_least_max_component(self, fits):
        account = FitAccount({("EM", f"s{i}"): v for i, v in enumerate(fits)})
        assert account.total >= max(fits) - 1e-9

    @given(
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_time_average_between_extremes(self, a, b, w):
        lo, hi = sorted((a, b))
        acc_a = FitAccount({("EM", "x"): a})
        acc_b = FitAccount({("EM", "x"): b})
        merged = FitAccount.weighted_average([(acc_a, w), (acc_b, 1.0 - w)])
        assert lo - 1e-9 <= merged.entries[("EM", "x")] <= hi + 1e-9


class TestFailureModelProperties:
    @given(t1=temps, t2=temps, v=volts)
    def test_all_mechanisms_monotone_in_temperature(self, t1, t2, v):
        """Hotter is never more reliable — within the qualified domain.

        The domain matters (see docs/MODELING.md): TDDB's voltage
        acceleration exponent (a - b*T) shrinks with temperature, so for
        supply voltages above the qualified window (V >~ 1.4) its FIT is
        legitimately *non*-monotone in T; ``volts`` stays inside the
        qualified [0.7, 1.3] V range where monotonicity is a real model
        property.  The comparison is relative because stress migration's
        two opposing temperature effects (Arrhenius vs |T_metal - T|
        stress) nearly cancel near equal temperatures, leaving only
        float rounding noise.
        """
        if t1 == t2:
            return
        lo, hi = sorted((t1, t2))
        for mech in ALL_MECHANISMS:
            fit_lo = mech.relative_fit(cond(lo, v=v))
            fit_hi = mech.relative_fit(cond(hi, v=v))
            assert fit_hi >= fit_lo * (1.0 - 1e-9), (mech.name, lo, hi, v)

    def test_tddb_non_monotone_in_temperature_above_qualified_voltage(self):
        """Outside the qualified window the TDDB nuance is real, not a bug.

        At V = 1.8 the (1/V)^(a - b*T) term dominates: the voltage
        exponent falls with temperature, so FIT *decreases* with T over
        part of the range.  This pins the model behaviour the monotone
        test above deliberately excludes.
        """
        tddb = TimeDependentDielectricBreakdown()
        fits = [tddb.relative_fit(cond(t, v=1.8)) for t in (320.0, 340.0, 360.0)]
        assert any(b < a for a, b in zip(fits, fits[1:]))

    @given(p1=acts, p2=acts)
    def test_em_monotone_in_activity(self, p1, p2):
        if p1 == p2:
            return
        lo, hi = sorted((p1, p2))
        em = Electromigration()
        assert em.relative_fit(cond(360.0, p=hi)) >= em.relative_fit(cond(360.0, p=lo))

    @given(v1=volts, v2=volts, t=temps)
    def test_tddb_monotone_in_voltage(self, v1, v2, t):
        if v1 == v2:
            return
        lo, hi = sorted((v1, v2))
        tddb = TimeDependentDielectricBreakdown()
        assert tddb.relative_fit(cond(t, v=hi)) >= tddb.relative_fit(cond(t, v=lo))

    @given(t=temps, v=volts, f=freqs, p=acts)
    def test_relative_fit_always_non_negative_finite(self, t, v, f, p):
        for mech in ALL_MECHANISMS:
            fit = mech.relative_fit(cond(t, v=v, f=f, p=p))
            assert fit >= 0.0
            assert math.isfinite(fit)

    @given(t=temps)
    def test_thermal_cycling_depends_only_on_temperature(self, t):
        tc = ThermalCycling()
        assert tc.relative_mttf(cond(t, v=0.8, f=2e9, p=0.1)) == tc.relative_mttf(
            cond(t, v=1.2, f=5e9, p=0.9)
        )


class TestQualificationProperties:
    @settings(deadline=None, max_examples=25)
    @given(t=st.floats(min_value=330.0, max_value=410.0))
    def test_qual_point_always_meets_target_exactly(self, t):
        from repro.config.technology import DEFAULT_TECHNOLOGY, STRUCTURES
        point = QualificationPoint(t, 1.0, 4.0e9, activity=uniform_activity(0.7))
        model = calibrate(point)
        total = 0.0
        for mech in ALL_MECHANISMS:
            for spec in STRUCTURES:
                c = point.conditions_for(spec.name, DEFAULT_TECHNOLOGY)
                total += 1e9 * mech.relative_fit(c) / model.constant(mech.name, spec.name)
        assert total == pytest.approx(constants.TARGET_FIT, rel=1e-9)

    @settings(deadline=None, max_examples=15)
    @given(
        t_lo=st.floats(min_value=330.0, max_value=360.0),
        delta=st.floats(min_value=5.0, max_value=50.0),
    )
    def test_constants_monotone_in_tqual(self, t_lo, delta):
        lo = calibrate(QualificationPoint(t_lo, 1.0, 4e9, activity=uniform_activity(0.7)))
        hi = calibrate(QualificationPoint(t_lo + delta, 1.0, 4e9, activity=uniform_activity(0.7)))
        for key in lo.constants:
            assert hi.constants[key] >= lo.constants[key]


class TestCacheProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = Cache("c", 16 * 64, 4)  # 4 sets x 4 ways
        for a in addrs:
            cache.lookup(a)
        total = sum(len(ways) for ways in cache._tags)
        assert total <= 16

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache = Cache("c", 8 * 64, 2)
        for a in addrs:
            cache.lookup(a)
        assert cache.hits + cache.misses == len(addrs)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=100))
    def test_immediate_relookup_always_hits(self, addrs):
        cache = Cache("c", 8 * 64, 2)
        for a in addrs:
            cache.lookup(a)
            assert cache.lookup(a) is True

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1 << 20), st.booleans()),
            min_size=1,
            max_size=300,
        )
    )
    def test_predictor_rate_bounded(self, stream):
        p = BimodalAgreePredictor()
        for pc, taken in stream:
            p.update(pc, taken)
        assert 0 <= p.mispredicts <= p.lookups
        assert p.lookups == len(stream)


class TestBudgetProperties:
    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20000.0),
                st.floats(min_value=0.1, max_value=100.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_bank_identity(self, episodes):
        b = ReliabilityBudget(fit_target=4000.0, horizon_hours=1e9)
        for fit, hours in episodes:
            b.record(fit, hours)
        assert b.banked == pytest.approx(b.allowed - b.consumed)
        assert b.on_track == (b.average_fit <= 4000.0 + 1e-6)

    @settings(deadline=None, max_examples=50)
    @given(
        st.floats(min_value=0.0, max_value=8000.0),
        st.floats(min_value=1.0, max_value=1000.0),
    )
    def test_sustainable_rate_consistency(self, fit, hours):
        b = ReliabilityBudget(fit_target=4000.0, horizon_hours=10_000.0)
        b.record(fit, hours)
        sustainable = b.sustainable_fit()
        # Spending the rest of the horizon at the sustainable rate lands
        # exactly on (or under, when clamped at 0) the lifetime budget.
        total = b.consumed + sustainable * (b.horizon_hours - b.elapsed_hours)
        assert total <= 4000.0 * b.horizon_hours + 1e-6


class TestFrequencyScalingProperties:
    @settings(deadline=None, max_examples=50)
    @given(
        core=st.floats(min_value=0.05, max_value=5.0),
        mem=st.floats(min_value=0.0, max_value=5.0),
        f1=freqs,
        f2=freqs,
    )
    def test_ips_monotone(self, core, mem, f1, f2):
        if f1 == f2:
            return
        lo, hi = sorted((f1, f2))
        m = FrequencyScalingModel(core, mem, 4.0e9)
        assert m.ips_at(hi) >= m.ips_at(lo)

    @pytest.mark.parametrize("core", [0.05, 0.1])
    def test_ips_monotone_across_one_ulp(self, core):
        # f / (cpi_core + cpi_mem * f / f_base) loses an ulp here: the
        # higher clock gave fewer instructions per second.
        m = FrequencyScalingModel(core, 1.0, 4.0e9)
        lo = 1.0e9
        hi = math.nextafter(lo, math.inf)
        assert m.ips_at(hi) >= m.ips_at(lo)

    @settings(deadline=None, max_examples=50)
    @given(core=st.floats(min_value=0.05, max_value=5.0), mem=st.floats(min_value=0.0, max_value=5.0), f=freqs)
    def test_speedup_bounded_by_clock_ratio(self, core, mem, f):
        m = FrequencyScalingModel(core, mem, 4.0e9)
        speedup = m.speedup(f)
        ratio = f / 4.0e9
        if ratio >= 1.0:
            assert speedup <= ratio + 1e-9
            assert speedup >= 1.0 - 1e-9
        else:
            assert speedup >= ratio - 1e-9
            assert speedup <= 1.0 + 1e-9
