"""Interval-domain soundness: the abstract result contains the concrete.

The property every transfer function must satisfy is containment: for
any concrete operands drawn from the abstract operands, the concrete
result lies inside the abstract result.  Hypothesis drives the operand
and point generation; ``Interval.contains`` is queried with a small
relative tolerance because the interpreter's bounds are computed in the
same floats as the concrete arithmetic (a corner product can round the
other way).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.intervals import (
    Interval,
    exp_interval,
    log_interval,
    pow_interval,
    range_to_interval,
    sqrt_interval,
)

REL_TOL = 1e-9

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    lo, hi = min(a, b), max(a, b)
    lo_open = draw(st.booleans()) and lo < hi
    hi_open = draw(st.booleans()) and lo < hi
    return Interval(lo, hi, lo_open=lo_open, hi_open=hi_open)


@st.composite
def interval_with_point(draw):
    """An interval plus a concrete member of it.

    The point is drawn over the closed hull first; open flags are then
    only set on a bound the point does not sit on, so the pair is
    consistent even for intervals too narrow to have interior floats.
    """
    a = draw(finite)
    b = draw(finite)
    lo, hi = min(a, b), max(a, b)
    x = draw(
        st.floats(
            min_value=lo, max_value=hi,
            allow_nan=False, allow_infinity=False,
        )
    )
    lo_open = draw(st.booleans()) and x > lo
    hi_open = draw(st.booleans()) and x < hi
    return Interval(lo, hi, lo_open=lo_open, hi_open=hi_open), x


class TestArithmeticSoundness:
    @given(interval_with_point(), interval_with_point())
    def test_add(self, a, b):
        (ia, x), (ib, y) = a, b
        assert ia.add(ib).contains(x + y, rel_tol=REL_TOL)

    @given(interval_with_point(), interval_with_point())
    def test_sub(self, a, b):
        (ia, x), (ib, y) = a, b
        assert ia.sub(ib).contains(x - y, rel_tol=REL_TOL)

    @given(interval_with_point(), interval_with_point())
    def test_mul(self, a, b):
        (ia, x), (ib, y) = a, b
        assert ia.mul(ib).contains(x * y, rel_tol=REL_TOL)

    @given(interval_with_point())
    def test_neg_and_abs(self, a):
        iv, x = a
        assert iv.neg().contains(-x, rel_tol=REL_TOL)
        assert iv.abs().contains(abs(x), rel_tol=REL_TOL)

    @given(interval_with_point(), interval_with_point())
    def test_min_max(self, a, b):
        (ia, x), (ib, y) = a, b
        assert ia.min(ib).contains(min(x, y), rel_tol=REL_TOL)
        assert ia.max(ib).contains(max(x, y), rel_tol=REL_TOL)

    @given(interval_with_point(), interval_with_point())
    def test_division_when_defined(self, a, b):
        (ia, x), (ib, y) = a, b
        quotient = ia.div(ib)
        if quotient is None:
            # The divisor interval may span zero; nothing to check.
            return
        if y == 0.0:  # repro: ignore[RPR004] exact-zero divisor sentinel
            return
        assert quotient.contains(x / y, rel_tol=REL_TOL)

    @given(interval_with_point())
    def test_reciprocal_when_defined(self, a):
        iv, x = a
        recip = iv.reciprocal()
        # repro: ignore[RPR004] exact-zero divisor sentinel
        if recip is None or x == 0.0:
            return
        assert recip.contains(1.0 / x, rel_tol=REL_TOL)


class TestTranscendentalSoundness:
    @given(interval_with_point())
    def test_exp(self, a):
        iv, x = a
        try:
            concrete = math.exp(x)
        except OverflowError:
            concrete = math.inf
        assert exp_interval(iv).contains(concrete, rel_tol=REL_TOL)

    @given(interval_with_point())
    def test_log(self, a):
        iv, x = a
        out = log_interval(iv)
        if x <= 0.0:
            return
        assert out is not None
        assert out.contains(math.log(x), rel_tol=REL_TOL)

    @given(interval_with_point())
    def test_sqrt(self, a):
        iv, x = a
        out = sqrt_interval(iv)
        if x < 0.0:
            return
        assert out is not None
        assert out.contains(math.sqrt(x), rel_tol=REL_TOL)

    @given(interval_with_point(), st.floats(min_value=-6.0, max_value=6.0,
                                            allow_nan=False))
    def test_pow_nonnegative_base(self, a, exponent):
        iv, x = a
        if x < 0.0:
            return
        out = pow_interval(iv, Interval.point(exponent))
        if out is None:
            return
        try:
            concrete = x ** exponent
        except (OverflowError, ZeroDivisionError):
            return
        if isinstance(concrete, complex) or math.isnan(concrete):
            return
        assert out.contains(concrete, rel_tol=REL_TOL)


class TestLatticeLaws:
    @given(interval_with_point(), intervals())
    def test_union_contains_both_sides(self, a, other):
        iv, x = a
        assert iv.union(other).contains(x, rel_tol=REL_TOL)
        assert other.union(iv).contains(x, rel_tol=REL_TOL)

    @given(interval_with_point(), interval_with_point())
    def test_intersect_of_overlap_keeps_common_points(self, a, b):
        (ia, x), (ib, _) = a, b
        if ib.contains(x):
            assert ia.intersect(ib).contains(x, rel_tol=REL_TOL)

    @given(interval_with_point(), interval_with_point(), interval_with_point())
    def test_clip_soundness(self, a, lo, hi):
        (iv, x), (ilo, lo_pt), (ihi, hi_pt) = a, lo, hi
        clipped = min(max(x, lo_pt), hi_pt)
        assert iv.clip(ilo, ihi).contains(clipped, rel_tol=REL_TOL)


class TestIntervalBasics:
    def test_point_and_contains(self):
        p = Interval.point(3.0)
        assert p.is_point
        assert p.contains(3.0)
        assert not p.contains(3.0000001)

    def test_open_bounds_exclude_endpoints(self):
        iv = Interval(0.0, 1.0, lo_open=True)
        assert not iv.contains(0.0)
        assert iv.contains(0.5)
        assert iv.contains(1.0)
        assert iv.contains_zero() is False

    def test_reciprocal_none_across_zero(self):
        assert Interval(-1.0, 1.0).reciprocal() is None
        assert Interval(0.0, 1.0).reciprocal() is None  # closed at zero
        recip = Interval(0.0, 1.0, lo_open=True).reciprocal()
        assert recip is not None
        # repro: ignore[RPR004] bounds are copied exactly, not computed
        assert recip.lo == 1.0 and recip.hi > 0 and math.isinf(recip.hi)

    def test_exp_reaches_zero_and_inf_closed(self):
        # IEEE under/overflow make 0.0 and inf *reachable* outputs of
        # np.exp, so the abstract image must include them.
        out = exp_interval(None)
        # repro: ignore[RPR004] sentinel bounds are exact by construction
        assert out.lo == 0.0 and not out.lo_open
        assert math.isinf(out.hi) and out.hi > 0 and not out.hi_open

    def test_sqrt_keeps_strict_positivity(self):
        # sqrt of a strictly-positive value cannot underflow to zero.
        out = sqrt_interval(Interval(0.0, math.inf, lo_open=True))
        # repro: ignore[RPR004] sentinel bound is exact by construction
        assert out.lo == 0.0 and out.lo_open

    def test_contains_nan_is_vacuous(self):
        assert Interval(0.0, 1.0).contains(float("nan"))

    def test_div_by_subnormal_rounds_lower_bound_down(self):
        # Regression: 1/2.225e-311 overflows to inf, and using that as
        # the LOWER bound of the reciprocal made div lose the finite
        # quotients of subnormal divisors.
        num = Interval(0.00390625, 1.0)
        den = Interval.point(2.225073858507e-311)
        out = num.div(den)
        assert out is not None
        assert out.contains(0.00390625 / 2.225073858507e-311)
        assert math.isinf(out.hi) and out.hi > 0


class TestRangeToInterval:
    def test_closed_range(self):
        iv = range_to_interval([200.0, 500.0])
        # repro: ignore[RPR004] bounds are copied exactly, not computed
        assert iv.lo == 200.0 and iv.hi == 500.0
        assert not iv.lo_open and not iv.hi_open

    def test_strict_lower_bound(self):
        iv = range_to_interval([0.0, None, True])
        # repro: ignore[RPR004] bound is copied exactly, not computed
        assert iv.lo == 0.0 and iv.lo_open
        assert math.isinf(iv.hi) and iv.hi > 0 and iv.hi_open

    def test_unbounded_sides(self):
        iv = range_to_interval([None, 10.0])
        assert math.isinf(iv.lo) and iv.lo < 0 and iv.lo_open
        # repro: ignore[RPR004] bound is copied exactly, not computed
        assert iv.hi == 10.0 and not iv.hi_open

    def test_none_range(self):
        assert range_to_interval(None) is None


@settings(max_examples=200)
@given(interval_with_point(), interval_with_point())
def test_composed_expression_soundness(a, b):
    """A chained abstract evaluation stays sound end to end."""
    (ia, x), (ib, y) = a, b
    abstract = exp_interval(ia.sub(ib).mul(Interval.point(1e-3)))
    try:
        concrete = math.exp((x - y) * 1e-3)
    except OverflowError:
        concrete = math.inf
    assert abstract.contains(concrete, rel_tol=1e-6)
