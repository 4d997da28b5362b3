"""Interval kernel: examples, soundness properties, width control."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st
from mpmath import mp, mpf

from khintchine.interval import (
    EULER_GAMMA,
    HALF_PI,
    PI,
    SQRT2,
    TWO_PI,
    DomainError,
    Interval,
    IntervalError,
    exp_sum,
    imin,
    pow_real,
)


@pytest.fixture(autouse=True)
def _mp_precision():
    # every test runs at 64 digits (4x working precision), restored afterwards
    with mp.workdps(64):
        yield


def test_construction_rejects_bad_endpoints():
    with pytest.raises(IntervalError):
        Interval(2.0, 1.0)
    with pytest.raises(IntervalError):
        Interval(float("nan"), 1.0)


def test_arith_examples():
    assert (Interval(1, 1) + Interval(2, 2)).contains(3.0)
    prod = Interval(-1, 2) * Interval(3, 3)
    assert prod.contains(-3.0) and prod.contains(6.0)
    third = Interval(1, 1) / Interval(3, 3)
    assert third.contains(1.0 / 3.0)
    assert third.width <= 2 * math.ulp(1.0 / 3.0)


def test_division_by_zero_interval():
    with pytest.raises(DomainError):
        Interval(1, 1) / Interval(-1, 1)


def test_elem_examples():
    assert Interval(0, 0).cos().contains(1.0)
    assert Interval(1, 1).arccos().contains(0.0)
    ln2 = Interval(2, 2).ln()
    assert ln2.contains(0.6931471805599453)
    assert ln2.width <= 1e-12
    ac = Interval(0.97, 0.97).arccos()
    assert ac.contains(float(mp.acos(mpf("0.97"))))
    assert abs(ac.mid - 0.245565517515292) < 1e-12


def test_pow_real_examples():
    two = pow_real(Interval(4, 4), Interval(0.5, 0.5))
    assert two.contains(2.0) and two.width <= 1e-12
    sq = pow_real(Interval(0, 1), Interval(2, 2))
    assert sq.lo == 0.0 and sq.contains(1.0) and sq.hi <= 1.0 + 1e-12
    v = pow_real(Interval(0.5, 0.5), SQRT2)
    assert v.contains(float(mpf("0.5") ** mp.sqrt(2)))


def test_pow_real_unbounded_base_contains_samples():
    # on [2, inf) the exponent range [-1, 1] reaches every value in (0, inf):
    # x**-1 tends to 0 as x grows, and x**1 grows without bound
    enc = pow_real(Interval(2, math.inf), Interval(-1, 1))
    for x in (2.0, 3.0, 1e3, 1e6, 1e300):
        for sigma in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert enc.contains(x**sigma), (x, sigma)


def test_pow_real_domain():
    with pytest.raises(DomainError):
        pow_real(Interval(-1, 1), Interval(2, 2))
    with pytest.raises(DomainError):
        pow_real(Interval(0, 1), Interval(-1, 1))


def test_constants_contain_truth():
    assert PI.contains(float(mp.pi)) and PI.width <= 1e-15
    assert TWO_PI.lo < float(2 * mp.pi) < TWO_PI.hi
    assert HALF_PI.lo < float(mp.pi / 2) < HALF_PI.hi
    assert EULER_GAMMA.lo < float(mp.euler) < EULER_GAMMA.hi
    assert SQRT2.lo <= float(mp.sqrt(2)) <= SQRT2.hi


def test_integer_powers():
    assert (Interval(-1, 2) ** 2).lo == 0.0
    assert (Interval(-1, 2) ** 2).contains(4.0)
    assert (Interval(-3, -2) ** 2).contains(9.0)
    assert (Interval(2, 2) ** -1).contains(0.5)


def _rand_interval(rng, lo=-10.0, hi=10.0):
    a = rng.uniform(lo, hi)
    b = a + abs(rng.uniform(0.0, 2.0))
    return Interval(a, b)


def test_inclusion_isotonicity():
    rng = random.Random(7)
    for _ in range(4000):
        a = _rand_interval(rng)
        b = _rand_interval(rng)
        a_big = Interval(a.lo - 0.5, a.hi + 0.5)
        b_big = Interval(b.lo - 0.5, b.hi + 0.5)
        for op in (operator.add, operator.sub, operator.mul):
            assert op(a_big, b_big).encloses(op(a, b))
        if b.lo > 0.6:  # keep the widened divisor away from zero
            assert operator.truediv(a_big, b_big).encloses(operator.truediv(a, b))


def test_imin_encloses_pointwise_minimum():
    # for every choice of points x_i in the boxes, min_i x_i lies in imin
    rng = random.Random(17)
    for _ in range(2000):
        boxes = [_rand_interval(rng) for _ in range(rng.randint(1, 5))]
        m = imin(boxes)
        assert m.lo == min(b.lo for b in boxes) and m.hi == min(b.hi for b in boxes)
        for _ in range(5):
            pts = [min(max(rng.uniform(b.lo, b.hi), b.lo), b.hi) for b in boxes]
            assert m.contains(min(pts))
        assert m.contains(min(b.lo for b in boxes))


def test_imin_signed_zero_tie():
    # of equal ends the first item's wins, as with the builtin min
    neg_first = imin([Interval(-0.0, 1.0), Interval(0.0, 1.0)])
    pos_first = imin([Interval(0.0, 1.0), Interval(-0.0, 1.0)])
    assert math.copysign(1.0, neg_first.lo) == -1.0
    assert math.copysign(1.0, pos_first.lo) == 1.0
    assert imin([Interval(-1.0, -0.0), Interval(-2.0, 0.0)]).hi.hex() == (-0.0).hex()
    assert imin([Interval(-1.0, 0.0), Interval(-2.0, -0.0)]).hi.hex() == (0.0).hex()


def test_point_containment_arith_exact_rationals():
    # exact rational reference for the four basic operations, 10^5 samples
    rng = random.Random(123)
    for i in range(100_000):
        x = rng.uniform(-50.0, 50.0)
        y = rng.uniform(-50.0, 50.0)
        fx, fy = Fraction(x), Fraction(y)
        kind = i % 4
        if kind == 0:
            enc, exact = Interval(x, x) + Interval(y, y), fx + fy
        elif kind == 1:
            enc, exact = Interval(x, x) - Interval(y, y), fx - fy
        elif kind == 2:
            enc, exact = Interval(x, x) * Interval(y, y), fx * fy
        else:
            if abs(y) < 1e-6:
                continue
            enc, exact = Interval(x, x) / Interval(y, y), fx / fy
        assert Fraction(enc.lo) <= exact <= Fraction(enc.hi)


def _encloses_mpf(enc: Interval, truth) -> bool:
    # endpoint comparison in mpmath: the truth is never rounded to a float
    return mpf(enc.lo) <= truth <= mpf(enc.hi)


def test_point_containment_elem_highprec():
    rng = random.Random(99)
    with mp.workdps(50):
        for _ in range(1500):
            x = rng.uniform(-20.0, 20.0)
            xi = Interval(x, x)
            assert _encloses_mpf(xi.exp(), mp.exp(mpf(x)))
            assert _encloses_mpf(xi.sin(), mp.sin(mpf(x)))
            assert _encloses_mpf(xi.cos(), mp.cos(mpf(x)))
            if x > 1e-6:
                assert _encloses_mpf(xi.ln(), mp.log(mpf(x)))
                assert _encloses_mpf(xi.sqrt(), mp.sqrt(mpf(x)))
            if -1.0 <= x <= 1.0:
                assert _encloses_mpf(xi.arccos(), mp.acos(mpf(x)))
        # exponent sampling for pow_real
        for _ in range(1500):
            x = rng.uniform(1e-3, 30.0)
            s = rng.uniform(-4.0, 4.0)
            enc = pow_real(Interval(x, x), Interval(s, s))
            assert _encloses_mpf(enc, mp.power(mpf(x), mpf(s)))


def test_point_containment_large_trig_args():
    rng = random.Random(5)
    for _ in range(800):
        x = rng.uniform(-1e4, 1e4)
        xi = Interval(x, x)
        assert xi.cos().contains(float(mp.cos(mpf(x))))
        assert xi.sin().contains(float(mp.sin(mpf(x))))


def test_trig_extrema_over_inclusion():
    # a maximum inside the interval must push the bound to 1 / -1
    c = Interval(-0.1, 0.1).cos()
    assert c.hi == 1.0
    s = Interval(1.4, 1.8).sin()
    assert s.hi == 1.0
    c2 = Interval(3.0, 3.3).cos()
    assert c2.lo == -1.0


def test_width_control_points():
    rng = random.Random(11)
    for _ in range(2000):
        x = rng.uniform(-30.0, 30.0)
        y = rng.uniform(-30.0, 30.0)
        w = (Interval(x, x) * Interval(y, y)).width
        assert w <= 8 * math.ulp(abs(x * y) + 1e-300)
    for _ in range(500):
        x = rng.uniform(0.1, 30.0)
        for fn in ("exp", "ln", "sqrt", "cos", "sin"):
            enc = getattr(Interval, fn)(Interval(x, x))
            scale = max(abs(enc.lo), abs(enc.hi), 1e-300)
            assert enc.width / scale <= 1e-12 or enc.width <= 1e-15


def test_elem_domain_errors():
    with pytest.raises(DomainError):
        Interval(-1, 1).ln()
    with pytest.raises(DomainError):
        Interval(-2, -1).sqrt()
    with pytest.raises(DomainError):
        Interval(0.5, 1.5).arccos()


# -- kernel sums: containment of the mpmath value at the box's points ---------


def _within(enc, truth):
    return mpf(enc.lo) <= truth <= mpf(enc.hi)


@seed(1)
@settings(max_examples=25, deadline=None)
@given(
    s_lo=st.floats(-4.0, -1.0),
    width=st.sampled_from([0.0, 1e-12, 1e-3, 0.5]),
    K=st.integers(2, 2000),
)
def test_exp_sum_contains_mpmath(s_lo, width, K):
    # zeta_sum's partial sum 1 + sum_{k=2}^K exp(s ln k) over an s-box
    s = Interval(s_lo, min(s_lo + width, -1.0))
    ln_k = [Interval(k).ln() for k in range(2, K + 1)]
    enc = exp_sum(s, [x.lo for x in ln_k], [x.hi for x in ln_k], Interval(1.0))
    with mp.workdps(50):
        for end in (s.lo, s.hi):
            truth = 1 + mp.fsum(mpf(k) ** mpf(end) for k in range(2, K + 1))
            assert _within(enc, truth), (s, K, end)


@seed(2)
@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(2.0, 3.0),
    a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    width=st.sampled_from([0.0, 1e-12, 1e-3]),
    K=st.integers(1, 32),
)
def test_pow_real_contains_mpmath(p, a, width, K):
    # the powers in f_star's partial sum, a^s and (k pi -+ a)^s for k <= K,
    # s = -p, over a (p, a)-box; x^s is monotone in x and in s, so its range
    # over a box is the hull of its values at the corners
    s = Interval(-(p + width), -p)
    a_box = Interval(a, a * (1.0 + width))
    bases = [a_box]
    for k in range(1, K + 1):
        bases += [PI * k - a_box, PI * k + a_box]
    with mp.workdps(50):
        for x in bases:
            enc = pow_real(x, s)
            for s_end in (s.lo, s.hi):
                for x_end in (x.lo, x.hi):
                    truth = mpf(x_end) ** mpf(s_end)
                    assert _within(enc, truth), (x, s, x_end, s_end)
