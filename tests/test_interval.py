"""Interval kernel: examples, soundness properties, width control."""

import math
import operator
import random
from fractions import Fraction

import pytest
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
    pow_real,
)

mp.dps = 64  # 4x working precision


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


def test_point_containment_elem_highprec():
    rng = random.Random(99)
    for _ in range(1500):
        x = rng.uniform(-20.0, 20.0)
        xi = Interval(x, x)
        assert xi.exp().contains(float(mp.exp(mpf(x))))
        assert xi.sin().contains(float(mp.sin(mpf(x))))
        assert xi.cos().contains(float(mp.cos(mpf(x))))
        if x > 1e-6:
            assert xi.ln().contains(float(mp.log(mpf(x))))
            assert xi.sqrt().contains(float(mp.sqrt(mpf(x))))
        if -1.0 <= x <= 1.0:
            assert xi.arccos().contains(float(mp.acos(mpf(x))))
    # exponent sampling for pow_real
    for _ in range(1500):
        x = rng.uniform(1e-3, 30.0)
        s = rng.uniform(-4.0, 4.0)
        enc = pow_real(Interval(x, x), Interval(s, s))
        assert enc.contains(float(mp.power(mpf(x), mpf(s))))


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
