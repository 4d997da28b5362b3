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
    TRIG_ARG_LIMIT,
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


# -- the exact range, and the documented accuracy -----------------------------
#
# Every result must contain the exact range of its operation over the reals in
# its operands (IEEE 1788-2015's containment), the reference being exact:
# Fraction for + - * / and integer powers, mpmath at 64 digits for the rest.
# Tightness is stated once, as interval's module docstring states it: an end
# lies at most STEPS[op] floats outward of the exact end rounded to nearest;
# for pow_real, within POW_REAL_REL * (1 + |sigma ln x|) of it, relatively,
# plus POW_REAL_ABS.  Intervals are sets of reals, so [inf, inf] and
# [-inf, -inf] are no operands here; unbounded ends are.

TINY = 5e-324
MIN_NORMAL = 2.2250738585072014e-308
MAX = 1.7976931348623157e308
INF = math.inf
LIBM_STEPS = 1  # libm's exp, log, cos, sin, acos and pow are faithful
# ELEM_ULPS (4) written out, not read from the kernel, so that a changed
# widening fails here; plus libm's error
ELEM_STEPS = 4 + LIBM_STEPS
STEPS = {"__neg__": 0, "abs": 0, "sqrt": 1, "exp": ELEM_STEPS, "ln": ELEM_STEPS,
         "cos": ELEM_STEPS, "sin": ELEM_STEPS, "arccos": ELEM_STEPS}
ARITH_STEPS = 1  # + - * /: round to nearest, then one float outward
POW_REAL_REL = (ELEM_STEPS + 2) * 2.0**-52
POW_REAL_ABS = 2 * ELEM_STEPS * TINY


def _step(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, INF if n > 0 else -INF)
    return x


def _rn(v) -> float:
    """An exact value (Fraction, mpf or an infinite float) rounded to nearest."""
    if isinstance(v, float):
        return v
    if isinstance(v, mpf):
        if not mp.isfinite(v):
            return float(v)
        sign, man, exp, bits = v._mpf_
        if exp + bits < -1100:
            return 0.0
        if exp > 1100:
            return INF if v > 0 else -INF
        v = Fraction((-1) ** sign * man) * Fraction(2) ** exp
    try:
        return float(v)
    except OverflowError:
        return INF if v > 0 else -INF


def _holds(enc, lo, hi, steps):
    """enc contains [lo, hi], each end at most `steps` floats outside the
    rounded exact end (steps None: containment only)."""
    assert enc.lo <= lo and hi <= enc.hi, ("containment", enc, lo, hi)
    if steps is not None:
        assert enc.lo >= _step(_rn(lo), -steps), ("tightness", enc, lo, steps)
        assert enc.hi <= _step(_rn(hi), steps), ("tightness", enc, hi, steps)


def _ext(x: float):
    return x if math.isinf(x) else Fraction(x)


EDGE_POINTS = [x for t in (0.0, TINY, 3 * TINY, 1e-310, _step(MIN_NORMAL, -1), MIN_NORMAL,
                           1e-300, 0.5, _step(1.0, -1), 1.0, _step(1.0, 1), 2.0, 3.0,
                           709.0, 710.0, 1e300, _step(MAX, -1), MAX, INF)
               for x in (t, -t)]
# arguments near the trig extrema and the reduction limit
TRIG_POINTS = sorted({_step(x, n) for x in
                      [k * math.pi / 2 for k in range(-8, 9)]
                      + [TRIG_ARG_LIMIT, -TRIG_ARG_LIMIT, 3 * math.pi, 6283.0]
                      for n in (-2, -1, 0, 1, 2)})


def _draw_float(rng) -> float:
    r = rng.random()
    if r < 0.3:
        return rng.choice(EDGE_POINTS)
    sign = rng.choice((1.0, -1.0))
    if r < 0.5:  # a binade edge, or a float or two from one
        return _step(sign * math.ldexp(1.0, rng.randint(-1074, 1023)), rng.randint(-2, 2))
    if r < 0.7:
        return sign * rng.uniform(0.0, 4.0)
    return sign * 10.0 ** rng.uniform(-323, 308)


def _draw(rng, points=None) -> Interval:
    """An interval of reals: a point, a few floats wide, or two draws."""
    draw = (lambda: rng.choice(points)) if points else (lambda: _draw_float(rng))
    while True:
        a = draw()
        r = rng.random()
        b = a if r < 0.3 else _step(a, rng.randint(1, 3)) if r < 0.5 else draw()
        lo, hi = min(a, b), max(a, b)
        if lo != INF and hi != -INF:
            return Interval(lo, hi)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:  # IntervalError and DomainError too
        return type(exc)


def _exact_binary(op, x, y):
    """The exact range of x op y over the reals in x and y, from their exact
    ends (Fraction or an infinite float): (lo, hi), or DomainError."""
    (a, b), (c, d) = x, y
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - d, b - c
    if op is operator.mul:
        corners = [0 if p == 0 or q == 0 else p * q for p in (a, b) for q in (c, d)]
    else:
        if c <= 0 <= d:
            return DomainError
        # finite / inf -> 0; inf / inf lies between the other corners
        corners = [p / q if not math.isinf(q) else 0 if not math.isinf(p) else None
                   for p in (a, b) for q in (c, d)]
        corners = [v for v in corners if v is not None]
    return min(corners), max(corners)


def _check_binary(op, x, y):
    want = _exact_binary(op, (_ext(x.lo), _ext(x.hi)), (_ext(y.lo), _ext(y.hi)))
    got = _outcome(op, x, y)
    if want is DomainError:
        assert got is DomainError, (op, x, y, got)
    else:
        _holds(got, *want, ARITH_STEPS)


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
EDGE_INTERVALS = [Interval(a, b) for a in (-INF, -MAX, -1.0, -TINY, -0.0, 0.0, TINY, 1.0)
                  for b in (-1.0, -0.0, 0.0, TINY, 1.0, MAX, INF) if a <= b]


def test_arithmetic_contains_the_exact_range_tightly():
    # + - * / on edge intervals pairwise (+-0.0, subnormals, +-inf, the
    # 0 * inf corners) and on drawn pairs with binade edges and huge and tiny
    # magnitudes, where a corner product can overflow or underflow
    rng = random.Random(41)
    pairs = [(x, y) for x in EDGE_INTERVALS for y in EDGE_INTERVALS]
    pairs += [(_draw(rng), _draw(rng)) for _ in range(2_500)]
    for x, y in pairs:
        for op in BINARY:
            _check_binary(op, x, y)


@pytest.mark.parametrize("name", sorted(STEPS))
def test_elementary_functions_contain_the_exact_range_tightly(name):
    rng = random.Random(42)
    cases = [_draw(rng) for _ in range(500)] + EDGE_INTERVALS
    if name in ("cos", "sin"):
        cases += [_draw(rng, TRIG_POINTS) for _ in range(400)]
    if name == "arccos":
        cases += [Interval(*sorted((rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0, 0.0)))))
                  for _ in range(200)]
    if name in ("exp", "ln"):  # libm's value next to a power of two
        cases += [Interval(_step(x, k)) for x in (0.0, 1.0, 2.0, 0.5, math.log(2.0))
                  for k in range(-3, 4)]
    for x in cases:
        got = _outcome(lambda: getattr(x, name)())
        want = _exact_unary(name, x)
        if want is DomainError:
            assert got is DomainError, (name, x, got)
        elif want is None:  # the documented [-1, 1] past TRIG_ARG_LIMIT
            assert (got.lo, got.hi) == (-1.0, 1.0), (name, x, got)
        else:
            _holds(got, *want, STEPS[name])


def _mp_exp(x: float):
    # past |x| = 1e6 a power of two stands in: it rounds and compares with
    # every float as e^x does
    if x > 1e6:
        return mpf(2) ** 2000
    if x < -1e6:
        return mpf(2) ** -2000
    return mp.exp(x)


def _exact_unary(name, x):
    """(lo, hi) exact, DomainError, or None for the trig fallback."""
    a, b = x.lo, x.hi
    if name == "__neg__":
        return -_ext(b), -_ext(a)
    if name == "abs":
        if a >= 0.0:
            return _ext(a), _ext(b)
        if b <= 0.0:
            return -_ext(b), -_ext(a)
        return 0, max(-_ext(a), _ext(b))
    if name == "sqrt":
        return DomainError if a < 0.0 else (mp.sqrt(a), mp.sqrt(b))
    if name == "exp":
        return _mp_exp(a), _mp_exp(b)
    if name == "ln":
        return DomainError if a <= 0.0 else (mp.log(a), mp.log(b))
    if name == "arccos":
        return DomainError if a < -1.0 or b > 1.0 else (mp.acos(b), mp.acos(a))
    if max(abs(a), abs(b)) > TRIG_ARG_LIMIT:
        return None
    fn, peak = (mp.cos, 0) if name == "cos" else (mp.sin, mp.pi / 2)

    def meets(offset):  # offset + 2 k pi lies in [a, b] for some integer k
        return mp.floor((b - offset) / (2 * mp.pi)) >= mp.ceil((a - offset) / (2 * mp.pi))

    ends = (fn(a), fn(b))
    return (-1 if meets(peak + mp.pi) else min(ends)), (1 if meets(peak) else max(ends))


def _exact_power(x, n):
    """The exact range of x**n over x (Fraction ends), or DomainError."""
    a, b = _ext(x.lo), _ext(x.hi)
    if n < 0 and a <= 0 <= b:
        return DomainError

    def power(v):
        if not math.isinf(v):
            return v**n
        if n < 0:
            return 0
        return v if n % 2 else INF

    if n == 0:
        return 1, 1
    if n % 2 == 0 and n > 0 and a <= 0 <= b:
        return 0, max(power(a), power(b))
    return min(power(a), power(b)), max(power(a), power(b))


def test_integer_powers_contain_the_exact_range_tightly():
    # x**n is libm's pow widened n floats: n + LIBM_STEPS for n >= 1; a
    # negative n is 1 / x**-n, held to containment
    rng = random.Random(43)
    for x in EDGE_INTERVALS + [_draw(rng) for _ in range(700)]:
        for n in range(-3, 6):
            got = _outcome(operator.pow, x, n)
            want = _exact_power(x, n)
            if want is DomainError:
                assert got is DomainError, (x, n, got)
            elif got is DomainError:
                # x**-n underflows to an interval around 0
                assert n < 0 and min(abs(_ext(x.lo)), abs(_ext(x.hi))) ** -n < MIN_NORMAL
            else:
                _holds(got, *want, n + LIBM_STEPS if n > 0 else 0 if n == 0 else None)
        assert _outcome(operator.pow, x, 0.5) is TypeError


def _pow_corner(x: float, sigma: float):
    """x**sigma at one corner, x >= 0, over the extended reals."""
    if x == 0.0:
        return mpf(0)
    if math.isinf(x):
        return mpf(INF) if sigma > 0 else mpf(1) if sigma == 0 else mpf(0)
    if math.isinf(sigma):
        if x == 1.0:
            return mpf(1)
        return mpf(INF) if (x > 1.0) == (sigma > 0) else mpf(0)
    return mp.power(x, sigma)


POW_EXPONENTS = [Interval(a, b) for a, b in (
    (-2.5, -2.5), (-1.0, 0.5), (0.0, 0.0), (-0.0, 2.0), (0.5, 0.5), (2.0, 2.0),
    (1.5, 3.5), (-INF, -1.0), (3.0, INF), (-3.0, -0.0), (TINY, TINY), (-1e-300, 1e-300))]


def test_pow_real_contains_the_exact_range_on_every_branch():
    # every branch: the main one exp(s ln x) on 0 < x < inf, a base touching 0
    # (s > 0 or DomainError), an unbounded base (the limit 0 or inf at
    # x = inf), and a negative base (DomainError); tightness holds on the
    # first two with finite s
    rng = random.Random(45)
    bases = [Interval(a, b) for a, b in ((0.0, 0.0), (0.0, TINY), (-0.0, 1.0), (0.0, INF),
                                         (TINY, INF), (2.0, INF), (1.0, 1.0), (TINY, MAX),
                                         (0.5, 2.0), (-1.0, 1.0), (-TINY, 0.0))]
    for _ in range(160):
        x = _draw(rng)
        bases.append(x if x.lo < 0.0 < x.hi else Interval(*sorted((abs(x.lo), abs(x.hi)))))
    exps = POW_EXPONENTS + [Interval(s, s + rng.choice((0.0, rng.uniform(0.0, 1.0))))
                            for s in (rng.uniform(-5.0, 5.0) for _ in range(6))]
    for x in bases:
        for s in exps:
            got = _outcome(pow_real, x, s)
            if x.lo < 0.0 or (x.lo == 0.0 and (s.lo <= 0.0 or x.hi == INF)):
                assert got is DomainError, (x, s, got)
                continue
            corners = [(_pow_corner(a, sigma), a, sigma)
                       for a in (x.lo, x.hi) for sigma in (s.lo, s.hi)]
            lo, hi = min(c[0] for c in corners), max(c[0] for c in corners)
            assert got.lo <= lo and hi <= got.hi, ("containment", x, s, got, lo, hi)
            if x.hi < INF and not math.isinf(s.lo) and not math.isinf(s.hi):
                # each end within POW_REAL_REL (1 + |sigma ln x|) of its corner
                slack = [v * POW_REAL_REL * (1 + (abs(sigma * mp.log(a)) if a else 0))
                         + POW_REAL_ABS for v, a, sigma in corners]
                low = min(v - d for (v, _, _), d in zip(corners, slack))
                high = max(v + d for (v, _, _), d in zip(corners, slack))
                assert got.lo >= min(low, _step(MAX, -ELEM_STEPS)), ("tightness", x, s, got, lo)
                assert got.hi <= high or high >= MAX, ("tightness", x, s, got, hi)
