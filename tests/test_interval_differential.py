"""The kernel's fast paths against the live loops they equal, bit for bit.

Each fast path is checked against the interval operations it replaces, in the
live kernel (compared with ``float.hex``, so -0.0 and 0.0 differ), and must
raise where they raise: ``_down_n``/``_up_n`` and every inline one-step
widening against the ``nextafter`` loop on libm's value; ``horner_nonneg``
against the interval Horner loop ``ipoly_eval`` for positive coefficients at a
positive argument (and an enclosure elsewhere); ``exp_sum`` against
``acc = acc + (s * x).exp()`` on its domain s <= 0 < x; ``poly_mul`` against
``out[i + j] = out[i + j] + x[i] * y[j]``; and a scalar operand against its
point interval.  Containment and tightness of the operations themselves are
``test_interval``'s.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from khintchine import interval as kernel
from khintchine import specfun as sf
from khintchine.verifier import npcheck
from khintchine.interval import (
    ELEM_ULPS,
    HALF_PI,
    PI,
    TRIG_ARG_LIMIT,
    DomainError,
    Interval,
    exp_sum,
    horner_nonneg,
    ipoly_eval,
    ln_ints,
    poly_mul,
    pow_real,
)

TINY = 5e-324
MIN_NORMAL = 2.2250738585072014e-308
MAX = 1.7976931348623157e308
INF = math.inf

EDGE = [-INF, -MAX, -1e300, -746.0, -3.0, -1.0, -0.5, -MIN_NORMAL, -1e-310, -TINY,
        -0.0, 0.0, TINY, 1e-310, MIN_NORMAL, 1e-300, 0.5, 1.0, 2.0, 709.0, 710.0,
        1e300, MAX, INF]


def _step(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, INF if n > 0 else -INF)
    return x


def _hexes(iv):
    assert type(iv.lo) is float and type(iv.hi) is float
    return float.hex(iv.lo), float.hex(iv.hi)


def _outcome(fn, *args):
    try:
        return _hexes(fn(*args))
    except (ValueError, TypeError) as exc:  # IntervalError and DomainError too
        return type(exc).__name__


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("scalar", [2.0, -0.5, 0.0, -0.0, INF, 3, 0, True,
                                    Fraction(1, 3), Fraction(-7, 2)])
def test_mixed_operands_bit_identical(scalar):
    # a scalar operand, on either side, is its point interval (a Fraction the
    # two floats around it): the result is the interval operation's
    point = Interval.from_fraction(scalar) if isinstance(scalar, Fraction) else Interval(scalar)
    rng = random.Random(21)
    cases = [(a, b) for a in EDGE for b in EDGE if a <= b]
    for _ in range(500):
        a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12, 12)
        cases.append((a, a + rng.choice((0.0, abs(a) * rng.uniform(0.0, 1.0)))))
    for a, b in cases:
        x = Interval(a, b)
        for op in BINARY:
            assert _outcome(op, x, scalar) == _outcome(op, x, point), (op, x)
            assert _outcome(op, scalar, x) == _outcome(op, point, x), (op, x)


def test_nan_scalar_rejected():
    x = Interval(1.0, 2.0)
    for op in BINARY:
        with pytest.raises(ValueError):
            op(x, math.nan)


def test_elem_widening_is_elem_ulps():
    x = 0.7
    lo = hi = math.exp(x)
    for _ in range(ELEM_ULPS):
        lo, hi = math.nextafter(lo, -INF), math.nextafter(hi, INF)
    assert Interval(x, x).exp() == Interval(lo, hi)


# -- the one-step widening --------------------------------------------------

# every power of two, each +-1 ... +-5 ulps from it, on both signs
POW2_POINTS = [_step(sign * math.ldexp(1.0, e), k) for e in range(-1074, 1024)
               for sign in (1.0, -1.0) for k in range(-5, 6)]
WIDEN_EDGE = [x for t in (0.0, TINY, 2 * TINY, 3 * TINY, 4 * TINY, 5 * TINY, 6 * TINY,
                          1e-310, MIN_NORMAL, _step(MIN_NORMAL, -1), MAX, _step(MAX, -4),
                          INF) for x in (t, -t)]


def _same_widening(x, n):
    assert float.hex(kernel._down_n(x, n)) == float.hex(_step(x, -n)), (x, n)
    assert float.hex(kernel._up_n(x, n)) == float.hex(_step(x, n)), (x, n)


def test_one_step_widening_equals_the_nextafter_loop():
    # x -+ n ulp(x), kept when its ulp is ulp(x): binade crossings, 0 (whose
    # loop gives -0.0 from below), the subnormals, overflow and +-inf
    for x in POW2_POINTS + WIDEN_EDGE:
        for n in (1, 2, ELEM_ULPS, 5):
            _same_widening(x, n)


@seed(31)
@settings(max_examples=500, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(0, 9))
def test_one_step_widening_equals_the_nextafter_loop_on_all_floats(x, n):
    _same_widening(x, n)


def _widened(v: float) -> tuple[float, float]:
    """libm's value v moved ELEM_ULPS floats down and up by the nextafter loop."""
    return _step(v, -ELEM_ULPS), _step(v, ELEM_ULPS)


def _exp_ends(y_lo: float, y_hi: float) -> tuple[float, float]:
    """exp's ends on [y_lo, y_hi]: libm, the loop, a lower end <= 0 to 0."""
    def libm(y):
        try:
            return math.exp(y)
        except OverflowError:
            return INF

    lo, hi = _widened(libm(y_lo))[0], _widened(libm(y_hi))[1]
    return lo if lo > 0.0 else 0.0, hi


def _trig_ends(x: Interval, fn, peak, trough) -> tuple[float, float]:
    if abs(x.lo) > TRIG_ARG_LIMIT or abs(x.hi) > TRIG_ARG_LIMIT:
        return -1.0, 1.0
    lo, hi = _widened(min(fn(x.lo), fn(x.hi)))[0], _widened(max(fn(x.lo), fn(x.hi)))[1]
    if hi > 1.0 or kernel._contains_multiple(x, peak):
        hi = 1.0
    if lo < -1.0 or kernel._contains_multiple(x, trough):
        lo = -1.0
    return lo, hi


def test_elementary_sites_widen_like_the_loop_at_binade_edges():
    # exp near 0, ln near 1 and sin, cos at small arguments land next to
    # powers of two, 1 and 0, where the inline step must fall back: each
    # site gives the nextafter loop applied to libm's value
    near = [_step(sign * math.ldexp(1.0, e), k) for e in range(-1074, 4)
            for sign in (1.0, -1.0) for k in (-1, 0, 1)]
    near += [_step(1.0, k) for k in range(-60, 61)] + WIDEN_EDGE
    hexes = lambda ends: tuple(map(float.hex, ends))
    for x in near:
        X = Interval(x, x)
        assert _hexes(X.exp()) == hexes(_exp_ends(x, x)), x
        assert _hexes(X.cos()) == hexes(_trig_ends(X, math.cos, kernel._ZERO, PI)), x
        assert _hexes(X.sin()) == hexes(_trig_ends(X, math.sin, HALF_PI, -HALF_PI)), x
        if not 0.0 < x < INF:
            continue
        ln = _widened(math.log(x))
        assert _hexes(X.ln()) == hexes(ln), x
        for sc in (0.5, -2.0, 3.0):
            # pow_real's two widenings: ln's, then exp's on the product's ends
            y = Interval(sc) * Interval(*ln)
            assert _hexes(pow_real(X, sc)) == hexes(_exp_ends(y.lo, y.hi)), (x, sc)
        # exp_sum's widening on the ends of -1 * X, next to 1 and to 2^-k
        y = Interval(-1.0) * X
        acc = Interval(0.0, 0.0)
        assert _hexes(exp_sum(Interval(-1.0), [x], [x], acc)) == _hexes(
            acc + Interval(*_exp_ends(y.lo, y.hi))), x
    # ln_ints: ln k for k = 1 (0, where the upper end goes to the loop), 2 and
    # every k up to 1,100, among them the powers of two
    lows, highs = ln_ints(1, 1_100)
    for k, lo, hi in zip(range(1, 1_100), lows, highs):
        assert (lo.hex(), hi.hex()) == hexes(_widened(math.log(k))), k


# -- horner_nonneg -----------------------------------------------------------


def test_horner_nonneg_matches_interval_loop():
    rng = random.Random(25)
    lncos = sf._LN_COS_COEFFS_IV
    for _ in range(3_000):
        t = rng.uniform(1e-6, 1.2)
        t = Interval(t, t + rng.choice((0.0, rng.uniform(0.0, 1e-2))))
        u = t * t
        K = rng.randint(1, len(lncos))
        assert _hexes(horner_nonneg(lncos[:K], u)) == _hexes(ipoly_eval(lncos[:K], u))
    for _ in range(3_000):
        n = rng.randint(1, 12)
        coeffs = []
        for _ in range(n):
            c = 10.0 ** rng.uniform(-300, 10)
            coeffs.append(Interval(c, c * (1.0 + rng.choice((0.0, 1e-12, 0.5)))))
        lo = 10.0 ** rng.uniform(-320, 5)
        x = Interval(lo, lo * (1.0 + rng.uniform(0.0, 2.0)))
        assert _hexes(horner_nonneg(coeffs, x)) == _hexes(ipoly_eval(coeffs, x))


def test_horner_nonneg_falls_back_off_the_monotone_domain():
    # t * t at t.lo = 0 has lo = -5e-324; x.hi = inf would meet 0 * inf
    rng = random.Random(26)
    for x in (Interval(0.0, 0.0) * Interval(0.0, 0.0), Interval(-1.0, 0.5),
              Interval(2.0, INF), Interval(0.0, INF)):
        for _ in range(50):
            coeffs = [Interval(c, c) for c in (rng.uniform(0.0, 2.0) for _ in range(6))]
            coeffs[0] = Interval(0.0, 0.0)
            assert _hexes(horner_nonneg(coeffs, x)) == _hexes(ipoly_eval(coeffs, x))


def test_horner_nonneg_encloses_with_zero_coefficients():
    # a zero coefficient lets a chain endpoint dip to -5e-324; still a bound
    rng = random.Random(27)
    for _ in range(2_000):
        coeffs = [Fraction(rng.choice((0, rng.randint(1, 50)))) / rng.randint(1, 9)
                  for _ in range(rng.randint(1, 8))]
        x = rng.choice((0.0, TINY, 1e-200, rng.uniform(0.0, 3.0)))
        enc = horner_nonneg([Interval.from_fraction(c) for c in coeffs], Interval(x, x))
        exact = sum(c * Fraction(x) ** k for k, c in enumerate(coeffs))
        assert Fraction(enc.lo) <= exact <= Fraction(enc.hi)


def test_horner_nonneg_rejects_negative_coefficients():
    with pytest.raises(DomainError):
        horner_nonneg([Interval(1.0, 1.0), Interval(-1.0, 1.0)], Interval(0.5, 0.5))
    with pytest.raises(DomainError):
        horner_nonneg([Interval(-1.0, 1.0), Interval(1.0, 1.0)], Interval(0.5, 0.5))


# -- exp_sum -----------------------------------------------------------------


def _loop_exp_sum(s, xs, acc):
    for x in xs:
        acc = acc + (s * x).exp()
    return acc


def _same_exp_sum(s, xs, acc):
    got = _outcome(exp_sum, s, [x.lo for x in xs], [x.hi for x in xs], acc)
    assert got == _outcome(_loop_exp_sum, s, xs, acc), (s, xs, acc)


def _positive(rng):
    lo = 10.0 ** rng.uniform(-320, 300)
    return Interval(lo, lo * (1.0 + rng.choice((0.0, 1e-15, rng.uniform(0.0, 3.0)))))


def test_exp_sum_matches_interval_loop_on_random_draws():
    rng = random.Random(28)
    for _ in range(2_000):
        hi = -rng.choice((0.0, 10.0 ** rng.uniform(-320, 3)))
        s = Interval(hi - rng.choice((0.0, 10.0 ** rng.uniform(-320, 3))), hi)
        xs = [_positive(rng) for _ in range(rng.randint(0, 12))]
        a = rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-320, 5)))
        acc = Interval(a, a + rng.choice((0.0, rng.uniform(0.0, 1.0))))
        _same_exp_sum(s, xs, acc)


def test_exp_sum_matches_interval_loop_at_the_edges():
    xs_edge = [Interval(a, b) for a in (TINY, 1e-310, MIN_NORMAL, 0.5, 1.0, 1e300, MAX)
               for b in (TINY, 1e-310, MIN_NORMAL, 1.0, 1e300, MAX, INF) if a <= b]
    xs_edge += [Interval(INF, INF)]
    s_edge = [Interval(lo, hi) for lo in (-INF, -MAX, -1e300, -800.0, -3.0, -1.0, -TINY,
                                          -0.0, 0.0)
              for hi in (-800.0, -3.0, -1.0, -1e-310, -TINY, -0.0, 0.0) if lo <= hi]
    accs = [Interval(a, b) for a, b in ((0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (-TINY, TINY),
                                        (1.0, 1.0), (-1.0, 2.0), (-INF, INF), (MAX, INF))]
    for s in s_edge:
        for acc in accs:
            _same_exp_sum(s, xs_edge, acc)
            for x in xs_edge:
                _same_exp_sum(s, [x], acc)
    # every exp underflows to 0: the lower end stays put but for the sum's step
    for acc in accs:
        _same_exp_sum(Interval(-1000.0, -800.0), [Interval(1.0, 2.0)] * 5, acc)


def test_exp_sum_matches_interval_loop_over_10000_terms():
    ln_k = [Interval(k, k).ln() for k in range(2, 10_001)]
    for s in (Interval(-3.0, -3.0), Interval(-4.5, -2.0), Interval(-2.0, -0.0)):
        _same_exp_sum(s, ln_k, Interval(1.0, 1.0))


def test_exp_sum_rejects_points_off_its_domain():
    with pytest.raises(DomainError):
        exp_sum(Interval(-1.0, TINY), [1.0], [2.0], Interval(0.0, 0.0))
    with pytest.raises(DomainError):
        exp_sum(Interval(1.0, 2.0), [], [], Interval(0.0, 0.0))
    for x in (Interval(0.0, 1.0), Interval(-0.0, 1.0), Interval(-1.0, 1.0)):
        with pytest.raises(DomainError):
            exp_sum(Interval(-2.0, -1.0), [1.0, x.lo], [1.0, x.hi], Interval(0.0, 0.0))


# -- poly_mul ----------------------------------------------------------------


def _loop_poly_mul(x, y):
    out = [Interval(0.0, 0.0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = out[i + j] + a * b
    return out


def _poly_outcome(fn, *args):
    try:
        return [_hexes(c) for c in fn(*args)]
    except ValueError as exc:  # IntervalError
        return type(exc).__name__


def _same_poly_mul(x, y):
    assert _poly_outcome(poly_mul, x, y) == _poly_outcome(_loop_poly_mul, x, y), (x, y)


def test_poly_mul_matches_interval_loop_on_the_gap_series(monkeypatch):
    calls = []

    def recording(x, y):
        calls.append((list(x), list(y)))
        return poly_mul(x, y)

    monkeypatch.setattr(npcheck, "poly_mul", recording)
    k, n, _ = npcheck._SERIES_ORDERS
    npcheck._excess_powers.__wrapped__(k, n, npcheck._SERIES_T1)
    for s in (Interval(1.4142135623730951, 1.4142135623730954), Interval(2.0), Interval(16.0)):
        npcheck._gap_series(s)
    assert len(calls) >= n - 2 + 3
    for x, y in calls:
        _same_poly_mul(x, y)


def _coefficient(rng):
    kind = rng.random()
    if kind < 0.15:
        return Interval(rng.choice((0.0, -0.0)), rng.choice((0.0, 0.0, 1.0)))
    if kind < 0.2:
        return rng.choice((Interval(-INF, INF), Interval(0.0, INF), Interval(-INF, -1.0),
                           Interval(INF, INF), Interval(MAX, MAX), Interval(-TINY, TINY)))
    scale = 10.0 ** rng.uniform(-300, 300)
    a = rng.uniform(-1.0, 1.0) * scale
    return Interval(a, a + rng.choice((0.0, abs(a) * 1e-12, rng.uniform(0.0, 2.0) * scale)))


def test_poly_mul_matches_interval_loop_on_random_draws():
    # zero, negative and mixed-sign coefficients; a 0 * inf corner takes the
    # interval product and inf - inf raises as in the loop
    rng = random.Random(32)
    for _ in range(3_000):
        x = [_coefficient(rng) for _ in range(rng.randint(1, 6))]
        y = [_coefficient(rng) for _ in range(rng.randint(1, 6))]
        _same_poly_mul(x, y)
    _same_poly_mul([Interval(1.0)] * 2, [Interval(INF), Interval(-INF)])
    _same_poly_mul([Interval(1.0)], [])
