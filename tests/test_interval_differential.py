"""The interval kernel against a frozen copy of its earlier operators.

Every operator, elementary function and ``pow_real`` must return bit-for-bit
the endpoints of ``reference_interval`` (compared with ``float.hex``, so -0.0
and 0.0 differ), and raise where it raises.  ``horner_nonneg`` must equal the
interval Horner loop for positive coefficients at a positive argument and stay
an enclosure elsewhere.  ``exp_sum`` must equal the interval loop
``acc = acc + (s * x).exp()`` on its domain s <= 0 < x and raise off it.
``f_star`` must contain the closed form and be no wider than its earlier
term-by-term loop with a convex tail.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st
from mpmath import mp, mpf

import reference_interval as ref
from khintchine import interval as kernel
from khintchine import specfun as sf
from khintchine.distfn import MeasureParams, f_star
from khintchine.verifier import npcheck
from khintchine.interval import (
    ELEM_ULPS,
    HALF_PI,
    TRIG_ARG_LIMIT,
    DomainError,
    Interval,
    exp_sum,
    horner_nonneg,
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


# arguments near the trig extrema and the reduction limit
_TRIG = [k * math.pi / 2 for k in range(-8, 9)] + [
    TRIG_ARG_LIMIT, -TRIG_ARG_LIMIT, HALF_PI.lo, HALF_PI.hi, 3 * math.pi, 6283.0]
TRIG_POINTS = sorted({_step(x, n) for x in _TRIG for n in (-2, -1, 0, 1, 2)})


def _hexes(iv):
    assert type(iv.lo) is float and type(iv.hi) is float
    return float.hex(iv.lo), float.hex(iv.hi)


def _outcome(fn, *args):
    try:
        return _hexes(fn(*args))
    except (ValueError, TypeError) as exc:  # IntervalError and DomainError too
        return type(exc).__name__


def _pair(lo, hi):
    return Interval(lo, hi), ref.Interval(lo, hi)


def _same(live_fn, ref_fn, live_args, ref_args):
    got = _outcome(live_fn, *live_args)
    want = _outcome(ref_fn, *ref_args)
    assert got == want, (live_args, got, want)


def _edge_intervals():
    return [(a, b) for a in EDGE for b in EDGE if a <= b]


def _random_intervals(rng, n):
    out = []
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-12, 12)
        a = rng.uniform(-1.0, 1.0) * scale
        w = rng.choice((0.0, rng.uniform(0.0, 1.0) * scale, abs(a) * 1e-9))
        out.append((a, a + w))
    return out


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def test_binary_operators_bit_identical():
    rng = random.Random(20)
    edge = _edge_intervals()
    rand = _random_intervals(rng, 300)
    pairs = [(x, y) for x in edge for y in edge]
    pairs += [(rng.choice(rand), rng.choice(rand)) for _ in range(20_000)]
    pairs += [(rng.choice(edge), rng.choice(rand)) for _ in range(5_000)]
    for (a, b), (c, d) in pairs:
        x, xr = _pair(a, b)
        y, yr = _pair(c, d)
        for op in BINARY:
            _same(op, op, (x, y), (xr, yr))


@pytest.mark.parametrize("scalar", [2.0, -0.5, 0.0, -0.0, INF, 3, 0, True,
                                    Fraction(1, 3), Fraction(-7, 2)])
def test_mixed_operands_bit_identical(scalar):
    rng = random.Random(21)
    for a, b in _edge_intervals() + _random_intervals(rng, 500):
        x, xr = _pair(a, b)
        for op in BINARY:
            _same(op, op, (x, scalar), (xr, scalar))
            _same(op, op, (scalar, x), (scalar, xr))


def test_nan_scalar_rejected():
    x = Interval(1.0, 2.0)
    for op in BINARY:
        with pytest.raises(ValueError):
            op(x, math.nan)


UNARY = ("__neg__", "exp", "ln", "sqrt", "abs", "arccos", "cos", "sin")


def _unary(name):
    return lambda iv: getattr(iv, name)()


def test_unary_and_elementary_bit_identical():
    rng = random.Random(22)
    cases = _edge_intervals() + _random_intervals(rng, 3_000)
    cases += [(x, x) for x in TRIG_POINTS]
    cases += [(x, y) for x in TRIG_POINTS for y in TRIG_POINTS if x <= y and y - x < 7.0]
    for _ in range(2_000):
        a = rng.uniform(-1.0, 1.0)
        cases.append((a, min(1.0, a + rng.uniform(0.0, 0.2))))
    for a, b in cases:
        x, xr = _pair(a, b)
        for name in UNARY:
            _same(_unary(name), _unary(name), (x,), (xr,))


def test_integer_powers_bit_identical():
    rng = random.Random(23)
    for a, b in _edge_intervals() + _random_intervals(rng, 1_000):
        x, xr = _pair(a, b)
        for n in range(-3, 6):
            _same(operator.pow, operator.pow, (x, n), (xr, n))
        _same(operator.pow, operator.pow, (x, 0.5), (xr, 0.5))


def test_pow_real_bit_identical():
    rng = random.Random(24)
    bases = [(a, b) for a, b in _edge_intervals()]
    bases += [(a, b) for a, b in _random_intervals(rng, 400)]
    bases += [(abs(a), abs(a) + abs(b - a)) for a, b in _random_intervals(rng, 400)]
    bases += [(0.0, 0.0), (0.0, 1.0), (0.0, INF), (2.0, INF), (INF, INF), (TINY, INF)]
    exps = [(-2.5, -2.5), (-1.0, 0.5), (0.0, 0.0), (0.0, 2.0), (0.5, 0.5),
            (2.0, 2.0), (1.5, 3.5), (-INF, -1.0), (3.0, INF)]
    exps += [(s, s + rng.uniform(0.0, 1.0)) for s in
             (rng.uniform(-5.0, 5.0) for _ in range(20))]
    for a, b in bases:
        x, xr = _pair(a, b)
        for c, d in exps:
            s, sr = _pair(c, d)
            _same(pow_real, ref.pow_real, (x, s), (xr, sr))
        for sc in (2.0, -1.5, 3):
            _same(pow_real, ref.pow_real, (x, sc), (xr, sc))


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


def test_elementary_sites_widen_like_the_loop_at_binade_edges():
    # exp near 0, ln near 1 and sin, cos at small arguments land next to
    # powers of two, 1 and 0, where the inline step must fall back
    near = [_step(sign * math.ldexp(1.0, e), k) for e in range(-1074, 4)
            for sign in (1.0, -1.0) for k in (-1, 0, 1)]
    near += [_step(1.0, k) for k in range(-60, 61)] + WIDEN_EDGE
    for x in near:
        xs, xr = _pair(x, x)
        for name in ("exp", "ln", "cos", "sin"):
            _same(_unary(name), _unary(name), (xs,), (xr,))
        for sc in (0.5, -2.0, 3.0):
            _same(pow_real, ref.pow_real, (xs, sc), (xr, sc))


# -- horner_nonneg -----------------------------------------------------------


def _ref_horner(coeffs, x):
    return ref.interval_horner([ref.Interval(c.lo, c.hi) for c in coeffs],
                               ref.Interval(x.lo, x.hi))


def test_horner_nonneg_matches_interval_loop():
    rng = random.Random(25)
    lncos = sf._LN_COS_COEFFS_IV
    for _ in range(3_000):
        t = rng.uniform(1e-6, 1.2)
        t = Interval(t, t + rng.choice((0.0, rng.uniform(0.0, 1e-2))))
        u = t * t
        K = rng.randint(1, len(lncos))
        assert _hexes(horner_nonneg(lncos[:K], u)) == _hexes(_ref_horner(lncos[:K], u))
    for _ in range(3_000):
        n = rng.randint(1, 12)
        coeffs = []
        for _ in range(n):
            c = 10.0 ** rng.uniform(-300, 10)
            coeffs.append(Interval(c, c * (1.0 + rng.choice((0.0, 1e-12, 0.5)))))
        lo = 10.0 ** rng.uniform(-320, 5)
        x = Interval(lo, lo * (1.0 + rng.uniform(0.0, 2.0)))
        assert _hexes(horner_nonneg(coeffs, x)) == _hexes(_ref_horner(coeffs, x))


def test_horner_nonneg_falls_back_off_the_monotone_domain():
    # t * t at t.lo = 0 has lo = -5e-324; x.hi = inf would meet 0 * inf
    rng = random.Random(26)
    for x in (Interval(0.0, 0.0) * Interval(0.0, 0.0), Interval(-1.0, 0.5),
              Interval(2.0, INF), Interval(0.0, INF)):
        for _ in range(50):
            coeffs = [Interval(c, c) for c in (rng.uniform(0.0, 2.0) for _ in range(6))]
            coeffs[0] = Interval(0.0, 0.0)
            assert _hexes(horner_nonneg(coeffs, x)) == _hexes(_ref_horner(coeffs, x))


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


def _loop_exp_sum(cls, s, xs, acc):
    s = cls(s.lo, s.hi)
    acc = cls(acc.lo, acc.hi)
    for x in xs:
        acc = acc + (s * cls(x.lo, x.hi)).exp()
    return acc


def _same_exp_sum(s, xs, acc):
    got = _outcome(exp_sum, s, [x.lo for x in xs], [x.hi for x in xs], acc)
    assert got == _outcome(_loop_exp_sum, Interval, s, xs, acc), (s, xs, acc)
    assert got == _outcome(_loop_exp_sum, ref.Interval, s, xs, acc), (s, xs, acc)


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


def _loop_poly_mul(cls, x, y):
    x = [cls(a.lo, a.hi) for a in x]
    y = [cls(b.lo, b.hi) for b in y]
    out = [cls(0.0, 0.0)] * (len(x) + len(y) - 1)
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
    got = _poly_outcome(poly_mul, x, y)
    assert got == _poly_outcome(_loop_poly_mul, Interval, x, y), (x, y)
    assert got == _poly_outcome(_loop_poly_mul, ref.Interval, x, y), (x, y)


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


# -- f_star ------------------------------------------------------------------


def _closed_form_f_star(x, p):
    """F_*(x) = (a^-p - pi^-p [zeta(p, 1 - a/pi) - zeta(p, 1 + a/pi)]) / p."""
    a = mp.acos(x)
    tails = mp.zeta(p, 1 - a / mp.pi) - mp.zeta(p, 1 + a / mp.pi)
    return (a**-p - mp.pi**-p * tails) / p


def test_f_star_contains_closed_form_within_the_convex_tail_width():
    # the K-term loop closed by the trapezoid/midpoint bracket of a convex
    # summand, which f_star computed before its Euler-Maclaurin tail: a width
    # yardstick only
    def convex_tail_f_star(x, p, K):
        a = x.arccos()

        def term(upi):
            return pow_real(upi - a, -p) - pow_real(upi + a, -p)

        def integral(cpi):
            q = 1.0 - p
            return (pow_real(cpi - a, q) - pow_real(cpi + a, q)) / ((p - 1.0) * kernel.PI)

        acc = pow_real(a, -p)
        for k in range(1, K + 1):
            acc = acc - term(kernel.PI * k)
        next_pi = kernel.PI * (K + 1)
        lower = integral(next_pi) + term(next_pi) * 0.5
        upper = integral(kernel.PI * (K + 0.5))
        return (acc - Interval(lower.lo, upper.hi)) / p

    def contains_truth(got, x, p):
        # an enclosure over an x interval or a p box holds the value at each corner
        return all(
            mpf(got.lo) <= _closed_form_f_star(mpf(xe), mpf(pe)) <= mpf(got.hi)
            for xe in {x.lo, x.hi} for pe in {p.lo, p.hi}
        )

    xs = [Interval(x, x) for x in (1e-3, 0.02, 0.117, 0.2306, 0.5, 0.5361, 0.9, 0.98, 0.99)]
    xs += [Interval(0.3, 0.31), Interval(0.536072, 0.53623)]
    points = [Interval(p, p) for p in (2.0, 2.5, 2.9, 3.0)]
    with mp.workdps(40):
        for p in points:
            for x in xs:
                got = f_star(x, MeasureParams(p))
                assert contains_truth(got, x, p), (p, x)
                # on a wide x most of the width is F_*'s own rise over x, which
                # the longer tail from K = 6 widens by a few parts in 1,000
                if x.lo == x.hi:
                    assert got.width <= convex_tail_f_star(x, p, 32).width, (p, x)
        # the asymptotic series diverges at K = 1, so there it only encloses
        for K in (1, 32, 400):
            for p in points + [Interval(2.2, 2.3)]:
                for x in xs[::3] if K == 400 else xs:
                    assert contains_truth(f_star(x, MeasureParams(p), K=K), x, p), (K, p, x)


def test_lncos_series_at_zero_contains_mpmath():
    # t.lo = 0 takes the interval-loop branch of horner_nonneg
    with mp.workdps(50):
        for b in (0.0, TINY, 1e-200, 1e-8, 1e-3, 0.3, 1.2):
            t = Interval(0.0, b)
            excess = sf.neg_ln_cos_excess(t)
            for v in (mpf(0), mpf(b) / 2, mpf(b)):
                assert mpf(excess.lo) <= -mp.log(mp.cos(v)) - v**2 / 2 <= mpf(excess.hi)
