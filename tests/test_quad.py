"""Validated quadrature: enclosures, refinement monotonicity, tail bounds."""

import functools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings, strategies as st
from mpmath import mp, mpf

from khintchine import quad
from khintchine.interval import PI, Interval, SQRT2, DomainError, pow_real
from khintchine.quad import (
    QuadResult,
    cos_power_tail,
    integrate,
    near_zero_bound,
    note_missed,
    tail_bound_mu_p,
)
from khintchine.specfun import LN_COS_COEFFS, si
from khintchine.verifier import npcheck
from khintchine.verifier.npcheck import gauss_cos_gap_integral


@pytest.fixture(autouse=True)
def _mp_precision():
    # every test runs at 40 digits, restored afterwards
    with mp.workdps(40):
        yield


# frozen oracle: int_{pi/2}^inf cos^2 t / t^4 dt, 30 digits (mpmath, dps 50:
# 1/(6 (pi/2)^3) plus quadosc of the zero-mean cos 2t / (2 t^4); quadosc of
# cos^2 t / t^4 itself, whose mean is not 0, is 1.5e-14 low)
COS2_T4_TAIL = "0.0247794406641474136053572321512"


def test_constant_integrand():
    r = integrate(lambda t: Interval(1.0, 1.0), 0.0, 1.0, 1e-6)
    assert r.value.contains(1.0) and r.value.width <= 1e-9
    assert r.ok


def test_inexact_cell_width_enclosed():
    # 2.1 - 0.1 rounds in float, so the cell width must enter as an interval:
    # the result holds c times every width in that enclosure, not only c
    # times the rounded difference
    a, b, c = 0.1, 2.1, 0.95
    assert Fraction(b - a) != Fraction(b) - Fraction(a)
    r = integrate(lambda t: Interval(c, c), a, b, 1e-6)
    exact = Fraction(c) * (Fraction(b) - Fraction(a))
    assert Fraction(r.value.lo) <= exact <= Fraction(r.value.hi)
    assert r.value.encloses(Interval(c, c) * (Interval(b, b) - Interval(a, a)))


def test_sin_integral():
    r = integrate(lambda t: t.sin(), 0.0, math.pi, 3e-5)
    assert r.value.contains(2.0)
    assert r.value.width <= 3.5e-5


def test_oscillatory_mu_p_integral():
    f = lambda t: (t.cos() ** 2) * pow_real(t, Interval(-4.0, -4.0))
    T, tail = cos_power_tail(Interval(2.0, 2.0), Interval(3.0, 3.0), 4)
    r = integrate(f, math.pi / 2, T, 5e-5)
    total = r.value + tail
    truth = mpf(COS2_T4_TAIL)
    assert mpf(total.lo) <= truth <= mpf(total.hi)
    assert total.width <= 6e-5
    # cond2's H' tail takes the closed form (2/3)(1/pi - si(pi)) instead;
    # it holds the oracle and lies inside this quadrature route
    closed = (1.0 / PI - si(PI)) * 2.0 / 3.0
    assert mpf(closed.lo) <= truth <= mpf(closed.hi)
    assert closed.width <= 1e-14 and total.encloses(closed)


def test_refinement_never_widens(monkeypatch):
    f = lambda t: (t * t - 1.0).exp()
    monkeypatch.setattr(quad, "MAX_CELLS", 5000)
    shallow = integrate(f, 0.0, 2.0, 1e-14)
    monkeypatch.setattr(quad, "MAX_CELLS", 20000)
    deep = integrate(f, 0.0, 2.0, 1e-14)
    assert shallow.value.encloses(deep.value)


def test_split_consistency():
    f = lambda t: t.sin() * t
    whole = integrate(f, 0.0, 2.0, 4e-5)
    left = integrate(f, 0.0, 0.7, 2e-5)
    right = integrate(f, 0.7, 2.0, 2e-5)
    assert whole.value.intersects(left.value + right.value)


def test_budget_exhaustion_is_flagged_but_valid(monkeypatch):
    monkeypatch.setattr(quad, "MAX_CELLS", 512)
    r = integrate(lambda t: t.sin(), 0.0, math.pi, 1e-12)
    assert r.status == "wide"
    assert r.value.contains(2.0)


def test_float_resolution_stops_wide():
    # 64 ulps wide: bisection reaches cells one ulp wide, whose float
    # midpoint is an endpoint, long before the target or MAX_CELLS
    a = 1.0
    b = a + 64 * math.ulp(a)
    r = integrate(lambda t: t * t, a, b, 1e-300)
    assert r.status == "wide" and r.cells < quad.MAX_CELLS
    exact = (Fraction(b) ** 3 - Fraction(a) ** 3) / 3
    assert Fraction(r.value.lo) <= exact <= Fraction(r.value.hi)


def test_domain_error_propagates():
    with pytest.raises(DomainError):
        integrate(lambda t: t.ln(), -1.0, 1.0, 1e-3)


def test_tail_bounds():
    g = tail_bound_mu_p(SQRT2, Interval(2.0, 2.0), 5.0)
    assert g.lo == 0.0 and g.hi <= 1e-7
    true_tail = float(
        mp.quad(lambda t: mp.e ** (-mp.sqrt(2) * t**2 / 2) / t**3, [5, mp.inf])
    )
    assert true_tail <= g.hi
    # the cond2 tails, against their integrands at mpf endpoints
    gauss = lambda k: lambda t: mp.e ** (-(t**2) / mp.sqrt(2)) / t**k
    for s, p, T, truth in (
        (SQRT2, 1.0, 8.0, mp.quad(gauss(2), [8, mp.inf])),
        (SQRT2, 2.0, 6.0, mp.quad(gauss(3), [6, mp.inf])),
    ):
        bound = tail_bound_mu_p(s, Interval(p, p), T)
        assert bound.lo == 0.0 and mpf(bound.hi) >= truth, T
    # cond2 piece D's cos^2 tail past the float end T of 7 pi/2:
    # int_T^inf cos(t)^2 / t^3 dt = 1/(4 T^2) + (1/2) int_T^inf cos 2t / t^3 dt,
    # and integrating the second part by parts twice (x = 2T) gives
    # cos x / x^2 - sin x / x + ci(x)
    T, tail = cos_power_tail(Interval(2.0, 2.0), Interval(2.0, 2.0), 3)
    x = 2 * mpf(T)
    cos2_tail = 1 / x**2 + mp.cos(x) / x**2 - mp.sin(x) / x + mp.ci(x)
    assert mpf(tail.lo) <= cos2_tail <= mpf(tail.hi)
    assert tail.width <= 7e-5
    with pytest.raises(DomainError):
        tail_bound_mu_p(Interval(1.0, 1.0), Interval(2.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        tail_bound_mu_p(Interval(0.5, 1.0), Interval(2.0, 2.0), 2.0)
    for s, p, k in ((2.0, 2.0, -1), (2.0, 0.0, 3), (0.0, 2.0, 3)):
        with pytest.raises(DomainError):
            cos_power_tail(Interval(s, 2.0), Interval(p, 2.0), k)


# -- the two-sided cos-power tail ---------------------------------------------


@functools.cache
def _cos_moments(s, n):
    """2 int_0^{pi/2} cos^s v (v/pi)^(2m) dv for m < n: the even moments of
    sin^s u in u/pi - 1/2 over [0, pi]."""
    s = mpf(s)
    return [2 * mp.quad(lambda v: mp.cos(v) ** s * (v / mp.pi) ** (2 * m), [0, mp.pi / 2])
            for m in range(n)]


@functools.cache
def _cos_tail_truth(T, s, p, k, n=12):
    """int_T^inf |cos t|^s t^(-p-1) dt at the mpf end T, 20 digits.

    Summed over periods from T* = (k + 1/2) pi it is pi^(-p-1) int_0^pi
    sin^s u zeta(p+1, k + 1/2 + u/pi) du.  The Hurwitz zeta's Taylor series
    about k + 1, sum_n (sigma)_n/n! zeta(sigma + n, k + 1) (-x)^n with
    sigma = p + 1 (d/da zeta(sigma, a) = -sigma zeta(sigma + 1, a)),
    converges for |x| <= 1/2 < k + 1, and as sin^s is symmetric about pi/2
    only the even moments of sin^s in x = u/pi - 1/2 remain.  The sliver
    [T*, T] is subtracted by quadrature.
    """
    with mp.workdps(20):
        sig = mpf(p) + 1
        moments = _cos_moments(s, n)
        total = mp.fsum(mp.rf(sig, 2 * m) / mp.factorial(2 * m) * mp.zeta(sig + 2 * m, k + 1)
                        * moments[m] for m in range(n))
        t_star = (k + mpf(0.5)) * mp.pi
        sliver = mp.quad(lambda t: abs(mp.cos(t)) ** mpf(s) * t ** (-sig), [t_star, mpf(T)])
        return total / mp.pi**sig - sliver


TAIL_S = [Interval(SQRT2.lo, SQRT2.hi), Interval(2.0), Interval(4.0), Interval(16.0)]
TAIL_P = [2.0, 2.1, 2.5, 2.9, 3.0]
P_BOX = Interval(2.0, 2.0625)


@pytest.mark.parametrize("k", [3, 4])
def test_cos_power_tail_contains_mpmath(k):
    for s in TAIL_S:
        for p in TAIL_P:
            T, tail = cos_power_tail(s, Interval(p), k)
            truth = _cos_tail_truth(T, s.lo, p, k)
            assert mpf(tail.lo) <= truth <= mpf(tail.hi), (k, s, p)
            # the band (pi^2/32)(p+1) T^(-p-2) is most of the width
            assert tail.width <= 0.32 * (p + 1) * T ** (-p - 2), (k, s, p)
        T, tail = cos_power_tail(s, P_BOX, k)
        for p in (P_BOX.lo, P_BOX.mid, P_BOX.hi):
            for s_end in (s.lo, s.hi):
                truth = _cos_tail_truth(T, s_end, p, k)
                assert mpf(tail.lo) <= truth <= mpf(tail.hi), (k, s, p)


def test_cos_tail_truth_matches_the_hurwitz_quadrature():
    # the test oracle above against its defining period integral, done by
    # quadrature (tanh-sinh, split at the maximum and the zero of |cos|)
    k, s, p = 3, mpf(2) ** 0.5, mpf(2.1)
    T = (PI * (k + 0.5)).hi
    with mp.workdps(20):
        Tm = mpf(T)
        f = lambda u: abs(mp.cos(Tm + u)) ** s * mp.zeta(p + 1, (Tm + u) / mp.pi)
        pts = [0, (k + 1) * mp.pi - Tm, (k + mpf(1.5)) * mp.pi - Tm, mp.pi]
        direct = mp.quad(f, pts) / mp.pi ** (p + 1)
        assert abs(direct - _cos_tail_truth(T, s, 2.1, k)) < mpf(10) ** -18


def _beta_mean(s):
    """m_s = Gamma((s+1)/2) / (sqrt(pi) Gamma(s/2 + 1)), the Beta integral."""
    s = mpf(s)
    return mp.gamma((s + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(s / 2 + 1))


def _holds_beta_mean(m, s):
    """m holds m_s, up to the oracle's own rounding (an exact Wallis point
    can sit an ulp of 40 digits outside the mpmath value)."""
    beta = _beta_mean(s)
    return mpf(m.lo) - mpf(10) ** -38 <= beta <= mpf(m.hi) + mpf(10) ** -38


def test_cos_power_mean_contains_the_beta_integral():
    # the Wallis bracket holds the Gamma ratio at every point s; its
    # relative width is about 1/(4 S (S+2)), S = s + 128, so it is at most
    # 1e-5 wide from s = 1 on (1.14e-5 at s = 0.5).  The sqrt2 box's ends
    # are one ulp apart
    for s in (*TAIL_S, *(Interval(s) for s in (0.5, 1.0, 1.15, 3.0))):
        m = quad._cos_power_mean(s.lo, s.hi)
        assert m.width <= (1e-5 if s.lo >= 1.0 else 1.2e-5), s
        for s_end in (s.lo, s.hi):
            assert _holds_beta_mean(m, s_end), s
    # Wallis: m_s = C(s, s/2) / 2^s at even s, a dyadic point
    for s in (2, 4, 16):
        m = quad._cos_power_mean(float(s), float(s))
        exact = Fraction(math.comb(s, s // 2), 2**s)
        assert (Fraction(m.lo), Fraction(m.hi)) == (exact, exact), s
        assert _holds_beta_mean(m, s)


def test_cos_power_mean_on_an_s_box_from_its_ends():
    # m_s falls as s rises, so an s-box is the hull of m_s at its two ends;
    # an even end is exact and the other a Wallis bracket
    for lo, hi in ((SQRT2.lo, SQRT2.hi), (1.0, 1.5), (2.0, 2.5)):
        m = quad._cos_power_mean(lo, hi)
        ends = [quad._cos_power_mean(e, e) for e in (hi, lo)]
        assert (m.lo, m.hi) == (ends[0].lo, ends[1].hi)
        for s in (lo, (lo + hi) / 2, hi):
            assert _holds_beta_mean(m, s), (lo, hi, s)
    assert quad._cos_power_mean(2.0, 2.5).hi == 0.5


def _min_psi(s):
    """Psi(T* + pi/2) = int_0^{pi/2} (pi/2 - u)(sin^s u - m_s) du, the
    minimum of the cos-power tail's second antiderivative."""
    s = mpf(s)
    m = mp.gamma((s + 1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(s / 2 + 1))
    return mp.quad(lambda u: (mp.pi / 2 - u) * (mp.sin(u) ** s - m), [0, mp.pi / 2])


def test_cos_power_tail_band_constant():
    # the band's constant pi^2/32 bounds -min Psi on s in [1, 16]
    with mp.workdps(15):
        for i in range(31):
            s = 1 + mpf(i) / 2
            assert _min_psi(s) >= -mp.pi**2 / 32, s
        for s, value in ((mp.sqrt(2), -0.236), (2, -0.25), (4, -0.25), (16, -0.182)):
            assert abs(_min_psi(s) - value) < 1e-3, s


def test_gaussian_sanity():
    # int_0^inf e^{-t^2/2} dt = sqrt(pi/2); finite part to 10 plus majorant tail
    r = integrate(lambda t: (-(t * t) * 0.5).exp(), 0.0, 10.0, 2e-5)
    T = Interval(10.0, 10.0)
    tail_hi = ((1.0 / T) * (-(T * T) * 0.5).exp()).hi
    total = r.value + Interval(0.0, tail_hi)
    assert total.contains(math.sqrt(math.pi / 2))
    assert total.width <= 5e-5


def test_near_zero_bound():
    b = near_zero_bound(Interval(1.0, 1.0), Interval(0.5, 0.5), 0.01)
    assert b.lo == 0.0
    assert b.contains(0.01**1.5 / 1.5)
    with pytest.raises(DomainError):
        near_zero_bound(Interval(1.0, 1.0), Interval(-1.5, -1.5), 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        integrate(lambda t: t, 0.0, 1.0, 0.0)


# -- second-order cell enclosures --------------------------------------------


def _gap_integrand(p, s):
    p, s = mpf(p), mpf(s)
    return lambda t: (mp.exp(-s * t * t / 2) - abs(mp.cos(t)) ** s) / t ** (p + 1)


def _gap_pieces_truth(p, s, T):
    """mpmath values of the gauss/cos gap integral on the series piece
    [delta, t1] and the direct piece [t1, T], split at the zeros of cos."""
    f = _gap_integrand(p, s)
    t1 = mpf(npcheck._SERIES_T1)
    zeros = [mp.pi / 2 + k * mp.pi for k in range(10)]
    direct = mp.quad(f, [t1] + [z for z in zeros if z < T] + [mpf(T)])
    return _gap_series_truth(p, s), direct


@pytest.mark.parametrize("target", [2e-4, 1e-5])
@pytest.mark.parametrize("p", [2.1, 2.9])
@pytest.mark.parametrize("s", [float(SQRT2.lo), 4.0])
def test_gap_integral_pieces_contain_mpmath(p, s, target, monkeypatch):
    monkeypatch.setattr(npcheck, "_GAP_TARGET", target)
    piv, siv = Interval(p, p), Interval(s, s)
    _, direct = gauss_cos_gap_integral(piv, siv)
    series = npcheck._gap_series_integral(npcheck._gap_series(siv), piv)
    assert direct.ok and direct.value.width <= target
    # the direct piece stops where the cos-power tail starts, at 7 pi/2
    T, _ = cos_power_tail(siv, piv, 3)
    assert 0 <= mpf(T) - mp.mpf(3.5) * mp.pi < 1e-14
    for enc, truth in zip((series, direct.value), _gap_pieces_truth(p, s, T)):
        assert mpf(enc.lo) <= truth <= mpf(enc.hi)


@functools.cache
def _gap_series_truth(p, s):
    """int_delta^t1 of the gap integrand, 30 digits at mpf endpoints."""
    with mp.workdps(30):
        f = _gap_integrand(p, s)
        return mp.quad(f, [mpf(npcheck._GAP_DELTA), mpf(0.01), mpf(0.1), mpf(npcheck._SERIES_T1)])


# the four gap-integrals pairs, and the largest s any suite uses
SERIES_PAIRS = [(2.1, float(SQRT2.lo)), (2.1, 4.0), (2.9, float(SQRT2.lo)), (2.9, 4.0), (2.9, 16.0)]
SERIES_ORDERS = npcheck._SERIES_ORDERS


# the production orders, then orders at which one remainder dominates: R's
# tail (K = 4), that of 1 - e^{-b} (N = 3) and that of e^{-a} (L = 4)
@pytest.mark.parametrize("orders", [SERIES_ORDERS, (4, 7, 16), (20, 3, 16), (20, 7, 4)])
def test_gap_series_contains_mpmath(orders, monkeypatch):
    monkeypatch.setattr(npcheck, "_SERIES_ORDERS", orders)
    for p, s in SERIES_PAIRS:
        enc = npcheck._gap_series_integral(npcheck._gap_series(Interval(s)), Interval(p))
        assert mpf(enc.lo) <= _gap_series_truth(p, s) <= mpf(enc.hi), (p, s)
        if orders == SERIES_ORDERS:
            assert enc.width <= 1e-9, (p, s)
    # a p-box times an s-box holds the integral at every (p, s) in it
    P, S = Interval(2.0, 2.0625), Interval(SQRT2.lo, 1.5)
    enc = npcheck._gap_series_integral(npcheck._gap_series(S), P)
    for p in (P.lo, P.mid, P.hi):
        for s in (S.lo, S.hi):
            assert mpf(enc.lo) <= _gap_series_truth(p, s) <= mpf(enc.hi), (p, s)


@functools.cache
def _near_zero_truth(p, s):
    """int_0^delta of the gap integrand, 30 digits, in the cancellation-free
    form e^(-s t^2/2) (-expm1(-s R(t))) / t^(p+1) with R = -ln cos t - t^2/2
    summed from LN_COS_COEFFS; the direct form cancels to noise near 0."""
    with mp.workdps(30):
        P, S = mpf(p), mpf(s)
        c = [mpf(f.numerator) / f.denominator for f in LN_COS_COEFFS[1:]]
        R = lambda t: sum(ck * t ** (2 * k) for k, ck in enumerate(c, 2))
        f = lambda t: mp.exp(-S * t * t / 2) * -mp.expm1(-S * R(t)) / t ** (P + 1)
        return mp.quad(f, [0, mpf(npcheck._GAP_DELTA)])


@pytest.mark.parametrize("p, s", SERIES_PAIRS)
def test_gap_integral_head_contains_mpmath(p, s, monkeypatch):
    # with its quadrature and both tails read as [0, 0], the gap integral is
    # its [0, t1] head: the [0, delta] majorant (C4) plus the series; without
    # the majorant, or with C4 halved, it misses the truth
    zero = Interval(0.0, 0.0)
    monkeypatch.setattr(npcheck, "integrate", lambda *args: QuadResult(zero, "ok", 0))
    monkeypatch.setattr(npcheck, "tail_bound_mu_p", lambda *args: zero)
    monkeypatch.setattr(npcheck, "cos_power_tail", lambda *args: (cos_power_tail(*args)[0], zero))
    head, _ = gauss_cos_gap_integral(Interval(p), Interval(s))
    truth = _near_zero_truth(p, s) + _gap_series_truth(p, s)
    assert mpf(head.lo) <= truth <= mpf(head.hi), (p, s)


def test_excess_powers_enclose_t1_squared():
    # at t1 = 0.7 the float t1 * t1 lies below t1^2, so Q(u1) must be taken
    # on an enclosure of t1^2 to bound Q, whose c_i are all > 0, on [0, t1^2]
    t1 = 0.7
    u1 = Fraction(t1) ** 2
    assert Fraction(t1 * t1) < u1
    k, n, _ = npcheck._SERIES_ORDERS
    _, rq, tau = npcheck._excess_powers(k, n, t1)
    q = sum(c * u1**i for i, c in enumerate(LN_COS_COEFFS[1 : k - 1]))
    assert q <= Fraction(rq.hi)
    # tau encloses (R - R_K)(t1)/t1^(2k), R = -ln cos t - t^2/2, R_K = u^2 Q
    with mp.workdps(60):
        t, uq, qq = mpf(t1), mpf(t1) ** 2, mpf(q.numerator) / q.denominator
        truth = (-mp.log(mp.cos(t)) - uq / 2 - uq * uq * qq) / uq**k
        assert mpf(tau.lo) <= truth <= mpf(tau.hi)


def test_gap_series_needs_a_small_exponent():
    # the alternating sum of 1 - e^{-b} is bounded only while b <= 2 on [0, t1]
    with pytest.raises(DomainError):
        npcheck._gap_series(Interval(400.0))


def test_cell_enclosure_falls_back_across_a_kink():
    # |cos t|^sqrt2 has an unbounded f'' at pi/2: the jet raises there and
    # those cells keep the first-order enclosure
    f = lambda t: pow_real(t.cos().abs(), SQRT2) / t**3
    r = integrate(f, 1.0, 2.0, 1e-6)
    g = lambda t: abs(mp.cos(t)) ** mp.sqrt(2) / t**3
    truth = mp.quad(g, [1, mp.pi / 2, 2])
    assert r.ok and r.value.width <= 1e-6
    assert mpf(r.value.lo) <= truth <= mpf(r.value.hi)


def test_constant_integrand_on_inexact_cells():
    third = Interval.from_fraction(Fraction(1, 3))
    r = integrate(lambda t: third, 0.1, 2.1, 1e-12)
    exact = Fraction(1, 3) * (Fraction(2.1) - Fraction(0.1))
    assert Fraction(r.value.lo) <= exact <= Fraction(r.value.hi)
    assert r.ok and r.cells == 1


# cells whose float midpoint 0.5 (lo + hi) is not the exact one, as lo + hi
# rounds: the first two examples of test_simpson_cell_contains_mpmath
INEXACT_MIDPOINT_CELLS = [(0.1, 2.1), (1.0, 1.0 + 3 * 2.0**-52)]


def test_inexact_midpoint_cells():
    for lo, hi in INEXACT_MIDPOINT_CELLS:
        assert Fraction(lo) + Fraction(hi) != 2 * Fraction(0.5 * (lo + hi))


def _family(kind, a, coeffs):
    """An integrand on Intervals and Jets, and its integral over [lo, hi] by
    its primitive in mpmath, which holds its relative accuracy where
    mp.quad's absolute tolerance does not (a value of 1e-304)."""
    if kind == "poly":
        def f(t):
            acc = t * coeffs[0]
            for c in coeffs[1:-1]:
                acc = (acc + c) * t
            return acc + coeffs[-1]
        n = len(coeffs)
        primitive = [mpf(c) / (n - k) for k, c in enumerate(coeffs)] + [0]
        return f, lambda lo, hi: mp.polyval(primitive, hi) - mp.polyval(primitive, lo)
    if kind == "exp":
        # e^(a lo) (e^(a (hi - lo)) - 1)/a, with hi - lo exact in mpf
        return (lambda t: (t * a).exp()), (
            lambda lo, hi: mp.exp(a * lo) * mp.expm1(a * (hi - lo)) / a if a else hi - lo)
    if kind == "t-sin":
        primitive = lambda t: mp.sin(t) - t * mp.cos(t)
        return (lambda t: t * t.sin()), (lambda lo, hi: primitive(hi) - primitive(lo))
    # t^(-p-1) with p = 2 + |a|/2 in [2, 3]
    p = 2.0 + abs(a) / 2.0
    return (lambda t: pow_real(t, -(Interval(p) + 1.0))), (
        lambda lo, hi: (lo ** -mpf(p) - hi ** -mpf(p)) / p)


@seed(31)
@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["poly", "exp", "t-sin", "t-power"]),
    lo=st.floats(0.05, 4.0),
    width=st.floats(1e-9, 3.0),
    a=st.floats(-2.0, 2.0),
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6),
)
@example(kind="t-power", lo=0.1, width=2.0, a=1.0, coeffs=[1.0, 0.0])
@example(kind="poly", lo=1.0, width=3 * 2.0**-52, a=0.0, coeffs=[1.0, -2.0, 0.5, 0.0, 3.0])
@example(kind="exp", lo=0.1, width=2.0, a=-1.5, coeffs=[1.0, 0.0])
@example(kind="poly", lo=1.0, width=1.0, a=0.0, coeffs=[0.0, 2.552492007497056e-304])
def test_simpson_cell_contains_mpmath(kind, lo, width, a, coeffs):
    # Simpson with its Peano remainder, alone in _cell and bisected by
    # integrate at a small budget, holds the mpmath integral between the
    # float ends read as mpf; the example cells and about half the random
    # ones have float midpoints off the exact one
    hi = lo + width
    f, integral = _family(kind, a, coeffs)
    truth = integral(mpf(lo), mpf(hi))
    for enc in (
        quad._cell(f, lo, hi, {}),
        quad._cell(f, lo, hi, {lo: f(Interval(lo)), hi: f(Interval(hi))}),
    ):
        assert mpf(enc.lo) <= truth <= mpf(enc.hi), (kind, lo, hi, enc)
    with mock.patch.object(quad, "MAX_CELLS", 9):
        r = integrate(f, lo, hi, 1e-300)
    assert r.cells <= 9
    assert mpf(r.value.lo) <= truth <= mpf(r.value.hi), (kind, lo, hi, r)


def test_simpson_cell_is_exact_on_quadratics_but_for_rounding():
    # f'' is the point 6, so the Peano band (W^3/162)(D2 - D2) is rounding
    # alone; a band of D2 itself, one-sided, would miss the value by 1/8
    f = lambda t: (t * t) * 3.0 - t + 2.0
    enc = quad._cell(f, 0.25, 1.75, {})
    lo, hi = Fraction(0.25), Fraction(1.75)
    exact = hi**3 - lo**3 - (hi**2 - lo**2) / 2 + 2 * (hi - lo)
    assert Fraction(enc.lo) <= exact <= Fraction(enc.hi)
    assert enc.width <= 1e-13


def test_simpson_band_is_nearly_attained():
    # f'' = cos(w (t - 2)), w = 3 pi/2, on [1, 3] has the sign of Simpson's
    # kernel K, so the error int K f'' is 0.80 of the band's half-width
    # 2 (b-a)^3/162 for f'' in [-1, 1]: the band holds the integral and one
    # 21% narrower would miss it
    w = 3 * math.pi / 2
    enc = quad._cell(lambda t: -((t - 2.0) * w).cos() / (w * w), 1.0, 3.0, {})
    truth = -2 * mp.sin(mpf(w)) / mpf(w) ** 3
    half_band = 2 * 2.0**3 / 162
    assert mpf(enc.lo) <= truth <= mpf(enc.hi)
    assert mpf(enc.hi) - truth <= 0.21 * half_band


def test_gap_integral_cell_count():
    # deterministic: Simpson cells need 107 on [t1, 7 pi/2] here (the
    # midpoint Taylor form needed 155)
    _, direct = gauss_cos_gap_integral(Interval(2.9, 2.9), Interval(4.0, 4.0))
    assert direct.cells <= 110


def test_wide_quadrature_reaches_the_leaf_note(monkeypatch):
    # every quadrature is cut at 35 cells, and the cut reaches the leaf.  m_s
    # is a Wallis bracket at s = 3, so the direct piece is the one quadrature
    # cut there
    monkeypatch.setattr(quad, "MAX_CELLS", 35)
    res = npcheck.check_conclusion_direct(p_grid=(2.5,), s_grid=(3.0,))
    leaf = res.children[-1].children[0]
    assert leaf.name == "integral-p2.5-s3.0"
    assert leaf.note == "quadrature target missed (wide, 35 cells)"
    monkeypatch.undo()
    res = npcheck.check_conclusion_direct(p_grid=(2.5,), s_grid=(3.0,))
    assert res.children[-1].children[0].note == ""
    assert note_missed("x", integrate(lambda t: t.sin(), 0.0, 1.0, 1e-6)) == "x"
