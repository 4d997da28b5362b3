"""Validated quadrature: enclosures, refinement monotonicity, tail bounds."""

import functools
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from khintchine import quad
from khintchine.interval import Interval, SQRT2, DomainError, pow_real
from khintchine.quad import integrate, near_zero_bound, note_missed, tail_bound_mu_p
from khintchine.verifier import npcheck
from khintchine.verifier.npcheck import gauss_cos_gap_integral


@pytest.fixture(autouse=True)
def _mp_precision():
    # every test runs at 40 digits, restored afterwards
    with mp.workdps(40):
        yield


# frozen oracle: int_{pi/2}^inf cos^2 t / t^4 dt (mpmath quadosc, dps 40)
COS2_T4_TAIL = 0.0247794406641325


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
    r = integrate(f, math.pi / 2, 50.0, 5e-5)
    tail = tail_bound_mu_p("cos_power", SQRT2, Interval(3.0, 3.0), 50.0)
    total = r.value + tail
    assert total.contains(COS2_T4_TAIL)
    assert total.width <= 3e-4


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
    cosp = tail_bound_mu_p("cos_power", SQRT2, Interval(2.0, 2.0), 3 * math.pi / 4)
    assert cosp.lo == 0.0
    assert cosp.hi <= (3 * math.pi / 4) ** -2 / 2 + 1e-12
    g = tail_bound_mu_p("gauss", SQRT2, Interval(2.0, 2.0), 5.0)
    assert g.lo == 0.0 and g.hi <= 1e-7
    true_tail = float(
        mp.quad(lambda t: mp.e ** (-mp.sqrt(2) * t**2 / 2) / t**3, [5, mp.inf])
    )
    assert true_tail <= g.hi
    # the cond2 tails, against their integrands at mpf endpoints
    gauss = lambda k: lambda t: mp.e ** (-(t**2) / mp.sqrt(2)) / t**k
    # int_50^inf cos(t)^2 / t^3 dt = 1/(4 T^2) + (1/2) int_T^inf cos 2t / t^3 dt
    # at T = 50; integrating the second part by parts twice (x = 2T) gives
    # cos x / x^2 - sin x / x + ci(x)
    x = mpf(100)
    cos2_tail = 1 / x**2 + mp.cos(x) / x**2 - mp.sin(x) / x + mp.ci(x)
    for kind, s, p, T, truth in (
        ("gauss", SQRT2, 1.0, 8.0, mp.quad(gauss(2), [8, mp.inf])),
        ("gauss", SQRT2, 2.0, 6.0, mp.quad(gauss(3), [6, mp.inf])),
        ("cos_power", Interval(2.0, 2.0), 2.0, 50.0, cos2_tail),
    ):
        bound = tail_bound_mu_p(kind, s, Interval(p, p), T)
        assert bound.lo == 0.0 and mpf(bound.hi) >= truth, (kind, T)
    with pytest.raises(DomainError):
        tail_bound_mu_p("cos_power", Interval(1.0, 1.0), Interval(2.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        tail_bound_mu_p("weird", Interval(1.0, 1.0), Interval(2.0, 2.0), 2.0)


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


def _gap_pieces_truth(p, s):
    """mpmath values of the near piece [delta, 1.2] (series on [delta, t1],
    then quadrature) and the direct piece [1.2, 30] of the gauss/cos gap
    integral, split at the zeros of cos."""
    f = _gap_integrand(p, s)
    zeros = [mp.pi / 2 + k * mp.pi for k in range(10)]
    near = mp.quad(f, [mpf(npcheck._GAP_DELTA), mpf(0.01), mpf(npcheck._SERIES_T1), mpf(1.2)])
    direct = mp.quad(f, [mpf(1.2)] + [z for z in zeros if z < 30] + [mpf(30)])
    return near, direct


@pytest.mark.parametrize("target", [2e-4, 1e-5])
@pytest.mark.parametrize("p", [2.1, 2.9])
@pytest.mark.parametrize("s", [float(SQRT2.lo), 4.0])
def test_gap_integral_pieces_contain_mpmath(p, s, target, monkeypatch):
    monkeypatch.setattr(npcheck, "_GAP_TARGET", target)
    piv, siv = Interval(p, p), Interval(s, s)
    _, (quad1, direct) = gauss_cos_gap_integral(piv, siv)
    series = npcheck._gap_series_integral(npcheck._gap_series(siv), piv)
    for q in (quad1, direct):
        assert q.ok
        assert q.value.width <= target
    for enc, truth in zip((series + quad1.value, direct.value), _gap_pieces_truth(p, s)):
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


def test_gap_integral_cell_count():
    # deterministic: the second-order enclosure needs 210 cells on [t1, 30]
    # here (496 on [1e-3, 30] before the series), the first-order one 143k
    _, quads = gauss_cos_gap_integral(Interval(2.9, 2.9), Interval(4.0, 4.0))
    assert sum(q.cells for q in quads) <= 260


def test_wide_quadrature_reaches_the_leaf_note(monkeypatch):
    monkeypatch.setattr(quad, "MAX_CELLS", 41)
    res = npcheck.check_conclusion_direct(p_grid=(2.5,), s_grid=(4.0,))
    leaf = res.children[-1].children[0]
    assert leaf.name == "integral-p2.5-s4.0"
    assert leaf.note == "quadrature target missed (wide, 82 cells)"
    monkeypatch.undo()
    assert note_missed("x", integrate(lambda t: t.sin(), 0.0, 1.0, 1e-6)) == "x"
