"""Validated quadrature: enclosures, refinement monotonicity, tail bounds."""

import math

import pytest
from mpmath import mp

from khintchine.interval import Interval, SQRT2, DomainError, pow_real
from khintchine.quad import (
    QuadConfig,
    integrate,
    near_zero_bound,
    tail_bound_mu_p,
)

mp.dps = 40

# frozen oracle: int_{pi/2}^inf cos^2 t / t^4 dt (mpmath quadosc, dps 40)
COS2_T4_TAIL = 0.0247794406641325


def test_constant_integrand():
    r = integrate(lambda t: Interval(1.0, 1.0), 0.0, 1.0)
    assert r.value.contains(1.0) and r.value.width <= 1e-9
    assert r.ok


def test_sin_integral():
    r = integrate(
        lambda t: t.sin(), 0.0, math.pi, QuadConfig(max_depth=22, target_width=3e-5)
    )
    assert r.value.contains(2.0)
    assert r.value.width <= 3.5e-5


def test_oscillatory_mu_p_integral():
    f = lambda t: (t.cos() ** 2) * pow_real(t, Interval(-4.0, -4.0))
    r = integrate(f, math.pi / 2, 50.0, QuadConfig(target_width=5e-5))
    tail = tail_bound_mu_p("cos_power", SQRT2, Interval(3.0, 3.0), 50.0)
    total = r.value + tail
    assert total.contains(COS2_T4_TAIL)
    assert total.width <= 3e-4


def test_refinement_never_widens():
    f = lambda t: (t * t - 1.0).exp()
    shallow = integrate(f, 0.0, 2.0, QuadConfig(max_depth=12, target_width=1e-14, max_cells=5000))
    deep = integrate(f, 0.0, 2.0, QuadConfig(max_depth=24, target_width=1e-14, max_cells=20000))
    assert shallow.value.encloses(deep.value)


def test_split_consistency():
    f = lambda t: t.sin() * t
    whole = integrate(f, 0.0, 2.0, QuadConfig(target_width=4e-5))
    left = integrate(f, 0.0, 0.7, QuadConfig(target_width=2e-5))
    right = integrate(f, 0.7, 2.0, QuadConfig(target_width=2e-5))
    assert whole.value.intersects(left.value + right.value)


def test_budget_exhaustion_is_flagged_but_valid():
    r = integrate(
        lambda t: t.sin(), 0.0, math.pi, QuadConfig(max_depth=10, target_width=1e-12, max_cells=512)
    )
    assert r.status == "wide"
    assert r.value.contains(2.0)


def test_domain_error_propagates():
    with pytest.raises(DomainError):
        integrate(lambda t: t.ln(), -1.0, 1.0, QuadConfig(target_width=1e-3))


def test_tail_bounds():
    # exact closed form for h = 1: T^-p / p
    one = tail_bound_mu_p("one", Interval(1.0, 1.0), Interval(2.0, 2.0), 2.0)
    assert one.contains(0.125) and one.width <= 1e-12
    cosp = tail_bound_mu_p("cos_power", SQRT2, Interval(2.0, 2.0), 3 * math.pi / 4)
    assert cosp.lo == 0.0
    assert cosp.hi <= (3 * math.pi / 4) ** -2 / 2 + 1e-12
    g = tail_bound_mu_p("gauss", SQRT2, Interval(2.0, 2.0), 5.0)
    assert g.lo == 0.0 and g.hi <= 1e-7
    true_tail = float(
        mp.quad(lambda t: mp.e ** (-mp.sqrt(2) * t**2 / 2) / t**3, [5, mp.inf])
    )
    assert true_tail <= g.hi
    with pytest.raises(DomainError):
        tail_bound_mu_p("one", Interval(1.0, 1.0), Interval(2.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        tail_bound_mu_p("weird", Interval(1.0, 1.0), Interval(2.0, 2.0), 2.0)


def test_gaussian_sanity():
    # int_0^inf e^{-t^2/2} dt = sqrt(pi/2); finite part to 10 plus majorant tail
    r = integrate(
        lambda t: (-(t * t) * 0.5).exp(), 0.0, 10.0, QuadConfig(target_width=2e-5)
    )
    T = Interval(10.0, 10.0)
    tail_hi = ((1.0 / T) * (-(T * T) * 0.5).exp()).hi
    total = r.value + Interval(0.0, tail_hi)
    assert total.contains(math.sqrt(math.pi / 2))
    assert total.width <= 5e-5


def test_near_zero_bound():
    b = near_zero_bound(Interval(1.0, 1.0), Interval(0.5, 0.5), 0.01, nonneg=True)
    assert b.lo == 0.0
    assert b.contains(0.01**1.5 / 1.5)
    b2 = near_zero_bound(Interval(2.0, 2.0), Interval(1.0, 1.0), 0.1)
    assert b2.lo == -b2.hi
    with pytest.raises(DomainError):
        near_zero_bound(Interval(1.0, 1.0), Interval(-1.5, -1.5), 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(max_depth=5)
    with pytest.raises(ValueError):
        QuadConfig(target_width=0.0)
