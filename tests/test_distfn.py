"""Distribution functions: examples, cross-validation, derivative checks."""

import math
import random

import pytest
from hypothesis import given, seed, settings, strategies as st
from mpmath import mp, mpf

from khintchine.interval import PI, Interval, DomainError, pow_real
from khintchine.distfn import (
    SERIES_K,
    MeasureParams,
    _k_pi,
    brute_force_dist,
    derivatives,
    f_star,
    g_star,
    star_difference,
)


@pytest.fixture(autouse=True)
def _mp_precision():
    # every test runs at 40 digits, restored afterwards
    with mp.workdps(40):
        yield


MP2 = MeasureParams(Interval(2.0, 2.0))

# frozen oracle value (mpmath, dps 40, closed form)
G_STAR_097_P2 = 8.2076987763226489


def iv(x):
    return Interval(x, x)


def _ref_f_star(x: float, p: float):
    """F_*(x) in closed form: sum_{k>=1} (k pi -+ a)^-p = pi^-p zeta(p, 1 -+ a/pi)."""
    a = mp.acos(mpf(x))
    p = mpf(p)
    tails = mp.zeta(p, 1 - a / mp.pi) - mp.zeta(p, 1 + a / mp.pi)
    return (a**-p - mp.pi**-p * tails) / p


def _ref_f_prime(x: float, p: float):
    """F_*'(x) = pi^-(p+1) [zeta(p+1, a/pi) + zeta(p+1, 1 - a/pi)] / sqrt(1 - x^2)."""
    a = mp.acos(mpf(x))
    q = mpf(p) + 1
    series = mp.zeta(q, a / mp.pi) + mp.zeta(q, 1 - a / mp.pi)
    return mp.pi**-q * series / mp.sqrt(1 - mpf(x) ** 2)


def _contains(enc: Interval, value) -> bool:
    return mpf(enc.lo) <= value <= mpf(enc.hi)


def test_measure_params_validation():
    with pytest.raises(DomainError):
        MeasureParams(Interval(1.5, 1.5))
    with pytest.raises(DomainError):
        MeasureParams(Interval(2.0, 3.0001))


def test_g_star_examples():
    x = math.exp(-0.5)
    assert g_star(iv(x), MP2).contains(0.5)
    g97 = g_star(iv(0.97), MP2)
    assert g97.contains(G_STAR_097_P2)
    assert g_star(iv(1e-9), MP2).hi <= 0.013


def test_f_star_values():
    for K in (1, SERIES_K, 400):
        assert _contains(f_star(iv(0.5), MP2, K=K), _ref_f_star(0.5, 2))
    f97 = f_star(iv(0.97), MP2)
    assert _contains(f97, _ref_f_star(0.97, 2))
    assert f97.lo > g_star(iv(0.97), MP2).hi  # strictly above at sigma


def test_f_star_near_zero():
    tiny = f_star(iv(1e-9), MP2, K=400)
    assert tiny.hi <= 1e-6
    assert tiny.lo >= -1e-8  # rounding slack only; the true value is ~4e-10


def test_f_star_monotone():
    mp25 = MeasureParams(Interval(2.5, 2.5))
    vals = [f_star(iv(x), mp25, K=200) for x in (0.3, 0.6, 0.9)]
    assert vals[0].hi < vals[1].lo < vals[1].hi < vals[2].lo
    gs = [g_star(iv(x), mp25) for x in (0.3, 0.6, 0.9)]
    assert gs[0].hi < gs[1].lo < gs[1].hi < gs[2].lo


def test_f_star_matches_reference_grid():
    for p in (2.0, 2.5, 3.0):
        mpp = MeasureParams(iv(p))
        for x in (0.1, 0.4, 0.7, 0.95):
            for K in (SERIES_K, 400):
                assert _contains(f_star(iv(x), mpp, K=K), _ref_f_star(x, p))


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(2.0, 3.0),
    x=st.floats(1e-3, 0.999),
    K=st.integers(1, 64),
)
def test_f_star_contains_closed_form(p, x, K):
    ref = _ref_f_star(x, p)
    assert _contains(f_star(iv(x), MeasureParams(iv(p)), K=K), ref)


def test_k_pi_table():
    # f_star and derivatives read k*pi from this table instead of rebuilding it
    for K in (SERIES_K, 400):
        table = _k_pi(K)
        assert len(table) == K + 1
        assert all(kpi == PI * k for k, kpi in enumerate(table))
        assert _k_pi(K) is table


def test_cross_validation_overlap(f_star_vs_brute_force):
    for p, x, f, b in f_star_vs_brute_force:
        assert f.intersects(b), (p, x)
        hull = Interval.hull(f, b)
        assert hull.width <= 1e-6, (p, x, hull.width)


def test_brute_force_contains_closed_form(f_star_vs_brute_force):
    for p, x, _, b in f_star_vs_brute_force:
        assert _contains(b, _ref_f_star(x, p)), (p, x)


def test_brute_force_gauss_matches_g_star():
    for p in (2.0, 2.7):
        mpp = MeasureParams(iv(p))
        for x in (0.05, 0.5, 0.95):
            assert brute_force_dist(x, mpp, "gauss").intersects(g_star(iv(x), mpp))


def test_brute_force_sigma_value():
    enc = brute_force_dist(0.97, MP2, "cos")
    assert 8.2 < enc.lo and enc.hi < 8.3


def test_derivatives():
    fp, gp = derivatives(iv(0.5), MP2, K=400)
    # G' closed form at x = e^{-1/2}: e^{1/2}
    fp2, gp2 = derivatives(iv(math.exp(-0.5)), MP2)
    assert gp2.contains(math.exp(0.5))
    assert fp.lo > 0 and gp.lo > 0
    for p in (2.0, 2.5, 3.0):
        for x in (0.01, 0.5, 0.97):
            for K in (1, SERIES_K, 400):
                fpv, _ = derivatives(iv(x), MeasureParams(iv(p)), K=K)
                assert _contains(fpv, _ref_f_prime(x, p)), (p, x, K)
    # finite differences at 20 interior points
    h = 1e-4
    for i in range(20):
        x = 0.014 + 0.05 * i
        if not 1e-3 < x < 1 - 1e-3:
            continue
        fpv, gpv = derivatives(iv(x), MP2, K=400)
        fd_f = (
            f_star(iv(x + h), MP2, 400).mid - f_star(iv(x - h), MP2, 400).mid
        ) / (2 * h)
        fd_g = (g_star(iv(x + h), MP2).mid - g_star(iv(x - h), MP2).mid) / (2 * h)
        assert abs(fd_f - fpv.mid) <= 1e-2 * abs(fd_f)
        assert abs(fd_g - gpv.mid) <= 1e-2 * abs(fd_g)


@seed(18)
@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(2.0, 3.0),
    x=st.floats(1e-3, 0.99),
    K=st.integers(1, 64),
)
def test_derivatives_contain_closed_form(p, x, K):
    fpv, _ = derivatives(iv(x), MeasureParams(iv(p)), K=K)
    assert _contains(fpv, _ref_f_prime(x, p))


def _ref_g_prime(x, p):
    """G_*'(x) = (-2 ln x)^(-p/2 - 1) / x."""
    return (-2 * mp.log(x)) ** (-mpf(p) / 2 - 1) / x


@seed(20)
@settings(max_examples=100, deadline=None)
@given(
    p=st.floats(2.0, 3.0),
    a=st.floats(1e-3, 0.99),
    w=st.floats(0.0, 1.0 / 64.0),
)
def test_derivatives_contain_closed_form_on_cells(p, a, w):
    # np_generic's slope forms and its transition gap read derivatives on
    # whole cells [a, a + w] of its window [1e-3, 0.99]
    b = min(a + w, 0.99)
    fpv, gpv = derivatives(Interval(a, b), MeasureParams(iv(p)))
    for x in (a, 0.5 * (a + b), b):
        assert _contains(fpv, _ref_f_prime(x, p)), (p, a, b, x)
        assert _contains(gpv, _ref_g_prime(mpf(x), p)), (p, a, b, x)


def _ref_difference(x, p):
    """F_*(x) - G_*(x) at mpf x and p, F_* from Hurwitz zeta."""
    return _ref_f_star(x, p) - (-2 * mp.log(x)) ** (-p / 2) / p


def _difference_on_cell(a, b, p):
    """star_difference on [a, b], fed f_star at the two ends."""
    mpp = MeasureParams(p)
    return star_difference(Interval(a, b), mpp, f_star(iv(a), mpp), f_star(iv(b), mpp))


@pytest.mark.parametrize("p", [2.0, 2.5, 2.9, 3.0])
def test_star_difference_contains_truth_on_cells(p):
    # random cells in [cos 1.2, 0.99], checked at mpf ends and interior points
    rng = random.Random(int(p * 10))
    for _ in range(30):
        a = rng.uniform(0.3625, 0.985)
        b = min(a + rng.uniform(0.0, 1.0 / 32.0), 0.99)
        enc = _difference_on_cell(a, b, iv(p))
        for x in (mpf(a), mpf(b), *(mpf(rng.uniform(a, b)) for _ in range(3))):
            assert _contains(enc, _ref_difference(x, mpf(p))), (p, a, b, x)


def test_star_difference_contains_truth_on_a_p_box():
    rng = random.Random(2)
    box = Interval(2.4, 2.6)
    for _ in range(15):
        a = rng.uniform(0.3625, 0.985)
        b = min(a + rng.uniform(0.0, 1.0 / 32.0), 0.99)
        enc = _difference_on_cell(a, b, box)
        for x in (mpf(a), mpf(b), mpf(rng.uniform(a, b))):
            for p in (mpf(2.4), mpf(2.5), mpf(2.6), mpf(rng.uniform(2.4, 2.6))):
                assert _contains(enc, _ref_difference(x, p)), (a, b, x, p)


def test_star_difference_is_narrow_near_one():
    # the monotone hull of the same cell is wider than F - G itself
    a, b = 0.9745, 0.99
    enc = _difference_on_cell(a, b, iv(2.0))
    fa, fb, ga, gb = (f(iv(x), MP2) for f in (f_star, g_star) for x in (a, b))
    hull = Interval(fa.lo, fb.hi) - Interval(ga.lo, gb.hi)
    assert 0.0 < enc.lo and enc.width < 0.01 and hull.width > 30.0


def test_star_difference_domain():
    # arccos x.lo > 1.2, that is x.lo < cos 1.2
    with pytest.raises(DomainError):
        _difference_on_cell(0.36, 0.4, iv(2.0))


def test_ratio_above_one_at_cos1():
    x = math.cos(1.0)
    fp, gp = derivatives(iv(x), MP2, K=400)
    assert (fp / gp).lo > 1.0


def test_domain_guards():
    with pytest.raises(DomainError):
        f_star(iv(0.0), MP2)
    with pytest.raises(DomainError):
        g_star(iv(1.0), MP2)
    with pytest.raises(DomainError):
        brute_force_dist(0.999, MP2, "cos")
    with pytest.raises(ValueError):
        brute_force_dist(0.5, MP2, "sinc")


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
            return (pow_real(cpi - a, q) - pow_real(cpi + a, q)) / ((p - 1.0) * PI)

        acc = pow_real(a, -p)
        for k in range(1, K + 1):
            acc = acc - term(PI * k)
        next_pi = PI * (K + 1)
        lower = integral(next_pi) + term(next_pi) * 0.5
        upper = integral(PI * (K + 0.5))
        return (acc - Interval(lower.lo, upper.hi)) / p

    def contains_truth(got, x, p):
        # an enclosure over an x interval or a p box holds the value at each corner
        return all(
            mpf(got.lo) <= _ref_f_star(xe, pe) <= mpf(got.hi)
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
