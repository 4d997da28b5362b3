"""Condition-1 checks: everything proves, spec examples hold, degenerate
parameters fail as they should."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from khintchine import specfun as sf
from khintchine.cli import _constants_suite
from khintchine.distfn import MeasureParams, derivatives
from khintchine.interval import PI, DomainError, Interval, pow_real
from khintchine.jet import Jet
from khintchine.verifier import (
    PROVED,
    check_case1_polynomials,
    check_case2_convexity,
    check_cond1_monotone,
    check_cond1_sign_at_sigma,
    check_cond1_small_x,
    check_reduction_to_p2,
    conjunction,
    d_coefficient,
    status_from_margin,
)
from khintchine.verifier import cond1
from khintchine.verifier.cond1 import (
    EPS0,
    T_END,
    _f_case2,
    _g_case2,
    _g_case2_prime,
    _rhs_sign_bound,
)


def _assert_all_proved(result):
    bad = [n.name for n in result.walk() if n.status != PROVED]
    assert result.status == PROVED, f"non-proved nodes: {bad}"
    for node in result.walk():
        assert node.status == (
            conjunction(c.status for c in node.children) if node.children
            else status_from_margin(node.margin, node.strict)
        )


def test_sign_at_sigma_proves():
    res = check_cond1_sign_at_sigma()
    _assert_all_proved(res)


def test_sign_bound_value_at_p2():
    enc = _rhs_sign_bound(Interval(0.97, 0.97), Interval(2.0, 2.0))
    # frozen: arccos(.97)^-2 - (2 ln(1/.97))^-1 - pi^2 arccos(.97)/(pi-arccos(.97))^3
    assert enc.contains(0.0679002999099226)
    assert 0.06 < enc.lo and enc.hi < 0.09


def test_sign_bound_fails_at_half():
    # documents why sigma = 0.97: the explicit bound is useless at sigma = 0.5
    enc = _rhs_sign_bound(Interval(0.5, 0.5), Interval(2.0, 2.0))
    assert enc.hi < 0


def test_small_x_proves():
    res = check_cond1_small_x()
    _assert_all_proved(res)


def test_small_x_key_margins():
    res = check_cond1_small_x()
    by_name = {c.name: c for c in res.children}
    # d2 <= 0.5482 and d3 <= 0.3367 with their real (razor) margins
    d_bounds = by_name["d2-d3-bounds"]
    assert 0.0 < d_bounds.children[0].margin.lo < 1e-4
    assert 0.0 < d_bounds.children[1].margin.lo < 1e-4
    # max p(0.98 - 0.2115 p) = 1.13522... <= 1.14
    assert by_name["line-max-1.14"].margin.lo > 0
    # anchor e^2.7/5.4^1.5 = 1.1858 >= 1.14 (the printed 1.8 only holds at p=2)
    floor = by_name["gaussian-side-floor"]
    anchor = [c for c in floor.children if c.name == "anchor-value"][0]
    assert anchor.margin.contains(1.1857809293511656 - 1.14)


def test_sine_chord_anchors_are_exact_zeros():
    # value-left and value-right are exact 0s: m(t) = slope sin t - t with
    # slope = c/sin c vanishes at t = 0 and t = c, whatever SINE_CUT is
    c = Interval(cond1.SINE_CUT, cond1.SINE_CUT)
    slope = c / c.sin()
    assert (slope * Interval(0.0, 0.0).sin()).contains(0.0)
    assert (slope * c.sin() - c).contains(0.0)
    chord = [n for n in check_cond1_small_x().children if n.name == "sine-chord-bound"]
    assert [(v.name, v.margin) for v in chord[0].children[:2]] == [
        ("value-left", Interval(0.0, 0.0)), ("value-right", Interval(0.0, 0.0))]


def test_d_coefficient_values():
    d2 = d_coefficient(Interval(2.0, 2.0), zeta_terms=10_000)
    assert d2.contains(0.5481820595852435)
    d3 = d_coefficient(Interval(3.0, 3.0), zeta_terms=10_000)
    # d3 = 2.02/6 exactly
    assert d3.contains(2.02 / 6)
    # it reads the ends of its p box, so the prover must keep its natural form
    with pytest.raises(DomainError):
        d_coefficient(Jet.var(Interval(2.0, 2.0625)))


def _end_sum_hull(p, terms):
    """zeta on the p box from the sums at its ends: the lower end of the sum
    at the exact q = p.hi + 1 and the upper end of the sum at the exact
    q = p.lo + 1."""
    return Interval(
        sf.zeta_sum(Interval.from_fraction(Fraction(p.hi) + 1), terms).lo,
        sf.zeta_sum(Interval.from_fraction(Fraction(p.lo) + 1), terms).hi,
    )


def _d_from_zeta(p, zeta):
    q = p + 1.0
    return (
        Interval(2.02, 2.02)
        * pow_real(Interval(2.0, 2.0) / PI, q)
        * (Interval(1.0, 1.0) - pow_real(Interval(2.0, 2.0), -q))
        * zeta
    )


def test_d_coefficient_equals_the_box_formula(monkeypatch):
    calls = []

    def recording(p, zeta_terms=16):
        d = d_coefficient(p, zeta_terms)
        calls.append((p, zeta_terms, d))
        return d

    monkeypatch.setattr(cond1, "d_coefficient", recording)
    check_cond1_small_x()
    boxes = [p for p, terms, _ in calls if terms == 16]
    assert len(boxes) == 37 and all(p.lo < p.hi for p in boxes)  # dp-below-line
    with mp.workdps(30):
        for p, terms, d in calls:
            hull = _end_sum_hull(p, terms)
            want = _d_from_zeta(p, hull)
            assert (float.hex(d.lo), float.hex(d.hi)) == (float.hex(want.lo), float.hex(want.hi))
            # zeta decreases in q, so the end sums bound it on the whole box
            q_lo, q_hi = mpf(p.lo) + 1, mpf(p.hi) + 1
            assert mpf(hull.lo) <= mp.zeta(q_hi) <= mp.zeta(q_lo) <= mpf(hull.hi)


def test_small_x_shares_zeta_sums_between_boxes():
    sf._zeta_partial.cache_clear()
    check_cond1_small_x()
    # d2 and d3 at 10,000 terms and the 20 distinct box ends at 16 terms
    assert sf._zeta_partial.cache_info().misses == 22


def test_constants_zeta3_is_the_d2_sum():
    # d2 reads zeta at the exact q = 3, so the CLI's constants/zeta(3) is a
    # cache hit on d2's 10,000-term sum, not a second one
    sf._zeta_partial.cache_clear()
    check_cond1_small_x()
    before = sf._zeta_partial.cache_info()
    _constants_suite()
    after = sf._zeta_partial.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_reduction_proves():
    _assert_all_proved(check_reduction_to_p2())


def test_case1_proves():
    res = check_case1_polynomials()
    _assert_all_proved(res)
    by_name = {c.name: c for c in res.children}
    # cot anchor: 1 - 1/3 - cot 1 = 0.0245740... <= 1/40
    assert by_name["cot-anchor"].margin.contains(1 / 40 - 0.0245740507323360)
    # corollary bracket minimum sits at t = 1: value 7/2400 - ... = 0.0029166...
    assert by_name["corollary-product"].margin.lo > 0.001


def test_case2_proves():
    res = check_case2_convexity()
    _assert_all_proved(res)
    by_name = {c.name: c for c in res.children}
    assert by_name["tangent-1.1-at-1.0"].margin.contains(0.0291407879041311)
    assert by_name["tangent-1.45-at-1.50412"].margin.contains(0.0074154317253311)
    # the reduced convexity inequality at s = 1: 1 - 3 + 3 - 3 e^{-2} > 0
    cubic = by_name["cubic-factor"]
    assert cubic.margin.lo > 0


def test_monotone_composite_proves():
    res = check_cond1_monotone()
    _assert_all_proved(res)
    names = [c.name for c in res.children]
    assert "reduction-to-p2" in names
    assert "case1-polynomials" in names
    assert "case2-convexity" in names


def _g_mp(t):
    return 1 / t**3 + 1 / (mp.pi - t) ** 3


def _f_mp(t):
    return mp.tan(t) / (2 * mp.log(mp.cos(t))) ** 2


def test_case2_transcriptions_contain_mpmath():
    # case 2's tangents and convexity rest on these three enclosures, which
    # the certificate does not re-derive: each holds a 30-digit value at 13
    # points of [1, T_END], g' by mpmath's numerical derivative of g
    with mp.workdps(30):
        for k in range(13):
            t = 1.0 + k * (T_END - 1.0) / 12
            tt = mpf(t)
            for fn, want in (
                (_g_case2, _g_mp(tt)),
                (_g_case2_prime, mp.diff(_g_mp, tt)),
                (_f_case2, _f_mp(tt)),
            ):
                enc = fn(Interval(t, t))
                assert mpf(enc.lo) <= want <= mpf(enc.hi), (fn.__name__, t)
                assert enc.hi - enc.lo <= 1e-13 * abs(float(want))
        # g > f on [1, T_END], the claim the tangent comparisons certify
        gap = min(_g_mp(t) - _f_mp(t)
                  for t in (1 + (mpf(T_END) - 1) * k / 400 for k in range(401)))
    assert 0.0113 < gap < 0.0114


def test_binomial_power_bound_on_a_grid():
    # (1+e)^p - (1-e)^p <= 2.00361 p e on [0, EPS0] x [2, 3], which
    # cubic-coefficient-room and epsilon-square-room prove for every (e, p)
    with mp.workdps(30):
        worst = min(
            mpf("2.00361") * p * e - ((1 + e) ** p - (1 - e) ** p)
            for p in (2 + mpf(j) / 8 for j in range(9))
            for e in (mpf(EPS0) * i / 20 for i in range(1, 21))
        )
    assert 1.5e-5 < worst < 1.6e-5  # at e = EPS0, p = 3


def _ratio_bound_mp(t, p):
    """The derivative-ratio lower bound at arccos x = t."""
    L = -2 * mp.log(mp.cos(t))
    h = (p + 1) / 2
    return ((L / t**2) ** h + (L / (mp.pi - t) ** 2) ** h) * mp.sqrt(L) / mp.tan(t)


def test_ratio_bound_spot_values():
    # F_*' - G_*' > 0 on (rho, 1), the monotone node's claim, at x = cos t
    # for t = 0.1, 0.2, ..., 1.5
    for p in (2.0, 2.5, 3.0):
        params = MeasureParams(Interval(p, p))
        for i in range(1, 16):
            x = math.cos(0.1 * i)
            fp, gp = derivatives(Interval(x, x), params)
            assert (fp - gp).lo > 0.04, (p, x)
    # the ratio bound minus 1, and F_*'/G_*' at least the bound
    with mp.workdps(30):
        for t, p, floor in ((0.5, 2.0, 0.005), (1.45, 3.0, 0.5), (0.1, 2.0, 0.0)):
            x = math.cos(t)
            bound = _ratio_bound_mp(mp.acos(mpf(x)), mpf(p))
            assert bound - 1 > floor
            fp, gp = derivatives(Interval(x, x), MeasureParams(Interval(p, p)))
            assert mpf((fp / gp).lo) > bound


def test_endpoint_guard_value():
    # arccos(1/15) = 1.5040801783846713 < 1.50409 < 1.50412
    a = Interval(1.0 / 15.0, 1.0 / 15.0).arccos()
    assert a.contains(1.5040801783846713)
    assert a.hi < 1.50409
