"""Special functions against 4x-precision series references."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from khintchine.interval import Interval, DomainError, pow_real
from khintchine import specfun as sf
from khintchine.polytools import poly


@pytest.fixture(autouse=True)
def _mp_precision():
    # every test runs at 64 digits, restored afterwards
    with mp.workdps(64):
        yield


# frozen 4x-precision oracle values (mpmath, dps >= 40)
EI_M1 = -0.2193839343955203
EI_PIECE_B_ARG = -0.6453608371135221  # Ei(-(pi/4)^2/sqrt(2))
SI_PI = 0.2811407251875696
CI_HALF_PI = 0.4720006514395687
CI_3PI_HALF = -0.1984075606923580
ZETA3 = 1.2020569031595943
B3 = 1.1685752549624655
B25 = 1.0874844278957919


def iv(x):
    return Interval(x, x)


def test_lncos_coefficients_match_display():
    assert sf.LN_COS_COEFFS[0] == Fraction(1, 2)
    assert sf.LN_COS_COEFFS[1] == Fraction(1, 12)
    assert sf.LN_COS_COEFFS[2] == Fraction(1, 45)
    assert all(c > 0 for c in sf.LN_COS_COEFFS)


def test_lncos_coefficients_zeta_identity():
    # c_k = (2^{2k} - 1) zeta(2k) / (k pi^{2k}); backs the geometric tail bound
    for k in range(1, sf.MAX_LNCOS_TERMS + 1):
        ref = (2 ** (2 * k) - 1) * mp.zeta(2 * k) / (k * mp.pi ** (2 * k))
        assert abs(float(ref) - float(sf.LN_COS_COEFFS[k - 1])) < 1e-15 * float(ref)
        # the tail-bound majorant c_k <= zeta(4) (2/pi)^{2k} / k
        if k >= 2:
            maj = 1.1 * (2 / math.pi) ** (2 * k) / k
            assert float(sf.LN_COS_COEFFS[k - 1]) <= maj


def test_lncos_coefficient_intervals():
    # the Horner loops use these enclosures in place of converting per call
    assert len(sf._LN_COS_COEFFS_IV) == len(sf.LN_COS_COEFFS)
    for c, enc in zip(sf.LN_COS_COEFFS, sf._LN_COS_COEFFS_IV):
        assert enc == Interval.from_fraction(c)
        assert Fraction(enc.lo) <= c <= Fraction(enc.hi)
    z4 = sf._ZETA4_UPPER
    assert z4 == Interval.from_fraction(Fraction(11, 10))
    assert Fraction(z4.lo) <= Fraction(11, 10) <= Fraction(z4.hi)
    with mp.workdps(50):
        assert mpf(z4.lo) >= mp.zeta(4)


def _excess_truth(t):
    return -mp.log(mp.cos(t)) - t**2 / 2


def test_neg_ln_cos_excess_contains_truth():
    rng = random.Random(4)
    with mp.workdps(50):
        for _ in range(400):
            t = rng.uniform(0.0, 1.2)
            enc = sf.neg_ln_cos_excess(iv(t))
            assert mpf(enc.lo) <= _excess_truth(mpf(t)) <= mpf(enc.hi)
        # cells of width up to 1e-2, checked at both ends and the midpoint
        for _ in range(400):
            a = rng.uniform(0.0, 1.19)
            b = min(a + rng.uniform(0.0, 1e-2), 1.2)
            enc = sf.neg_ln_cos_excess(Interval(a, b))
            for t in (mpf(a), (mpf(a) + mpf(b)) / 2, mpf(b)):
                assert mpf(enc.lo) <= _excess_truth(t) <= mpf(enc.hi), (a, b)


def test_neg_ln_cos_quotient_contains_truth():
    # Q(t) = R(t)/t^4, with Q(0) = c_2 = 1/12
    rng = random.Random(29)

    def truth(t):
        return _excess_truth(t) / t**4 if t else mpf(1) / 12

    with mp.workdps(50):
        for t in [0.0, 1.2] + [rng.uniform(0.0, 1.2) for _ in range(400)]:
            enc = sf.neg_ln_cos_quotient(iv(t))
            assert mpf(enc.lo) <= truth(mpf(t)) <= mpf(enc.hi), t
        for _ in range(400):
            a = rng.uniform(0.0, 1.19)
            b = min(a + rng.uniform(0.0, 0.2), 1.2)
            enc = sf.neg_ln_cos_quotient(Interval(a, b))
            for t in (mpf(a), (mpf(a) + mpf(b)) / 2, mpf(b)):
                assert mpf(enc.lo) <= truth(t) <= mpf(enc.hi), (a, b)
        assert sf.neg_ln_cos_quotient(Interval(0.0, 1e-3)).width < 1e-7
    with pytest.raises(DomainError):
        sf.neg_ln_cos_quotient(Interval(1.0, 1.2000000000000002))


def test_ei_anchors():
    e = sf.ei_neg(iv(-1.0))
    assert e.contains(EI_M1) and e.width <= 1e-10
    e2 = sf.ei_neg(iv(-0.43617901247743))
    assert e2.contains(EI_PIECE_B_ARG)
    # Ei decreases toward -inf as x -> 0-: Ei(-2) > Ei(-1)
    assert sf.ei_neg(iv(-2.0)).lo > sf.ei_neg(iv(-1.0)).hi


def test_si_ci_anchors():
    s = sf.si(iv(math.pi))
    assert s.contains(SI_PI) and s.width <= 1e-8
    c = sf.ci(iv(math.pi / 2))
    assert c.contains(CI_HALF_PI) and c.width <= 1e-8
    c2 = sf.ci(iv(3 * math.pi / 2))
    assert c2.contains(CI_3PI_HALF)
    tiny = sf.si(iv(1e-6))
    assert abs(tiny.mid + math.pi / 2) <= 1e-5


def test_series_containment_random():
    rng = random.Random(17)
    for _ in range(400):
        x = rng.uniform(-20.0, -1e-4)
        assert sf.ei_neg(iv(x)).contains(float(mp.ei(mpf(x))))
    for _ in range(400):
        x = rng.uniform(1e-3, 30.0)
        assert sf.si(iv(x)).contains(float(mp.si(mpf(x)) - mp.pi / 2))
        assert sf.ci(iv(x)).contains(float(mp.ci(mpf(x))))


def test_series_contain_mpmath_at_domain_ends():
    # points and boxes at the ends of each domain, compared at mpf endpoints
    def holds(enc, truth):
        return mpf(enc.lo) <= truth <= mpf(enc.hi)

    for a, b in ((-30.0, -30.0), (-1e-6, -1e-6), (-30.0, -29.5), (-1e-3, -1e-6)):
        enc = sf.ei_neg(Interval(a, b))
        assert all(holds(enc, mp.ei(mpf(x))) for x in (a, b)), (a, b)
    for a, b in ((1e-300, 1e-300), (50.0, 50.0), (1e-300, 1e-3), (49.5, 50.0)):
        s_enc, c_enc = sf.si(Interval(a, b)), sf.ci(Interval(a, b))
        for x in (mpf(a), mpf(b)):
            assert holds(s_enc, mp.si(x) - mp.pi / 2), (a, b)
            assert holds(c_enc, mp.ci(x)), (a, b)


def test_series_without_geometric_tail_regime():
    # a term ratio that never falls to 1/2 has no certified tail
    with pytest.raises(DomainError):
        sf._series_with_geometric_tail(iv(1.0), lambda k: iv(0.9))


def test_series_domains():
    with pytest.raises(DomainError):
        sf.ei_neg(iv(0.5))
    with pytest.raises(DomainError):
        sf.si(iv(-1.0))
    with pytest.raises(DomainError):
        sf.ci(iv(0.0))


def test_zeta_values():
    z2 = sf.zeta_sum(iv(2.0))
    assert z2.contains(math.pi**2 / 6)
    z3 = sf.zeta_sum(iv(3.0))
    assert z3.contains(ZETA3) and z3.width <= 1e-8
    z4 = sf.zeta_sum(iv(4.0))
    assert z4.contains(math.pi**4 / 90)
    with pytest.raises(DomainError):
        sf.zeta_sum(iv(1.5))


# points across the zeta_sum domain and one q box
ZETA_QS = [iv(2.0), iv(2.5), iv(3.0), iv(4.0), iv(4.5), Interval(3.0625, 3.125)]


def _zeta_loop(q, K):
    """zeta_sum written out with one pow_real per term and no cache."""
    neg_q = -q
    acc = Interval(1.0, 1.0)
    for k in range(2, K + 1):
        acc = acc + pow_real(Interval(k, k), neg_q)
    b = Interval(K + 1, K + 1)
    return acc + sf.em_tail(q, b, pow_real(b, neg_q), pi_step=False)


def _hexes(z):
    return float.hex(z.lo), float.hex(z.hi)


@pytest.mark.parametrize("K", [16, 2000, 10_000])
def test_zeta_sum_equals_the_per_term_loop(K):
    sf._zeta_partial.cache_clear()
    sf._LN_LO.clear()
    sf._LN_HI.clear()
    for q in ZETA_QS:
        want = _hexes(_zeta_loop(q, K))
        assert _hexes(sf.zeta_sum(q, K)) == want, q  # cold
        assert _hexes(sf.zeta_sum(q, K)) == want, q  # from the cache


def test_ln_table_equals_interval_ln():
    sf._LN_LO.clear()
    sf._LN_HI.clear()
    sf._ln_k(100)  # the table grows from where it stopped
    lows, highs = sf._ln_k(10_000)
    assert len(lows) == len(highs) == 9_999
    for k, lo, hi in zip(range(2, 10_001), lows, highs):
        want = Interval(k, k).ln()
        assert (float.hex(lo), float.hex(hi)) == (float.hex(want.lo), float.hex(want.hi)), k


def test_zeta_contains_mpmath_at_mpf_endpoints():
    with mp.workdps(30):
        for K in (3, 16, 2000, 10_000):
            for q in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5):
                z = sf.zeta_sum(iv(q), K)
                assert mpf(z.lo) <= mp.zeta(mpf(q)) <= mpf(z.hi), (q, K)
            box = sf.zeta_sum(Interval(3.0625, 3.125), K)
            # zeta decreases in q: its range on the box is [zeta(q.hi), zeta(q.lo)]
            assert mpf(box.lo) <= mp.zeta(mpf(3.125)) <= mp.zeta(mpf(3.0625)) <= mpf(box.hi)


def _integral_bracket(q, K):
    """The K-term partial sum plus [int_{K+1}^inf x^-q dx, int_K^inf x^-q dx],
    the tail zeta_sum carried before its Euler-Maclaurin tail."""
    acc = sf.exp_sum(-q, *sf._ln_k(K), Interval(1.0, 1.0))
    qm1 = q - 1.0
    lo_tail = pow_real(Interval(K + 1, K + 1), 1.0 - q) / qm1
    hi_tail = pow_real(Interval(K, K), 1.0 - q) / qm1
    return acc + Interval(lo_tail.lo, hi_tail.hi)


def test_zeta_at_16_terms_is_narrower_than_the_2000_term_bracket():
    # the q range of cond1.d_coefficient's p boxes, at their ends
    for i in range(17):
        q = iv(3.0 + i / 16)
        em, bracket = sf.zeta_sum(q, 16), _integral_bracket(q, 2000)
        assert em.width < bracket.width / 10, q
    assert sf.zeta_sum(iv(3.0), 16).width < 2e-13


def test_zeta_terms_guard():
    # the tail's summand u^-q is completely monotone on u >= 1, so one term will do
    assert sf.zeta_sum(iv(3.0), 1).contains(ZETA3)
    with pytest.raises(ValueError):
        sf.zeta_sum(iv(3.0), 0)


def test_gamma_anchors():
    g15 = sf.gamma_iv(iv(1.5))
    assert g15.contains(math.sqrt(math.pi) / 2)
    g2 = sf.gamma_iv(iv(2.0))
    assert g2.contains(1.0)
    rng = random.Random(21)
    for _ in range(200):
        x = rng.uniform(1.0, 3.0)
        assert sf.gamma_iv(iv(x)).contains(float(mp.gamma(mpf(x))))


def test_b_constant():
    B2 = sf.b_constant(iv(2.0))
    assert B2.contains(1.0)
    B3v = sf.b_constant(iv(3.0))
    assert B3v.contains(B3) and B3v.width <= 1e-8
    B25v = sf.b_constant(iv(2.5))
    assert B25v.contains(B25)
    # increasing on [2, 3]
    mids = [sf.b_constant(iv(p)).mid for p in (2.0, 2.5, 3.0)]
    assert mids[0] < mids[1] < mids[2]
    with pytest.raises(DomainError):
        sf.b_constant(iv(1.5))


def test_taylor_enclosures():
    rng = random.Random(31)
    series = [
        (sf.cos_taylor(8).quotient(0), mp.cos),
        (sf.sin_taylor(8).quotient(0), mp.sin),
        (sf.exp_taylor(16).quotient(0), mp.exp),
        (sf.exp_taylor(16, a=2).quotient(0), lambda t: mp.exp(2 * t)),
    ]
    for _ in range(500):
        t = rng.uniform(-1.5, 1.5)
        for enclosure, f in series:
            enc = enclosure(iv(t))
            assert mpf(enc.lo) <= f(mpf(t)) <= mpf(enc.hi)


def test_taylor_quotient_refuses_past_its_radius():
    te = sf.exp_taylor(16, a=2)
    assert te.t_limit == 4.5
    quotient = te.quotient(2, minus=poly(1, 2))
    quotient(Interval(-4.5, 4.5))
    with pytest.raises(DomainError):
        quotient(Interval(4.0, 4.6))
    with pytest.raises(DomainError):
        sf.cos_taylor(8).quotient(0)(Interval(-20.0, 0.0))


def test_taylor_quotient_needs_exact_division():
    with pytest.raises(ValueError):
        sf.cos_taylor(6).quotient(4, minus=poly(1))  # leaves -t^2/2
    with pytest.raises(ValueError):
        sf.sin_taylor(6).quotient(2)  # leaves t


def test_lncos_series_at_zero_contains_mpmath():
    # t.lo = 0 takes the interval-loop branch of horner_nonneg
    with mp.workdps(50):
        for b in (0.0, 5e-324, 1e-200, 1e-8, 1e-3, 0.3, 1.2):
            t = Interval(0.0, b)
            excess = sf.neg_ln_cos_excess(t)
            for v in (mpf(0), mpf(b) / 2, mpf(b)):
                assert mpf(excess.lo) <= -mp.log(mp.cos(v)) - v**2 / 2 <= mpf(excess.hi)
