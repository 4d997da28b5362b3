"""Condition-2 checks: H'(p) and H(2) piece bounds, constant repairs."""

import pytest
from mpmath import mp, mpf

from khintchine.interval import SQRT2, Interval, pow_real
from khintchine.verifier import (
    FAILED,
    PROVED,
    GAUSS_PIECE_FLOOR,
    GAUSS_PIECE_FLOOR_PRINTED,
    LAMBDA_TAIL_CONST,
    LAMBDA_TAIL_CONST_PRINTED,
    QUAD_MAJORANT_SHIFT,
    QUAD_MAJORANT_SHIFT_PRINTED,
    check_cond2_h2,
    check_cond2_hprime,
    conjunction,
    lemma52_piece2_margin,
    status_from_margin,
)
from khintchine.verifier import cond2


@pytest.fixture(autouse=True)
def _mp_precision():
    # every test runs at 40 digits, restored afterwards
    with mp.workdps(40):
        yield


def _assert_all_proved(result):
    bad = [n.name for n in result.walk() if n.status != PROVED]
    assert result.status == PROVED, f"non-proved nodes: {bad}"
    for node in result.walk():
        assert node.status == (
            conjunction(c.status for c in node.children) if node.children
            else status_from_margin(node.margin, node.strict)
        )


def _find(result, name):
    for node in result.walk():
        if node.name == name:
            return node
    raise KeyError(name)


def test_hprime_proves():
    res = check_cond2_hprime()
    _assert_all_proved(res)


def test_hprime_piece_values():
    res = check_cond2_hprime()
    # [0, 1] piece: integral 0.0159798 >= 0.0153 with plenty of room
    a = _find(res, "integral-above-0.0153")
    assert 5e-4 < a.margin.lo < 1e-3
    # J = 0.0146805 <= 0.0147: by the rational primitive the margin is all
    # of the true 1.949e-5 slack
    j = _find(res, "J-below-0.0147")
    assert 1.9e-5 < j.margin.lo < 3e-5
    # 1.75 I1 = 0.0433640: certified against the repaired 0.0433
    i1 = _find(res, "cos-integral-floor")
    assert i1.margin.lo > 0
    assert i1.margin.hi < 2e-4
    # I1 = (2/3)(1/pi - si(pi)) in closed form, against the frozen
    # 30-digit oracle of tests/test_quad.py's COS2_T4_TAIL
    truth = mpf("0.0247794406641474136053572321512")
    assert mpf(i1.margin.lo) <= truth * mpf(1.75) - mpf(LAMBDA_TAIL_CONST) <= mpf(i1.margin.hi)
    assert i1.margin.width < 1e-13
    # I2 <= 0.00705 e: margin about 2.7e-6
    i2 = _find(res, "gauss-integral-ceiling")
    assert 0 < i2.margin.lo < 4e-6
    net = _find(res, "net-lower-bound")
    assert net.margin.lo > 5e-3


def test_lambda_constant_repair_is_necessary():
    # the printed 0.043369 exceeds 1.75 * int cos^2/t^4 = 0.0433640...; the
    # certified enclosure must refute it while the repaired 0.0433 clears it
    from khintchine.quad import cos_power_tail, integrate
    from khintchine.interval import pow_real
    import math

    # the quadrature route, beside check_cond2_hprime's closed form: a
    # finite part to the float end of 9 pi/2 and the cos-power tail past it
    T, tail = cos_power_tail(Interval(2.0, 2.0), Interval(3.0, 3.0), 4)
    q = integrate(
        lambda t: (t.cos() ** 2) * pow_real(t, Interval(-4.0, -4.0)),
        math.pi / 2,
        T,
        1.5e-6,
    )
    I1 = q.value + tail
    assert (I1 * 1.75 - LAMBDA_TAIL_CONST_PRINTED).hi < 0  # printed constant fails
    assert (I1 * 1.75 - LAMBDA_TAIL_CONST).lo > 0  # repaired constant holds
    assert I1.contains(0.0247794406641474)


def test_middle_piece_j_is_its_rational_primitive():
    # J = 0.0147 minus its leaf's margin, by the primitive, against a
    # 30-digit mpmath value of its three integrals and against the three
    # quadratures of the same integrands, all at the same float ends
    from khintchine.interval import HALF_PI
    from khintchine.quad import integrate

    j = Interval(0.0147, 0.0147) - _find(check_cond2_hprime(), "J-below-0.0147").margin
    assert j.width <= 1e-12
    ends = (1.0, 1.2, 1.4, HALF_PI.hi)
    with mp.workdps(30):
        r2, hp = mp.sqrt(2), mp.pi / 2
        gauss = lambda t: mp.exp(-t**2 / r2)
        slope = (gauss(hp) - gauss(1)) / (hp - 1)
        steps = (mp.cos(mpf(1.2)) ** r2, mp.cos(mpf(1.4)) ** r2, 0)
        want = sum(
            mp.quad(lambda t, c=c: (t - 1) * (gauss(1) + slope * (t - 1) - c) / t**3,
                    [mpf(lo), mpf(hi)])
            for lo, hi, c in zip(ends, ends[1:], steps)
        )
    assert mpf(j.lo) <= want <= mpf(j.hi), (j, want)

    e_at_1 = cond2._exp_gauss(Interval(1.0, 1.0))
    slope = (cond2._exp_gauss(HALF_PI) - e_at_1) / (HALF_PI - 1.0)
    steps = (pow_real(Interval(1.2, 1.2).cos(), SQRT2),
             pow_real(Interval(1.4, 1.4).cos(), SQRT2), Interval(0.0, 0.0))
    quads = [
        integrate(lambda t, c=c: (t - 1.0) * (e_at_1 + slope * (t - 1.0) - c) / t**3,
                  lo, hi, 4e-6)
        for lo, hi, c in zip(ends, ends[1:], steps)
    ]
    assert all(q.ok for q in quads)
    total = sum(q.value for q in quads)
    assert total.lo <= j.lo and j.hi <= total.hi, (j, total)


def test_h2_proves():
    res = check_cond2_h2()
    _assert_all_proved(res)


def test_h2_piece_values():
    res = check_cond2_h2()
    a = _find(res, "closed-form-floor")
    assert 0 < a.margin.lo < 1e-7  # A = 0.0312900524 vs 0.03129
    assert a.margin.width <= 5e-4
    b = _find(res, "piece-B")
    assert 0 < b.margin.lo < 1e-5  # B = 0.2958653 vs repaired floor 0.29586
    assert b.margin.width <= 5e-4
    c = _find(res, "majorant-integral-ceiling")
    assert 0 < c.margin.lo < 3e-4  # C = 0.2575026 vs 0.2577
    assert c.margin.width <= 5e-4
    d = _find(res, "hoelder-ceiling")
    assert 0 < d.margin.lo < 1e-4  # D = 0.0666458 vs 0.0667
    assert d.margin.width <= 5e-4
    net = _find(res, "net-margin")
    assert net.margin.lo > 0
    assert 0.0029 < net.margin.lo < 0.0031  # vs the printed summands' 0.0026


def _h2_a():
    # int_0^{pi/4} e^{-t^2/sqrt2} (t/(6 sqrt2) + c2 t^3) dt
    r2, qp = mp.sqrt(2), mp.pi / 4
    c2 = r2 / 45 - qp**2 * (1 / (6 * r2) + r2 * qp**2 / 45) ** 2 / 2
    return mp.quad(lambda t: mp.exp(-t**2 / r2) * (t / (6 * r2) + c2 * t**3), [0, qp])


def _h2_b():
    # int_{pi/4}^inf e^{-t^2/sqrt2} / t^3 dt
    r2 = mp.sqrt(2)
    return mp.quad(lambda t: mp.exp(-t**2 / r2) / t**3, [mp.pi / 4, 1, 2, 4, mp.inf])


def _h2_c():
    # int_{pi/4}^{3pi/4} of the two quadratic majorants of |cos t|^sqrt2, over
    # t^3, split where |cos t| crosses 1/4 and where cos t changes sign
    aq, b1 = mp.sqrt(2) - 1, 2 - mp.sqrt(2) - mpf(0.126)
    b2, gam = mpf(0.6355), mpf(QUAD_MAJORANT_SHIFT)

    def majorant(t):
        c = abs(mp.cos(t))
        outer = c >= mpf(1) / 4
        return (aq * c * c + (b2 if outer else b1) * c + (gam if outer else 0)) / t**3

    t1 = mp.acos(mpf(1) / 4)
    return mp.quad(majorant, [mp.pi / 4, t1, mp.pi / 2, mp.pi - t1, 3 * mp.pi / 4])


def _h2_s():
    # int_a^inf cos^2 t / t^3 dt, a = 3pi/4, as 1/(4a^2) + (1/2) Re int_a^inf
    # e^{2it}/t^3 dt with the oscillatory part along t = a + iy (Jordan)
    a = 3 * mp.pi / 4
    ray = mp.quad(lambda y: mp.exp(-2 * y) / (a + 1j * y) ** 3, [0, mp.inf])
    return 1 / (4 * a**2) + mp.re(1j * mp.expj(2 * a) * ray) / 2


@pytest.mark.parametrize("name, truth, margin_of, width", [
    pytest.param("closed-form-floor", _h2_a, lambda v: v - mpf(0.03129), 5e-16, id="A"),
    pytest.param("piece-B", _h2_b, lambda v: v - mpf(GAUSS_PIECE_FLOOR), 1e-14,
                 id="B"),
    pytest.param("majorant-integral-ceiling", _h2_c, lambda v: mpf(0.2577) - v, 3e-13,
                 id="C"),
    pytest.param("cos-square-tail-positive", _h2_s, lambda v: v, 2e-13, id="S"),
])
def test_h2_closed_forms_contain_mpmath(name, truth, margin_of, width):
    # each closed form of H(2) against a 30-digit mpmath value reached by a
    # route of its own (quadrature, not the primitives); the certificate
    # takes the closed forms on trust of their transcription
    node = _find(check_cond2_h2(), name)
    with mp.workdps(30):
        want = margin_of(truth())
    assert mpf(node.margin.lo) <= want <= mpf(node.margin.hi), (name, node.margin, want)
    assert node.margin.width < width


def test_h2_runs_no_quadrature(monkeypatch):
    from khintchine.verifier import cond2

    def no_quadrature(*args, **kwargs):
        raise AssertionError("check_cond2_h2 called integrate")

    monkeypatch.setattr(cond2, "integrate", no_quadrature)
    _assert_all_proved(check_cond2_h2())


def test_hprime_runs_two_quadratures(monkeypatch):
    # the [0, 1] piece and I2, whose primitives need erf and erfc; J and I1
    # are closed forms
    from khintchine.verifier import cond2

    calls, integrate = [], cond2.integrate

    def counted(f, lo, hi, target):
        calls.append((lo, hi))
        return integrate(f, lo, hi, target)

    monkeypatch.setattr(cond2, "integrate", counted)
    _assert_all_proved(check_cond2_hprime())
    assert [lo for lo, _ in calls] == [0.0, float(cond2.HALF_PI.lo)]


def test_gauss_piece_printed_floor_fails():
    # B = 0.2958652576 < 0.29587: the printed floor is not attainable
    from khintchine.specfun import ei_neg
    from khintchine.interval import PI, SQRT2

    qp = PI * 0.25
    U = qp * qp / SQRT2
    b_exact = (-U).exp() / (qp * qp * 2.0) + ei_neg(-U) / (SQRT2 * 2.0)
    assert b_exact.contains(float(
        mp.e ** (-(mp.pi / 4) ** 2 / mp.sqrt(2)) / (2 * (mp.pi / 4) ** 2)
        + mp.ei(-((mp.pi / 4) ** 2) / mp.sqrt(2)) / (2 * mp.sqrt(2))
    ))
    assert b_exact.hi < GAUSS_PIECE_FLOOR_PRINTED  # 0.29587 is refuted
    assert b_exact.lo > GAUSS_PIECE_FLOOR  # 0.29586 is certified


def test_quadratic_majorant_shift_repair():
    # printed -0.04399 fails near x = sqrt2/2 (margin -6.4e-5); -0.0439 holds
    bad = lemma52_piece2_margin(QUAD_MAJORANT_SHIFT_PRINTED)
    assert bad.status == FAILED
    good = lemma52_piece2_margin(QUAD_MAJORANT_SHIFT)
    assert good.status == PROVED
    # mpmath cross-check of the failure point
    x = mp.sqrt(2) / 2
    val = (mp.sqrt(2) - 1) * x**2 + mp.mpf("0.6355") * x - mp.mpf("0.04399") - x ** mp.sqrt(2)
    assert float(val) < -6e-5


def test_quad_majorant_origin_value_is_an_exact_zero():
    # origin-value is an exact 0: the majorant's gap f0 vanishes at x = 0
    x = Interval(0.0, 0.0)
    f0 = cond2._SQRT2_M1 * x * x + cond2._TWO_M_SQRT2 * x - pow_real(x, SQRT2)
    assert f0.contains(0.0)
    origin = _find(check_cond2_h2(), "origin-value")
    assert origin.margin == Interval(0.0, 0.0) and origin.status == PROVED


def test_quadratic_majorant_needs_few_cells():
    # near the tangency at sqrt2/2 the natural form wraps by f' times the
    # width; the prover's mean-value cells settle it in a few dozen
    good = lemma52_piece2_margin(QUAD_MAJORANT_SHIFT)
    assert good.status == PROVED and good.evaluations <= 64
    bad = lemma52_piece2_margin(QUAD_MAJORANT_SHIFT_PRINTED)
    assert bad.status == FAILED and bad.margin.hi < 0.0


def test_wide_quadratures_reach_the_cond2_leaf_notes(monkeypatch):
    # with the cell cap at 5, both cond2 quadratures (H''s [0, 1] piece and
    # I2) stop wide; each leaf that reads one must say so
    from khintchine import quad

    monkeypatch.setattr(quad, "MAX_CELLS", 5)
    hprime = check_cond2_hprime()
    for name in ("integral-above-0.0153", "gauss-integral-ceiling", "net-lower-bound"):
        assert "quadrature target missed (wide, " in _find(hprime, name).note, name
