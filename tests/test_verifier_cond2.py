"""Condition-2 checks: H'(p) and H(2) piece bounds, constant repairs."""

import pytest
from mpmath import mp, mpf

from khintchine.interval import Interval
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
    # J = 0.0146805 <= 0.0147: razor margin around 1.9e-5
    j = _find(res, "J-below-0.0147")
    assert 0 < j.margin.lo < 3e-5
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


def test_h2_proves():
    res = check_cond2_h2()
    _assert_all_proved(res)


def test_h2_piece_values():
    res = check_cond2_h2()
    a = _find(res, "closed-form-floor")
    assert 0 < a.margin.lo < 1e-7  # A = 0.0312900524 vs 0.03129
    assert a.margin.width <= 5e-4
    b = _find(res, "exact-value-floor")
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


def test_quadratic_majorant_needs_few_cells():
    # near the tangency at sqrt2/2 the natural form wraps by f' times the
    # width; the prover's mean-value cells settle it in a few dozen
    good = lemma52_piece2_margin(QUAD_MAJORANT_SHIFT)
    assert good.status == PROVED and good.evaluations <= 64
    bad = lemma52_piece2_margin(QUAD_MAJORANT_SHIFT_PRINTED)
    assert bad.status == FAILED and bad.margin.hi < 0.0


def test_wide_quadratures_reach_the_cond2_leaf_notes(monkeypatch):
    # with the cell cap at 5, every cond2 quadrature stops wide; each leaf
    # that reads a quadrature must say so
    from khintchine import quad

    monkeypatch.setattr(quad, "MAX_CELLS", 5)
    h2 = check_cond2_h2()
    overlaps = [n for n in h2.walk() if n.name.endswith("-vs-quadrature")]
    assert [n.name for n in overlaps] == [
        "closed-form-vs-quadrature",
        "exact-vs-quadrature",
        "primitives-vs-quadrature",
        "tail-vs-quadrature",
    ]
    hprime = check_cond2_hprime()
    leaves = overlaps + [
        _find(hprime, "integral-above-0.0153"),
        _find(hprime, "J-below-0.0147"),
    ]
    for node in leaves:
        assert "quadrature target missed (wide, " in node.note, node.name
