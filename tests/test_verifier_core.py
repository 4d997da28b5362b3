"""Result semantics, subdivision engine behavior, stock lemmas."""

import math

from khintchine.interval import Interval
from khintchine.polytools import (
    p_add,
    p_eval_fr,
    p_eval_iv,
    p_integrate,
    p_mul,
    p_shift_div,
    p_sub,
    pp_eval,
    pp_mul,
    pp_shift_div_t,
    pp_sub,
)
from khintchine.verifier import (
    FAILED,
    INCONCLUSIVE,
    PROVED,
    combine,
    leaf,
    lemma_exp_affine,
    lemma_ln1p_quadratic,
    lemma_log_le_affine,
    lemma_neg_log_affine,
    lemma_one_minus_exp_quadratic,
    prove_positive_1d,
    prove_positive_2d,
    status_from_margin,
    subdivision_check,
)
from fractions import Fraction


def test_status_rules():
    assert status_from_margin(Interval(0.1, 0.2), strict=True) == PROVED
    assert status_from_margin(Interval(-0.2, -0.1), strict=True) == FAILED
    assert status_from_margin(Interval(-0.1, 0.2), strict=True) == INCONCLUSIVE
    assert status_from_margin(Interval(-1e-14, 1e-14), strict=False) == PROVED
    assert status_from_margin(Interval(-1.0, -1e-3), strict=False) == FAILED


def test_leaf_and_recompute_consistency():
    r = leaf("x", Interval(0.5, 1.0))
    assert r.status == PROVED == r.recompute_status()
    r2 = leaf("y", Interval(-1.0, 1.0))
    assert r2.status == INCONCLUSIVE == r2.recompute_status()


def test_composite_rules():
    good = leaf("a", Interval(1.0, 2.0))
    bad = leaf("b", Interval(-2.0, -1.0))
    fuzzy = leaf("c", Interval(-0.5, 0.5))
    assert combine("all-good", [good, leaf("d", Interval(3.0, 4.0))]).status == PROVED
    assert combine("one-bad", [good, bad]).status == FAILED
    assert combine("one-fuzzy", [good, fuzzy]).status == INCONCLUSIVE
    c = combine("margins", [good, leaf("d", Interval(0.5, 3.0))])
    assert c.margin.lo == 0.5 and c.margin.hi == 2.0
    # every node's stored status must equal its recomputed status
    for node in c.walk():
        assert node.status == node.recompute_status()


def test_prove_positive_1d_outcomes():
    m, _, st = prove_positive_1d(lambda t: t * t + 1.0, -1.0, 1.0)
    assert st == PROVED and m.lo >= 1.0 - 1e-12
    m, _, st = prove_positive_1d(lambda t: t * t - 2.0, -1.0, 1.0)
    assert st == FAILED and m.hi < 0
    # x^2 touches zero: strict fails to resolve, non-strict proves
    _, _, st = prove_positive_1d(
        lambda t: t * t, -1.0, 1.0, strict=True, max_evals=500
    )
    assert st == INCONCLUSIVE
    m, _, st = prove_positive_1d(lambda t: t * t, -1.0, 1.0, strict=False)
    assert st == PROVED and abs(m.lo) <= 1e-10


def test_prove_positive_budget_never_lies():
    # a sharp positive dip needs many cells; tiny budget must degrade to
    # inconclusive rather than proving or refuting
    f = lambda t: (t - 0.3333) * (t - 0.3333) + 1e-8
    _, _, st = prove_positive_1d(f, 0.0, 1.0, max_evals=10)
    assert st == INCONCLUSIVE
    _, _, st = prove_positive_1d(f, 0.0, 1.0, max_evals=200_000)
    assert st == PROVED


def test_prove_positive_2d():
    m, _, st = prove_positive_2d(
        lambda x, y: x * x + y * y + 0.5, (-1.0, 1.0), (-1.0, 1.0)
    )
    assert st == PROVED and m.lo >= 0.5 - 1e-12
    _, _, st = prove_positive_2d(
        lambda x, y: x + y, (-1.0, 1.0), (-1.0, 1.0), max_evals=100
    )
    assert st != PROVED


def test_prove_positive_1d_unbounded_domain():
    # on [4, inf) the midpoint is inf: the prover may evaluate once but not split
    _, evals, st = prove_positive_1d(lambda x: x - 5.0, 4.0, math.inf)
    assert st == INCONCLUSIVE and evals == 1
    m, evals, st = prove_positive_1d(lambda x: x.exp() - 1.0, 4.0, math.inf)
    assert st == PROVED and evals == 1 and m.lo > 53.0


def test_prove_positive_2d_anisotropic_domain():
    # widths are compared relative to the domain, so y (1000 wide) and x
    # (1 wide) are halved in turn; splitting the absolutely widest axis
    # needs 56499 evaluations for the second claim
    m, evals, st = prove_positive_2d(
        lambda x, y: x + y / 1000.0 + 0.1, (0.0, 1.0), (0.0, 1000.0)
    )
    assert st == PROVED and evals == 1 and m.lo > 0.09
    u = lambda y: y * 0.001
    m, evals, st = prove_positive_2d(
        lambda x, y: x * x - x + u(y) * u(y) - u(y) + 0.6,
        (0.0, 1.0),
        (0.0, 1000.0),
    )
    assert st == PROVED and evals == 285 and m.lo > 0.0


def test_subdivision_check_wrapper():
    r = subdivision_check("pos", lambda t: t.exp(), -2.0, 2.0)
    assert r.status == PROVED
    assert r.evaluations >= 1


def test_stock_lemmas_prove():
    for res in (
        lemma_exp_affine(),
        lemma_one_minus_exp_quadratic(0.2),
        lemma_neg_log_affine(),
        lemma_log_le_affine(2.0),
        lemma_ln1p_quadratic(1.0),
    ):
        assert res.status == PROVED, res.name
        for node in res.walk():
            assert node.status == node.recompute_status()


def test_poly_helpers():
    a = [Fraction(1), Fraction(2)]  # 1 + 2t
    b = [Fraction(0), Fraction(1)]  # t
    assert p_mul(a, b) == [Fraction(0), Fraction(1), Fraction(2)]
    assert p_add(a, b) == [Fraction(1), Fraction(3)]
    assert p_sub(a, a) == [Fraction(0), Fraction(0)]
    assert p_shift_div([Fraction(0), Fraction(0), Fraction(3)], 2) == [Fraction(3)]
    assert p_integrate([Fraction(2)]) == [Fraction(0), Fraction(2)]
    assert p_eval_fr([Fraction(1), Fraction(1, 2)], Fraction(2)) == Fraction(2)
    enc = p_eval_iv([Fraction(1), Fraction(1, 3)], Interval(3.0, 3.0))
    assert enc.contains(2.0)


def test_pi_poly_helpers():
    # (pi - t)(pi + t) = pi^2 - t^2, then strip nothing and evaluate
    a = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    b = {(0, 1): Fraction(1), (1, 0): Fraction(1)}
    prod = pp_mul(a, b)
    assert prod == {(0, 2): Fraction(1), (2, 0): Fraction(-1)}
    diff = pp_sub(prod, prod)
    assert diff == {}
    enc = pp_eval(prod, Interval(1.0, 1.0))
    assert enc.contains(math.pi**2 - 1.0)
    shifted = pp_shift_div_t({(2, 0): Fraction(5)}, 2)
    assert shifted == {(0, 0): Fraction(5)}
