"""Result semantics, subdivision engine behavior, stock lemmas."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings, strategies as st
from mpmath import mp, mpf

from khintchine.interval import PI, DomainError, Interval, ipoly_eval
from khintchine.jet import Jet
from khintchine.polytools import p_add, p_mul, p_quotient, p_shift_div, p_sub, p_to_iv, poly
from khintchine.verifier import cond1, engine, npcheck
from khintchine.verifier import (
    FAILED,
    INCONCLUSIVE,
    PROVED,
    combine,
    conjunction,
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


def _regraded(node):
    """The status the grading rules give a node from its margin or children."""
    if node.children:
        return conjunction(c.status for c in node.children)
    return status_from_margin(node.margin, node.strict)


def test_status_rules():
    assert status_from_margin(Interval(0.1, 0.2), strict=True) == PROVED
    assert status_from_margin(Interval(-0.2, -0.1), strict=True) == FAILED
    assert status_from_margin(Interval(-0.1, 0.2), strict=True) == INCONCLUSIVE
    # a strict claim needs a lower end above 0: exactly 0 proves nothing
    assert status_from_margin(Interval(0.0, 1.0), strict=True) == INCONCLUSIVE
    # a nonstrict claim needs a lower end of at least 0, with no tolerance:
    # a margin that dips below 0 by any amount proves nothing
    assert status_from_margin(Interval(0.0, 1.0), strict=False) == PROVED
    assert status_from_margin(Interval(-1e-14, 1e-14), strict=False) == INCONCLUSIVE
    assert status_from_margin(Interval(-1.0, -1e-3), strict=False) == FAILED
    assert status_from_margin(Interval(-5e-13, 1.0), strict=False) == INCONCLUSIVE
    assert status_from_margin(Interval(-2e-12, 1.0), strict=False) == INCONCLUSIVE
    assert status_from_margin(Interval(-1.0, -2e-12), strict=False) == FAILED


def test_leaf_and_recompute_consistency():
    r = leaf("x", Interval(0.5, 1.0))
    assert r.status == PROVED == status_from_margin(r.margin, r.strict)
    r2 = leaf("y", Interval(-1.0, 1.0))
    assert r2.status == INCONCLUSIVE == status_from_margin(r2.margin, r2.strict)
    # a verdict reached outside the margin caps it, never lifts it
    assert leaf("z", Interval(0.5, 1.0), verdict=INCONCLUSIVE).status == INCONCLUSIVE
    assert leaf("w", Interval(-2.0, -1.0), verdict=INCONCLUSIVE).status == FAILED


def test_composite_rules():
    good = leaf("a", Interval(1.0, 2.0))
    bad = leaf("b", Interval(-2.0, -1.0))
    fuzzy = leaf("c", Interval(-0.5, 0.5))
    assert combine("all-good", [good, leaf("d", Interval(3.0, 4.0))]).status == PROVED
    assert combine("one-bad", [good, bad]).status == FAILED
    assert combine("one-fuzzy", [good, fuzzy]).status == INCONCLUSIVE
    c = combine("margins", [good, leaf("d", Interval(0.5, 3.0))])
    assert c.margin.lo == 0.5 and c.margin.hi == 2.0
    # every node's stored status must equal its regraded status
    for node in c.walk():
        assert node.status == _regraded(node)
    assert conjunction([]) == PROVED
    assert conjunction([PROVED, INCONCLUSIVE, FAILED]) == FAILED
    assert conjunction(iter([PROVED, INCONCLUSIVE])) == INCONCLUSIVE
    # a derived margin replaces the minimum, the status still follows the children
    anchored = combine("anchored", [good, fuzzy], margin=Interval(0.0, 0.0))
    assert anchored.margin == Interval(0.0, 0.0) and anchored.status == INCONCLUSIVE


def test_prove_positive_1d_outcomes():
    m, _, st = prove_positive_1d(lambda t: t * t + 1.0, -1.0, 1.0)
    assert st == PROVED and m.lo >= 1.0 - 1e-12
    m, _, st = prove_positive_1d(lambda t: t * t - 2.0, -1.0, 1.0)
    assert st == FAILED and m.hi < 0
    # x^2 touches zero: the prover certifies f > 0 only, so it cannot resolve
    _, _, st = prove_positive_1d(lambda t: t * t, -1.0, 1.0)
    assert st == INCONCLUSIVE
    # 2x - x - 0.1 = x - 0.1 < 0 near 0; the repeated x widens the natural
    # form, so the mean-value form decides, and it must carry the whole slope
    # f'(X) = 1 (with half of it the search reads proved, at [0.15, 0.40])
    _, _, st = prove_positive_1d(lambda x: x * 2.0 - x - 0.1, 0.0, 1.0)
    assert st == FAILED


def test_prove_positive_budget_never_lies(monkeypatch):
    # a sharp positive dip needs many cells; tiny budget must degrade to
    # inconclusive rather than proving or refuting
    f = lambda t: (t - 0.3333) * (t - 0.3333) + 1e-8
    with monkeypatch.context() as m:
        m.setattr(engine, "BUDGET", 10)
        _, _, st = prove_positive_1d(f, 0.0, 1.0)
    assert st == INCONCLUSIVE
    _, _, st = prove_positive_1d(f, 0.0, 1.0)
    assert st == PROVED


def test_a_negative_midpoint_value_refutes():
    # the natural form [-0.01, 0.99] leaves [-1, 1] open; f(0) < 0 settles it
    m, evals, st = prove_positive_1d(lambda t: t * t - 0.01, -1.0, 1.0)
    assert st == FAILED and evals == 1 and m.hi < 0.0


def test_a_margin_without_a_jet_form_keeps_the_natural_form(monkeypatch):
    f = lambda t: t * t - t * 0.6 + 0.091  # (t - 0.3)^2 + 0.001, wrapped

    def natural_only(t):
        if type(t) is Jet:
            raise DomainError("no derivative form")
        return f(t)

    natural = engine._prove_positive(
        lambda box: f(Interval(*box[0])), ((-1.0, 2.0),), 1e-12
    )
    assert prove_positive_1d(natural_only, -1.0, 2.0) == natural
    assert natural[2] == PROVED
    # the same margin with its jet needs fewer cells
    assert prove_positive_1d(f, -1.0, 2.0)[1] < natural[1]
    # a margin that ignores its argument returns no jet
    monkeypatch.setattr(engine, "BUDGET", 10)
    m, _, st = prove_positive_1d(lambda t: Interval(-1.0, 1.0), 0.0, 1.0)
    assert st == INCONCLUSIVE and m == Interval(-1.0, 1.0)


def _true_infimum(a, m, b, c, lo, hi):
    """inf of a (x - m)^2 + b + c sin x on [lo, hi] for a >= 1 >= |c|, where
    the function is convex: an end, or the zero of its increasing derivative."""
    f = lambda x: a * (x - m) ** 2 + b + c * mp.sin(x)
    df = lambda x: 2 * a * (x - m) + c * mp.cos(x)
    L, H = mpf(lo), mpf(hi)
    if df(L) >= 0:
        return f(L)
    if df(H) <= 0:
        return f(H)
    for _ in range(130):
        mid = (L + H) / 2
        L, H = (mid, H) if df(mid) < 0 else (L, mid)
    return f(L)


@seed(27)
@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(1.0, 20.0),
    m=st.floats(-3.0, 3.0),
    b=st.floats(-0.5, 0.5),
    c=st.floats(-1.0, 1.0),
    lo=st.floats(-3.0, 3.0),
    width=st.floats(1e-3, 4.0),
)
def test_prove_positive_1d_encloses_a_known_infimum(a, m, b, c, lo, width):
    hi = lo + width
    with mp.workdps(30):
        inf = _true_infimum(a, m, b, c, lo, hi)
        assume(abs(inf) > 1e-6)
        margin, _, status = prove_positive_1d(
            lambda x: (x - m) ** 2 * a + b + x.sin() * c, lo, hi
        )
        if inf > 0:
            assert status == PROVED
            assert mpf(margin.lo) <= inf <= mpf(margin.hi)
        else:
            # a refutation's margin is the failing cell's, whose infimum
            # lies at or above the domain's
            assert status == FAILED
            assert inf <= mpf(margin.hi) < 0


def test_prove_positive_2d(monkeypatch):
    m, _, st = prove_positive_2d(
        lambda x, y: x * x + y * y + 0.5, (-1.0, 1.0), (-1.0, 1.0)
    )
    assert st == PROVED and m.lo >= 0.5 - 1e-12
    monkeypatch.setattr(engine, "BUDGET", 100)
    _, _, st = prove_positive_2d(lambda x, y: x + y, (-1.0, 1.0), (-1.0, 1.0))
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


def test_subdivision_check_wrapper(monkeypatch):
    # the leaf grades the prover's margin; it must land on the prover's status
    dip = lambda t: (t - 0.3333) * (t - 0.3333) + 1e-8
    cases = [
        ("pos", lambda t: t.exp(), engine.BUDGET, PROVED),
        ("refuted", lambda t: t * t - 2.0, engine.BUDGET, FAILED),
        ("budget", dip, 10, INCONCLUSIVE),
    ]
    for name, f, budget, expected in cases:
        monkeypatch.setattr(engine, "BUDGET", budget)
        r = subdivision_check(name, f, -2.0, 2.0)
        m, evals, st = prove_positive_1d(f, -2.0, 2.0)
        assert r.status == st == expected and r.strict, name
        assert r.margin == m and r.evaluations == evals >= 1, name


def test_concave_check_rests_on_both_end_values():
    # f = 1 - x^2 is concave on [0, 2] with f(0) = 1 but f(2) = -3: the
    # right end refutes the claim, though the left end and -f'' = 2 hold
    def check(right):
        return engine.concave_nonneg_check(
            "concave", lambda x: x * 0.0 + 2.0, Interval(1.0, 1.0), right, 0.0, 2.0,
        )

    assert check(Interval(-3.0, -3.0)).status == FAILED
    assert check(Interval(0.5, 0.5)).status == PROVED


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
            assert node.status == _regraded(node)


def test_poly_helpers():
    a = poly(1, 2)  # 1 + 2t
    b = poly(0, 1)  # t
    assert p_mul(a, b) == poly(0, 1, 2)
    assert p_add(a, b) == poly(1, 3)
    assert p_sub(a, a) == {}
    assert p_shift_div(poly(0, 0, 3), 2) == poly(3)
    enc = ipoly_eval(p_to_iv(poly(1, Fraction(1, 3))), Interval(3.0, 3.0))
    assert enc.contains(2.0)
    # p_quotient is the exact division and one conversion, bit for bit
    num = {(3, 2): Fraction(10), (4, 1): Fraction(-15), (5, 0): Fraction(6)}
    cases = ((3, Interval(0.0, 1.0)), (3, Interval(0.3, 0.3)), (0, Interval(-1.0, 2.0)))
    for k, t in cases:
        want = ipoly_eval(p_to_iv(p_shift_div(num, k)), t)
        got = p_quotient(num, k)(t)
        assert (got.lo, got.hi) == (want.lo, want.hi)
    with pytest.raises(ValueError):
        p_quotient(poly(1, 0, 0, 1), 3)


def test_pi_poly_helpers():
    # (pi - t)(pi + t) = pi^2 - t^2, then strip nothing and evaluate
    a = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    b = {(0, 1): Fraction(1), (1, 0): Fraction(1)}
    prod = p_mul(a, b)
    assert prod == {(0, 2): Fraction(1), (2, 0): Fraction(-1)}
    diff = p_sub(prod, prod)
    assert diff == {}
    shifted = p_shift_div({(2, 0): Fraction(5)}, 2)
    assert shifted == {(0, 0): Fraction(5)}
    # a pi-free coefficient converts exactly as Interval.from_fraction does
    third = Interval.from_fraction(Fraction(1, 3))
    c0, c1, c2 = p_to_iv(prod | {(1, 0): Fraction(1, 3)})
    assert (c1.lo, c1.hi, c2.lo, c2.hi) == (third.lo, third.hi, -1.0, -1.0)
    assert c0.encloses(PI * PI)


def _production_quotients(monkeypatch):
    """The series quotients the four proofs hand to subdivision_check."""
    wanted = {
        "series-quotient", "cos-above-quadratic",
        "cot-minorant-core", "exp-minorant",
    }
    got = {}
    for mod in (engine, cond1, npcheck):
        def spy(name, fn, *args, _orig=mod.subdivision_check, **kw):
            if name in wanted:
                got[name] = fn
            return _orig(name, fn, *args, **kw)

        monkeypatch.setattr(mod, "subdivision_check", spy)
    engine.lemma_exp_affine()
    npcheck._near_zero_children(1e-4)
    cond1.check_case1_polynomials()
    cond1.check_case2_convexity()
    assert set(got) == wanted
    return got


def test_production_quotients_contain_mpmath(monkeypatch):
    m3 = lambda t: 1 - t**2 / 3 - t**4 / 40
    truths = {  # (f - minus) / t^k and the domain the proof covers
        "series-quotient": (
            lambda x: (mp.exp(x) - 1 - x) / x**2, -1.0, 4.0),
        "cos-above-quadratic": (
            lambda t: (mp.cos(t) - 1 + t**2 / 2) / t**4, 0.0, 1e-4),
        "cot-minorant-core": (
            lambda t: (t * mp.cos(t) - m3(t) * mp.sin(t)) / t**5, 0.0, 1.0),
        "exp-minorant": (
            lambda s: (mp.exp(2 * s) - 1 - 2 * s - 2 * s**2) / s**3, 0.0, 3.0),
    }
    rng = random.Random(17)
    with mp.workdps(50):
        for name, quotient in _production_quotients(monkeypatch).items():
            f, lo, hi = truths[name]
            for _ in range(300):
                a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
                enc = quotient(Interval(a, b))
                for t in (a, b, rng.uniform(a, b)):
                    if t != 0.0:
                        assert mpf(enc.lo) <= f(mpf(t)) <= mpf(enc.hi), (name, t)
            with pytest.raises(DomainError):
                quotient(Interval(lo, 1.01 * hi + 100.0))
            # the remainder band bounds the remainder, not its derivative
            with pytest.raises(DomainError):
                quotient(Jet.var(Interval(lo, hi)))
