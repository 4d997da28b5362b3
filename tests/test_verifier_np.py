"""Generic sign-change checker and the direct conclusion quadratures."""

import pytest

from khintchine.interval import Interval, SQRT2
from khintchine.verifier import (
    FAILED,
    INCONCLUSIVE,
    PROVED,
    check_conclusion_direct,
    check_fp_convergence,
    check_np_cos_gauss,
    gauss_cos_gap_integral,
    np_generic,
)


def test_np_generic_identical_enclosures():
    res = np_generic(
        lambda x: x, lambda x: x, 1.0, 2.0, lambda: Interval(0.0, 0.0),
        name="same",
    )
    assert res.status == PROVED
    assert res.margin.contains(0.0)


def test_np_generic_single_crossing():
    res = np_generic(
        lambda x: x,
        lambda x: Interval(0.5, 0.5),
        1.0,
        2.0,
        lambda: Interval(1.0, 1.0),
        name="crossing",
    )
    assert res.status == PROVED
    assert "y0 in" in res.note
    lo, hi = res.note.split("[")[1].rstrip("]").split(",")
    assert float(lo) <= 0.5 <= float(hi)


def test_np_generic_shifted_fails():
    res = np_generic(
        lambda x: x,
        lambda x: x + 1.0,
        1.0,
        2.0,
        lambda: Interval(1.0, 1.0),
        name="shifted",
    )
    assert res.status == FAILED


def test_np_generic_double_crossing_fails():
    # F - G = (x - 0.3)(x - 0.7): two sign changes
    def F(x):
        return (x - 0.3) * (x - 0.7)

    res = np_generic(
        F, lambda x: Interval(0.0, 0.0), 1.0, 2.0, lambda: Interval(1.0, 1.0),
        name="double",
    )
    assert res.status == FAILED


def test_np_generic_budget_never_proves():
    # the enclosure of F straddles G = 1/2 on every cell within 0.3 of the
    # crossing, however fine; a budget spent before those cells reach y_tol
    # leaves the sign change unresolved, never proved
    res = np_generic(
        lambda x: Interval(x.lo - 0.3, x.hi + 0.3),
        lambda x: Interval(0.5, 0.5),
        1.0,
        2.0,
        lambda: Interval(1.0, 1.0),
        max_evals=10,
        name="fuzzy",
    )
    assert res.status == INCONCLUSIVE
    assert res.children[0].status == INCONCLUSIVE
    assert res.children[0].evaluations == 64  # each grid cell once
    assert "budget" in res.note


def test_np_generic_rejects_small_grid():
    with pytest.raises(ValueError):
        np_generic(lambda x: x, lambda x: x, 1.0, 2.0, lambda: Interval(0, 0), grid=4)


@pytest.mark.slow
def test_np_cos_gauss_cases():
    for p in (2.0, 2.5):
        res = check_np_cos_gauss(p)
        assert res.status == PROVED, p
        # y0 localized inside (rho, sigma) = (1/15, 0.97)
        lo, hi = res.note.split("[")[1].rstrip("]").split(",")
        assert 1.0 / 15.0 < float(lo) <= float(hi) < 0.97


@pytest.mark.slow
def test_conclusion_direct_grid():
    res = check_conclusion_direct()
    assert res.status == PROVED
    p_blocks = [c for c in res.children if c.name.startswith("p-")]
    assert len(p_blocks) == 3
    for block in p_blocks:
        mids = []
        for child in block.children:
            assert child.margin.lo > -1e-8
            assert child.margin.mid > 0
            mids.append(child.margin.mid)
        # margins grow with s at fixed p
        assert all(a < b for a, b in zip(mids, mids[1:]))


def test_gap_integral_h2_consistency():
    # at p = 2, s0 = sqrt2 the gap integral is H(2): about 0.00775
    enc, _ = gauss_cos_gap_integral(Interval(2.0, 2.0), SQRT2)
    assert enc.lo > 0
    assert enc.contains(0.00775) or (0.005 < enc.mid < 0.010)


@pytest.mark.slow
def test_fp_convergence():
    res = check_fp_convergence()
    assert res.status == PROVED
    names = [c.name for c in res.children]
    assert "final-within-1-percent" in names
    assert any("deviation-decreasing" in n for n in names)
