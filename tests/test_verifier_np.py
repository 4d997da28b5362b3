"""Generic sign-change checker and the direct conclusion quadratures."""

import re
from math import comb, inf

import pytest
from mpmath import mp, mpf

from khintchine import quad
from khintchine.interval import DomainError, Interval, SQRT2, imin, pow_real
from khintchine.specfun import b_constant
from khintchine.verifier import engine, npcheck
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
from khintchine.verifier.npcheck import (
    _near_zero_children,
    gauss_cos_gap_integrals,
    gauss_moment_integral,
    rademacher_moment,
)


# the slope of F - G that the fuzzy and blurred F's below can promise
UNKNOWN_SLOPE = Interval(-inf, inf)


def NO_DIFF(x, fa, fb):
    """A diff form that offers nothing: np_generic goes on to the slope forms."""
    raise DomainError("no diff form")


def _y0(note):
    lo, hi = re.search(r"y0 in \[([^,]+), ([^\]]+)\]", note).groups()
    return float(lo), float(hi)


def test_np_generic_identical_enclosures():
    res = np_generic(
        lambda x: x, lambda x: x, lambda x: Interval(0.0, 0.0), NO_DIFF,
        name="same",
    )
    assert res.status == PROVED
    assert res.margin.contains(0.0)


def test_np_generic_single_crossing():
    res = np_generic(
        lambda x: x,
        lambda x: Interval(0.5, 0.5),
        lambda x: Interval(1.0, 1.0),
        NO_DIFF,
        name="crossing",
    )
    assert res.status == PROVED
    assert "y0 in" in res.note
    lo, hi = _y0(res.note)
    assert lo <= 0.5 <= hi
    assert "(F - G)' in [1, 1] on it" in res.note


def test_np_generic_shifted_fails():
    res = np_generic(
        lambda x: x,
        lambda x: x + 1.0,
        lambda x: Interval(0.0, 0.0),
        NO_DIFF,
        name="shifted",
    )
    assert res.status == FAILED


def test_np_generic_double_crossing_fails():
    # F - G = (x - 0.3)(x - 0.7): two sign changes; F' = 2 + 2x >= 2
    def F(x):
        return x * 3.0 + (x - 0.3) * (x - 0.7)

    res = np_generic(
        F, lambda x: x * 3.0, lambda x: x * 2.0 - 1.0, NO_DIFF,
        name="double",
    )
    assert res.status == FAILED
    assert "negative again" in res.note


# h = F - G in the test below: +5e-13 on [Y_LO, 0.3], -0.05 on [0.31, 0.6],
# +0.05 from 0.61, linear between, as (start, value there, slope) pieces
_TINY_H = [(0.0, 5e-13, 0.0), (0.3, 5e-13, (-0.05 - 5e-13) / 0.01),
           (0.31, -0.05, 0.0), (0.6, -0.05, 10.0), (0.61, 0.05, 0.0)]


def _tiny_h_pieces(x):
    """The pieces of _TINY_H that meet the interval x."""
    ends = [start for start, _, _ in _TINY_H[1:]] + [inf]
    return [(piece, end) for piece, end in zip(_TINY_H, ends)
            if piece[0] <= x.hi and x.lo <= end]


def _tiny_h(x):
    """h on the interval x: the hull of h at x's ends and the breakpoints in x."""
    values = []
    for (start, value, slope), end in _tiny_h_pieces(x):
        for y in (max(x.lo, start), min(x.hi, end)):
            values.append(Interval(value) + Interval(slope) * (Interval(y) - Interval(start)))
    return Interval.hull(*values)


def test_np_generic_grades_a_sign_without_tolerance():
    # F - G is +5e-13 on the left, below any tolerance, then -0.05 and then
    # +0.05: it changes sign twice, and a cell of +5e-13 is positive, not
    # negative or zero
    res = np_generic(
        lambda x: x * 10.0 + _tiny_h(x),
        lambda x: x * 10.0,
        lambda x: Interval.hull(*(Interval(slope) for (_, _, slope), _ in _tiny_h_pieces(x))),
        lambda x, fa, fb: _tiny_h(x),
        name="tiny-positive",
    )
    assert res.status == FAILED
    assert "negative again" in res.note


def test_np_generic_budget_never_proves(monkeypatch):
    # the enclosure of F straddles G = 1/2 on every cell within 0.3 of the
    # crossing, however fine; a budget spent before those cells reach Y_TOL
    # leaves the sign change unresolved, never proved; the fourth of the 16
    # grid cells is the first that straddles, so 4 evaluations spend the
    # budget before any cell splits
    monkeypatch.setattr(engine, "BUDGET", 4)
    res = np_generic(
        lambda x: Interval(x.lo - 0.3, x.hi + 0.3),
        lambda x: Interval(0.5, 0.5),
        lambda x: UNKNOWN_SLOPE,
        NO_DIFF,
        name="fuzzy",
    )
    assert res.status == INCONCLUSIVE
    assert res.children[0].status == INCONCLUSIVE
    assert res.children[0].evaluations == 16  # each grid cell once
    assert "budget" in res.note


def test_np_generic_budget_cut_gap_with_a_slope_proves(monkeypatch):
    # the budget stops the straddling cell wider than Y_TOL, but F - G rises
    # with slope 1 across the gap, so it crosses zero there once
    monkeypatch.setattr(engine, "BUDGET", 10)
    res = np_generic(
        lambda x: x, lambda x: Interval(0.5, 0.5), lambda x: Interval(1.0, 1.0),
        NO_DIFF, name="cut-gap",
    )
    assert res.status == PROVED
    lo, hi = _y0(res.note)
    assert lo <= 0.5 <= hi and hi - lo > npcheck.Y_TOL
    assert "(F - G)' in [1, 1] on it" in res.note


def test_np_generic_unresolved_right_edge_inconclusive(monkeypatch):
    # F - G = (x-0.2)(x-0.5)(x-0.8) is positive on (0.8, 1], and
    # F' = 3 + (the cubic)' >= 2.91; every point value of F is blurred by
    # +-0.05, so with a tiny budget no cell is certified positive, yet no
    # certified-negative cell sits at the right edge either
    def F(x):
        cubic = (x - 0.2) * (x - 0.5) * (x - 0.8)
        return x * 3.0 + cubic + Interval(-0.05, 0.05)

    monkeypatch.setattr(engine, "BUDGET", 10)
    res = np_generic(
        F, lambda x: x * 3.0, lambda x: UNKNOWN_SLOPE, NO_DIFF,
        name="blurred-cubic",
    )
    assert res.status == INCONCLUSIVE
    assert res.children[0].status == INCONCLUSIVE
    assert "no cell certified positive" in res.note


def test_np_generic_rejects_decreasing_input():
    with pytest.raises(ValueError, match="nondecreasing"):
        np_generic(
            lambda x: -x, lambda x: Interval(0.5, 0.5),
            lambda x: Interval(-1.0, -1.0), NO_DIFF,
            name="decreasing",
        )


def test_np_generic_evaluates_each_endpoint_once():
    # F blurs x by +-0.05, so the hull leaves every cell within 0.05 of
    # G = 0.4 open; diff, the exact x - 0.4 computed without F, settles all of
    # them but the one holding 0.4
    seen = {"F": [], "G": []}
    diffs, slopes = [], []

    def record(key, f):
        def wrapped(x):
            seen[key].append((x.lo, x.hi))
            return f(x)
        return wrapped

    def F(x):
        return x + Interval(-0.05, 0.05)

    def diff(x, fa, fb):
        diffs.append((x.lo, x.hi))
        # F at the cell's ends, as np_generic holds them
        assert (fa, fb) == (F(Interval(x.lo)), F(Interval(x.hi)))
        return x - 0.4

    def slope(x):
        slopes.append((x.lo, x.hi))
        return Interval(1.0, 1.0)

    res = np_generic(
        record("F", F),
        record("G", lambda x: Interval(0.4, 0.4)),
        slope, diff, grid=64, name="endpoints",
    )
    assert res.status == PROVED
    cells = res.children[0].evaluations
    splits = (cells - 64) // 2
    assert splits > 0
    # diff runs on each cell the hull left open, the slope forms on each
    # cell diff left open, then slope once over the gap; each slope-form
    # cell adds its midpoint, which its children reuse if it splits
    tried = slopes[:-1]
    assert set(tried) < set(diffs)
    assert splits <= len(tried)
    for calls in seen.values():
        assert all(lo == hi for lo, hi in calls)
        assert len(set(calls)) == len(calls) == 65 + len(tried)
        assert {(0.5 * (a + b),) * 2 for a, b in tried} <= set(calls)


def test_np_generic_rejects_unsound_diff():
    # diff shifted by +1 misses the hull of F - G = x - 1/2 on the cell
    # that holds 1/2
    with pytest.raises(ValueError, match="diff .* unsound"):
        np_generic(
            lambda x: x, lambda x: Interval(0.5, 0.5), lambda x: Interval(1.0, 1.0),
            lambda x, fa, fb: x - 0.5 + 1.0, name="shifted-diff",
        )


def test_np_generic_rejects_small_grid():
    with pytest.raises(ValueError):
        np_generic(
            lambda x: x, lambda x: x, lambda x: Interval(0.0, 0.0), NO_DIFF, grid=4,
        )


def test_np_cos_gauss_cases(monkeypatch):
    terminal = []

    def recording_bisect(*args, **kwargs):
        cells, evals = engine.bisect_boxes(*args, **kwargs)
        terminal.extend(box for box, _ in cells)
        return cells, evals

    monkeypatch.setattr(npcheck, "bisect_boxes", recording_bisect)
    grid_cells = {((c.lo, c.hi),) for c in Interval(npcheck.Y_LO, npcheck.Y_HI).split(16)}
    for p in (2.0, 2.5):
        terminal.clear()
        res = check_np_cos_gauss(p)
        assert res.status == PROVED, p
        # the leaf states the window it classifies on, Y_LO to Y_HI
        assert res.note.startswith("one sign change on [0.001, 0.99]: y0 in ["), p
        # y0 localized inside (rho, sigma) = (1/15, 0.97)
        lo, hi = _y0(res.note)
        assert 1.0 / 15.0 < lo <= hi < 0.97
        # the slope forms settle the cells that the monotone hull alone
        # bisects (1,594 evaluations at p = 2.0 without them), and the
        # cancellation-free distfn.star_difference those near x = 1 (154
        # evaluations at p = 2.0 without it); 52 at p = 2.0
        assert res.children[0].evaluations <= 60, p
        assert "(F - G)' in [0.12" in res.note, p
        # no cell right of 0.85 is bisected: each is settled on the grid
        right = [box for box in terminal if box[0][1] > 0.85]
        assert right and all(box in grid_cells for box in right), p


def test_np_generic_wide_gap_needs_a_slope(monkeypatch):
    # F - G lies within 0.3 of x - 1/2 and its sign is unknown on
    # [0.2, 0.8]: the unresolved cells fill that gap, so a single crossing
    # there rests on the slope alone.  Y_TOL only sets how many cells fill
    # it (159,042 evaluations at 1e-5, 1,236 at 1e-3), not the verdict
    monkeypatch.setattr(npcheck, "Y_TOL", 1e-3)

    def run(slope):
        return np_generic(
            lambda x: Interval(x.lo - 0.3, x.hi + 0.3),
            lambda x: Interval(0.5, 0.5),
            lambda x: slope,
            NO_DIFF,
            name="fuzzy-gap",
        )

    res = run(UNKNOWN_SLOPE)
    assert res.status == INCONCLUSIVE
    assert res.children[0].status == INCONCLUSIVE
    assert "transition gap" in res.note and "not certified positive" in res.note
    # a slope that may be negative anywhere in the gap certifies nothing
    assert run(Interval(-0.5, 1.0)).status == INCONCLUSIVE
    # an F - G that rises with slope 1 crosses zero once, somewhere in the gap
    res = run(Interval(1.0, 1.0))
    assert res.status == PROVED
    lo, hi = _y0(res.note)
    assert lo < 0.21 and hi > 0.79


def test_np_generic_rejects_wrong_slope():
    # F - G = x - 1/2 rises; a slope of -10 predicts values at the ends of
    # the straddling cell that miss F - G there
    with pytest.raises(ValueError, match="unsound"):
        np_generic(
            lambda x: x, lambda x: Interval(0.5, 0.5),
            lambda x: Interval(-10.0, -10.0),
            NO_DIFF,
            name="wrong-slope",
        )


@pytest.mark.slow
def test_conclusion_direct_grid(conclusion_direct):
    res = conclusion_direct
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
    # the batch's memos belong to one call: a second call in this process
    # computes the same tree
    assert _tree(check_conclusion_direct()) == _tree(res)


@pytest.mark.slow
def test_conclusion_direct_integrals_are_narrow(conclusion_direct):
    # one direct-form quadrature on [t1, 7 pi/2] holds all 12 gap integrals
    # of the default grid to 4.3e-4
    leaves = [leaf for block in conclusion_direct.children
              if block.name.startswith("p-") for leaf in block.children]
    assert len(leaves) == 12
    assert max(leaf.margin.width for leaf in leaves) <= 4.3e-4


def _tree(node):
    return (
        node.name, node.status, node.margin.lo.hex(), node.margin.hi.hex(),
        node.evaluations, node.note, [_tree(c) for c in node.children],
    )


def _gap_bits(enc, q):
    return enc.lo.hex(), enc.hi.hex(), q.value.lo.hex(), q.value.hi.hex(), q.cells, q.status


def test_conclusion_direct_takes_s_as_a_float_or_an_interval():
    as_float = check_conclusion_direct(p_grid=(2.5,), s_grid=(2.0,))
    as_box = check_conclusion_direct(p_grid=(2.5,), s_grid=(Interval(2.0),))
    assert _tree(as_float) == _tree(as_box)


@pytest.mark.slow
def test_conclusion_direct_s0_column_is_hypothesis_2(conclusion_direct):
    # the default grid's s0 = sqrt(2) leaves are the gap integrals of the
    # comparison lemma's hypothesis 2, at the p of the sign-change checks
    rows = {c.name: c.children for c in conclusion_direct.children
            if c.name.startswith("p-")}
    assert list(rows) == ["p-2.0", "p-2.5", "p-2.9"]
    for p, row in zip((2.0, 2.5, 2.9), rows.values()):
        s0 = row[0]
        assert s0.name == f"integral-p{p}-s1.414214"
        assert s0.note.startswith("hypothesis 2")
        enc, _ = gauss_cos_gap_integral(Interval(p, p), SQRT2)
        assert (s0.margin.lo.hex(), s0.margin.hi.hex()) == (enc.lo.hex(), enc.hi.hex())
        assert not any(c.note.startswith("hypothesis 2") for c in row[1:])


def test_conclusion_direct_leaf_evaluations_are_its_direct_cells():
    # m_s is a closed bracket, so a gap integral's one quadrature is all the
    # cells its leaf counts, at the sqrt2 box as at s = 3; an even s is
    # Haagerup's closed form, in no cells
    grid = ((2.0, 2.5), (SQRT2, Interval(3.0)))
    res = check_conclusion_direct(*grid)
    leaves = [leaf for row in res.children if row.name.startswith("p-")
              for leaf in row.children]
    directs = [gauss_cos_gap_integral(Interval(p, p), s)[1] for p in grid[0] for s in grid[1]]
    assert [leaf.evaluations for leaf in leaves] == [d.cells for d in directs]
    assert all(d.ok and d.cells > 0 for d in directs)
    # the near-zero bound is certified once, at delta = 1e-4, under the node
    trees = [_tree(c) for c in res.children[:2]]
    assert trees == [_tree(c) for c in _near_zero_children(1e-4)]
    assert trees != [_tree(c) for c in _near_zero_children(1e-3)]
    even = check_conclusion_direct(grid[0], (2.0, 4.0, 16.0))
    assert [leaf.evaluations for row in even.children[2:] for leaf in row.children] == [0] * 6


def test_gap_integrals_batch_equals_one_pair_calls():
    # part of check_conclusion_direct's grid: the pairs share their p-factors
    # across s and their s-factors across p
    grid = [(p, s) for p in (2.1, 2.9) for s in (float(SQRT2.lo), 4.0)]
    pairs = [(Interval(p, p), Interval(s, s)) for p, s in grid]
    batch = gauss_cos_gap_integrals(pairs)
    alone = [gauss_cos_gap_integral(p, s) for p, s in pairs]
    assert [_gap_bits(*r) for r in batch] == [_gap_bits(*r) for r in alone]


def test_gap_integral_h2_consistency():
    # at p = 2, s0 = sqrt2 the gap integral is H(2): about 0.00775
    enc, _ = gauss_cos_gap_integral(Interval(2.0, 2.0), SQRT2)
    assert enc.lo > 0
    assert enc.contains(0.00775) or (0.005 < enc.mid < 0.010)


def _contains(enc, truth):
    return mpf(enc.lo) <= truth <= mpf(enc.hi)


def test_fp_convergence(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("check_fp_convergence ran a quadrature")

    # the moment check compares exact moments and computes no gap integral
    for mod in (quad, npcheck):
        monkeypatch.setattr(mod, "integrate", no_quadrature)
    res = check_fp_convergence()
    assert res.status == PROVED
    assert [c.name for c in res.children] == [
        "deviation-decreasing-4-to-16",
        "deviation-decreasing-16-to-64",
        "final-within-1-percent",
    ]
    assert all(c.status == PROVED for c in res.children)
    assert res.margin == imin([c.margin for c in res.children]) and res.margin.lo > 0.0


def _haagerup_truth(p, n):
    """H(p, n) in mpmath: Gamma(-p) cos(pi p/2) (n^(p/2) B_p^p - E|S_n|^p),
    and at p = 2 its limit, (n/4)(2 - gamma + ln(n/2)) - E[S_n^2 ln|S_n|]/2."""
    P = mpf(p)
    weights = [(mpf(comb(n, j)) / mpf(2) ** n, abs(mpf(n - 2 * j))) for j in range(n + 1)]
    if p == 2.0:
        mean = sum(w * x**2 * mp.log(x) for w, x in weights if x)
        return n * (2 - mp.euler + mp.log(mpf(n) / 2)) / 4 - mean / 2
    bpp = 2 ** (P / 2) * mp.gamma((P + 1) / 2) / mp.sqrt(mp.pi)
    moment = sum(w * x**P for w, x in weights)
    return mp.gamma(-P) * mp.cos(mp.pi * P / 2) * (mpf(n) ** (P / 2) * bpp - moment)


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("p", [2.0, 2.1, 2.5, 2.9])
def test_haagerup_gap_contains_mpmath_and_the_quadrature(p, n):
    # Haagerup's identity, and its p = 2 limit, against a 30-digit value and
    # against the quadrature route at the same (p, s)
    enc = npcheck.haagerup_gap(Interval(p), n)
    with mp.workdps(30):
        assert _contains(enc, _haagerup_truth(p, n))
    by_quad, _ = gauss_cos_gap_integral(Interval(p), Interval(float(n)))
    assert enc.intersects(by_quad)
    assert enc.width <= (1e-13 if p == 2.0 else 4e-7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 64])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_rademacher_moment_contains_the_binomial_sum(n, p):
    enc = rademacher_moment(n, Interval(p))
    with mp.workdps(50):
        P = mpf(p)
        truth = sum(comb(n, j) * abs(mpf(n - 2 * j)) ** P for j in range(n + 1))
        truth = truth / mpf(2) ** n / mpf(n) ** (P / 2)
        assert _contains(enc, truth)
    if p == 2.0:
        assert enc.contains(1.0)  # E S_n^2 = n


@pytest.mark.parametrize("p", [2.1, 2.5, 2.9])
def test_gauss_moment_closed_forms_contain_mpmath(p):
    piv = Interval(p)
    with mp.workdps(50):
        P = mpf(p)
        bpp = pow_real(b_constant(piv), piv)
        assert _contains(bpp, 2 ** (P / 2) * mp.gamma((P + 1) / 2) / mp.sqrt(mp.pi))
        assert _contains(gauss_moment_integral(piv), 2 ** (-(P + 2) / 2) * mp.gamma(-P / 2))
