"""Acceptance gate: each numbered criterion runs at its stated tolerance and
prints one pass/fail line (visible with pytest -s).

Two literal thresholds are mathematically unattainable and are kept as strict
expected failures with the analysis in the assertion messages:

* "piece B >= 0.29587": the exact value of the gaussian H(2) piece is
  0.29586525757... (any rigorous enclosure refutes the printed floor, which is
  the true value rounded UP to five digits).  The repaired floor 0.29586 is
  asserted instead and the whole H(2) chain still closes with margin ~0.003.
* "si(pi) = 0.2811399 +- 1e-7": the 4x-precision series oracle gives
  si(pi) = 0.28114072518..., 8.2e-7 away from the printed digits.  The
  criterion defers to the series oracles, which is what the main assertion
  uses.
"""

import json
import math
import time

import pytest
from mpmath import mp

from khintchine.cli import RunConfig, run
from khintchine.interval import PI, Interval, imin, pow_real
from khintchine.oracle import (
    CoefficientVector,
    exact_moment,
    khintchine_check,
    random_unit_vectors,
    steckin_convergence,
)
from khintchine.specfun import ci, ei_neg, si, zeta_sum
from khintchine.verifier import (
    LAMBDA_TAIL_CONST_PRINTED,
    PROVED,
    check_cond1_monotone,
    check_cond1_sign_at_sigma,
    check_cond1_small_x,
    check_cond2_h2,
    check_cond2_hprime,
)
from khintchine.verifier.cond1 import p_boxes


@pytest.fixture(autouse=True)
def _mp_precision():
    # every test runs at 64 digits, restored afterwards
    with mp.workdps(64):
        yield


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _find(result, name):
    for node in result.walk():
        if node.name == name:
            return node
    raise KeyError(name)


# -- criterion 1: H(2) pieces -------------------------------------------------


@pytest.fixture(scope="module")
def h2_result():
    t0 = time.perf_counter()
    res = check_cond2_h2()
    return res, time.perf_counter() - t0


def test_criterion_1_h2_pieces(h2_result):
    res, elapsed = h2_result
    a = _find(res, "closed-form-floor").margin + 0.03129
    b = _find(res, "piece-B").margin + 0.29586
    c = 0.2577 - _find(res, "majorant-integral-ceiling").margin
    d = 0.0667 - _find(res, "hoelder-ceiling").margin
    net = _find(res, "net-margin").margin
    ok = (
        a.lo >= 0.03129
        and b.lo >= 0.29586
        and c.hi <= 0.2577
        and d.hi <= 0.0667
        and all(x.width <= 5e-4 for x in (a, b, c, d))
        and net.lo > 0
        and elapsed <= 30.0
    )
    _report(
        "1",
        ok,
        f"A={a!r} B={b!r} C={c!r} D={d!r} net={net!r} "
        f"({elapsed:.1f}s; expected net ~0.0026-0.0030)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="piece B is exactly 0.2958652576 < 0.29587; the printed floor is "
    "its own value rounded up and no rigorous enclosure can clear it",
)
def test_criterion_1_piece_b_printed_floor(h2_result):
    b = _find(h2_result[0], "piece-B").margin + 0.29586
    assert b.lo >= 0.29587


# -- criterion 2: H'(p) pieces ------------------------------------------------


def test_criterion_2_hprime_pieces():
    t0 = time.perf_counter()
    res = check_cond2_hprime()
    elapsed = time.perf_counter() - t0
    piece_a = _find(res, "integral-above-0.0153").margin + 0.0153
    j = 0.0147 - _find(res, "J-below-0.0147").margin
    # the printed 0.043369 (2/pi)^p >= 0.00705/(p-1) on the proof's p boxes;
    # the certificate grades the repaired 0.0433 in its place
    two_over_pi = Interval(2.0, 2.0) / PI
    cmp_printed = imin([
        (b - 1.0) * pow_real(two_over_pi, b) * LAMBDA_TAIL_CONST_PRINTED - 0.00705
        for b in p_boxes()
    ])
    ok = (
        piece_a.lo >= 0.0153
        and piece_a.width <= 1e-4
        and j.hi <= 0.0147  # [1, pi/2] piece >= -0.0147
        and cmp_printed.lo > 0.0
        and res.status == PROVED
        and elapsed <= 30.0
    )
    _report(
        "2",
        ok,
        f"[0,1]-piece={piece_a!r} J={j!r} tail-comparison={cmp_printed!r} "
        f"({elapsed:.1f}s)",
    )


# -- criterion 3: condition 1 family ------------------------------------------


def test_criterion_3_condition1():
    t0 = time.perf_counter()
    results = [
        check_cond1_sign_at_sigma(),
        check_cond1_small_x(),
        check_cond1_monotone(),  # includes reduction, case 1, case 2
    ]
    elapsed = time.perf_counter() - t0
    non_proved = [
        n.name for r in results for n in r.walk() if n.status != PROVED
    ]
    ok = not non_proved and elapsed <= 180.0
    _report("3", ok, f"all proved; {elapsed:.1f}s" if ok else str(non_proved))


# -- criterion 4: direct NP conclusion ----------------------------------------


def test_criterion_4_conclusion_direct(conclusion_direct):
    leaves = [
        n for n in conclusion_direct.walk() if n.name.startswith("integral-p")
    ]
    assert len(leaves) == 12
    ok = all(n.margin.lo > -1e-8 for n in leaves) and all(
        n.margin.mid > 0 for n in leaves
    )
    worst = min(n.margin.lo for n in leaves)
    _report("4", ok, f"12 integrals; worst lower end {worst:.3g}")


# -- criterion 5: distribution-function cross-validation -----------------------


def test_criterion_5_cross_validation(f_star_vs_brute_force):
    worst_hull = 0.0
    for p, x, f, b in f_star_vs_brute_force:
        assert f.intersects(b), (p, x)
        worst_hull = max(worst_hull, Interval.hull(f, b).width)
    ok = worst_hull <= 1e-6
    _report("5", ok, f"250 points overlap; worst combined width {worst_hull:.3g}")


# -- criterion 6: special-function anchors -------------------------------------


def test_criterion_6_anchors():
    # 4x-precision series oracles
    ei_ref = float(mp.ei(-1))
    si_ref = float(mp.si(mp.pi) - mp.pi / 2)
    ci_ref = float(mp.ci(mp.pi / 2))
    z3_ref = float(mp.zeta(3))

    e = ei_neg(Interval(-1.0, -1.0))
    s = si(Interval(math.pi, math.pi))
    c = ci(Interval(math.pi / 2, math.pi / 2))
    z2 = zeta_sum(Interval(2.0, 2.0))
    z3 = zeta_sum(Interval(3.0, 3.0))
    checks = [
        abs(e.mid - ei_ref) <= 1e-8 and e.contains(ei_ref),
        abs(e.mid - (-0.2193839344)) <= 1e-8,
        abs(s.mid - si_ref) <= 1e-7 and s.contains(si_ref),
        abs(c.mid - ci_ref) <= 1e-7 and c.contains(ci_ref),
        abs(c.mid - 0.4720007) <= 1e-7,
        z2.contains(math.pi**2 / 6),
        abs(z3.mid - z3_ref) <= 1e-7 and z3.contains(z3_ref),
        abs(z3.mid - 1.2020569) <= 1e-7,
    ]
    ok = all(checks)
    _report("6", ok, f"anchors vs oracles: {checks}")


@pytest.mark.xfail(
    strict=True,
    reason="the 4x-precision oracle gives si(pi) = 0.2811407252, which is "
    "8.2e-7 from the printed digits 0.2811399; the oracle governs",
)
def test_criterion_6_si_printed_digits():
    s = si(Interval(math.pi, math.pi))
    assert abs(s.mid - 0.2811399) <= 1e-7


# -- criterion 7: oracle suite --------------------------------------------------


def test_criterion_7_oracles():
    # vector outside, p inside: the cached sign sums serve all three p
    vectors = random_unit_vectors(200, 16, seed=20240801)
    sweep_ok = all(
        khintchine_check(v, p)[2] for v in vectors for p in (2.2, 2.5, 2.8)
    )
    (_, m64, target) = steckin_convergence(3.0, (64,))[0]
    steckin_ok = abs(m64 - target) / target <= 0.02 and abs(target - 1.59577) < 1e-5

    import itertools
    import random as _random

    rng = _random.Random(13)
    prop_ok = True
    for n in range(1, 11):
        vals = tuple(rng.uniform(-1, 1) for _ in range(n))
        base = exact_moment(CoefficientVector(vals), 2.5)
        perms = (
            itertools.permutations(vals)
            if n <= 4
            else (tuple(rng.sample(vals, n)) for _ in range(10))
        )
        for perm in perms:
            prop_ok &= abs(exact_moment(CoefficientVector(perm), 2.5) - base) < 1e-12
        flip = tuple(-x for x in vals)
        prop_ok &= abs(exact_moment(CoefficientVector(flip), 2.5) - base) < 1e-12
        lam = 1.7
        prop_ok &= (
            abs(
                exact_moment(CoefficientVector(tuple(lam * x for x in vals)), 2.5)
                - lam**2.5 * base
            )
            <= 1e-12 * max(base, 1.0) * lam**2.5
        )
        grid = (2.0, 2.4, 2.8)
        means = [exact_moment(CoefficientVector(vals), p) ** (1 / p) for p in grid]
        prop_ok &= all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
        if n >= 2:
            unit = CoefficientVector(tuple([1 / math.sqrt(n)] * n))
            (_, binom, _) = steckin_convergence(2.5, (n,))[0]
            prop_ok &= abs(exact_moment(unit, 2.5) - binom) < 1e-12
    ok = sweep_ok and steckin_ok and prop_ok
    _report(
        "7",
        ok,
        f"sweep={sweep_ok} steckin(n=64)={m64:.5f} vs {target:.5f} "
        f"properties={prop_ok}",
    )


# -- criterion 8: determinism ----------------------------------------------------


@pytest.mark.slow
def test_criterion_8_determinism():
    cfg_a = RunConfig(suite="all", seed=20240801)
    cfg_b = RunConfig(suite="all", seed=20240801)
    body_a = json.dumps(run(cfg_a).body(), sort_keys=True).encode()
    body_b = json.dumps(run(cfg_b).body(), sort_keys=True).encode()
    ok = body_a == body_b
    _report("8", ok, f"two suite=all runs, {len(body_a)} JSON bytes each")
