"""Brute-force oracles: enumeration invariants, binomial mode, Monte Carlo."""

import itertools
import math
import random

import pytest
from mpmath import mp, mpf

from khintchine.oracle import (
    CoefficientVector,
    exact_moment,
    khintchine_check,
    monte_carlo_moment,
    random_unit_vectors,
    steckin_convergence,
)


def test_single_coefficient():
    v = CoefficientVector((1.0,))
    for p in (0.5, 2.0, 2.5, 3.0):
        assert abs(exact_moment(v, p) - 1.0) < 1e-15


def test_two_equal_coefficients():
    v = CoefficientVector((1 / math.sqrt(2), 1 / math.sqrt(2)))
    # values sqrt(2) and 0 with probability 1/2 each: moment = 2^(p/2 - 1)
    for p in (2.0, 2.5, 3.0):
        assert abs(exact_moment(v, p) - 2 ** (p / 2 - 1)) < 1e-14
    assert abs(exact_moment(v, 3.0) - math.sqrt(2)) < 1e-14


def test_unit_vector_second_moment():
    rng = random.Random(2)
    for n in (2, 5, 9):
        raw = [rng.uniform(-1, 1) for _ in range(n)]
        norm = math.sqrt(sum(x * x for x in raw))
        v = CoefficientVector(tuple(x / norm for x in raw))
        assert abs(exact_moment(v, 2.0) - 1.0) < 1e-12


def test_permutation_and_sign_invariance():
    rng = random.Random(5)
    for n in (3, 6, 10):
        vals = tuple(rng.uniform(-1, 1) for _ in range(n))
        base = exact_moment(CoefficientVector(vals), 2.5)
        perms = list(itertools.permutations(vals)) if n == 3 else [
            tuple(rng.sample(vals, n)) for _ in range(12)
        ]
        for perm in perms:
            assert abs(exact_moment(CoefficientVector(perm), 2.5) - base) < 1e-12
        for _ in range(12):
            flipped = tuple(x * rng.choice((-1, 1)) for x in vals)
            assert abs(exact_moment(CoefficientVector(flipped), 2.5) - base) < 1e-12


def test_homogeneity():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 10)
        vals = tuple(rng.uniform(-1, 1) for _ in range(n))
        lam = rng.uniform(0.1, 3.0)
        p = rng.uniform(2.0, 3.0)
        a = exact_moment(CoefficientVector(tuple(lam * x for x in vals)), p)
        b = lam**p * exact_moment(CoefficientVector(vals), p)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-30)


def test_power_mean_monotone_in_p():
    vectors = random_unit_vectors(50, 10, seed=4)
    grid = (2.0, 2.2, 2.5, 2.8, 3.0)
    for v in vectors:
        vals = [exact_moment(v, p) ** (1 / p) for p in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_binomial_matches_enumeration():
    for n in (2, 5, 10, 16):
        v = CoefficientVector(tuple([1 / math.sqrt(n)] * n))
        for p in (2.0, 2.5, 3.0):
            enum = exact_moment(v, p)
            (_, binom, _) = steckin_convergence(p, (n,))[0]
            assert abs(enum - binom) < 1e-12


def test_steckin_examples():
    rows = steckin_convergence(2.0, (4, 16, 64))
    for _, m, tgt in rows:
        assert abs(m - 1.0) < 1e-12 and abs(tgt - 1.0) < 1e-12
    (_, m64, t3) = steckin_convergence(3.0, (64,))[0]
    assert abs(t3 - 2**1.5 / math.sqrt(math.pi)) < 1e-14
    assert abs(m64 - t3) / t3 < 0.02
    # the deviations from the gaussian moment fall along n at both p
    for p in (2.5, 3.0):
        rows = steckin_convergence(p, (16, 64, 256, 1024))
        devs = [abs(m - t) for (_, m, t) in rows]
        assert all(a > b for a, b in zip(devs, devs[1:])), p


def test_binomial_mode_matches_mpmath_at_large_n():
    # correctly rounded weights C(n, k)/2^n keep the sum within a few ulps
    with mp.workdps(50):
        for n in (256, 1024):
            for p in (2.5, 3.0):
                truth = mp.fsum(
                    mp.binomial(n, k) * abs((2 * k - n) / mp.sqrt(n)) ** mpf(p)
                    for k in range(n + 1)
                ) / mpf(2) ** n
                (_, binom, _) = steckin_convergence(p, (n,))[0]
                assert abs(binom - truth) / truth < 1e-15, (n, p)


def test_khintchine_check_examples():
    v = CoefficientVector((1 / math.sqrt(2), 1 / math.sqrt(2)))
    ratio, bound, ok = khintchine_check(v, 3.0)
    assert ok
    assert abs(ratio - 2 ** (1 / 6)) < 1e-12  # (sqrt 2)^(1/3)
    assert abs(bound - 1.1685752549624655) < 1e-8
    e1 = CoefficientVector((1.0, 0.0, 0.0))
    ratio, _, ok = khintchine_check(e1, 2.5)
    assert ok and abs(ratio - 1.0) < 1e-12


def test_khintchine_sweep():
    # vector outside, p inside: the cached sign sums serve all three p
    for v in random_unit_vectors(200, 16, seed=20240801):
        for p in (2.2, 2.5, 2.8):
            _, _, ok = khintchine_check(v, p)
            assert ok


def test_monte_carlo():
    v = CoefficientVector((1.0,))
    est, err = monte_carlo_moment(v, 2.5, 2000, seed=1)
    assert est == 1.0 and err == 0.0
    v8 = CoefficientVector(tuple([1 / math.sqrt(8)] * 8))
    est, err = monte_carlo_moment(v8, 2.5, 100_000, seed=7)
    exact = exact_moment(v8, 2.5)
    assert abs(est - exact) <= 4 * err
    est2, err2 = monte_carlo_moment(v8, 2.5, 100_000, seed=7)
    assert est == est2 and err == err2  # determinism


def test_monte_carlo_unequal_halves():
    # n = 9 splits into sign tables of 4 and 5 coefficients
    rng = random.Random(11)
    v = CoefficientVector(tuple(rng.uniform(-1, 1) for _ in range(9)))
    for p in (2.2, 2.5, 3.0):
        est, err = monte_carlo_moment(v, p, 50_000, seed=3)
        assert err > 0.0
        assert abs(est - exact_moment(v, p)) <= 4 * err


def test_random_unit_vectors():
    vectors = random_unit_vectors(40, 9, seed=17)
    assert [v.n for v in vectors] == [2 + i % 8 for i in range(40)]
    for v in vectors:
        assert abs(v.norm2 - 1.0) <= 1e-15
    assert random_unit_vectors(40, 9, seed=17) == vectors
    assert random_unit_vectors(40, 9, seed=18) != vectors


def test_capacity_and_domain_errors():
    with pytest.raises(ValueError):
        exact_moment(CoefficientVector(tuple([0.1] * 30)), 2.0)
    with pytest.raises(ValueError):
        exact_moment(CoefficientVector(tuple([0.1] * 17)), 2.0)
    with pytest.raises(ValueError):
        khintchine_check(CoefficientVector((0.0, 0.0)), 2.5)
    with pytest.raises(ValueError):
        monte_carlo_moment(CoefficientVector((1.0,)), 2.0, 10, seed=0)
    with pytest.raises(ValueError):
        steckin_convergence(2.5, (20_000,))
