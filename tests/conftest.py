"""Shared fixtures."""

import pytest

from khintchine.distfn import MeasureParams, brute_force_dist, f_star
from khintchine.interval import Interval
from khintchine.verifier import check_conclusion_direct


@pytest.fixture(scope="session")
def f_star_vs_brute_force():
    """(p, x, F_*(x) as the proof computes it, brute-force enclosure) at 250
    points: five exponents in [2, 3] times 50 values of x in [0.02, 0.98]."""
    pairs = []
    for p in (2.0, 2.25, 2.5, 2.75, 3.0):
        mpp = MeasureParams(Interval(p, p))
        for i in range(50):
            x = 0.02 + 0.96 * i / 49
            f = f_star(Interval(x, x), mpp)
            pairs.append((p, x, f, brute_force_dist(x, mpp, "cos")))
    return pairs


@pytest.fixture(scope="session")
def conclusion_direct():
    """One check_conclusion_direct() run, shared by the tests that only read it."""
    return check_conclusion_direct()
