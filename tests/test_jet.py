"""Interval jets: value, f' and f'' enclose mpmath's derivatives on whole cells."""

import random
import zlib

import pytest
from mpmath import mp, mpf

from khintchine.interval import DomainError, Interval, SQRT2, pow_real
from khintchine.jet import Jet


@pytest.fixture(autouse=True)
def _mp_precision():
    # every test runs at 50 digits, restored afterwards
    with mp.workdps(50):
        yield


C = Interval(1.5, 1.5)

# (name, jet/interval function, mpmath function, sampling domain)
CASES = [
    ("add-jets", lambda t: t.exp() + t.sin(), lambda x: mp.exp(x) + mp.sin(x), (-2.0, 2.0)),
    ("add-float", lambda t: t + 0.3, lambda x: x + mpf(0.3), (-2.0, 2.0)),
    ("radd-interval", lambda t: C + t * t, lambda x: mpf(1.5) + x * x, (-2.0, 2.0)),
    ("sub-jets", lambda t: t.cos() - t * t, lambda x: mp.cos(x) - x * x, (-2.0, 2.0)),
    ("rsub-float", lambda t: 2.5 - t.exp(), lambda x: mpf(2.5) - mp.exp(x), (-2.0, 2.0)),
    ("rsub-interval", lambda t: C - t.sin(), lambda x: mpf(1.5) - mp.sin(x), (-2.0, 2.0)),
    ("neg", lambda t: -(t * t.exp()), lambda x: -x * mp.exp(x), (-2.0, 2.0)),
    ("mul-jets", lambda t: t.exp() * t.sin(), lambda x: mp.exp(x) * mp.sin(x), (-2.0, 2.0)),
    ("mul-interval", lambda t: C * t.cos(), lambda x: mpf(1.5) * mp.cos(x), (-2.0, 2.0)),
    ("div-jets", lambda t: t.sin() / (t + 3.0), lambda x: mp.sin(x) / (x + 3), (-2.0, 2.0)),
    ("div-interval", lambda t: t.exp() / C, lambda x: mp.exp(x) / mpf(1.5), (-2.0, 2.0)),
    ("rdiv-float", lambda t: 3.0 / (t * t + 1.0), lambda x: 3 / (x * x + 1), (-2.0, 2.0)),
    ("rdiv-interval", lambda t: C / t.exp(), lambda x: mpf(1.5) / mp.exp(x), (-2.0, 2.0)),
    ("pow-2", lambda t: t**2, lambda x: x**2, (-2.0, 2.0)),
    ("pow-3", lambda t: (t + 0.5) ** 3, lambda x: (x + mpf(0.5)) ** 3, (-2.0, 2.0)),
    ("pow-5", lambda t: t**5, lambda x: x**5, (0.1, 2.0)),
    ("pow-neg", lambda t: t**-3, lambda x: x**-3, (0.2, 3.0)),
    ("exp", lambda t: (t * 0.7).exp(), lambda x: mp.exp(x * mpf(0.7)), (-3.0, 3.0)),
    ("ln", lambda t: (t + 2.0).ln(), lambda x: mp.log(x + 2), (-1.5, 3.0)),
    ("cos", lambda t: (t * 3.0).cos(), lambda x: mp.cos(3 * x), (-3.0, 3.0)),
    ("sin", lambda t: (t * 3.0).sin(), lambda x: mp.sin(3 * x), (-3.0, 3.0)),
    ("abs-positive", lambda t: (t.cos() + 1.5).abs(), lambda x: mp.cos(x) + mpf(1.5), (-3.0, 3.0)),
    ("abs-negative", lambda t: (t - 5.0).abs(), lambda x: 5 - x, (-3.0, 3.0)),
    (
        "pow_real",
        lambda t: pow_real(t + 1.5, SQRT2),
        lambda x: (x + mpf(1.5)) ** mp.sqrt(2),
        (-1.0, 2.0),
    ),
    ("pow_real-neg", lambda t: pow_real(t, Interval(-3.9, -3.9)), lambda x: x ** mpf(-3.9), (0.05, 3.0)),
    ("pow_real-half", lambda t: pow_real(t, 0.5), lambda x: mp.sqrt(x), (0.01, 3.0)),
    (
        "gap-integrand",
        lambda t: ((-(t * t) * 2.0).exp() - pow_real(t.cos().abs(), 4.0)) * pow_real(t, -3.9),
        lambda x: (mp.exp(-2 * x * x) - mp.cos(x) ** 4) * x ** mpf(-3.9),
        (1.2, 1.5),
    ),
]


def _cells(lo, hi, seed):
    """Seeded cells of width 0 to 1e-2 inside [lo, hi]."""
    rng = random.Random(seed)
    out = []
    for w in (0.0, 1e-9, 1e-5, 1e-3, 1e-2) * 4:
        a = rng.uniform(lo, hi - w)
        out.append((a, a + w))
    return out


def _encloses(iv: Interval, value) -> bool:
    return mpf(iv.lo) <= value <= mpf(iv.hi)


def _check(f, g, a, b, seed):
    jet = f(Jet.var(Interval(a, b)))
    assert type(jet) is Jet
    rng = random.Random(seed)
    for x in {a, b, 0.5 * (a + b), rng.uniform(a, b)}:
        for n, part in enumerate((jet.v, jet.d, jet.dd)):
            truth = mp.diff(g, mpf(x), n)
            assert _encloses(part, truth), (x, n, part, truth)


@pytest.mark.parametrize("name,f,g,dom", CASES, ids=[c[0] for c in CASES])
def test_primitive_encloses_derivatives(name, f, g, dom):
    for k, (a, b) in enumerate(_cells(*dom, seed=zlib.crc32(name.encode()))):
        _check(f, g, a, b, k)


def test_value_part_is_the_interval_evaluation():
    x = Interval(0.3, 0.31)
    f = lambda t: pow_real(t.cos().abs(), SQRT2) * (t * t + 1.0).exp() / (t + 2.0)
    assert f(Jet.var(x)).v == f(x)


def test_chain_through_inner_jet():
    # an inner jet with d != 1 and dd != 0 takes the general chain rule
    f = lambda t: (t * t * 0.5 + 0.1).ln()
    g = lambda x: mp.log(x * x / 2 + mpf(0.1))
    for k, (a, b) in enumerate(_cells(0.0, 1.3, seed=5)):
        _check(f, g, a, b, k)


def test_domain_errors():
    across = Jet.var(Interval(-0.1, 0.1))
    with pytest.raises(DomainError):
        across.abs()
    with pytest.raises(DomainError):
        1.0 / across
    touching = Jet.var(Interval(0.0, 0.1))
    with pytest.raises(DomainError):
        pow_real(touching, SQRT2)
    with pytest.raises(DomainError):
        touching.ln()
    with pytest.raises(DomainError):
        Jet.var(Interval(1.5, 1.6)).cos().abs()  # |cos t| across pi/2
    with pytest.raises(TypeError):
        Jet.var(Interval(1.0, 2.0)) ** 0.5


def test_interval_operand_defers_to_jet():
    # Interval op Jet returns NotImplemented without coercing the jet, and
    # the jet's reflected method gives the same endpoints as jet op Interval
    j = Jet.var(Interval(0.3, 0.31)).cos()
    one, two = Interval(1.0, 1.0), Interval(2.0, 2.0)
    diff, prod = one - j, two * j
    assert (diff.v, diff.d, diff.dd) == (one - j.v, -j.d, -j.dd)
    assert (prod.v, prod.d, prod.dd) == (j.v * two, j.d * two, j.dd * two)
    with pytest.raises(TypeError):
        one + "x"
    with pytest.raises(TypeError, match="cannot interpret"):
        "x" - one  # __rsub__ coerces directly and keeps the message
