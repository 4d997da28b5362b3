"""Distribution functions of |cos t| and exp(-t^2/2) under d(mu_p) = dt/t^(p+1).

F_*(x) and G_*(x) measure the sublevel sets {t : f(t) < x}; both are computed
as rigorous enclosures, together with their derivatives and an independent
brute-force oracle that rebuilds the same measures from the solution intervals
directly (different summation path, used for cross-validation).  The F_* and
F_*' series sum their terms below SERIES_K and close with one Euler-Maclaurin
tail (_em_tail), whose remainder is bracketed because both summands are
completely monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .interval import PI, DomainError, Interval, pow_real
from .specfun import BERNOULLI_ABS


@dataclass(frozen=True)
class MeasureParams:
    """Exponent of the measure dt/t^(p+1); interval-valued for range checks."""

    p: Interval

    def __post_init__(self):
        if not (2.0 <= self.p.lo and self.p.hi <= 3.0):
            raise DomainError(f"p must lie in [2, 3], got {self.p}")
        if self.p.width > 1.0:
            raise DomainError("p interval too wide; subdivide above this type")


_ZERO = Interval(0.0, 0.0)

# the Euler-Maclaurin tail of the F_* and F_*' series starts at term SERIES_K;
# the terms below it are summed explicitly
SERIES_K = 6

# corrections B_2i/(2i)! f^(2i-1) kept by _em_tail; the next one bounds the rest
EM_TERMS = 3


@lru_cache(maxsize=8)
def _em_coeffs(q_lo: float, q_hi: float) -> tuple[Interval, tuple[Interval, ...]]:
    """1/((q-1) pi) and B_2i/(2i)! (q)_(2i-1) pi^(2i-1) for i = 1 .. EM_TERMS + 1,
    with (q)_n = q (q+1) ... (q+n-1), once per q."""
    q = Interval(q_lo, q_hi)
    rising = q * PI  # (q)_n pi^n at n = 1
    coeffs = []
    for i in range(1, EM_TERMS + 2):
        bern = (-1) ** (i + 1) * BERNOULLI_ABS[2 * i] / factorial(2 * i)
        coeffs.append(Interval.from_fraction(bern) * rising)
        rising = rising * (q + (2 * i - 1)) * (q + 2 * i) * PI * PI
    return 1.0 / ((q - 1.0) * PI), tuple(coeffs)


def _check_x(x: Interval) -> None:
    if not (0.0 < x.lo and x.hi < 1.0):
        raise DomainError(f"x must lie strictly inside (0.0, 1.0), got {x}")


@lru_cache(maxsize=4)
def _k_pi(K: int) -> tuple[Interval, ...]:
    """The enclosures (PI * 0, PI * 1, ..., PI * K), built once per K."""
    return tuple(PI * k for k in range(K + 1))


def _em_tail(q: Interval, b1: Interval, s1: Interval, b2: Interval, s2: Interval) -> Interval:
    """Enclosure of sum_{k>=K} f(k) for f(u) = s_1 (u pi + c_1)^-q + s_2 (u pi + c_2)^-q
    with q > 1, completely monotone on [K, inf), given b_j = K pi + c_j > 0 and
    s_j b_j^-q (the sign s_j = +-1 folded in).

    Euler-Maclaurin with m = EM_TERMS corrections:
    sum_{k>=K} f(k) = int_K^inf f + f(K)/2 - sum_{i<=m} B_2i/(2i)! f^(2i-1)(K) + R,
    where int_K^inf f = sum_j s_j b_j^(1-q) / ((q-1) pi) and
    f^(n)(K) = (-1)^n (q)_n pi^n sum_j s_j b_j^(-q-n).  Every even derivative
    of f is >= 0, so R lies between 0 and the first omitted correction
    (Graham, Knuth & Patashnik, Concrete Mathematics, section 9.5).  Each
    power is the given s_j b_j^-q times an integer power of 1/b_j.
    """
    scale, coeffs = _em_coeffs(q.lo, q.hi)
    acc = s1 * (b1 * scale + 0.5) + s2 * (b2 * scale + 0.5)
    t1, t2 = s1 / b1, s2 / b2  # s_j b_j^(-q-1)
    r1, r2 = 1.0 / (b1 * b1), 1.0 / (b2 * b2)
    for c in coeffs[:-1]:
        acc = acc + c * (t1 + t2)
        t1, t2 = t1 * r1, t2 * r2
    return acc + Interval.hull(_ZERO, coeffs[-1] * (t1 + t2))


def f_star(x: Interval, mp: MeasureParams, K: int = SERIES_K) -> Interval:
    """Enclosure of F_*(x), the mu_p-measure of {t : |cos t| < x}.

    Regrouped series a^-p - sum_{k>=1} g(k) with a = arccos x and
    g(u) = (u pi - a)^-p - (u pi + a)^-p = int_{-a}^{a} p (u pi + v)^-(p+1) dv,
    all divided by p.  The terms k < K are summed explicitly; g is completely
    monotone on u >= 1 since a < pi/2, so _em_tail encloses the rest.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    _check_x(x)
    p = mp.p
    neg_p = -p
    a = x.arccos()
    kpi = _k_pi(K)
    lo_end, hi_end = kpi[K] - a, kpi[K] + a
    acc = pow_real(a, neg_p)
    for c in kpi[1:K]:
        acc = acc - (pow_real(c - a, neg_p) - pow_real(c + a, neg_p))
    tail = _em_tail(p, lo_end, pow_real(lo_end, neg_p), hi_end, -pow_real(hi_end, neg_p))
    return (acc - tail) / p


def g_star(x: Interval, mp: MeasureParams) -> Interval:
    """Enclosure of G_*(x) = (1/p) (-2 ln x)^(-p/2)."""
    _check_x(x)
    p = mp.p
    return pow_real(x.ln() * -2.0, -p * 0.5) / p


def derivatives(
    x: Interval, mp: MeasureParams, K: int = SERIES_K
) -> tuple[Interval, Interval]:
    """Enclosures of (F_*'(x), G_*'(x)).

    F' sums h(k) over k >= 0 against 1/sqrt(1-x^2), where
    h(u) = (u pi + a)^-(p+1) + ((u+1) pi - a)^-(p+1) is completely monotone
    on u >= 0; the terms k < K are summed explicitly and _em_tail encloses
    the rest.
    """
    _check_x(x)
    if x.lo < 1e-6 or x.hi > 1.0 - 1e-6:
        raise DomainError("derivatives need x bounded away from 0 and 1 by 1e-6")
    p = mp.p
    q = p + 1.0
    neg_q = -q
    a = x.arccos()
    kpi = _k_pi(K)
    acc = _ZERO
    for c in kpi[:K]:
        acc = acc + pow_real(c + a, neg_q) + pow_real(c + PI - a, neg_q)
    b1, b2 = kpi[K] + a, kpi[K] + PI - a
    series = acc + _em_tail(q, b1, pow_real(b1, neg_q), b2, pow_real(b2, neg_q))
    root = (Interval(1.0, 1.0) - x * x).sqrt()
    f_prime = series / root
    g_prime = Interval(1.0, 1.0) / (x * pow_real(x.ln() * -2.0, p * 0.5 + 1.0))
    return f_prime, g_prime


BRUTE_K = 1000  # solution intervals brute_force_dist sums for |cos|


def brute_force_dist(y: float, mp: MeasureParams, which: str) -> Interval:
    """Independent oracle for the distribution functions.

    For |cos|: the sublevel set {|cos t| < y} is the union of the intervals
    (k pi + arccos y, (k+1) pi - arccos y); each one's measure is evaluated
    from the antiderivative t^-p/p, with k pi read from _k_pi, and summed
    directly for k < K = BRUTE_K, divided by p once.  The omitted solution
    intervals live inside (K pi, inf), whose full measure bounds the tail.
    For the gaussian: closed form on (sqrt(2 ln(1/y)), inf).
    """
    if not 0.01 < y < 0.99:
        raise DomainError(f"brute_force_dist domain is (0.01, 0.99), got {y}")
    p = mp.p
    yiv = Interval(y, y)
    if which == "gauss":
        T = (yiv.ln() * -2.0).sqrt()
        return pow_real(T, -p) / p
    if which == "cos":
        neg_p = -p
        a = yiv.arccos()
        kpi = _k_pi(BRUTE_K)
        acc = _ZERO
        for k in range(BRUTE_K):
            acc = acc + (pow_real(kpi[k] + a, neg_p) - pow_real(kpi[k + 1] - a, neg_p))
        tail = pow_real(kpi[BRUTE_K], neg_p)
        return (acc + Interval(0.0, tail.hi)) / p
    raise ValueError(f"unknown distribution kind {which!r}")
