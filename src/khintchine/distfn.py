"""Distribution functions of |cos t| and exp(-t^2/2) under d(mu_p) = dt/t^(p+1).

F_*(x) and G_*(x) measure the sublevel sets {t : f(t) < x}; both are computed
as rigorous enclosures, together with their derivatives and an independent
brute-force oracle that rebuilds the same measures from the solution intervals
directly (different summation path, used for cross-validation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .interval import PI, DomainError, Interval, pow_gap_sum, pow_real


@dataclass(frozen=True)
class MeasureParams:
    """Exponent of the measure dt/t^(p+1); interval-valued for range checks."""

    p: Interval

    def __post_init__(self):
        if not (2.0 <= self.p.lo and self.p.hi <= 3.0):
            raise DomainError(f"p must lie in [2, 3], got {self.p}")
        if self.p.width > 1.0:
            raise DomainError("p interval too wide; subdivide above this type")


# terms summed explicitly in the F_* and F_*' series; _convex_tail encloses the rest
SERIES_K = 32


def _check_x(x: Interval) -> None:
    if not (0.0 < x.lo and x.hi < 1.0):
        raise DomainError(f"x must lie strictly inside (0.0, 1.0), got {x}")


@lru_cache(maxsize=4)
def _k_pi(K: int) -> tuple[Interval, ...]:
    """The enclosures (PI * 0, PI * 1, ..., PI * K), built once per K."""
    return tuple(PI * k for k in range(K + 1))


def _convex_tail(term, integral, K: int) -> Interval:
    """Enclosure of sum_{k>K} term(k pi), for a summand convex and decreasing
    on [(K + 1/2) pi, inf) with integral(c) = int_c^inf term(u pi) du.

    The trapezoid rule underestimates and the midpoint rule overestimates the
    integral of a convex function, which brackets the sum by
    integral((K+1) pi) + term((K+1) pi)/2 <= sum <= integral((K+1/2) pi).
    """
    next_pi = PI * (K + 1)
    lower = integral(next_pi) + term(next_pi) * 0.5
    upper = integral(PI * (K + 0.5))
    return Interval(lower.lo, upper.hi)


def f_star(x: Interval, mp: MeasureParams, K: int = SERIES_K) -> Interval:
    """Enclosure of F_*(x), the mu_p-measure of {t : |cos t| < x}.

    Regrouped series a^-p - sum_{k>=1} g(k) with a = arccos x and
    g(u) = (u pi - a)^-p - (u pi + a)^-p, all divided by p.  For u >= 1/2,
    u pi - a > 0 since a < pi/2, so g is convex and decreasing there and the
    terms past K are bracketed from both sides by _convex_tail with
    int_c^inf g = [(c pi - a)^(1-p) - (c pi + a)^(1-p)] / ((p-1) pi).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    _check_x(x)
    p = mp.p
    neg_p = -p
    a = x.arccos()

    def term(upi: Interval) -> Interval:
        return pow_real(upi - a, neg_p) - pow_real(upi + a, neg_p)

    def integral(cpi: Interval) -> Interval:
        q = 1.0 - p
        return (pow_real(cpi - a, q) - pow_real(cpi + a, q)) / ((p - 1.0) * PI)

    acc = pow_gap_sum(pow_real(a, neg_p), neg_p, _k_pi(K)[1:], a)
    return (acc - _convex_tail(term, integral, K)) / p


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
    h(u) = (u pi + a)^-(p+1) + ((u+1) pi - a)^-(p+1) is positive, convex and
    decreasing for u >= 0; the terms past K are bracketed by _convex_tail with
    int_c^inf h = [(c pi + a)^-p + ((c+1) pi - a)^-p] / (p pi).
    """
    _check_x(x)
    if x.lo < 1e-6 or x.hi > 1.0 - 1e-6:
        raise DomainError("derivatives need x bounded away from 0 and 1 by 1e-6")
    p = mp.p
    q = -(p + 1.0)
    a = x.arccos()

    def term(upi: Interval) -> Interval:
        return pow_real(upi + a, q) + pow_real(upi + PI - a, q)

    def integral(cpi: Interval) -> Interval:
        return (pow_real(cpi + a, -p) + pow_real(cpi + PI - a, -p)) / (p * PI)

    acc = pow_real(a, q) + pow_real(PI - a, q)
    for kpi in _k_pi(K)[1:]:
        acc = acc + term(kpi)
    series = acc + _convex_tail(term, integral, K)
    root = (Interval(1.0, 1.0) - x * x).sqrt()
    f_prime = series / root
    g_prime = Interval(1.0, 1.0) / (x * pow_real(x.ln() * -2.0, p * 0.5 + 1.0))
    return f_prime, g_prime


BRUTE_K = 1000  # solution intervals brute_force_dist sums for |cos|


def brute_force_dist(y: float, mp: MeasureParams, which: str) -> Interval:
    """Independent oracle for the distribution functions.

    For |cos|: the sublevel set {|cos t| < y} is the union of the intervals
    (k pi + arccos y, (k+1) pi - arccos y); each one's measure is evaluated
    from the antiderivative t^-p/p and summed directly for k < K = BRUTE_K.
    The omitted solution intervals live inside (K pi, inf), whose full
    measure bounds the tail.
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
        a = yiv.arccos()
        acc = Interval(0.0, 0.0)
        for k in range(BRUTE_K):
            kpi = PI * k
            lo_end = kpi + a
            hi_end = kpi + PI - a
            acc = acc + (pow_real(lo_end, -p) - pow_real(hi_end, -p)) / p
        tail = pow_real(PI * BRUTE_K, -p) / p
        return acc + Interval(0.0, tail.hi)
    raise ValueError(f"unknown distribution kind {which!r}")
