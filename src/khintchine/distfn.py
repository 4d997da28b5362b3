"""Distribution functions of |cos t| and exp(-t^2/2) under d(mu_p) = dt/t^(p+1).

F_*(x) and G_*(x) measure the sublevel sets {t : f(t) < x}; both are computed
as rigorous enclosures, together with their derivatives and an independent
brute-force oracle that rebuilds the same measures from the solution intervals
directly (different summation path, used for cross-validation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .interval import PI, DomainError, Interval, pow_real


@dataclass(frozen=True)
class MeasureParams:
    """Exponent of the measure dt/t^(p+1); interval-valued for range checks."""

    p: Interval

    def __post_init__(self):
        if not (2.0 <= self.p.lo and self.p.hi <= 3.0):
            raise DomainError(f"p must lie in [2, 3], got {self.p}")
        if self.p.width > 1.0:
            raise DomainError("p interval too wide; subdivide above this type")


def _check_x(x: Interval, lo: float = 0.0, hi: float = 1.0) -> None:
    if not (lo < x.lo and x.hi < hi):
        raise DomainError(f"x must lie strictly inside ({lo}, {hi}), got {x}")


@lru_cache(maxsize=4)
def _k_pi(K: int) -> tuple[Interval, ...]:
    """The enclosures (PI * 0, PI * 1, ..., PI * K), built once per K."""
    return tuple(PI * k for k in range(K + 1))


def f_star(x: Interval, mp: MeasureParams, K: int = 200) -> Interval:
    """Enclosure of F_*(x), the mu_p-measure of {t : |cos t| < x}.

    Regrouped series a^-p - sum_{k>=1} [(k pi - a)^-p - (k pi + a)^-p] with
    a = arccos x, all divided by p.  Each bracketed term is positive and, by
    the mean value theorem, at most 2a p (k pi - a)^-(p+1); comparison with
    int_K^inf (u pi - a)^-(p+1) du bounds the dropped tail by
    2a (K pi - a)^-p / pi.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    _check_x(x)
    p = mp.p
    a = x.arccos()
    kpis = _k_pi(K)
    acc = pow_real(a, -p)
    for kpi in kpis[1:]:
        acc = acc - (pow_real(kpi - a, -p) - pow_real(kpi + a, -p))
    tail = (a * 2.0) * pow_real(kpis[K] - a, -p) / PI
    return (acc - Interval(0.0, tail.hi)) / p


def g_star(x: Interval, mp: MeasureParams) -> Interval:
    """Enclosure of G_*(x) = (1/p) (-2 ln x)^(-p/2)."""
    _check_x(x)
    p = mp.p
    return pow_real(x.ln() * -2.0, -p * 0.5) / p


def derivatives(
    x: Interval, mp: MeasureParams, K: int = 200
) -> tuple[Interval, Interval]:
    """Enclosures of (F_*'(x), G_*'(x)).

    F' sums (k pi + a)^-(p+1) + ((k+1) pi - a)^-(p+1) over k = 0..K (all terms
    positive) against 1/sqrt(1-x^2); the dropped tail is enclosed by
    [0, 2 (K pi - a)^-p / (p pi)] by the same comparison-integral device.
    """
    _check_x(x)
    if x.lo < 1e-6 or x.hi > 1.0 - 1e-6:
        raise DomainError("derivatives need x bounded away from 0 and 1 by 1e-6")
    p = mp.p
    q = -(p + 1.0)
    a = x.arccos()
    kpis = _k_pi(K)
    acc = pow_real(a, q)
    for k, kpi in enumerate(kpis):
        if k > 0:
            acc = acc + pow_real(kpi + a, q)
        acc = acc + pow_real(kpi + PI - a, q)
    tail = pow_real(kpis[K] - a, -p) * 2.0 / (p * PI)
    series = acc + Interval(0.0, tail.hi)
    root = (Interval(1.0, 1.0) - x * x).sqrt()
    f_prime = series / root
    g_prime = Interval(1.0, 1.0) / (x * pow_real(x.ln() * -2.0, p * 0.5 + 1.0))
    return f_prime, g_prime


def brute_force_dist(
    y: float, mp: MeasureParams, which: str, K: int = 1000
) -> Interval:
    """Independent oracle for the distribution functions.

    For |cos|: the sublevel set {|cos t| < y} is the union of the intervals
    (k pi + arccos y, (k+1) pi - arccos y); each one's measure is evaluated
    from the antiderivative t^-p/p and summed directly.  The omitted solution
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
        a = yiv.arccos()
        acc = Interval(0.0, 0.0)
        for k in range(K):
            kpi = PI * k
            lo_end = kpi + a
            hi_end = kpi + PI - a
            acc = acc + (pow_real(lo_end, -p) - pow_real(hi_end, -p)) / p
        tail = pow_real(PI * K, -p) / p
        return acc + Interval(0.0, tail.hi)
    raise ValueError(f"unknown distribution kind {which!r}")
