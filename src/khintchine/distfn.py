"""Distribution functions of |cos t| and exp(-t^2/2) under d(mu_p) = dt/t^(p+1).

F_*(x) and G_*(x) measure the sublevel sets {t : f(t) < x}; both are computed
as rigorous enclosures, together with their derivatives and an independent
brute-force oracle that rebuilds the same measures from the solution intervals
directly (different summation path, used for cross-validation).  The F_* and
F_*' series sum their terms below SERIES_K and close with one Euler-Maclaurin
tail (specfun.em_tail, with step pi), whose remainder is bracketed because
both summands are completely monotone.  star_difference encloses F_* - G_*
on a cell with arccos x <= 1.2 without subtracting the singular term the two
share, so it stays narrow as x -> 1.
"""

from __future__ import annotations

from functools import lru_cache

from .interval import PI, DomainError, Interval, pow_real
from .specfun import em_tail, neg_ln_cos_quotient


class MeasureParams:
    """Exponent of the measure dt/t^(p+1); interval-valued for range checks."""

    __slots__ = ("p",)

    def __init__(self, p: Interval):
        if not (2.0 <= p.lo and p.hi <= 3.0):
            raise DomainError(f"p must lie in [2, 3], got {p}")
        if p.width > 1.0:
            raise DomainError("p interval too wide; subdivide above this type")
        self.p = p


_ZERO = Interval(0.0, 0.0)

# the Euler-Maclaurin tail of the F_* and F_*' series starts at term SERIES_K;
# the terms below it are summed explicitly
SERIES_K = 6


def _check_x(x: Interval) -> None:
    if not (0.0 < x.lo and x.hi < 1.0):
        raise DomainError(f"x must lie strictly inside (0.0, 1.0), got {x}")


@lru_cache(maxsize=4)
def _k_pi(K: int) -> tuple[Interval, ...]:
    """The enclosures (PI * 0, PI * 1, ..., PI * K), built once per K."""
    return tuple(PI * k for k in range(K + 1))


def f_star(x: Interval, mp: MeasureParams, K: int = SERIES_K) -> Interval:
    """Enclosure of F_*(x), the mu_p-measure of {t : |cos t| < x}.

    Regrouped series a^-p - sum_{k>=1} g(k) with a = arccos x and
    g(u) = (u pi - a)^-p - (u pi + a)^-p = int_{-a}^{a} p (u pi + v)^-(p+1) dv,
    all divided by p.  The terms k < K are summed explicitly; g is completely
    monotone on u >= 1 since a < pi/2, so specfun.em_tail encloses the rest.
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
    tail = em_tail(
        p, lo_end, pow_real(lo_end, neg_p), hi_end, -pow_real(hi_end, neg_p), pi_step=True
    )
    return (acc - tail) / p


def g_star(x: Interval, mp: MeasureParams) -> Interval:
    """Enclosure of G_*(x) = (1/p) (-2 ln x)^(-p/2)."""
    _check_x(x)
    p = mp.p
    return pow_real(x.ln() * -2.0, -p * 0.5) / p


def star_difference(
    x: Interval, mp: MeasureParams, f_lo: Interval, f_hi: Interval
) -> Interval:
    """Enclosure of {F_*(y) - G_*(y) : y in x}, where arccos x <= 1.2, given
    f_lo and f_hi, enclosures of F_* at the points x.lo and x.hi.

    With a = arccos y, F_* and G_* share the singular term a^-p/p, which this
    form never subtracts.  -2 ln cos a = a^2 + 2R with R = a^4 Q
    (specfun.neg_ln_cos_quotient), so p G_* = a^-p (1 + w)^(-p/2) with
    w = 2 a^2 Q >= 0, and p F_* = a^-p - S with
    S(a) = sum_{k>=1} (k pi - a)^-p - (k pi + a)^-p, which increases in a as
    every term does.  With c = p/2, 1 - (1 + w)^-c = c int_0^w (1 + v)^(-c-1) dv
    lies in c w [(1 + w)^(-c-1), 1], so
    F_* - G_* in Q a^(2-p) [(1 + w)^(-p/2-1), 1] - S/p.
    S/p at a point is a^-p/p - F_*, and on x it lies between its values at
    x.hi and x.lo, where a is least and greatest.  Each factor varies mildly
    with a, so the enclosure stays narrow near x = 1 where F_* and G_* blow
    up.  It holds for a p-box too.  arccos x.lo > 1.2 raises DomainError.
    """
    _check_x(x)
    p = mp.p
    a = x.arccos()
    q = neg_ln_cos_quotient(a)
    damp = pow_real(a * a * q * 2.0 + 1.0, p * -0.5 - 1.0)
    main = q * pow_real(a, 2.0 - p) * Interval(damp.lo, 1.0)
    s_lo = pow_real(Interval(x.hi).arccos(), -p) / p - f_hi
    s_hi = pow_real(Interval(x.lo).arccos(), -p) / p - f_lo
    return main - Interval(s_lo.lo, s_hi.hi)


def derivatives(
    x: Interval, mp: MeasureParams, K: int = SERIES_K
) -> tuple[Interval, Interval]:
    """Enclosures of (F_*'(x), G_*'(x)).

    F' sums h(k) over k >= 0 against 1/sqrt(1-x^2), where
    h(u) = (u pi + a)^-(p+1) + ((u+1) pi - a)^-(p+1) is completely monotone
    on u >= 0; the terms k < K are summed explicitly and specfun.em_tail
    encloses the rest.
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
    series = acc + em_tail(
        q, b1, pow_real(b1, neg_q), b2, pow_real(b2, neg_q), pi_step=True
    )
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
