"""Certified evaluations of the special functions used by the verifier.

Series with hard-coded exact rational coefficients, explicit tail bounds, and
interval evaluation throughout.  Tail rule for the exponential-type series
(ei/si/ci): the term-ratio magnitude is monotonically decreasing in the index,
so once an interval ratio has magnitude <= 1/2 the remainder is dominated by a
geometric series and bounded by twice the first omitted term.  The -ln cos
series (neg_ln_cos_excess, and neg_ln_cos_quotient for R(t)/t^4) has positive
coefficients and a geometric tail of its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .interval import (
    EULER_GAMMA,
    PI,
    SQRT2,
    DomainError,
    Interval,
    exp_sum,
    horner_nonneg,
    ln_ints,
    pow_real,
)
from .polytools import TaylorEnclosure, poly


# term budget of the ei/si/ci series
MAX_SERIES_TERMS = 200

# |B_2|, |B_4|, ..., |B_40| as exact rationals; the -ln cos series is never
# extended past these.
BERNOULLI_ABS: dict[int, Fraction] = {
    2: Fraction(1, 6),
    4: Fraction(1, 30),
    6: Fraction(1, 42),
    8: Fraction(1, 30),
    10: Fraction(5, 66),
    12: Fraction(691, 2730),
    14: Fraction(7, 6),
    16: Fraction(3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(236364091, 2730),
    26: Fraction(8553103, 6),
    28: Fraction(23749461029, 870),
    30: Fraction(8615841276005, 14322),
    32: Fraction(7709321041217, 510),
    34: Fraction(2577687858367, 6),
    36: Fraction(26315271553053477373, 1919190),
    38: Fraction(2929993913841559, 6),
    40: Fraction(261082718496449122051, 13530),
}

MAX_LNCOS_TERMS = len(BERNOULLI_ABS)

# -ln cos t = sum_{k>=1} c_k t^{2k};  c_k = 2^{2k-1} (2^{2k}-1) |B_{2k}| / (k (2k)!)
LN_COS_COEFFS: list[Fraction] = [
    Fraction(2 ** (2 * k - 1) * (2 ** (2 * k) - 1), k * math.factorial(2 * k))
    * BERNOULLI_ABS[2 * k]
    for k in range(1, MAX_LNCOS_TERMS + 1)
]

# LN_COS_COEFFS as tight enclosures, converted once for the Horner chains below
_LN_COS_COEFFS_IV: list[Interval] = [Interval.from_fraction(c) for c in LN_COS_COEFFS]

_ZETA4_UPPER = Interval.from_fraction(Fraction(11, 10))  # >= zeta(4) = 1.0823...


EXCESS_TERMS = 14  # neg_ln_cos_excess sums c_k t^{2k} exactly up to this k


def neg_ln_cos_excess(t: Interval) -> Interval:
    """Two-sided enclosure of R(t) = -ln cos t - t^2/2 on [0, 1.2].

    Partial sum of c_k t^{2k} for k = 2..K, K = EXCESS_TERMS, plus a
    geometric tail: since c_k = (2^{2k}-1) zeta(2k) / (k pi^{2k}), every
    dropped coefficient obeys c_k <= zeta(4) (2/pi)^{2k} / k, so the tail is
    below zeta(4)/(K+1) * q^{K+1}/(1-q) with q = (2t/pi)^2 < 1.

    Unlike cos/ln composition this form has no cancellation at small t.
    """
    if not (0.0 <= t.lo and t.hi <= 1.2):
        raise DomainError(f"neg_ln_cos_excess domain is [0, 1.2], got {t}")
    K = EXCESS_TERMS
    u = t * t
    acc = horner_nonneg(_LN_COS_COEFFS_IV[1:K], u) * (u * u)
    q = (t * 2.0 / PI) ** 2
    tail = _ZETA4_UPPER / (K + 1.0) * pow_real(q, Interval(K + 1, K + 1)) / (1.0 - q)
    return acc + Interval(0.0, tail.hi)


def neg_ln_cos_quotient(t: Interval) -> Interval:
    """Two-sided enclosure of Q(t) = R(t)/t^4 on [0, 1.2], R = -ln cos t - t^2/2.

    neg_ln_cos_excess's series divided by t^4: c_k t^(2k-4) for k = 2..K
    summed exactly, and its geometric tail divided by t^4, which is
    zeta(4)/(K+1) (2/pi)^4 q^(K-1)/(1-q) with q = (2t/pi)^2.  Every term is
    >= 0, so Q >= c_2 = 1/12 and Q increases in t; at t = 0 it is 1/12.
    """
    if not (0.0 <= t.lo and t.hi <= 1.2):
        raise DomainError(f"neg_ln_cos_quotient domain is [0, 1.2], got {t}")
    K = EXCESS_TERMS
    q = (t * 2.0 / PI) ** 2
    tail = _ZETA4_UPPER / (K + 1.0) * (2.0 / PI) ** 4 * q ** (K - 1) / (1.0 - q)
    return horner_nonneg(_LN_COS_COEFFS_IV[1:K], t * t) + Interval(0.0, tail.hi)


def _series_with_geometric_tail(first_term: Interval, ratio_fn) -> Interval:
    """Sum term_1 + term_2 + ... where term_{k+1} = term_k * ratio_fn(k).

    ratio_fn(k) must enclose the ratio of term k+1 to term k, and the true
    ratio's magnitude must be nonincreasing in k.  Then once the enclosure's
    magnitude is <= 1/2, a rigorous upper bound of every later ratio, the
    remainder past any later term is enclosed by [-2|next term|, 2|next term|].
    Terms keep being added until that band stops mattering at double
    precision, then the band is attached.  A series whose ratio is still
    above 1/2 after MAX_SERIES_TERMS terms raises DomainError.
    """
    term = first_term
    acc = term
    for k in range(1, MAX_SERIES_TERMS):
        ratio = ratio_fn(k)
        nxt = term * ratio
        if ratio.mag <= 0.5:
            bound = 2.0 * nxt.mag
            if bound <= 1e-16 * (acc.mag + 1e-300) or bound < 5e-324:
                break
        acc = acc + nxt
        term = nxt
    else:
        ratio = ratio_fn(MAX_SERIES_TERMS - 1)
        if ratio.mag > 0.5:
            raise DomainError("series did not reach the geometric-tail regime")
        bound = 2.0 * (term * ratio).mag
    return acc + Interval(-bound, bound)


def ei_neg(x: Interval) -> Interval:
    """Enclosure of Ei(x) for x < 0 via C + ln(-x) + sum x^k/(k k!)."""
    if not (-30.0 <= x.lo and x.hi <= -1e-6):
        raise DomainError(f"ei_neg domain is [-30, -1e-6], got {x}")
    series = _series_with_geometric_tail(x, lambda k: x * Fraction(k, (k + 1) ** 2))
    return EULER_GAMMA + (-x).ln() + series


def si(x: Interval) -> Interval:
    """Enclosure of si(x) = Si(x) - pi/2 for x in (0, 50]."""
    if not (0.0 < x.lo and x.hi <= 50.0):
        raise DomainError(f"si domain is (0, 50], got {x}")
    x2 = x * x
    series = _series_with_geometric_tail(
        -x,  # k=1 term of sum (-1)^k x^{2k-1}/((2k-1)(2k-1)!)
        lambda k: -x2 * Fraction(2 * k - 1, (2 * k + 1) ** 2 * (2 * k)),
    )
    return -(PI * 0.5) - series


def ci(x: Interval) -> Interval:
    """Enclosure of ci(x) = C + ln x + sum (-1)^k x^{2k}/(2k (2k)!), x in (0, 50]."""
    if not (0.0 < x.lo and x.hi <= 50.0):
        raise DomainError(f"ci domain is (0, 50], got {x}")
    x2 = x * x
    series = _series_with_geometric_tail(
        -x2 * Fraction(1, 4),
        lambda k: -x2 * Fraction(k, (k + 1) * (2 * k + 2) * (2 * k + 1)),
    )
    return EULER_GAMMA + x.ln() + series


# -- Euler-Maclaurin tails of completely monotone series ----------------------

# corrections B_2i/(2i)! f^(2i-1) kept by em_tail; the next one bounds the rest
EM_TERMS = 3

_ZERO = Interval(0.0, 0.0)


@lru_cache(maxsize=16)
def _em_coeffs(
    q_lo: float, q_hi: float, pi_step: bool
) -> tuple[Interval, tuple[Interval, ...]]:
    """1/((q-1) h) and B_2i/(2i)! (q)_(2i-1) h^(2i-1) for i = 1 .. EM_TERMS + 1,
    with (q)_n = q (q+1) ... (q+n-1) and the step h = pi or 1, once per q."""
    q = Interval(q_lo, q_hi)
    rising = q * PI if pi_step else q  # (q)_n h^n at n = 1
    coeffs = []
    for i in range(1, EM_TERMS + 2):
        bern = (-1) ** (i + 1) * BERNOULLI_ABS[2 * i] / math.factorial(2 * i)
        coeffs.append(Interval.from_fraction(bern) * rising)
        rising = rising * (q + (2 * i - 1)) * (q + 2 * i)
        if pi_step:
            rising = rising * PI * PI
    qm1 = q - 1.0
    return 1.0 / (qm1 * PI if pi_step else qm1), tuple(coeffs)


def em_tail(
    q: Interval,
    b1: Interval,
    w1: Interval,
    b2: Interval | None = None,
    w2: Interval | None = None,
    *,
    pi_step: bool,
) -> Interval:
    """Enclosure of sum_{k>=K} f(k) for f(u) = sum_j s_j (u h + c_j)^-q, one
    or two summands, with q > 1 and step h = pi (pi_step) or 1, f completely
    monotone on [K, inf), given b_j = K h + c_j > 0 and w_j = s_j b_j^-q (the
    sign s_j = +-1 folded in).

    Euler-Maclaurin with m = EM_TERMS corrections:
    sum_{k>=K} f(k) = int_K^inf f + f(K)/2 - sum_{i<=m} B_2i/(2i)! f^(2i-1)(K) + R,
    where int_K^inf f = sum_j s_j b_j^(1-q) / ((q-1) h) and
    f^(n)(K) = (-1)^n (q)_n h^n sum_j s_j b_j^(-q-n).  Every even derivative
    of f is >= 0, so R lies between 0 and the first omitted correction
    (Graham, Knuth & Patashnik, Concrete Mathematics, section 9.5).  Each
    power is the given w_j times an integer power of 1/b_j.
    """
    scale, coeffs = _em_coeffs(q.lo, q.hi, pi_step)
    acc = w1 * (b1 * scale + 0.5)
    t1, r1 = w1 / b1, 1.0 / (b1 * b1)  # t_j = s_j b_j^(-q-1)
    if b2 is None:
        t2 = None
    else:
        acc = acc + w2 * (b2 * scale + 0.5)
        t2, r2 = w2 / b2, 1.0 / (b2 * b2)
    for c in coeffs[:-1]:
        acc = acc + c * (t1 if t2 is None else t1 + t2)
        t1 = t1 * r1
        if t2 is not None:
            t2 = t2 * r2
    last = coeffs[-1] * (t1 if t2 is None else t1 + t2)
    return acc + Interval.hull(_ZERO, last)


# the ends of Interval(k, k).ln() at index k - 2; grown by _ln_k
_LN_LO: list[float] = []
_LN_HI: list[float] = []


def _ln_k(K: int) -> tuple[list[float], list[float]]:
    """The lower and upper ends of the enclosures of ln 2, ln 3, ..., ln K,
    each computed once, on first use, by ``interval.ln_ints``."""
    n = len(_LN_LO) + 2
    if n <= K:
        lows, highs = ln_ints(n, K + 1)
        _LN_LO.extend(lows)
        _LN_HI.extend(highs)
    return _LN_LO[: K - 1], _LN_HI[: K - 1]


def zeta_sum(q: Interval, terms: int = 10000) -> Interval:
    """Enclosure of zeta(q) = sum k^-q for q in [2, 4.5].

    The terms k <= K = terms plus em_tail's Euler-Maclaurin enclosure of
    the rest, sum_{k>K} k^-q, whose summand is completely monotone on
    u >= 1 for every K >= 1.  Each term k^-q is pow_real(k, -q) =
    exp(-q ln k), summed by ``exp_sum``; results are memoised on
    (q.lo, q.hi, K).  At K = 16 the tail is about 1e-13 wide at q = 3.
    """
    if not (2.0 <= q.lo and q.hi <= 4.5):
        raise DomainError(f"zeta_sum domain is [2, 4.5], got {q}")
    K = int(terms)
    if K < 1:
        raise ValueError("terms must be >= 1")
    return _zeta_partial(q.lo, q.hi, K)


@lru_cache(maxsize=64)
def _zeta_partial(q_lo: float, q_hi: float, K: int) -> Interval:
    q = Interval(q_lo, q_hi)
    acc = exp_sum(-q, *_ln_k(K), Interval(1.0, 1.0))
    b = Interval(K + 1, K + 1)
    return acc + em_tail(q, b, pow_real(b, -q), pi_step=False)


# -- gamma and the Khintchine constant --------------------------------------

# Lanczos (g=5, n=6) coefficients; documented empirical relative error below
# 2e-10 for positive arguments, widened 10x here.
_LANCZOS_C0 = Interval.literal("1.000000000190015")
_LANCZOS_COEFFS = [
    Interval.literal("76.18009172947146"),
    Interval.literal("-86.50532032941677"),
    Interval.literal("24.01409824083091"),
    Interval.literal("-1.231739572450155"),
    Interval.literal("0.001208650973866179"),
    Interval.literal("-0.000005395239384953"),
]
_LANCZOS_ERR = Interval(1.0 - 2e-9, 1.0 + 2e-9)


def gamma_iv(x: Interval) -> Interval:
    """Certified Gamma(x) on [1, 3] (needed range is [1.5, 2])."""
    if not (1.0 <= x.lo and x.hi <= 3.0):
        raise DomainError(f"gamma_iv domain is [1, 3], got {x}")
    acc = _LANCZOS_C0
    for j, c in enumerate(_LANCZOS_COEFFS, start=1):
        acc = acc + c / (x + float(j))
    base = x + 5.5
    val = (
        (PI * 2.0).sqrt()
        * pow_real(base, x + 0.5)
        * (-base).exp()
        * acc
        / x
    )
    return val * _LANCZOS_ERR


def b_constant(p: Interval) -> Interval:
    """The optimal upper Khintchine constant on 2 <= p <= 3,
    B_p = sqrt(2) (Gamma((p+1)/2)/sqrt(pi))^(1/p)."""
    if not (2.0 <= p.lo and p.hi <= 3.0):
        raise DomainError(f"b_constant domain is [2, 3], got {p}")
    g = gamma_iv((p + 1.0) * 0.5)
    ratio = g / PI.sqrt()
    return SQRT2 * pow_real(ratio, Interval(1.0, 1.0) / p)


# -- Taylor enclosures for the near-zero reductions --------------------------


def cos_taylor(K: int) -> TaylorEnclosure:
    """cos t with 2K-degree partial sum; remainder twice the next term."""
    coeffs = [Fraction(0)] * (2 * K + 1)
    for j in range(K + 1):
        coeffs[2 * j] = Fraction((-1) ** j, math.factorial(2 * j))
    t_limit = math.sqrt((2 * K + 3) * (2 * K + 4) / 2.0)
    return TaylorEnclosure(
        poly(*coeffs), Fraction(2, math.factorial(2 * K + 2)), 2 * K + 2, t_limit
    )


def sin_taylor(K: int) -> TaylorEnclosure:
    """sin t with (2K+1)-degree partial sum; remainder twice the next term."""
    coeffs = [Fraction(0)] * (2 * K + 2)
    for j in range(K + 1):
        coeffs[2 * j + 1] = Fraction((-1) ** j, math.factorial(2 * j + 1))
    t_limit = math.sqrt((2 * K + 4) * (2 * K + 5) / 2.0)
    return TaylorEnclosure(
        poly(*coeffs), Fraction(2, math.factorial(2 * K + 3)), 2 * K + 3, t_limit
    )


def exp_taylor(K: int, a: int = 1) -> TaylorEnclosure:
    """exp(a t) with K-degree partial sum, |t| <= (K+2)/(2a), a > 0."""
    coeffs = [Fraction(a**k, math.factorial(k)) for k in range(K + 1)]
    return TaylorEnclosure(
        poly(*coeffs),
        Fraction(2 * a ** (K + 1), math.factorial(K + 1)),
        K + 1,
        (K + 2) / (2.0 * a),
    )
