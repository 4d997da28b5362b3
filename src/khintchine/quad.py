"""Validated integration: adaptive interval quadrature plus mu_p tail bounds.

Finite integrals use global-adaptive bisection.  Each cell [a, b] with float
midpoint c is enclosed by the intersection of two valid enclosures of its
integral: the first-order f([a,b]) (b-a), and Simpson's rule with its Peano
remainder (Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed.,
1984, section 4.3)

    (W/6) (f(a) + 4 (f(c) + f'([a,b]) (C* - c)) + f(b)) + (W^3/162) (D2 - D2),

with W = [b] - [a], C* = ([a] + [b]) 0.5 the exact midpoint c* enclosed,
and f' and D2 = f''([a,b]) from one evaluation of the integrand on a
``Jet``.  Proof: for f in C^2[a, b] the error of Simpson's rule is
int K f'' over [a, b], where the Peano kernel K has int K = 0 (the rule is
exact on quadratics) and int K+ = int K- = (b-a)^3/162.  So the error is
int K+ f'' - int K- f'', which lies in (b-a)^3/162 [D2.lo - D2.hi,
D2.hi - D2.lo] = (b-a)^3/162 (D2 - D2).  f(c*) lies in f(c) + f'([a,b])
(C* - c) by the mean value theorem, as c and c* are both in [a, b].  The
jet's success certifies that f is C^2 on the cell: every primitive raises
DomainError where its function is not twice differentiable (jet).  The
remainder is 81/24 = 3.4 times narrower than the second-order midpoint
Taylor form's f''([a,b]) (b-a)^3/24 for the same D2.  f(a) and f(b) are
point values integrate already holds, because a child's ends are its
parent's ends and its parent's float midpoint: one dict of point values per
integrate call keeps a cell at one jet and one point evaluation.  Every
factor is an Interval, so an inexact midpoint or cell width stays sound, and
the result is a true enclosure no matter where refinement stops.  A cell
where the jet raises DomainError (|cos t|^s at a zero of cos, a kink), or an
integrand that does not return a Jet (a constant), keeps the first-order
enclosure alone.  Improper integrals against d(mu_p) = dt/t^(p+1) are
assembled by the callers from a finite part, a series part integrated in
closed form, certified tails (the gaussian majorant of tail_bound_mu_p, and
cos_power_tail's two-sided |cos t|^s tail from a zero of cos, whose mean
m_s of |cos|^s is exact by Wallis at an even integer s and a closed
bracket at any other), and (where the integrand is singular-looking at 0) a
near-zero majorant.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .interval import PI, DomainError, Interval, pow_real
from .jet import Jet

FnEnclosure = Callable[[Interval], Interval]

MAX_CELLS = 500_000  # cells enclosed before a run stops "wide"


class QuadResult:
    __slots__ = ("value", "status", "cells")

    def __init__(self, value: Interval, status: str, cells: int):
        self.value = value
        # "ok" (target met) or "wide" (budget exhausted, still valid)
        self.status = status
        self.cells = cells

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def note_missed(note: str, *results: QuadResult) -> str:
    """A leaf note, followed by the target miss of any wide result in results."""
    wide = [r for r in results if not r.ok]
    if not wide:
        return note
    missed = f"quadrature target missed (wide, {sum(r.cells for r in wide)} cells)"
    return f"{note}; {missed}" if note else missed


def _point(f, x: float, points: dict) -> Interval:
    """f at the float x, read through points (one integrate call's values)."""
    v = points.get(x)
    if v is None:
        v = points[x] = f(Interval(x, x))
    return v


def _cell(f, lo: float, hi: float, points: dict) -> Interval:
    """Enclosure of the integral of f over [lo, hi]: first order meet Simpson.

    Simpson's rule on a = lo, b = hi with its Peano remainder: the error
    int K f'' has int K = 0 and int K+ = int K- = (b-a)^3/162, so it lies in
    (W^3/162) (D2 - D2) for D2 = jet.dd, which encloses f'' on the cell; the
    jet's success certifies that f is C^2 there.  The exact midpoint c*,
    enclosed by C*, may miss the float midpoint c, so f(c*) is taken as
    f(c) + jet.d (C* - c), by the mean value theorem.  f(c) is stored in
    points, where the children read it as an end; f(lo) and f(hi) are read
    from points, evaluated only when absent.
    """
    L = Interval(lo, lo)
    H = Interval(hi, hi)
    w = H - L
    x = Interval(lo, hi)
    try:
        jet = f(Jet.var(x))
    except DomainError:
        jet = None
    if type(jet) is not Jet:
        return f(x) * w  # a DomainError here is the integrand's own
    c = 0.5 * (lo + hi)
    mid = _point(f, c, points) + jet.d * ((L + H) * 0.5 - c)
    simpson = (
        (_point(f, lo, points) + mid * 4.0 + _point(f, hi, points)) * (w / 6.0)
        + (jet.dd - jet.dd) * (w**3 / 162.0)
    )
    crude = jet.v * w
    return Interval(max(crude.lo, simpson.lo), min(crude.hi, simpson.hi))


def integrate(f: FnEnclosure, a: float, b: float, target_width: float) -> QuadResult:
    """Enclosure of the integral of f over the finite interval [a, b].

    The widest cell integral is bisected until the widths sum to at most
    target_width.  A run that stops short is "wide" and its enclosure still
    holds: it stops at MAX_CELLS, or at a cell whose float midpoint does not
    fall strictly inside it, which is kept as it is.  cells counts the cells
    enclosed.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not target_width > 0.0:
        raise ValueError("target_width must be positive")
    points: dict[float, Interval] = {}  # f at cell ends and float midpoints
    enc = _cell(f, a, b, points)
    # heap of (-cell_integral_width, lo, hi, cell_integral); widest first
    heap = [(-enc.width, a, b, enc)]
    done: list[tuple[float, Interval]] = []
    total = enc.width
    evals = 1
    status = "ok"
    while heap:
        if total <= target_width:
            # the running sum still carries the rounding of early, huge
            # widths (4e11 on the first gap-integral cell): re-add exactly
            total = math.fsum([-e[0] for e in heap] + [e.width for _, e in done])
            if total <= target_width:
                break
        negw, lo, hi, cell_enc = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if evals + 2 > MAX_CELLS or not lo < mid < hi:
            done.append((lo, cell_enc))
            status = "wide"
            continue
        left = _cell(f, lo, mid, points)
        right = _cell(f, mid, hi, points)
        evals += 2
        total += negw + left.width + right.width  # negw removes the old cell
        heapq.heappush(heap, (-left.width, lo, mid, left))
        heapq.heappush(heap, (-right.width, mid, hi, right))
    done.extend((lo, enc) for (_, lo, _, enc) in heap)
    # deterministic summation in position order
    done.sort(key=lambda c: c[0])
    acc = Interval(0.0, 0.0)
    for _, enc in done:
        acc = acc + enc
    return QuadResult(acc, status, evals)


def tail_bound_mu_p(s: Interval, p: Interval, T: float) -> Interval:
    """Enclosure [0, b] of the gaussian tail int_T^inf exp(-s t^2/2) / t^(p+1) dt,
    from exp(-s t^2/2) <= exp(-s T t / 2) for t >= T; cos_power_tail is the
    |cos t|^s tail."""
    if T < 1.5707963267948966:
        raise DomainError(f"tail cutoff {T} below pi/2")
    if s.lo < 1.0:
        raise DomainError("gauss tail bound requires s >= 1")
    Tiv = Interval(T, T)
    sT = s * Tiv
    bound = (
        (Interval(2.0, 2.0) / sT)
        * pow_real(Tiv, -(p + 1.0))
        * (-(sT * Tiv) * 0.5).exp()
    )
    return Interval(0.0, bound.hi)


WALLIS_STEPS = 64  # Wallis steps from s up to S = s + 2 WALLIS_STEPS


@lru_cache(maxsize=8)
def _cos_power_mean(s_lo: float, s_hi: float) -> Interval:
    """m_s = (2/pi) int_0^{pi/2} cos^s u du, the mean of |cos|^s over a
    period, for every s in [s_lo, s_hi]: C(s, s/2) / 2^s at an even integer
    s (Wallis), else N = WALLIS_STEPS steps m_t = m_{t+2} (t+2)/(t+1) up to
    S = s + 2N and there

        4 (S+2) / (pi^2 (S+1)^3) <= m_S^4 <= 4 / (pi^2 S (S+1)),

    about 1/(4 S^2) wide relative to m_S.  Proof: by the Beta integral
    (DLMF 5.12.2) m_t = Gamma((t+1)/2) / (sqrt(pi) Gamma(t/2 + 1)) for
    t > -1, so Gamma(x+1) = x Gamma(x) gives the step and P(t) = m_t m_{t+1}
    = 2/(pi (t+1)).  m_t = E cos^t U, U uniform on [0, pi/2], so by
    Cauchy-Schwarz m_t^2 <= m_{t-1} m_{t+1} for t > 0.  At t = S,
    m_S^4 <= m_S^2 m_{S-1} m_{S+1} = P(S-1) P(S); at t = S+1, as
    m_{S+1} = P(S)/m_S and m_{S+2} = m_S (S+1)/(S+2), P(S)^2/m_S^2 <=
    m_S^2 (S+1)/(S+2).  cos^s u falls as s rises, so on an s-box m_s is the
    hull of its values at s_hi and s_lo."""
    if s_lo < s_hi:
        return Interval(_cos_power_mean(s_hi, s_hi).lo, _cos_power_mean(s_lo, s_lo).hi)
    if s_lo.is_integer() and s_lo % 2 == 0:
        n = int(s_lo)
        return Interval.from_fraction(Fraction(math.comb(n, n // 2), 2**n))
    s = Interval(s_lo)
    S = s + 2.0 * WALLIS_STEPS
    c = 4.0 / (PI * PI)
    m = Interval((c * (S + 2.0) / (S + 1.0) ** 3).lo, (c / (S * (S + 1.0))).hi).sqrt().sqrt()
    for j in range(WALLIS_STEPS):
        m = m * (s + (2.0 * j + 2.0)) / (s + (2.0 * j + 1.0))
    return m


def cos_power_tail(s: Interval, p: Interval, k: int) -> tuple[float, Interval]:
    """The float end T = (PI (k + 1/2)).hi and an enclosure of
    int_T^inf |cos t|^s / t^(p+1) dt.

    At the zero T* = (k + 1/2) pi of cos,

        int_{T*}^inf |cos t|^s t^(-p-1) dt
            in m_s T*^(-p)/p + [-(pi^2/32)(p+1) T*^(-p-2), 0],

    with m_s = (2/pi) int_0^{pi/2} cos^s u du (_cos_power_mean: exact at
    an even integer s, a Wallis bracket at any other).  Proof:
    let g = |cos|^s - m_s, Phi(t) = int_{T*}^t g and Psi(t) = int_{T*}^t Phi.
    g is pi-periodic with mean 0, so Phi is pi-periodic and vanishes at T*.
    g is symmetric about the maximum T* + pi/2, so Phi(T* + pi - v) =
    -Phi(T* + v): Phi has mean 0 over a period and Psi is pi-periodic and
    vanishes at T* too.  On [T*, T* + pi/2] g rises from -m_s to 1 - m_s,
    so Phi falls and then rises to Phi(T* + pi/2) = 0: Phi <= 0 on the first
    half-period and >= 0 on the second, so Psi <= 0, with its minimum at
    T* + pi/2.  As |Phi(T* + v)| <= min(m_s v,
    (1 - m_s)(pi/2 - v)) on [0, pi/2], that minimum is >= -(pi^2/8)
    m_s (1 - m_s) >= -pi^2/32 (mpmath gives -0.236, -1/4, -1/4 and -0.182 at
    s = sqrt2, 2, 4 and 16).  With w = t^(-p-1), integrating g w by parts
    twice, where Phi and Psi vanish at T* and stay bounded, leaves
    int_{T*}^inf Psi w'' dt with w'' = (p+1)(p+2) t^(-p-3) > 0, which lies in
    [-(pi^2/32)(p+1) T*^(-p-2), 0].  The band is O(T*^(-p-2)), against the
    one-sided [0, T*^(-p)/p] of |cos|^s <= 1.

    T* is enclosed by PI (k + 1/2); the sliver [T*, T] is subtracted,
    bounded by its width times T*^(-p-1).  p may be an interval with p > 0,
    s one with s > 0.
    """
    if k < 0 or not (p.lo > 0.0 and s.lo > 0.0):
        raise DomainError(f"cos-power tail needs k >= 0, p > 0 and s > 0, got {k}, {p}, {s}")
    m = _cos_power_mean(s.lo, s.hi)
    t_star = PI * (k + 0.5)
    T = t_star.hi
    band = PI * PI / 32.0 * (p + 1.0) * pow_real(t_star, -(p + 2.0))
    sliver = (Interval(T) - t_star) * pow_real(t_star, -(p + 1.0))
    tail = m * pow_real(t_star, -p) / p - Interval(0.0, band.hi + sliver.hi)
    return T, tail


def near_zero_bound(C: Interval, m: Interval, delta: float) -> Interval:
    """Enclosure [0, b] of int_0^delta g(t) dt given 0 <= g(t) <= C t^m on
    (0, delta]; m > -1 is required for integrability."""
    if m.lo <= -1.0:
        raise DomainError("near-zero majorant must have exponent > -1")
    if C.lo < 0.0:
        raise DomainError("near-zero majorant coefficient must be >= 0")
    b = (C * pow_real(Interval(delta, delta), m + 1.0) / (m + 1.0)).hi
    return Interval(0.0, b)
