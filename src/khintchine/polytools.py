"""Exact polynomials for the verifier's algebraic reductions, and truncated
series with a certified remainder.

A ``Poly`` is a dict {(t_power, pi_power): Fraction}: a polynomial in t whose
coefficients are exact polynomials in pi.  Zero coefficients are never
stored, so equal polynomials compare equal.  All manipulation is exact, so
cancellations (the usual source of boundary-degenerate margins) are detected
exactly rather than numerically; pi only becomes an interval when `p_to_iv`
converts the coefficients once for repeated `ipoly_eval`, as `p_quotient`
does for an exact quotient by t^k.

A ``TaylorEnclosure`` is a truncated series f(t) in poly(t) +- rem |t|^power,
valid for |t| <= t_limit.  It reaches a proof only through
`TaylorEnclosure.quotient`, which enforces that radius.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .interval import PI, DomainError, Interval, ipoly_eval

Poly = dict[tuple[int, int], Fraction]


def poly(*coeffs, pi_power: int = 0) -> Poly:
    """sum_i coeffs[i] t^i pi^pi_power from exact coefficients (int or Fraction)."""
    return {(i, pi_power): Fraction(c) for i, c in enumerate(coeffs) if c != 0}


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for key, c in b.items():
        c += out.get(key, 0)
        if c == 0:
            out.pop(key, None)
        else:
            out[key] = c
    return out


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, {key: -c for key, c in b.items()})


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (ta, pa), ca in a.items():
        for (tb, pb), cb in b.items():
            key = (ta + tb, pa + pb)
            c = out.get(key, 0) + ca * cb
            if c == 0:
                out.pop(key, None)
            else:
                out[key] = c
    return out


def p_shift_div(a: Poly, k: int) -> Poly:
    """Exact division by t**k; raises if any low-order coefficient is nonzero."""
    if any(tp < k for (tp, _) in a):
        raise ValueError(f"polynomial not divisible by t^{k}")
    return {(tp - k, pp): c for (tp, pp), c in a.items()}


def p_to_iv(a: Poly) -> list[Interval]:
    """Tight enclosures of the ascending t coefficients, pi collapsed.

    A pi-free coefficient c becomes ``Interval.from_fraction(c)``; each pi^j
    term adds ``Interval.from_fraction(c) * PI**j``, in ascending j.
    """
    out: list[Interval | None] = [None] * (max((tp for tp, _ in a), default=0) + 1)
    for (tp, pp), c in sorted(a.items()):
        term = Interval.from_fraction(c)
        if pp:
            term = term * PI**pp
        out[tp] = term if out[tp] is None else out[tp] + term
    return [Interval(0.0, 0.0) if c is None else c for c in out]


def p_quotient(num: Poly, k: int) -> Callable[[Interval], Interval]:
    """Evaluator of num(t) / t^k, divided exactly and converted once, here;
    a low-order term of num raises ValueError."""
    coeffs = p_to_iv(p_shift_div(num, k))
    return lambda t: ipoly_eval(coeffs, t)


class TaylorEnclosure:
    """f(t) in poly(t) + [-1, 1] rem_coeff |t|^rem_power for |t| <= t_limit."""

    __slots__ = ("poly", "rem_coeff", "rem_power", "t_limit")

    def __init__(self, poly: Poly, rem_coeff: Fraction, rem_power: int, t_limit: float):
        self.poly = poly
        self.rem_coeff = rem_coeff
        self.rem_power = rem_power
        self.t_limit = t_limit

    def quotient(
        self, k: int, minus: Poly | None = None
    ) -> Callable[[Interval], Interval]:
        """Evaluator of the enclosure of (f(t) - minus(t)) / t^k.

        The subtraction and the division by t^k are exact and happen here,
        once; a low-order term left over raises ValueError.  The evaluator
        raises DomainError past t_limit and adds the band
        rem_coeff |t|^(rem_power - k).  The band bounds the remainder, not
        its derivative, so the evaluator also raises DomainError on a
        non-Interval argument such as a Jet.
        """
        quot = p_quotient(self.poly if minus is None else p_sub(self.poly, minus), k)
        rem = Interval.from_fraction(self.rem_coeff)
        power, t_limit = self.rem_power - k, self.t_limit

        def evaluate(t: Interval) -> Interval:
            if not isinstance(t, Interval):
                raise DomainError("a Taylor enclosure has no derivative form")
            if t.mag > t_limit:
                raise DomainError(f"Taylor enclosure valid to |t|<={t_limit}")
            band = rem * (t.abs() ** power)
            return quot(t) + Interval(-band.hi, band.hi)

        return evaluate
