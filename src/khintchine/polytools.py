"""Exact polynomial helpers for the verifier's algebraic reductions.

Two representations:

* ``Poly``  -- list of `fractions.Fraction` coefficients, ascending powers of t.
  All manipulation is exact, so cancellations (the usual source of
  boundary-degenerate margins) are detected exactly rather than numerically.

* ``PiPoly`` -- dict {(t_power, pi_power): Fraction}, a polynomial in t whose
  coefficients are exact polynomials in pi.  Used where the proof reductions
  mix rational constants with powers of pi; pi only becomes an interval at
  evaluation time.
"""

from __future__ import annotations

from fractions import Fraction

from .interval import PI, Interval

Poly = list[Fraction]
PiPoly = dict[tuple[int, int], Fraction]


def p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]


def p_neg(a: Poly) -> Poly:
    return [-c for c in a]


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))


def p_mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def p_integrate(a: Poly) -> Poly:
    """Antiderivative with zero constant term (exact)."""
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)]


def p_shift_div(a: Poly, k: int) -> Poly:
    """Exact division by t**k; raises if any low-order coefficient is nonzero."""
    if any(c != 0 for c in a[:k]):
        raise ValueError(f"polynomial not divisible by t^{k}")
    return a[k:] or [Fraction(0)]


def p_eval_iv(a: Poly, t: Interval) -> Interval:
    """Horner evaluation with outward rounding."""
    acc = Interval.from_fraction(a[-1])
    for c in reversed(a[:-1]):
        acc = acc * t + Interval.from_fraction(c)
    return acc


def p_eval_fr(a: Poly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


# -- polynomials in (t, pi) --------------------------------------------------


def pp_add(a: PiPoly, b: PiPoly) -> PiPoly:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + c
        if out[key] == 0:
            del out[key]
    return out


def pp_neg(a: PiPoly) -> PiPoly:
    return {k: -c for k, c in a.items()}


def pp_sub(a: PiPoly, b: PiPoly) -> PiPoly:
    return pp_add(a, pp_neg(b))


def pp_mul(a: PiPoly, b: PiPoly) -> PiPoly:
    out: PiPoly = {}
    for (ta, pa), ca in a.items():
        for (tb, pb), cb in b.items():
            key = (ta + tb, pa + pb)
            c = out.get(key, Fraction(0)) + ca * cb
            if c == 0:
                out.pop(key, None)
            else:
                out[key] = c
    return out


def pp_shift_div_t(a: PiPoly, k: int) -> PiPoly:
    if any(tp < k for (tp, _) in a):
        raise ValueError(f"pi-polynomial not divisible by t^{k}")
    return {(tp - k, pp): c for (tp, pp), c in a.items()}


def pp_t_coeffs(a: PiPoly) -> list[Interval]:
    """Collapse the pi part into intervals; returns ascending t coefficients."""
    if not a:
        return [Interval(0.0, 0.0)]
    deg = max(tp for (tp, _) in a)
    out = [Interval(0.0, 0.0)] * (deg + 1)
    for (tp, pp), c in sorted(a.items()):
        out[tp] = out[tp] + Interval.from_fraction(c) * (PI**pp)
    return out


def ipoly_eval(coeffs: list[Interval], t: Interval) -> Interval:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    return acc


def pp_eval(a: PiPoly, t: Interval) -> Interval:
    return ipoly_eval(pp_t_coeffs(a), t)
