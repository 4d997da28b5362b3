"""Validated integration: adaptive interval quadrature plus mu_p tail bounds.

Finite integrals use global-adaptive bisection with the crude cell enclosure
f([u,v]) * (v-u); the result is a true enclosure no matter where refinement
stops.  Improper integrals against d(mu_p) = dt/t^(p+1) are assembled by the
callers from a finite part, a certified tail bound, and (where the integrand
is singular-looking at 0) a declared near-zero majorant.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .interval import Interval, DomainError, pow_real

FnEnclosure = Callable[[Interval], Interval]


@dataclass(frozen=True)
class QuadConfig:
    max_depth: int = 40
    target_width: float = 1e-6
    max_cells: int = 2_000_000

    def __post_init__(self):
        if self.max_depth < 10:
            raise ValueError("max_depth must be >= 10")
        if self.target_width <= 0.0:
            raise ValueError("target_width must be positive")


DEFAULT_CONFIG = QuadConfig()


@dataclass
class QuadResult:
    value: Interval
    status: str  # "ok" (target met) or "wide" (budget exhausted, still valid)
    cells: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def integrate(
    f: FnEnclosure, a: float, b: float, cfg: QuadConfig = DEFAULT_CONFIG
) -> QuadResult:
    """Enclosure of the integral of f over the finite interval [a, b]."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    enc = f(Interval(a, b))
    # heap of (-contribution_width, lo, hi, depth, enclosure); widest first
    heap = [(-enc.width * (b - a), a, b, 0, enc)]
    done: list[tuple[float, float, Interval]] = []
    total = -heap[0][0]
    evals = 1
    status = "ok"
    while heap:
        if total <= cfg.target_width:
            break
        negw, lo, hi, depth, cell_enc = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if depth >= cfg.max_depth or evals + 2 > cfg.max_cells or not lo < mid < hi:
            done.append((lo, hi, cell_enc))
            status = "wide"
            continue
        left = f(Interval(lo, mid))
        right = f(Interval(mid, hi))
        evals += 2
        total += negw  # remove old contribution (negw is negative)
        wl = left.width * (mid - lo)
        wr = right.width * (hi - mid)
        total += wl + wr
        heapq.heappush(heap, (-wl, lo, mid, depth + 1, left))
        heapq.heappush(heap, (-wr, mid, hi, depth + 1, right))
    done.extend((lo, hi, enc) for (_, lo, hi, _, enc) in heap)
    # deterministic summation in position order
    done.sort(key=lambda c: c[0])
    acc = Interval(0.0, 0.0)
    for lo, hi, enc in done:
        acc = acc + enc * (hi - lo)
    return QuadResult(acc, status, evals)


def tail_bound_mu_p(kind: str, s: Interval, p: Interval, T: float) -> Interval:
    """Enclosure of int_T^inf h(t) / t^(p+1) dt for the three stock majorants.

    kind="one":       h = 1 (exact closed form T^-p / p)
    kind="cos_power": h = |cos t|^s <= 1
    kind="gauss":     h = exp(-s t^2/2) <= exp(-s T t / 2) for t >= T
    """
    if T < 1.5707963267948966:
        raise DomainError(f"tail cutoff {T} below pi/2")
    Tiv = Interval(T, T)
    base = pow_real(Tiv, -p) / p
    if kind == "one":
        return base
    if kind == "cos_power":
        return Interval(0.0, base.hi)
    if kind == "gauss":
        if s.lo < 1.0:
            raise DomainError("gauss tail bound requires s >= 1")
        sT = s * Tiv
        bound = (
            (Interval(2.0, 2.0) / sT)
            * pow_real(Tiv, -(p + 1.0))
            * (-(sT * Tiv) * 0.5).exp()
        )
        return Interval(0.0, bound.hi)
    raise ValueError(f"unknown tail kind {kind!r}")


def near_zero_bound(
    C: Interval, m: Interval, delta: float, nonneg: bool = False
) -> Interval:
    """Enclosure of int_0^delta g(t) dt given |g(t)| <= C t^m on (0, delta].

    m > -1 is required for integrability; with nonneg=True the lower end is 0.
    """
    if m.lo <= -1.0:
        raise DomainError("near-zero majorant must have exponent > -1")
    if C.lo < 0.0:
        raise DomainError("near-zero majorant coefficient must be >= 0")
    b = (C * pow_real(Interval(delta, delta), m + 1.0) / (m + 1.0)).hi
    return Interval(0.0 if nonneg else -b, b)
