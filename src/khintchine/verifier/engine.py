"""The bisection engine, the provers built on it, and the stock lemmas.

bisect_boxes is the one subdivision routine of the verifier: the provers use
it to certify "f >= 0 on a box" from interval enclosures, returning a
rigorous enclosure of the infimum, and np_generic uses it to classify the
sign of F - G.  Exceeding the evaluation budget yields inconclusive, never a
false proof.
"""

from __future__ import annotations

import math
from typing import Callable, TypeVar

from ..interval import Interval
from .result import (
    FAILED,
    INCONCLUSIVE,
    NONSTRICT_TOL,
    PROVED,
    CheckResult,
    combine,
    leaf,
)

INF = math.inf

Box = tuple[tuple[float, float], ...]
E = TypeVar("E")

DEFAULT_BUDGET = 200_000


def bisect_boxes(
    boxes: list[Box],
    evaluate: Callable[[Box], E],
    settled: Callable[[E], bool],
    *,
    max_evals: int,
    min_width: float,
    halt: Callable[[E], bool] | None = None,
) -> tuple[list[tuple[Box, E]], int]:
    """Bisect boxes depth-first until each one is settled or may not split.

    A box is a tuple of (lo, hi) pairs, one per axis.  A box whose enclosure
    passes `settled` is terminal.  Otherwise its widest axis, with widths
    measured relative to the extent of the starting boxes, is halved -- unless
    the evaluation budget is spent, no axis is wider than min_width, or the
    midpoint is not strictly inside; then the box is terminal unsettled.  A
    box whose enclosure passes `halt` ends the search as the last terminal box.

    Returns the terminal (box, enclosure) pairs in visiting order, which runs
    left to right over one-dimensional starting boxes given in order, and the
    number of evaluations.
    """
    axes = range(len(boxes[0]))
    scale = [
        max(max(b[i][1] for b in boxes) - min(b[i][0] for b in boxes), 1e-300)
        for i in axes
    ]
    stack = list(reversed(boxes))
    terminal: list[tuple[Box, E]] = []
    evals = 0
    while stack:
        box = stack.pop()
        enc = evaluate(box)
        evals += 1
        if settled(enc):
            terminal.append((box, enc))
            continue
        if halt is not None and halt(enc):
            terminal.append((box, enc))
            break
        axis = max(axes, key=lambda i: (box[i][1] - box[i][0]) / scale[i])
        a, b = box[axis]
        mid = 0.5 * (a + b)
        if (
            evals >= max_evals
            or max(hi - lo for lo, hi in box) <= min_width
            or not a < mid < b
        ):
            terminal.append((box, enc))
            continue
        stack.append(box[:axis] + ((mid, b),) + box[axis + 1:])
        stack.append(box[:axis] + ((a, mid),) + box[axis + 1:])
    return terminal, evals


def _prove_positive(
    evaluate: Callable[[Box], Interval],
    box: Box,
    strict: bool,
    max_evals: int,
    min_width: float,
) -> tuple[Interval, int, str]:
    """Certify the enclosure >= 0 (> 0 when strict) on box; stop at a refutation."""
    if strict:
        settled = lambda enc: enc.lo > 0.0
        refuted = lambda enc: enc.hi < 0.0
    else:
        settled = lambda enc: enc.lo >= -NONSTRICT_TOL
        refuted = lambda enc: enc.hi < -NONSTRICT_TOL
    cells, evals = bisect_boxes(
        [box], evaluate, settled,
        max_evals=max_evals, min_width=min_width, halt=refuted,
    )
    encs = [enc for _, enc in cells]
    if refuted(encs[-1]):
        return encs[-1], evals, FAILED
    status = PROVED if all(settled(enc) for enc in encs) else INCONCLUSIVE
    return Interval(min(e.lo for e in encs), min(e.hi for e in encs)), evals, status


def prove_positive_1d(
    f: Callable[[Interval], Interval],
    lo: float,
    hi: float,
    *,
    strict: bool = True,
    max_evals: int = DEFAULT_BUDGET,
    min_width: float = 1e-12,
) -> tuple[Interval, int, str]:
    """Certify f >= 0 (strictly > 0 when strict) on [lo, hi].

    Returns (enclosure of inf f over final cells, evaluations, status).
    """
    return _prove_positive(
        lambda box: f(Interval(*box[0])), ((lo, hi),), strict, max_evals, min_width
    )


def prove_positive_2d(
    f: Callable[[Interval, Interval], Interval],
    xdom: tuple[float, float],
    ydom: tuple[float, float],
    *,
    strict: bool = True,
    max_evals: int = DEFAULT_BUDGET,
    min_width: float = 1e-10,
) -> tuple[Interval, int, str]:
    """Certify f(x, y) >= 0 on a rectangle; same contract as the 1d prover."""
    return _prove_positive(
        lambda box: f(Interval(*box[0]), Interval(*box[1])),
        (xdom, ydom),
        strict,
        max_evals,
        min_width,
    )


def subdivision_check(
    name: str,
    f: Callable[[Interval], Interval],
    lo: float,
    hi: float,
    *,
    strict: bool = True,
    max_evals: int = DEFAULT_BUDGET,
    min_width: float = 1e-12,
    note: str = "",
) -> CheckResult:
    margin, evals, status = prove_positive_1d(
        f, lo, hi, strict=strict, max_evals=max_evals, min_width=min_width
    )
    res = leaf(name, margin, strict=strict, evaluations=evals, note=note)
    res.status = status
    return res


def point_check(
    name: str, margin: Interval, *, strict: bool = True, note: str = ""
) -> CheckResult:
    return leaf(name, margin, strict=strict, evaluations=1, note=note)


def monotone_nonneg_check(
    name: str,
    derivative: Callable[[Interval], Interval],
    anchor: Interval,
    lo: float,
    hi: float,
    *,
    increasing_from_left: bool = True,
    max_evals: int = 50_000,
    note: str = "",
) -> CheckResult:
    """Certify f >= 0 on [lo, hi] from an anchor value and a derivative sign.

    increasing_from_left: anchor = f(lo) >= 0 and f' >= 0 on [lo, hi].
    Otherwise: anchor = f(hi) >= 0 and f' <= 0 on [lo, hi] (pass -f' in
    `derivative`).  The conclusion margin is the anchor enclosure: the anchor
    is the infimum of f under the certified monotonicity.
    """
    side = "left" if increasing_from_left else "right"
    deriv = subdivision_check(
        f"{name}/derivative-sign",
        derivative,
        lo,
        hi,
        strict=False,
        max_evals=max_evals,
    )
    anchor_res = point_check(f"{name}/anchor-{side}", anchor, strict=False)
    total = CheckResult(
        name=name,
        status=PROVED,
        margin=anchor,
        strict=False,
        children=[anchor_res, deriv],
        evaluations=deriv.evaluations + 1,
        note=note,
    )
    total.status = total.recompute_status()
    return total


def concave_nonneg_check(
    name: str,
    neg_second_derivative: Callable[[Interval], Interval],
    value_lo: Interval,
    value_hi: Interval,
    lo: float,
    hi: float,
    *,
    max_evals: int = 50_000,
    note: str = "",
) -> CheckResult:
    """Certify f >= 0 on [lo, hi] from concavity and endpoint values.

    neg_second_derivative must enclose -f''; a concave function is bounded
    below by the smaller endpoint value.
    """
    conc = subdivision_check(
        f"{name}/concavity", neg_second_derivative, lo, hi,
        strict=False, max_evals=max_evals,
    )
    e1 = point_check(f"{name}/value-left", value_lo, strict=False)
    e2 = point_check(f"{name}/value-right", value_hi, strict=False)
    margin = Interval(min(value_lo.lo, value_hi.lo), min(value_lo.hi, value_hi.hi))
    total = CheckResult(
        name=name,
        status=PROVED,
        margin=margin,
        strict=False,
        children=[e1, e2, conc],
        evaluations=conc.evaluations + 2,
        note=note,
    )
    total.status = total.recompute_status()
    return total


# -- stock elementary bounds --------------------------------------------------


def lemma_exp_affine(name: str = "exp-ge-1-plus-x") -> CheckResult:
    """e^x >= 1 + x for all real x (needed on [-1, inf)).

    On [-1, 4] via the series quotient (e^x - 1 - x)/x^2 = sum x^k/(k+2)!,
    whose enclosure is evaluated directly; on [4, inf) by monotonicity of
    e^x - 1 - x (derivative e^x - 1 > 0) from the anchor at 4.
    """
    from ..polytools import p_eval_iv
    from ..specfun import exp_taylor

    K = 24
    te = exp_taylor(K)
    quot_poly = te.poly[2:]  # coefficients 1/(k+2)!

    def quotient(x: Interval) -> Interval:
        band = Interval.from_fraction(te.rem_coeff) * (x.abs() ** (te.rem_power - 2))
        return p_eval_iv(quot_poly, x) + Interval(-band.hi, band.hi)

    series_part = subdivision_check(
        f"{name}/series-quotient", quotient, -1.0, 4.0, strict=True,
        max_evals=20_000,
    )
    far = monotone_nonneg_check(
        f"{name}/far-piece",
        lambda x: x.exp() - 1.0,
        Interval(4.0, 4.0).exp() - 5.0,
        4.0,
        INF,
        increasing_from_left=True,
    )
    total = CheckResult(
        name=name,
        status=PROVED,
        margin=Interval(0.0, 0.0),
        strict=False,
        children=[series_part, far],
        evaluations=series_part.evaluations + far.evaluations,
        note="margin is analytically 0 at x=0",
    )
    total.status = total.recompute_status()
    return total


def lemma_one_minus_exp_quadratic(b_hi: float, name: str = "one-minus-exp-quad") -> CheckResult:
    """1 - e^{-b} >= b - b^2/2 on [0, b_hi].

    m(b) = 1 - b + b^2/2 - e^{-b} has m(0) = 0 and m'(0) = 0 exactly, and
    m''(b) = 1 - e^{-b} >= 0 for b >= 0; integrating the sign twice gives
    m >= 0.  Only the second-derivative sign needs subdivision.
    """
    second = subdivision_check(
        f"{name}/second-derivative",
        lambda b: Interval(1.0, 1.0) - (-b).exp(),
        0.0,
        b_hi,
        strict=False,
        max_evals=20_000,
    )
    a1 = point_check(f"{name}/mprime-at-0", Interval(0.0, 0.0), strict=False)
    a0 = point_check(f"{name}/m-at-0", Interval(0.0, 0.0), strict=False)
    return combine(
        name, [a0, a1, second],
        note="m'' >= 0 with m(0) = m'(0) = 0 forces m >= 0; margin 0 at b=0",
    )


def lemma_neg_log_affine(name: str = "neg-log-ge-1-minus-t") -> CheckResult:
    """-ln t >= 1 - t on (0, 1]: m(t) = -ln t - 1 + t, m(1) = 0, m' = 1 - 1/t <= 0."""

    def neg_deriv(t: Interval) -> Interval:
        # -(m') = 1/t - 1 >= 0 on (0, 1]; handle the open end at 0
        inv = Interval(1.0, INF) if t.lo <= 0.0 else 1.0 / t
        return inv - 1.0

    return monotone_nonneg_check(
        name,
        neg_deriv,
        Interval(0.0, 0.0),  # m(1) = 0 exactly
        0.0,
        1.0,
        increasing_from_left=False,
        note="margin analytically 0 at t=1",
    )


def lemma_log_le_affine(t_hi: float, name: str = "log-le-t-minus-1") -> CheckResult:
    """ln t <= t - 1 on [1, t_hi]: m = t - 1 - ln t, m(1) = 0, m' = 1 - 1/t >= 0."""
    return monotone_nonneg_check(
        name,
        lambda t: Interval(1.0, 1.0) - 1.0 / t,
        Interval(0.0, 0.0),
        1.0,
        t_hi,
        increasing_from_left=True,
        note="margin analytically 0 at t=1",
    )


def lemma_ln1p_quadratic(x_hi: float, name: str = "ln1p-ge-x-minus-half-x2") -> CheckResult:
    """ln(1+x) >= x - x^2/2 on [0, x_hi]: m' = x^2/(1+x) >= 0, m(0) = 0."""
    return monotone_nonneg_check(
        name,
        lambda x: x * x / (x + 1.0),
        Interval(0.0, 0.0),
        0.0,
        x_hi,
        increasing_from_left=True,
        note="margin analytically 0 at x=0",
    )
