"""The bisection engine, the provers built on it, and the stock lemmas.

bisect_boxes is the one subdivision routine of the verifier: the provers use
it to certify "f >= 0 on a box" from interval enclosures, returning a
rigorous enclosure of the infimum, and np_generic uses it to classify the
sign of F - G.  Every enclosure holds wherever refinement stops, so BUDGET
only bounds the cost of a search that cannot settle: exceeding it yields
inconclusive, never a false proof.
"""

from __future__ import annotations

import math
from typing import Callable, TypeVar

from ..interval import DomainError, Interval, imin
from ..jet import Jet
from ..polytools import poly
from ..specfun import exp_taylor
from .result import (
    FAILED,
    INCONCLUSIVE,
    PROVED,
    CheckResult,
    combine,
    conjunction,
    leaf,
    status_from_margin,
)

INF = math.inf

Box = tuple[tuple[float, float], ...]
E = TypeVar("E")

BUDGET = 200_000  # evaluations before a bisect_boxes search stops


def bisect_boxes(
    boxes: list[Box],
    evaluate: Callable[[Box], E],
    settled: Callable[[E], bool],
    *,
    min_width: float,
    halt: Callable[[E], bool] | None = None,
) -> tuple[list[tuple[Box, E]], int]:
    """Bisect boxes depth-first until each one is settled or may not split.

    A box is a tuple of (lo, hi) pairs, one per axis.  A box whose enclosure
    passes `settled` is terminal.  Otherwise its widest axis, with widths
    measured relative to the extent of the starting boxes, is halved -- unless
    BUDGET evaluations are spent, no axis is wider than min_width, or the
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
            evals >= BUDGET
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
    min_width: float,
) -> tuple[Interval, int, str]:
    """Certify the enclosure > 0 on box; stop at a refutation.

    Each cell is graded like a strict leaf margin; the status is the
    conjunction of the cells' grades, so only the last cell, where the search
    halted, can fail it, and that cell is the margin of a failure.
    """
    cells, evals = bisect_boxes(
        [box], evaluate,
        lambda enc: status_from_margin(enc, strict=True) == PROVED,
        min_width=min_width,
        halt=lambda enc: status_from_margin(enc, strict=True) == FAILED,
    )
    encs = [enc for _, enc in cells]
    status = conjunction(status_from_margin(enc, strict=True) for enc in encs)
    return (encs[-1] if status == FAILED else imin(encs)), evals, status


def prove_positive_1d(
    f: Callable[[Interval], Interval],
    lo: float,
    hi: float,
) -> tuple[Interval, int, str]:
    """Certify f > 0 on [lo, hi], bisecting down to cells of width 1e-12.

    A cell X is first enclosed by f(X).  Where that leaves the grade open
    and X is finite, f also runs on Jet.var(X) and at the float midpoint c,
    and the cell's enclosure of inf f becomes
    [max(f(X).lo, form.lo), min(f(X).hi, form.hi, f(c).hi)] with the
    mean-value form form = f(c) + f'(X) (X - c) (Moore, Kearfott & Cloud,
    Introduction to Interval Analysis, 2009, section 6.4).  f(c).hi bounds
    the infimum from above, so a negative point value refutes the claim.  An
    f that raises DomainError on a jet, as one that reads its argument's
    endpoints must, keeps f(X) alone.

    Returns (enclosure of inf f over final cells, evaluations, status).
    """

    def evaluate(box: Box) -> Interval:
        ((a, b),) = box
        x = Interval(a, b)
        natural = f(x)
        c = 0.5 * (a + b)
        if status_from_margin(natural, strict=True) != INCONCLUSIVE or not a < c < b:
            return natural
        try:
            jet = f(Jet.var(x))
        except DomainError:
            return natural
        if type(jet) is not Jet:  # f does not depend on its argument
            return natural
        at_c = f(Interval(c, c))
        form = at_c + jet.d * (x - c)
        return Interval(
            max(natural.lo, form.lo), min(natural.hi, form.hi, at_c.hi)
        )

    return _prove_positive(evaluate, ((lo, hi),), 1e-12)


def prove_positive_2d(
    f: Callable[[Interval, Interval], Interval],
    xdom: tuple[float, float],
    ydom: tuple[float, float],
) -> tuple[Interval, int, str]:
    """Certify f(x, y) > 0 on a rectangle, bisecting down to cells of width
    1e-10; otherwise the contract of the 1d prover."""
    return _prove_positive(
        lambda box: f(Interval(*box[0]), Interval(*box[1])),
        (xdom, ydom),
        1e-10,
    )


def subdivision_check(
    name: str,
    f: Callable[[Interval], Interval],
    lo: float,
    hi: float,
    *,
    note: str = "",
) -> CheckResult:
    """The strict leaf of prove_positive_1d(f, lo, hi): its margin encloses
    inf f over the final cells, mean-value cells included, and grading it
    gives back the prover's status."""
    margin, evals, _ = prove_positive_1d(f, lo, hi)
    return leaf(name, margin, evaluations=evals, note=note)


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
    note: str = "",
) -> CheckResult:
    """Certify f >= 0 on [lo, hi] from an anchor value and a derivative sign.

    increasing_from_left: anchor = f(lo) >= 0 and f' >= 0 on [lo, hi].
    Otherwise: anchor = f(hi) >= 0 and f' <= 0 on [lo, hi] (pass -f').
    `derivative` is that f' (or -f'), or its quotient by a factor that is
    >= 0 on [lo, hi]; it must be > 0, since the prover certifies nothing
    weaker.  The conclusion margin is the anchor enclosure: the anchor is the
    infimum of f under the certified monotonicity.
    """
    side = "left" if increasing_from_left else "right"
    deriv = subdivision_check("derivative-sign", derivative, lo, hi)
    anchor_res = point_check(f"anchor-{side}", anchor, strict=False)
    return combine(name, [anchor_res, deriv], note=note, margin=anchor)


def concave_nonneg_check(
    name: str,
    neg_second_derivative: Callable[[Interval], Interval],
    value_lo: Interval,
    value_hi: Interval,
    lo: float,
    hi: float,
    *,
    note: str = "",
) -> CheckResult:
    """Certify f >= 0 on [lo, hi] from concavity and endpoint values.

    neg_second_derivative must enclose -f'', or its quotient by a factor that
    is >= 0 on [lo, hi], and be > 0 there; a concave function is bounded below
    by the smaller endpoint value.
    """
    conc = subdivision_check("concavity", neg_second_derivative, lo, hi)
    e1 = point_check("value-left", value_lo, strict=False)
    e2 = point_check("value-right", value_hi, strict=False)
    return combine(
        name, [e1, e2, conc], note=note, margin=imin([value_lo, value_hi])
    )


# -- stock elementary bounds --------------------------------------------------


def lemma_exp_affine() -> CheckResult:
    """e^x >= 1 + x for all real x (needed on [-1, inf)).

    On [-1, 4] via the series quotient (e^x - 1 - x)/x^2 = sum x^k/(k+2)!,
    whose enclosure is evaluated directly; on [4, inf) by monotonicity of
    e^x - 1 - x (derivative e^x - 1 > 0) from the anchor at 4.
    """
    quotient = exp_taylor(24).quotient(2, minus=poly(1, 1))
    series_part = subdivision_check("series-quotient", quotient, -1.0, 4.0)
    far = monotone_nonneg_check(
        "far-piece",
        lambda x: x.exp() - 1.0,
        Interval(4.0, 4.0).exp() - 5.0,
        4.0,
        INF,
        increasing_from_left=True,
    )
    return combine(
        "exp-ge-1-plus-x", [series_part, far], note="margin is analytically 0 at x=0",
        margin=Interval(0.0, 0.0),
    )


def lemma_one_minus_exp_quadratic(b_hi: float, name: str = "one-minus-exp-quad") -> CheckResult:
    """1 - e^{-b} >= b - b^2/2 on [0, b_hi].

    m(b) = 1 - b + b^2/2 - e^{-b} has m(0) = 0 and m'(0) = 0 exactly, and
    m''(b) = 1 - e^{-b} = b q(-b) >= 0 for b >= 0, with q(t) = (e^t - 1)/t;
    integrating the sign twice gives m >= 0.  Only the sign of q, which is
    > 0 everywhere, needs subdivision.
    """
    quotient = exp_taylor(12).quotient(1, minus=poly(1))
    second = subdivision_check(
        "second-derivative",
        lambda b: quotient(-b),
        0.0,
        b_hi,
        note="m''(b) = b (e^t - 1)/t at t = -b; the factor b >= 0 is taken out",
    )
    a1 = point_check("mprime-at-0", Interval(0.0, 0.0), strict=False)
    a0 = point_check("m-at-0", Interval(0.0, 0.0), strict=False)
    return combine(
        name, [a0, a1, second],
        note="m'' >= 0 with m(0) = m'(0) = 0 forces m >= 0; margin 0 at b=0",
    )


def lemma_neg_log_affine() -> CheckResult:
    """-ln t >= 1 - t on (0, 1]: m(t) = -ln t - 1 + t, m(1) = 0, m' = 1 - 1/t <= 0."""
    return monotone_nonneg_check(
        "neg-log-ge-1-minus-t",
        # 1/t >= 1 on (0, 1], also where the cell reaches the open end at 0
        lambda t: Interval(1.0, INF) if t.lo <= 0.0 else 1.0 / t,
        Interval(0.0, 0.0),  # m(1) = 0 exactly
        0.0,
        1.0,
        increasing_from_left=False,
        note="-m' = (1-t)/t; derivative-sign takes 1/t, the factor 1 - t >= 0 "
        "taken out; margin analytically 0 at t=1",
    )


def lemma_log_le_affine(t_hi: float) -> CheckResult:
    """ln t <= t - 1 on [1, t_hi]: m = t - 1 - ln t, m(1) = 0, m' = 1 - 1/t >= 0."""
    return monotone_nonneg_check(
        "log-le-t-minus-1",
        lambda t: 1.0 / t,
        Interval(0.0, 0.0),
        1.0,
        t_hi,
        increasing_from_left=True,
        note="m' = (t-1)/t; derivative-sign takes 1/t, the factor t - 1 >= 0 "
        "taken out; margin analytically 0 at t=1",
    )


def lemma_ln1p_quadratic(x_hi: float) -> CheckResult:
    """ln(1+x) >= x - x^2/2 on [0, x_hi]: m' = x^2/(1+x) >= 0, m(0) = 0."""
    return monotone_nonneg_check(
        "ln1p-ge-x-minus-half-x2",
        lambda x: 1.0 / (x + 1.0),
        Interval(0.0, 0.0),
        0.0,
        x_hi,
        increasing_from_left=True,
        note="m' = x^2/(1+x); derivative-sign takes 1/(1+x), the factor x^2 >= 0 "
        "taken out; margin analytically 0 at x=0",
    )
