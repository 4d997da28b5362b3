"""Generic single-sign-change checker and direct quadrature cross-checks.

np_generic certifies the two hypotheses of the distribution-function
comparison lemma for arbitrary enclosures F, G; the direct checks enclose the
conclusion integrals themselves at sample exponents, independently of the
piecewise proofs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from ..distfn import MeasureParams, f_star, g_star
from ..interval import Interval, pow_real
from ..polytools import p_eval_iv, p_sub
from ..quad import QuadConfig, integrate, near_zero_bound, tail_bound_mu_p
from ..specfun import SQRT2, cos_taylor, neg_ln_cos_excess
from .engine import (
    bisect_boxes,
    monotone_nonneg_check,
    point_check,
    subdivision_check,
)
from .result import CheckResult, combine, leaf, timer, FAILED, INCONCLUSIVE, PROVED

FnEnclosure = Callable[[Interval], Interval]


# ---------------------------------------------------------------------------
# generic NP hypothesis checker
# ---------------------------------------------------------------------------


def np_generic(
    F: FnEnclosure,
    G: FnEnclosure,
    Y: float,
    s0: float,
    integral_check: Callable[[], Interval],
    grid: int = 64,
    *,
    y_lo: float = 1e-3,
    y_hi: float | None = None,
    y_tol: float = 1e-4,
    max_evals: int = 20_000,
    name: str = "np-generic",
) -> CheckResult:
    """Certify: F - G <= 0 left of some y0, >= 0 right of it, and the
    s0-integral is nonnegative.

    The difference is classified on a refining partition of [y_lo, y_hi],
    bisected by the engine's bisect_boxes; cells straddling the sign change
    shrink below y_tol.  More than one sign change, or a missing nonnegative
    phase on the right, fails the check.
    integral_check must return a rigorous enclosure of
    int (g^s0 - f^s0) d(mu); assembling it (cutoffs, tails) is the caller's
    business.
    """
    if grid < 16:
        raise ValueError("grid must be >= 16")
    if y_hi is None:
        y_hi = 0.999 * Y
    tol = 1e-12

    def evaluate(box) -> tuple[Interval, bool]:
        cell = Interval(*box[0])
        fe, ge = F(cell), G(cell)
        # identical enclosures satisfy both sign conditions
        return fe - ge, fe == ge

    def resolved(enc: tuple[Interval, bool]) -> bool:
        d, flat = enc
        return flat or d.hi <= tol or d.lo >= -tol

    start = [((c.lo, c.hi),) for c in Interval(y_lo, y_hi).split(grid)]
    # terminal cells come back left to right
    cells, evals = bisect_boxes(
        start, evaluate, resolved, max_evals=max_evals, min_width=y_tol
    )

    # certified-negative cells must all lie left of certified-positive ones;
    # unresolved cells are tolerable only inside the transition gap
    last_neg_end = None
    first_pos_start = None
    verdict = PROVED
    diag = ""
    margins: list[Interval] = []
    straddles: list[tuple[float, float]] = []
    for ((a, b),), (d, flat) in cells:
        if flat:
            margins.append(Interval(0.0, 0.0))
            continue
        is_neg = d.hi <= tol
        is_pos = d.lo >= -tol
        if is_neg and is_pos:
            margins.append(Interval(0.0, 0.0))
            continue
        if is_neg:
            if first_pos_start is not None and a >= first_pos_start:
                verdict = FAILED
                diag = f"negative again on [{a:.6g}, {b:.6g}] after the sign change"
                margins.append(d)
                break
            margins.append(-d)
            last_neg_end = b if last_neg_end is None else max(last_neg_end, b)
        elif is_pos:
            if first_pos_start is None:
                first_pos_start = a
            margins.append(d)
        else:
            straddles.append((a, b))
    if verdict is PROVED:
        if first_pos_start is not None and last_neg_end is not None and (
            first_pos_start < last_neg_end
        ):
            verdict = FAILED
            diag = "interleaved certified signs; single change impossible"
        elif first_pos_start is None and last_neg_end is not None:
            verdict = FAILED
            diag = "difference still negative at the right edge of the window"
        else:
            gap_lo = last_neg_end if last_neg_end is not None else y_lo
            gap_hi = first_pos_start if first_pos_start is not None else y_hi
            outside = [s for s in straddles if s[0] < gap_lo or s[1] > gap_hi]
            # a straddle wider than y_tol was cut short by the budget
            cut = [s for s in straddles if s[1] - s[0] > y_tol]
            if outside:
                verdict = INCONCLUSIVE
                diag = f"{len(outside)} cells unresolved outside the transition gap"
            elif cut:
                verdict = INCONCLUSIVE
                diag = f"{len(cut)} cells unresolved when the evaluation budget ran out"
            y0_lo, y0_hi = gap_lo, gap_hi

    if not margins:
        margins = [Interval(0.0, 0.0)]
    hyp1 = leaf(
        f"{name}/single-sign-change",
        Interval(min(m.lo for m in margins), min(m.hi for m in margins)),
        strict=False,
        evaluations=evals,
        note=diag or f"y0 in [{y0_lo:.6g}, {y0_hi:.6g}]",
    )
    hyp1.status = verdict if verdict != PROVED else hyp1.status
    integral = integral_check()
    hyp2 = leaf(
        f"{name}/integral-at-s0",
        integral,
        strict=False,
        evaluations=1,
        note=f"s0 = {s0}",
    )
    return combine(name, [hyp1, hyp2], note=hyp1.note)


# ---------------------------------------------------------------------------
# direct conclusion integrals
# ---------------------------------------------------------------------------

from ..polytools import p_shift_div

_COS_REM = cos_taylor(6)
_COS_LOWER_QUOT = p_shift_div(
    p_sub(_COS_REM.poly, [Fraction(1), Fraction(0), Fraction(-1, 2)]), 4
)


def _near_zero_children(delta: float) -> list[CheckResult]:
    """Certificates for -ln cos t - t^2/2 <= t^4 / (8 (1 - delta^2/2)) on [0, delta]."""
    def cos_quot(t: Interval) -> Interval:
        band = Interval.from_fraction(_COS_REM.rem_coeff) * (
            t.abs() ** (_COS_REM.rem_power - 4)
        )
        return p_eval_iv(_COS_LOWER_QUOT, t) + Interval(-band.hi, band.hi)

    cos_lower = subdivision_check(
        "cos-above-quadratic",
        cos_quot,
        0.0,
        delta,
        max_evals=2000,
        note="(cos t - 1 + t^2/2)/t^4 >= 0; cos t >= 1 - t^2/2",
    )
    ln_upper = monotone_nonneg_check(
        "ln-reciprocal-quadratic",
        lambda u: u * u / ((1.0 - u) * (1.0 - u) * 2.0),
        Interval(0.0, 0.0),
        0.0,
        0.5 * delta * delta + 1e-12,
        increasing_from_left=True,
        note="-ln(1-u) <= u + u^2/(2(1-u)); derivative u^2/(2(1-u)^2) >= 0",
    )
    return [cos_lower, ln_upper]


def gauss_cos_gap_integral(
    p: Interval,
    s: Interval,
    *,
    delta: float = 1e-3,
    T: float = 30.0,
    cfg: QuadConfig | None = None,
) -> tuple[Interval, int]:
    """Enclosure of int_0^inf (e^{-s t^2/2} - |cos t|^s) / t^(p+1) dt.

    Near zero the integrand lies in [0, s C4 t^(3-p)] with
    C4 = 1/(8 (1 - delta^2/2)).  On [delta, 1.2] the difference is evaluated
    cancellation-free as e^{-s t^2/2} (1 - e^{-s R(t)}) with R the certified
    -ln cos t - t^2/2 series; beyond 1.2 the direct form is fine.  The tails
    use the stock mu_p majorants.
    """
    if cfg is None:
        cfg = QuadConfig(target_width=2e-4, max_cells=150_000)
    div = Interval(delta, delta)
    C4 = Interval(1.0, 1.0) / ((1.0 - div * div * 0.5) * 8.0)
    near0 = near_zero_bound(s * C4, 3.0 - p, delta, nonneg=True)

    def integrand_series(t: Interval) -> Interval:
        R = neg_ln_cos_excess(t)
        drop = Interval(1.0, 1.0) - (-(R * s)).exp()
        return (-(t * t) * s * 0.5).exp() * drop * pow_real(t, -(p + 1.0))

    def integrand_direct(t: Interval) -> Interval:
        gap = (-(t * t) * s * 0.5).exp() - pow_real(t.cos().abs(), s)
        return gap * pow_real(t, -(p + 1.0))

    fin1 = integrate(integrand_series, delta, 1.2, cfg)
    fin2 = integrate(integrand_direct, 1.2, T, cfg)
    gauss = tail_bound_mu_p("gauss", s, p, T)
    cospow = tail_bound_mu_p("cos_power", s, p, T)
    total = near0 + fin1.value + fin2.value + Interval(-cospow.hi, gauss.hi)
    return total, fin1.cells + fin2.cells


def check_conclusion_direct(
    p_grid=(2.1, 2.5, 2.9), s_grid=None
) -> CheckResult:
    """The conclusion integral is nonnegative at every sampled (p, s)."""
    if s_grid is None:
        s_grid = (float(SQRT2.lo), 2.0, 4.0, 16.0)
    if any(s < float(SQRT2.lo) - 1e-12 for s in s_grid):
        raise ValueError("conclusion holds for s >= sqrt(2) only")
    with timer() as tm:
        children = _near_zero_children(1e-3)
        for p in p_grid:
            row = []
            for s in s_grid:
                enc, cells = gauss_cos_gap_integral(
                    Interval(p, p), Interval(s, s)
                )
                row.append(
                    leaf(
                        f"integral-p{p}-s{round(s, 6)}",
                        enc,
                        strict=False,
                        evaluations=cells,
                    )
                )
            children.append(combine(f"p-{p}", row))
        res = combine("np/conclusion-direct", children)
    return tm.stamp(res)


# ---------------------------------------------------------------------------
# the cosine/gaussian distribution functions fed through the generic checker
# ---------------------------------------------------------------------------


def check_np_cos_gauss(p: float, K: int = 200, grid: int = 64) -> CheckResult:
    """np_generic on the |cos| and gaussian distribution functions at one p."""
    mp = MeasureParams(Interval(p, p))

    def F(x: Interval) -> Interval:
        return f_star(x, mp, K=K)

    def G(x: Interval) -> Interval:
        return g_star(x, mp)

    def integral() -> Interval:
        enc, _ = gauss_cos_gap_integral(
            Interval(p, p), Interval(SQRT2.lo, SQRT2.hi)
        )
        return enc

    with timer() as tm:
        res = np_generic(
            F, G, 1.0, float(SQRT2.lo), integral, grid=grid,
            y_hi=0.99, y_tol=1e-5, max_evals=40_000,
            name=f"np/cos-gauss-p{p}",
        )
    return tm.stamp(res)


# ---------------------------------------------------------------------------
# convergence of the rescaled moment integrals
# ---------------------------------------------------------------------------


def _moment_integral(
    p: Interval, s: float | None, *, delta: float = 1e-2, T: float = 150.0,
    cfg: QuadConfig | None = None,
) -> Interval:
    """Enclosure of int_0^inf (t^2/2 - 1 + h(t)) / t^(p+1) dt where h is
    |cos(t/sqrt(s))|^s (s finite) or exp(-t^2/2) (s None)."""
    if cfg is None:
        cfg = QuadConfig(target_width=2e-3, max_cells=120_000)
    div = Interval(delta, delta)
    C4 = Interval(1.0, 1.0) / ((1.0 - div * div * 0.5) * 8.0)
    # |t^2/2 - 1 + h| <= (1/8 + C4) t^4 near zero (both pieces of the split)
    near0 = near_zero_bound(C4 + 0.125, 3.0 - p, delta, nonneg=False)
    if s is None:
        def integrand(t: Interval) -> Interval:
            return (t * t * 0.5 - 1.0 + (-(t * t) * 0.5).exp()) * pow_real(
                t, -(p + 1.0)
            )
    else:
        rt = Interval(s, s).sqrt()

        def integrand(t: Interval) -> Interval:
            h = pow_real((t / rt).cos().abs(), Interval(s, s))
            return (t * t * 0.5 - 1.0 + h) * pow_real(t, -(p + 1.0))

    fin = integrate(integrand, delta, T, cfg)
    Tiv = Interval(T, T)
    upper = pow_real(Tiv, 2.0 - p) / ((p - 2.0) * 2.0)
    lower = upper - pow_real(Tiv, -p) / p
    return near0 + fin.value + Interval(lower.lo, upper.hi)


def check_fp_convergence(p: float = 2.5, s_list=(4.0, 16.0, 64.0)) -> CheckResult:
    """The rescaled cosine-moment integral approaches its gaussian limit.

    Deviations |I(s) - I(inf)| must decrease along s_list and the last one
    must sit within 1% of I(inf).  The deviations are enclosed two ways: from
    the direct quadratures, and through the substitution t -> t sqrt(s), under
    which I(inf) - I(s) equals s^(-p/2) times the gaussian/cosine gap
    integral.  The tight route drives the assertions; the routes must overlap.
    """
    if list(s_list) != sorted(s_list) or s_list[0] < 2.0:
        raise ValueError("s_list must be increasing with min >= 2")
    if p <= 2.05:
        raise ValueError("tail bound needs p above 2")
    with timer() as tm:
        piv = Interval(p, p)
        I_inf = _moment_integral(piv, None)
        children = [
            point_check("limit-positive", I_inf, note=f"I(inf) = {I_inf!r}"),
        ]
        devs = []
        for s in s_list:
            I_s = _moment_integral(piv, s)
            direct = (I_s - I_inf).abs()
            gap, _ = gauss_cos_gap_integral(piv, Interval(s, s))
            tight = pow_real(Interval(s, s), -piv * 0.5) * gap
            gap_m = min(direct.hi - tight.lo, tight.hi - direct.lo)
            children.append(
                point_check(
                    f"deviation-routes-overlap-s{s}",
                    Interval(gap_m, gap_m),
                    note=f"direct {direct!r} vs rescaled-gap {tight!r}",
                )
            )
            devs.append((s, tight))
        for (s1, d1), (s2, d2) in zip(devs, devs[1:]):
            children.append(
                point_check(
                    f"deviation-decreasing-{s1}-to-{s2}",
                    d1 - d2,
                    note=f"|I({s1})-I(inf)| = {d1!r} vs |I({s2})-I(inf)| = {d2!r}",
                )
            )
        s_last, d_last = devs[-1]
        children.append(
            point_check(
                "final-within-1-percent",
                I_inf * 0.01 - d_last,
                note=f"|I({s_last})-I(inf)| below I(inf)/100",
            )
        )
        res = combine(f"np/moment-convergence-p{p}", children)
    return tm.stamp(res)
