"""Checks for the sign/monotonicity condition on F_* - G_* (first NP hypothesis).

Four families: the sign of F_* - G_* at sigma = 0.97, the negativity on
(0, 1/15], the monotonicity of F_* - G_* via the derivative-ratio bound, and
the latter's reduction machinery (p = 2 reduction, polynomial minorants on
(0, 1], tangent/convexity comparisons on [1, 1.50412]).
"""

from __future__ import annotations

from fractions import Fraction

from ..distfn import MeasureParams, f_star, g_star
from ..interval import HALF_PI, PI, Interval, pow_real
from ..polytools import (
    ipoly_eval,
    p_eval_iv,
    p_mul,
    p_shift_div,
    p_sub,
    pp_mul,
    pp_shift_div_t,
    pp_sub,
    pp_t_coeffs,
)
from ..specfun import LN_COS_COEFFS, cos_taylor, sin_taylor, zeta_sum
from .engine import (
    INF,
    concave_nonneg_check,
    lemma_ln1p_quadratic,
    point_check,
    subdivision_check,
)
from .result import CheckResult, combine, timer

RHO = 1.0 / 15.0
SIGMA = 0.97
T_END = 1.50412  # conservative right end for the case-2 range
T_END_GUARD = 1.50409
EPS0 = 0.04248
SINE_CUT = 0.06672


def p_boxes(n: int = 16) -> list[Interval]:
    return Interval(2.0, 3.0).split(n)


# ---------------------------------------------------------------------------
# sign at sigma
# ---------------------------------------------------------------------------


def _rhs_sign_bound(sigma: Interval, p: Interval) -> Interval:
    """arccos(s)^-p - (2 ln(1/s))^(-p/2) - pi^2 arccos(s)/(pi - arccos(s))^3."""
    a = sigma.arccos()
    lead = pow_real(a, -p) - pow_real(sigma.ln() * -2.0, -p * 0.5)
    penalty = PI**2 * a / (PI - a) ** 3
    return lead - penalty


def check_cond1_sign_at_sigma(sigma: float = SIGMA, n_boxes: int = 16) -> CheckResult:
    """F_*(sigma) - G_*(sigma) >= 0 for all p in [2, 3].

    The explicit lower bound for p (F_* - G_*)(sigma) is positive at p = 2 and
    increases in p because its leading difference c1^p - c2^p has
    c1 > c2 >= 1; both facts are certified, then the bound is re-evaluated on
    the left edge of every p box.  A direct F_* - G_* grid is kept as a
    redundant cross-check.
    """
    if not 0.9 < sigma < 0.99:
        raise ValueError("sigma must lie in (0.9, 0.99)")
    with timer() as tm:
        sig = Interval(sigma, sigma)
        a = sig.arccos()
        c1 = 1.0 / a
        c2 = 1.0 / (sig.ln() * -2.0).sqrt()
        at2 = point_check(
            "rhs-bound-at-p2", _rhs_sign_bound(sig, Interval(2.0, 2.0))
        )
        basis = combine(
            "p-monotonicity-basis",
            [
                point_check("inv-arccos-above-inv-sqrt2ln", c1 - c2),
                point_check("inv-sqrt2ln-at-least-1", c2 - 1.0),
            ],
            note="c1 > c2 >= 1 makes c1^p - c2^p increasing in p",
        )
        box_margins = [
            _rhs_sign_bound(sig, Interval(b.lo, b.lo)) for b in p_boxes(n_boxes)
        ]
        boxes = point_check(
            "rhs-bound-on-p-boxes",
            Interval(min(m.lo for m in box_margins), min(m.hi for m in box_margins)),
            note=f"left edges of {n_boxes} p boxes; monotonicity covers the rest",
        )
        grid_margins = []
        for b in p_boxes(n_boxes):
            mp = MeasureParams(Interval(b.lo, b.lo))
            grid_margins.append(f_star(sig, mp, K=200) - g_star(sig, mp))
        grid = point_check(
            "direct-fstar-gstar-grid",
            Interval(
                min(m.lo for m in grid_margins), min(m.hi for m in grid_margins)
            ),
            note="redundant direct evaluation on a p grid",
        )
        res = combine(
            "cond1/sign-at-sigma", [at2, basis, boxes, grid],
            note=f"sigma = {sigma}",
        )
    return tm.stamp(res)


# ---------------------------------------------------------------------------
# small x: F_* - G_* < 0 on (0, rho]
# ---------------------------------------------------------------------------

_ZETA_CACHE: dict[tuple[float, float, int], Interval] = {}


def _zeta(q: Interval, terms: int) -> Interval:
    key = (q.lo, q.hi, terms)
    out = _ZETA_CACHE.get(key)
    if out is None:
        out = _ZETA_CACHE[key] = zeta_sum(q, terms)
    return out


def d_coefficient(p: Interval, zeta_terms: int = 2000) -> Interval:
    """d_p = 2.02 (2/pi)^(p+1) (1 - 2^-(p+1)) zeta(p+1)."""
    q = p + 1.0
    two_over_pi = Interval(2.0, 2.0) / PI
    return (
        Interval(2.02, 2.02)
        * pow_real(two_over_pi, q)
        * (Interval(1.0, 1.0) - pow_real(Interval(2.0, 2.0), -q))
        * _zeta(q, zeta_terms)
    )


def check_cond1_small_x(rho: float = RHO, n_boxes: int = 16) -> CheckResult:
    """F_* - G_* < 0 on (0, rho]: the per-term bound F_*(x) <= d_p x and the
    comparison d_p x <= G_*(x)."""
    if not 0.0 < rho <= 0.1:
        raise ValueError("rho must lie in (0, 0.1]")
    with timer() as tm:
        riv = Interval(rho, rho)
        a_rho = riv.arccos()
        eps0 = (HALF_PI - a_rho) / HALF_PI
        ch_a = point_check(
            "eps0-bound",
            Interval(EPS0, EPS0) - eps0,
            note="eps_k <= (pi/2 - arccos rho)/(pi/2) <= 0.04248 for x <= rho",
        )

        # (1+e)^p - (1-e)^p <= 2.00361 p e on [0, 0.04248] x [2, 3].
        # Binomial series: the difference is 2[p e + C(p,3) e^3 + R] with
        # |C(p,k)| <= 6 (k-4)!/k! for p in [2,3], k >= 5, so
        # |R| <= e^5/(20 (1-e)).  It suffices that 2C(p,3) + 2|R|/e^3 <= 2p e^3
        # coefficient room (giving 2p(1+e^2) e) and 2(1+e^2) <= 2.00361.
        e0 = Interval(EPS0, EPS0)
        rem_over_e3 = (e0 * e0 / (1.0 - e0)) * Interval.from_fraction(Fraction(1, 20))

        def binom_room(p: Interval) -> Interval:
            c3 = p * (p - 1.0) * (p - 2.0) * Interval.from_fraction(Fraction(1, 6))
            return (p - c3) * 2.0 - rem_over_e3 * 2.0

        room = subdivision_check(
            "taylor-bound/cubic-coefficient-room", binom_room, 2.0, 3.0,
            max_evals=5000,
            note="2C(p,3) e^3 + 2R <= 2p e^3, so lhs <= 2p(1+e^2) e",
        )
        square_room = point_check(
            "taylor-bound/epsilon-square-room",
            Interval(2.00361, 2.00361) - (1.0 + e0 * e0) * 2.0,
            note="2(1+e^2) <= 2.00361 for e <= 0.04248",
        )
        spot_margins = []
        for pv in (2.0, 2.25, 2.5, 2.75, 3.0):
            for i in range(1, 11):
                e = Interval(EPS0 * i / 10.0, EPS0 * i / 10.0)
                piv = Interval(pv, pv)
                lhs = pow_real(1.0 + e, piv) - pow_real(1.0 - e, piv)
                spot_margins.append(Interval(2.00361, 2.00361) * piv * e - lhs)
        spots = point_check(
            "taylor-bound/direct-spots",
            Interval(
                min(m.lo for m in spot_margins), min(m.hi for m in spot_margins)
            ),
            note="redundant pointwise evaluations on the (e, p) grid",
        )
        ch_b = combine("taylor-power-bound", [room, square_room, spots])

        # t <= (c/sin c) sin t on [0, c]: concavity of the margin in t
        c = Interval(SINE_CUT, SINE_CUT)
        slope = c / c.sin()

        def sine_margin_neg_dd(t: Interval) -> Interval:
            return slope * t.sin()  # -(m'') where m = slope sin t - t

        ch_c = concave_nonneg_check(
            "sine-chord-bound",
            sine_margin_neg_dd,
            slope * Interval(0.0, 0.0).sin() - 0.0,
            slope * c.sin() - c,
            0.0,
            SINE_CUT,
            note="t <= (c/sin c) sin t on [0, c], c = 0.06672",
        )

        # constant chain: 2.00361/(1-eps0^2)^3 <= 2.0145 and 2.0145 c/sin c <= 2.02
        e0 = Interval(EPS0, EPS0)
        ch_d = combine(
            "constant-chain",
            [
                point_check(
                    "into-2.0145",
                    Interval(2.0145, 2.0145) * (1.0 - e0 * e0) ** 3 - 2.00361,
                ),
                point_check(
                    "into-2.02",
                    Interval(2.02, 2.02) * c.sin() - Interval(2.0145, 2.0145) * c,
                ),
            ],
            note="denominator (1-e^2)^p >= (1-eps0^2)^3 for e <= eps0, p <= 3",
        )

        d2 = d_coefficient(Interval(2.0, 2.0), zeta_terms=10_000)
        d3 = d_coefficient(Interval(3.0, 3.0), zeta_terms=10_000)
        ch_e = combine(
            "d2-d3-bounds",
            [
                point_check("d2-below-0.5482", Interval(0.5482, 0.5482) - d2),
                point_check("d3-below-0.3367", Interval(0.3367, 0.3367) - d3),
            ],
        )

        def dp_line_margin(p: Interval) -> Interval:
            return Interval(0.98, 0.98) - Interval(0.2115, 0.2115) * p - d_coefficient(p)

        ch_f = subdivision_check(
            "dp-below-line", dp_line_margin, 2.0, 3.0, max_evals=3000,
            note="d_p <= 0.98 - 0.2115 p on adaptively refined p boxes",
        )

        ch_g = subdivision_check(
            "line-max-1.14",
            lambda p: Interval(1.14, 1.14) - p * (Interval(0.98, 0.98) - Interval(0.2115, 0.2115) * p),
            2.0,
            3.0,
            max_evals=20_000,
        )

        # e^t / (2t)^(p/2) >= 1.14 for t >= 2.7, p in [2, 3]
        t_dom = Interval(2.7, INF)
        ch_h = combine(
            "gaussian-side-floor",
            [
                point_check(
                    "increasing-in-t",
                    Interval(1.0, 1.0) - Interval(2.0, 3.0) / (t_dom * 2.0),
                    note="d/dt [t - (p/2) ln 2t] = 1 - p/(2t) > 0 for t >= 2.7",
                ),
                point_check(
                    "decreasing-in-p",
                    (Interval(2.7, 2.7) * 2.0).ln(),
                    note="ln 2t > 0 makes (2t)^(p/2) increasing in p; worst p is 3",
                ),
                point_check(
                    "anchor-value",
                    Interval(2.7, 2.7).exp()
                    / pow_real(Interval(5.4, 5.4), Interval(1.5, 1.5))
                    - 1.14,
                    note="e^2.7/5.4^1.5 = 1.1858; the printed 1.8 holds only at p=2",
                ),
                point_check("rho-maps-above-2.7", (1.0 / riv).ln() - 2.7,
                            note="t = ln(1/x) >= ln 15 > 2.7 for x <= rho"),
            ],
        )

        grid_margins = []
        for p in (2.0, 2.5, 3.0):
            mp = MeasureParams(Interval(p, p))
            for i in range(1, 31):
                x = Interval(rho * i / 30.0, rho * i / 30.0)
                grid_margins.append(g_star(x, mp) - f_star(x, mp, K=200))
        ch_grid = point_check(
            "direct-negativity-grid",
            Interval(
                min(m.lo for m in grid_margins), min(m.hi for m in grid_margins)
            ),
            note="g_star - f_star > 0 at 30 x points for p in {2, 2.5, 3}",
        )

        res = combine(
            "cond1/small-x",
            [ch_a, ch_b, ch_c, ch_d, ch_e, ch_f, ch_g, ch_h, ch_grid],
            note=f"rho = 1/15; chain gives F_* <= d_p x <= (0.98-0.2115p) x <= G_*",
        )
    return tm.stamp(res)


# ---------------------------------------------------------------------------
# reduction to p = 2
# ---------------------------------------------------------------------------


def check_reduction_to_p2() -> CheckResult:
    """Hypothesis (A^3/B^3) ln A >= -ln B of the power-reduction lemma.

    With A^2 = -2 ln cos t / t^2 and B^2 = -2 ln cos t / (pi-t)^2 this becomes
    (pi^3 - 3 pi^2 t + 3 pi t^2) ln(A^2) >= 2 t^3 ln((pi-t)/t), settled by the
    series lower bound for ln(A^2) and a tangent comparison at t0 = 1.
    """
    with timer() as tm:
        # (a) A >= 1 from the first series coefficient
        coeff_pos = point_check(
            "series-coefficients-positive",
            Interval(
                float(min(LN_COS_COEFFS[:3])), float(min(LN_COS_COEFFS[:3]))
            ),
            note="-2 ln cos t >= t^2 (1 + t^2/6 + 2t^4/45); A^2 >= 1",
        )

        # (b) ln(A^2) >= t^2/6: quadratic ln bound plus positive t^4 coefficient
        x_hi = T_END**2 / 6.0 + 2.0 * T_END**4 / 45.0 + 1e-9
        ln_bound = lemma_ln1p_quadratic(x_hi)

        def t4_coeff(t: Interval) -> Interval:
            inner = Interval.from_fraction(Fraction(1, 6)) + t * t * Fraction(2, 45)
            return Interval.from_fraction(Fraction(2, 45)) - inner * inner * 0.5

        coeff_ok = subdivision_check(
            "t4-coefficient-positive", t4_coeff, 0.0, HALF_PI.hi, max_evals=10_000
        )

        # (c) pi^3 - 3 pi^2 t + 3 pi t^2 >= 12 t ln((pi-t)/t) via the tangent at 1
        def neg_L_second(t: Interval) -> Interval:
            inv_t = Interval(1.0 / t.hi, INF) if t.lo <= 0.0 else 1.0 / t
            pit = PI - t
            return 1.0 / pit + PI / (pit * pit) + inv_t

        concavity = subdivision_check(
            "t-ln-term-concave", neg_L_second, 0.0, T_END, max_evals=10_000,
            note="-(d^2/dt^2)[t ln((pi-t)/t)] = 1/(pi-t) + pi/(pi-t)^2 + 1/t > 0",
        )
        pim1 = PI - 1.0
        L1 = pim1.ln()
        Lp1 = pim1.ln() - 1.0 / pim1 - 1.0

        def tangent_gap(t: Interval) -> Interval:
            quad = PI**3 - PI**2 * t * 3.0 + PI * t * t * 3.0
            return quad - (L1 + Lp1 * (t - 1.0)) * 12.0

        tangent = subdivision_check(
            "quadratic-above-tangent", tangent_gap, 0.0, T_END, max_evals=20_000
        )
        quad_pos = point_check(
            "quadratic-positive",
            PI * ((Interval(0.0, T_END) - HALF_PI) ** 2 * 3.0 + PI**2 * 0.25),
            note="pi^3 - 3pi^2 t + 3pi t^2 = pi (3 (t - pi/2)^2 + pi^2/4)",
        )
        res = combine(
            "cond1/reduction-to-p2",
            [coeff_pos, ln_bound, coeff_ok, concavity, tangent, quad_pos],
        )
    return tm.stamp(res)


# ---------------------------------------------------------------------------
# case 1: polynomial minorants on (0, 1]
# ---------------------------------------------------------------------------

_FR = Fraction
_M2_POLY = [_FR(1), _FR(0), _FR(1, 3), _FR(0), _FR(7, 60)]  # 1 + t^2/3 + 7t^4/60
_M3_POLY = [_FR(1), _FR(0), _FR(-1, 3), _FR(0), _FR(-1, 40)]  # t cot t minorant
_COR_LHS = [_FR(1), _FR(0), _FR(-1, 3), _FR(1, 40)]  # 1 - t^2/3 + t^3/40


def _pp_m1_scaled() -> dict:
    """pi^5 * (1 + t^3/pi^3 + 3 t^4/pi^4 + 6 t^5/pi^5) as an exact pi-polynomial."""
    return {(0, 5): _FR(1), (3, 2): _FR(1), (4, 1): _FR(3), (5, 0): _FR(6)}


def _pp_from_poly(poly: list[Fraction], pi_pow: int = 0) -> dict:
    return {(i, pi_pow): c for i, c in enumerate(poly) if c != 0}


def check_case1_polynomials() -> CheckResult:
    """The three minorants of the p = 2 expression and their composition on (0, 1]."""
    with timer() as tm:
        children = []

        # (a) 1/t^3 + 1/(pi-t)^3 >= (1/t^3)(1 + t^3/pi^3 + 3t^4/pi^4 + 6t^5/pi^5)
        # reduces exactly to t^3 (10 pi^2 - 15 pi t + 6 t^2) >= 0
        prod = pp_mul(
            {(0, 2): _FR(1), (1, 1): _FR(3), (2, 0): _FR(6)},  # pi^2+3pi t+6t^2
            pp_mul(
                pp_mul({(0, 1): _FR(1), (1, 0): _FR(-1)}, {(0, 1): _FR(1), (1, 0): _FR(-1)}),
                {(0, 1): _FR(1), (1, 0): _FR(-1)},
            ),  # (pi - t)^3
        )
        reduced = pp_sub({(0, 5): _FR(1)}, prod)
        expected = {(3, 2): _FR(10), (4, 1): _FR(-15), (5, 0): _FR(6)}
        if reduced != expected:
            raise AssertionError("geometric-series reduction identity failed")
        quot_a = pp_t_coeffs(pp_shift_div_t(reduced, 3))
        children.append(
            subdivision_check(
                "first-factor-minorant",
                lambda t: ipoly_eval(quot_a, t),
                0.0,
                1.0,
                max_evals=5000,
                note="exact reduction to 10 pi^2 - 15 pi t + 6 t^2 > 0",
            )
        )

        # (b) [-2 ln cos t]^2 >= t^4 (1 + t^2/3 + 7t^4/60): exact square expansion
        sq = p_mul(
            [_FR(1), _FR(0), _FR(1, 6), _FR(0), _FR(2, 45)],
            [_FR(1), _FR(0), _FR(1, 6), _FR(0), _FR(2, 45)],
        )
        leftover = p_sub(sq, _M2_POLY)
        if any(c != 0 for c in leftover[:5]) or any(c < 0 for c in leftover):
            raise AssertionError("square-expansion identity failed")
        children.append(
            point_check(
                "square-minorant",
                Interval(0.0, float(sum(leftover))),
                strict=False,
                note="(1+t^2/6+2t^4/45)^2 - (1+t^2/3+7t^4/60) = 2t^6/135 + 4t^8/2025 >= 0",
            )
        )

        # (c) cot t >= 1/t - t/3 - t^3/40 via D(t) = t cos t - sin t (1-t^2/3-t^4/40)
        cot1 = Interval(1.0, 1.0).cos() / Interval(1.0, 1.0).sin()
        children.append(
            point_check(
                "cot-anchor",
                Interval.from_fraction(_FR(1, 40)) - (1.0 - Interval.from_fraction(_FR(1, 3)) - cot1),
                note="1 - 1/3 - cot 1 <= 1/40",
            )
        )
        ct, st = cos_taylor(8), sin_taylor(8)
        d_poly = p_sub(p_mul([_FR(0), _FR(1)], ct.poly), p_mul(st.poly, _M3_POLY))
        d_quot = p_shift_div(d_poly, 5)
        rc = Interval.from_fraction(ct.rem_coeff)
        rs = Interval.from_fraction(st.rem_coeff)

        def d_quotient(t: Interval) -> Interval:
            band = rc * t.abs() ** (ct.rem_power - 4) + rs * t.abs() ** (st.rem_power - 5)
            return p_eval_iv(d_quot, t) + Interval(-band.hi, band.hi)

        children.append(
            subdivision_check(
                "cot-minorant-core", d_quotient, 0.0, 1.0, max_evals=50_000,
                note="(t cos t - sin t (1 - t^2/3 - t^4/40))/t^5 > 0 on (0, 1]",
            )
        )
        children.append(
            subdivision_check(
                "sin-positive", lambda t: t.sin(), 1e-6, 1.0, max_evals=1000
            )
        )

        # (d) proposition: m1 * m3 >= 1 - t^2/3 + t^3/40, scaled by pi^5
        lhs = pp_mul(_pp_m1_scaled(), _pp_from_poly(_M3_POLY))
        diff = pp_sub(lhs, _pp_from_poly(_COR_LHS, pi_pow=5))
        quot_d = pp_t_coeffs(pp_shift_div_t(diff, 3))
        children.append(
            subdivision_check(
                "product-inequality",
                lambda t: ipoly_eval(quot_d, t),
                0.0,
                1.0,
                max_evals=50_000,
                note="margin scaled by pi^5 and factored by t^3",
            )
        )

        # (e) corollary: (1 - t^2/3 + t^3/40)(1 + t^2/3 + 7t^4/60) >= 1
        cor = p_shift_div(p_sub(p_mul(_COR_LHS, _M2_POLY), [_FR(1)]), 3)
        children.append(
            subdivision_check(
                "corollary-product",
                lambda t: p_eval_iv(cor, t),
                0.0,
                1.0,
                max_evals=50_000,
                note="verified from the exact expansion, factored by t^3",
            )
        )

        # (f) composition of the three minorants, scaled by pi^5
        comp = pp_sub(
            pp_mul(pp_mul(_pp_m1_scaled(), _pp_from_poly(_M2_POLY)), _pp_from_poly(_M3_POLY)),
            {(0, 5): _FR(1)},
        )
        quot_f = pp_t_coeffs(pp_shift_div_t(comp, 3))
        children.append(
            subdivision_check(
                "three-minorant-composition",
                lambda t: ipoly_eval(quot_f, t),
                0.0,
                1.0,
                max_evals=50_000,
                note="(m1 m2 m3 - 1) pi^5 / t^3 > 0 on (0, 1]",
            )
        )
        # positivity side conditions for chaining the minorants
        def minorants_floor(t: Interval) -> Interval:
            u = p_eval_iv(_M3_POLY, t)
            v = p_eval_iv(_COR_LHS, t)
            return Interval(min(u.lo, v.lo), min(u.hi, v.hi))

        children.append(
            subdivision_check(
                "minorants-positive",
                minorants_floor,
                0.0,
                1.0,
                max_evals=5000,
                note="t cot t minorant and corollary factor stay positive",
            )
        )
        res = combine("cond1/case1-polynomials", children)
    return tm.stamp(res)


# ---------------------------------------------------------------------------
# case 2: tangent/secant comparisons on [1, 1.50412]
# ---------------------------------------------------------------------------


def _g_case2(t: Interval) -> Interval:
    return 1.0 / t**3 + 1.0 / (PI - t) ** 3


def _g_case2_prime(t: Interval) -> Interval:
    return 3.0 / (PI - t) ** 4 - 3.0 / t**4


def _f_case2(t: Interval) -> Interval:
    c = t.cos()
    denom = (c.ln() * -2.0) ** 2
    return t.sin() / c / denom


def check_case2_convexity() -> CheckResult:
    """g >= f on [1, 1.50412] by tangents to g, with the convexity of f
    certified through its reduced inequality in s = -ln cos t."""
    with timer() as tm:
        children = []

        # s^2 - 3s + 3 - 3 e^{-2s} >= 0 for s > 0 (convexity of f reduces here)
        sq = p_sub(
            p_mul([_FR(3), _FR(-3), _FR(1)], [_FR(1), _FR(2), _FR(2)]), [_FR(3)]
        )
        if p_shift_div(sq, 1) != [_FR(3), _FR(1), _FR(-4), _FR(2)]:
            raise AssertionError("case-2 algebraic identity failed")
        children.append(
            point_check(
                "quadratic-floor",
                Interval.from_fraction(_FR(3, 4)),
                note="s^2 - 3s + 3 = (s - 3/2)^2 + 3/4 >= 3/4",
            )
        )
        K = 32
        exp_quot = [
            _FR(2 ** (k + 3), _factorial(k + 3)) for k in range(K)
        ]
        rem_c = Interval.from_fraction(_FR(2 * 2 ** (K + 3), _factorial(K + 3)))

        def exp_minorant_quotient(s: Interval) -> Interval:
            band = rem_c * s.abs() ** K
            return p_eval_iv(exp_quot, s) + Interval(-band.hi, band.hi)

        children.append(
            subdivision_check(
                "exp-minorant", exp_minorant_quotient, 0.0, 3.0, max_evals=2000,
                note="(e^{2s} - 1 - 2s - 2s^2)/s^3 > 0",
            )
        )
        children.append(
            subdivision_check(
                "cubic-factor",
                lambda s: p_eval_iv([_FR(3), _FR(1), _FR(-4), _FR(2)], s),
                0.0,
                3.0,
                max_evals=20_000,
                note="((s^2-3s+3)(1+2s+2s^2) - 3)/s = 2s^3 - 4s^2 + s + 3 > 0",
            )
        )
        far = Interval(3.0, INF)
        far_floor = Interval(3.0, 3.0) - (far * -2.0).exp() * 3.0
        children.append(
            point_check(
                "far-piece",
                far_floor,
                note="s^2 - 3s + 3 - 3e^{-2s} >= s(s-3) + 3 - 3e^{-6} >= 3 - 3e^{-6}",
            )
        )

        # convexity of g
        children.append(
            subdivision_check(
                "g-convex",
                lambda t: 12.0 / t**5 + 12.0 / (PI - t) ** 5,
                1.0,
                T_END,
                max_evals=2000,
            )
        )

        # tangent comparisons
        for t0, pts in ((1.1, (1.0, 1.25)), (1.45, (1.24, T_END))):
            t0v = Interval(t0, t0)
            g0 = _g_case2(t0v)
            g1 = _g_case2_prime(t0v)
            for x in pts:
                xv = Interval(x, x)
                tangent = g0 + g1 * (xv - t0v)
                children.append(
                    point_check(
                        f"tangent-{t0}-at-{x}",
                        tangent - _f_case2(xv),
                        note="tangent to g dominates f at the bracket ends",
                    )
                )
        children.append(
            point_check(
                "bracket-overlap",
                Interval(1.25, 1.25) - 1.24,
                note="[1, 1.25] and [1.24, 1.50412] cover [1, 1.50412]",
            )
        )

        # redundant direct comparison
        children.append(
            subdivision_check(
               "direct-gap",
                lambda t: _g_case2(t) - _f_case2(t),
                1.0,
                T_END,
                max_evals=100_000,
                note="g - f > 0 verified directly as well",
            )
        )
        res = combine("cond1/case2-convexity", children)
    return tm.stamp(res)


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ---------------------------------------------------------------------------
# the monotonicity composite
# ---------------------------------------------------------------------------


def _rhs13(t: Interval, p: Interval) -> Interval:
    """The derivative-ratio lower bound at arccos x = t."""
    L = t.cos().ln() * -2.0
    A2 = L / (t * t)
    B2 = L / ((PI - t) * (PI - t))
    half = (p + 1.0) * 0.5
    return (pow_real(A2, half) + pow_real(B2, half)) * L.sqrt() * t.cos() / t.sin()


def check_cond1_monotone(rho: float = RHO) -> CheckResult:
    """F_* - G_* increasing on (rho, 1): the ratio F'/G' stays above 1.

    Children: the endpoint guard, the reduction to p = 2, the two p = 2 cases,
    and a redundant grid of direct evaluations of the ratio bound.
    """
    with timer() as tm:
        a_rho = Interval(rho, rho).arccos()
        endpoint = point_check(
            "endpoint-guard",
            Interval(T_END_GUARD, T_END_GUARD) - a_rho,
            note=f"arccos(rho) <= {T_END_GUARD}; checks run to {T_END}",
        )
        reduction = check_reduction_to_p2()
        case1 = check_case1_polynomials()
        case2 = check_case2_convexity()
        spots = []
        for p in (2.0, 2.5, 3.0):
            for i in range(1, 16):
                t = min(0.1 * i, T_END)
                spots.append(_rhs13(Interval(t, t), Interval(p, p)) - 1.0)
        spot_check = point_check(
            "ratio-grid",
            Interval(min(m.lo for m in spots), min(m.hi for m in spots)),
            note="direct interval evaluations of the ratio bound minus 1",
        )
        res = combine(
            "cond1/monotone",
            [endpoint, reduction, case1, case2, spot_check],
        )
    return tm.stamp(res)
