"""Checks for the sign/monotonicity condition on F_* - G_* (first NP hypothesis).

Four families: the sign of F_* - G_* at sigma = 0.97, the negativity on
(0, 1/15], the monotonicity of F_* - G_* via the derivative-ratio bound, and
the latter's reduction machinery (p = 2 reduction, polynomial minorants on
(0, 1], tangent/convexity comparisons on [1, 1.50412]).

Every leaf is a step of the paper's chain except the two direct F_* - G_*
grids, `direct-fstar-gstar-grid` and `direct-negativity-grid`, which test
the chain's conclusion.  Re-checks of a single step (the sign bound at the
p boxes' edges, the binomial bound at sample points, the ratio bound on a
grid, case 2's g > f by subdivision) are Tier-1 tests, not leaves.
"""

from __future__ import annotations

from fractions import Fraction

from ..distfn import MeasureParams, f_star, g_star
from ..interval import HALF_PI, PI, DomainError, Interval, imin, pow_real
from ..polytools import TaylorEnclosure, p_mul, p_quotient, p_shift_div, p_sub, poly
from ..specfun import LN_COS_COEFFS, cos_taylor, exp_taylor, sin_taylor, zeta_sum
from .engine import (
    INF,
    concave_nonneg_check,
    lemma_ln1p_quadratic,
    point_check,
    subdivision_check,
)
from .result import CheckResult, combine

RHO = 1.0 / 15.0
SIGMA = 0.97
T_END = 1.50412  # conservative right end for the case-2 range
T_END_GUARD = 1.50409
EPS0 = 0.04248
SINE_CUT = 0.06672


P_BOXES = 16  # the proof covers p in [2, 3] by this many equal p boxes


def p_boxes() -> list[Interval]:
    return Interval(2.0, 3.0).split(P_BOXES)


# ---------------------------------------------------------------------------
# sign at sigma
# ---------------------------------------------------------------------------


def _rhs_sign_bound(sigma: Interval, p: Interval) -> Interval:
    """arccos(s)^-p - (2 ln(1/s))^(-p/2) - pi^2 arccos(s)/(pi - arccos(s))^3."""
    a = sigma.arccos()
    lead = pow_real(a, -p) - pow_real(sigma.ln() * -2.0, -p * 0.5)
    penalty = PI**2 * a / (PI - a) ** 3
    return lead - penalty


def check_cond1_sign_at_sigma() -> CheckResult:
    """F_*(sigma) - G_*(sigma) >= 0 for all p in [2, 3].

    The explicit lower bound for p (F_* - G_*)(sigma) is positive at p = 2 and
    increases in p because its leading difference c1^p - c2^p has
    c1 > c2 >= 1; the two facts prove it for every p in [2, 3].  Its values
    on the p boxes' edges are a Tier-1 test, not a leaf.  A direct
    F_* - G_* grid is kept as a redundant cross-check.
    """
    sig = Interval(SIGMA, SIGMA)
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
    grid_margins = []
    for b in p_boxes():
        mp = MeasureParams(Interval(b.lo, b.lo))
        grid_margins.append(f_star(sig, mp) - g_star(sig, mp))
    grid = point_check(
        "direct-fstar-gstar-grid",
        imin(grid_margins),
        note="redundant direct evaluation on a p grid",
    )
    return combine(
        "cond1/sign-at-sigma", [at2, basis, grid],
        note=f"sigma = {SIGMA}",
    )


# ---------------------------------------------------------------------------
# small x: F_* - G_* < 0 on (0, rho]
# ---------------------------------------------------------------------------

def d_coefficient(p: Interval, zeta_terms: int = 16) -> Interval:
    """d_p = 2.02 (2/pi)^(p+1) (1 - 2^-(p+1)) zeta(p+1).

    zeta decreases in q = p + 1, so on a p box it lies between the lower
    end of the sum at q = p.hi + 1 and the upper end of the sum at
    q = p.lo + 1.  Each q-end is the tight enclosure of the exact sum, a
    point wherever it is a float (every p-end in [2, 3]), so neighbouring
    boxes share an end sum through zeta_sum's cache, and d2 shares its
    10,000-term sum at q = 3 with the CLI's constants/zeta(3).  At the
    default 16 terms the Euler-Maclaurin tail leaves zeta about 1e-13 wide
    on [3, 4].  Reading p's endpoints has no derivative
    form, so a Jet argument raises DomainError.
    """
    if not isinstance(p, Interval):
        raise DomainError("d_coefficient reads the ends of its p box")
    q = p + 1.0
    two_over_pi = Interval(2.0, 2.0) / PI
    zeta = Interval(
        zeta_sum(Interval.from_fraction(Fraction(p.hi) + 1), zeta_terms).lo,
        zeta_sum(Interval.from_fraction(Fraction(p.lo) + 1), zeta_terms).hi,
    )
    return (
        Interval(2.02, 2.02)
        * pow_real(two_over_pi, q)
        * (Interval(1.0, 1.0) - pow_real(Interval(2.0, 2.0), -q))
        * zeta
    )


def check_cond1_small_x() -> CheckResult:
    """F_* - G_* < 0 on (0, rho]: the per-term bound F_*(x) <= d_p x and the
    comparison d_p x <= G_*(x)."""
    riv = Interval(RHO, RHO)
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
        "cubic-coefficient-room", binom_room, 2.0, 3.0,
        note="2C(p,3) e^3 + 2R <= 2p e^3, so lhs <= 2p(1+e^2) e",
    )
    square_room = point_check(
        "epsilon-square-room",
        Interval(2.00361, 2.00361) - (1.0 + e0 * e0) * 2.0,
        note="2(1+e^2) <= 2.00361 for e <= 0.04248",
    )
    ch_b = combine("taylor-power-bound", [room, square_room])

    # t <= (c/sin c) sin t on [0, c]: m = slope sin t - t is concave, with
    # m(0) = 0 and m(c) = 0 exactly; -m'' = slope sin t = t (slope sin t / t)
    c = Interval(SINE_CUT, SINE_CUT)
    slope = c / c.sin()
    sinc = sin_taylor(6).quotient(1)
    ch_c = concave_nonneg_check(
        "sine-chord-bound",
        lambda t: slope * sinc(t),
        Interval(0.0, 0.0),
        Interval(0.0, 0.0),
        0.0,
        SINE_CUT,
        note="t <= (c/sin c) sin t on [0, c], c = 0.06672; concavity takes "
        "slope sin t / t, the factor t >= 0 taken out",
    )

    # constant chain: 2.00361/(1-eps0^2)^3 <= 2.0145 and 2.0145 c/sin c <= 2.02
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
        "dp-below-line", dp_line_margin, 2.0, 3.0,
        note="d_p <= 0.98 - 0.2115 p on adaptively refined p boxes",
    )

    ch_g = subdivision_check(
        "line-max-1.14",
        lambda p: Interval(1.14, 1.14) - p * (Interval(0.98, 0.98) - Interval(0.2115, 0.2115) * p),
        2.0,
        3.0,
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
            x = Interval(RHO * i / 30.0, RHO * i / 30.0)
            grid_margins.append(g_star(x, mp) - f_star(x, mp))
    ch_grid = point_check(
        "direct-negativity-grid",
        imin(grid_margins),
        note="g_star - f_star > 0 at 30 x points for p in {2, 2.5, 3}",
    )

    return combine(
        "cond1/small-x",
        [ch_a, ch_b, ch_c, ch_d, ch_e, ch_f, ch_g, ch_h, ch_grid],
        note=f"rho = 1/15; chain gives F_* <= d_p x <= (0.98-0.2115p) x <= G_*",
    )


# ---------------------------------------------------------------------------
# reduction to p = 2
# ---------------------------------------------------------------------------


def check_reduction_to_p2() -> CheckResult:
    """Hypothesis (A^3/B^3) ln A >= -ln B of the power-reduction lemma.

    With A^2 = -2 ln cos t / t^2 and B^2 = -2 ln cos t / (pi-t)^2 this becomes
    (pi^3 - 3 pi^2 t + 3 pi t^2) ln(A^2) >= 2 t^3 ln((pi-t)/t), settled by the
    series lower bound for ln(A^2) and a tangent comparison at t0 = 1.
    """
    # (a) A >= 1 from the first series coefficient
    coeff_pos = point_check(
        "series-coefficients-positive",
        Interval.from_fraction(min(LN_COS_COEFFS[:3])),
        note="-2 ln cos t >= t^2 (1 + t^2/6 + 2t^4/45); A^2 >= 1",
    )

    # (b) ln(A^2) >= t^2/6: quadratic ln bound plus positive t^4 coefficient
    t_end = Interval(T_END, T_END)
    x_hi = (t_end**2 / 6.0 + t_end**4 * Fraction(2, 45)).hi
    ln_bound = lemma_ln1p_quadratic(x_hi)

    def t4_coeff(t: Interval) -> Interval:
        inner = Interval.from_fraction(Fraction(1, 6)) + t * t * Fraction(2, 45)
        return Interval.from_fraction(Fraction(2, 45)) - inner * inner * 0.5

    coeff_ok = subdivision_check("t4-coefficient-positive", t4_coeff, 0.0, HALF_PI.hi)

    # (c) pi^3 - 3 pi^2 t + 3 pi t^2 >= 12 t ln((pi-t)/t) via the tangent at 1
    def neg_L_second(t: Interval) -> Interval:
        inv_t = Interval(1.0 / t.hi, INF) if t.lo <= 0.0 else 1.0 / t
        pit = PI - t
        return 1.0 / pit + PI / (pit * pit) + inv_t

    concavity = subdivision_check(
        "t-ln-term-concave", neg_L_second, 0.0, T_END,
        note="-(d^2/dt^2)[t ln((pi-t)/t)] = 1/(pi-t) + pi/(pi-t)^2 + 1/t > 0",
    )
    pim1 = PI - 1.0
    L1 = pim1.ln()
    Lp1 = pim1.ln() - 1.0 / pim1 - 1.0

    def tangent_gap(t: Interval) -> Interval:
        quad = PI**3 - PI**2 * t * 3.0 + PI * t * t * 3.0
        return quad - (L1 + Lp1 * (t - 1.0)) * 12.0

    tangent = subdivision_check("quadratic-above-tangent", tangent_gap, 0.0, T_END)
    quad_pos = point_check(
        "quadratic-positive",
        PI * ((Interval(0.0, T_END) - HALF_PI) ** 2 * 3.0 + PI**2 * 0.25),
        note="pi^3 - 3pi^2 t + 3pi t^2 = pi (3 (t - pi/2)^2 + pi^2/4)",
    )
    return combine(
        "reduction-to-p2",
        [coeff_pos, ln_bound, coeff_ok, concavity, tangent, quad_pos],
    )


# ---------------------------------------------------------------------------
# case 1: polynomial minorants on (0, 1]
# ---------------------------------------------------------------------------

_FR = Fraction
_M2_POLY = poly(1, 0, _FR(1, 3), 0, _FR(7, 60))  # 1 + t^2/3 + 7t^4/60
_M3_POLY = poly(1, 0, _FR(-1, 3), 0, _FR(-1, 40))  # t cot t minorant
_COR_LHS = poly(1, 0, _FR(-1, 3), _FR(1, 40))  # 1 - t^2/3 + t^3/40
_PI5 = poly(1, pi_power=5)
# pi^5 * (1 + t^3/pi^3 + 3 t^4/pi^4 + 6 t^5/pi^5)
_M1_SCALED = {(0, 5): _FR(1), (3, 2): _FR(1), (4, 1): _FR(3), (5, 0): _FR(6)}


def check_case1_polynomials() -> CheckResult:
    """The three minorants of the p = 2 expression and their composition on (0, 1]."""
    children = []

    # (a) 1/t^3 + 1/(pi-t)^3 >= (1/t^3)(1 + t^3/pi^3 + 3t^4/pi^4 + 6t^5/pi^5)
    # reduces exactly to t^3 (10 pi^2 - 15 pi t + 6 t^2) >= 0
    pi_minus_t = {(0, 1): _FR(1), (1, 0): _FR(-1)}
    prod = p_mul(
        {(0, 2): _FR(1), (1, 1): _FR(3), (2, 0): _FR(6)},  # pi^2+3pi t+6t^2
        p_mul(p_mul(pi_minus_t, pi_minus_t), pi_minus_t),  # (pi - t)^3
    )
    reduced = p_sub(_PI5, prod)
    expected = {(3, 2): _FR(10), (4, 1): _FR(-15), (5, 0): _FR(6)}
    if reduced != expected:
        raise AssertionError("geometric-series reduction identity failed")
    children.append(
        subdivision_check(
            "first-factor-minorant",
            p_quotient(reduced, 3),
            0.0,
            1.0,
            note="exact reduction to 10 pi^2 - 15 pi t + 6 t^2 > 0",
        )
    )

    # (b) [-2 ln cos t]^2 >= t^4 (1 + t^2/3 + 7t^4/60): exact square expansion
    m = poly(1, 0, _FR(1, 6), 0, _FR(2, 45))
    leftover = p_sub(p_mul(m, m), _M2_POLY)
    if any(tp < 5 for tp, _ in leftover) or any(c < 0 for c in leftover.values()):
        raise AssertionError("square-expansion identity failed")
    children.append(
        point_check(
            "square-minorant",
            Interval(0.0, Interval.from_fraction(sum(leftover.values())).hi),
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
    # t cos t - M3 sin t; on |t| <= 1, where |M3| <= 1, the remainders
    # t (2/18!) t^18 and M3 (2/19!) t^19 sum to at most (2/18! + 2/19!) t^19
    ct, st = cos_taylor(8), sin_taylor(8)
    d_series = TaylorEnclosure(
        p_mul(poly(0, 1), ct.poly), ct.rem_coeff + st.rem_coeff, 19, 1.0
    )
    children.append(
        subdivision_check(
            "cot-minorant-core",
            d_series.quotient(5, minus=p_mul(st.poly, _M3_POLY)),
            0.0,
            1.0,
            note="(t cos t - sin t (1 - t^2/3 - t^4/40))/t^5 > 0 on (0, 1]",
        )
    )
    children.append(subdivision_check("sin-positive", lambda t: t.sin(), 1e-6, 1.0))

    # (d) proposition: m1 * m3 >= 1 - t^2/3 + t^3/40, scaled by pi^5
    diff = p_sub(p_mul(_M1_SCALED, _M3_POLY), p_mul(_COR_LHS, _PI5))
    children.append(
        subdivision_check(
            "product-inequality",
            p_quotient(diff, 3),
            0.0,
            1.0,
            note="margin scaled by pi^5 and factored by t^3",
        )
    )

    # (e) corollary: (1 - t^2/3 + t^3/40)(1 + t^2/3 + 7t^4/60) >= 1
    children.append(
        subdivision_check(
            "corollary-product",
            p_quotient(p_sub(p_mul(_COR_LHS, _M2_POLY), poly(1)), 3),
            0.0,
            1.0,
            note="verified from the exact expansion, factored by t^3",
        )
    )

    # (f) composition of the three minorants, scaled by pi^5
    comp = p_sub(p_mul(p_mul(_M1_SCALED, _M2_POLY), _M3_POLY), _PI5)
    children.append(
        subdivision_check(
            "three-minorant-composition",
            p_quotient(comp, 3),
            0.0,
            1.0,
            note="(m1 m2 m3 - 1) pi^5 / t^3 > 0 on (0, 1]",
        )
    )
    # positivity side conditions for chaining the minorants
    m3, cor_lhs = p_quotient(_M3_POLY, 0), p_quotient(_COR_LHS, 0)

    def minorants_floor(t: Interval) -> Interval:
        return imin([m3(t), cor_lhs(t)])

    children.append(
        subdivision_check(
            "minorants-positive",
            minorants_floor,
            0.0,
            1.0,
            note="t cot t minorant and corollary factor stay positive",
        )
    )
    return combine("case1-polynomials", children)


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
    children = []

    # s^2 - 3s + 3 - 3 e^{-2s} >= 0 for s > 0 (convexity of f reduces here)
    sq = p_sub(p_mul(poly(3, -3, 1), poly(1, 2, 2)), poly(3))
    if p_shift_div(sq, 1) != poly(3, 1, -4, 2):
        raise AssertionError("case-2 algebraic identity failed")
    children.append(
        point_check(
            "quadratic-floor",
            Interval.from_fraction(_FR(3, 4)),
            note="s^2 - 3s + 3 = (s - 3/2)^2 + 3/4 >= 3/4",
        )
    )
    children.append(
        subdivision_check(
            "exp-minorant",
            exp_taylor(34, a=2).quotient(3, minus=poly(1, 2, 2)),
            0.0,
            3.0,
            note="(e^{2s} - 1 - 2s - 2s^2)/s^3 > 0",
        )
    )
    children.append(
        subdivision_check(
            "cubic-factor",
            p_quotient(poly(3, 1, -4, 2), 0),
            0.0,
            3.0,
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

    return combine("case2-convexity", children)


# ---------------------------------------------------------------------------
# the monotonicity composite
# ---------------------------------------------------------------------------


def check_cond1_monotone() -> CheckResult:
    """F_* - G_* increasing on (rho, 1): the ratio F'/G' stays above 1.

    Children: the endpoint guard, the reduction to p = 2 and the two p = 2
    cases, which together bound the ratio below by 1 for every p in [2, 3].
    """
    a_rho = Interval(RHO, RHO).arccos()
    endpoint = point_check(
        "endpoint-guard",
        Interval(T_END_GUARD, T_END_GUARD) - a_rho,
        note=f"arccos(rho) <= {T_END_GUARD}; checks run to {T_END}",
    )
    reduction = check_reduction_to_p2()
    case1 = check_case1_polynomials()
    case2 = check_case2_convexity()
    return combine("cond1/monotone", [endpoint, reduction, case1, case2])
