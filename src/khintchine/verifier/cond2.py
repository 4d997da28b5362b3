"""Checks for the integral condition (second NP hypothesis): H(p) >= 0 on [2,3].

H(p) is the integral of (exp(-t^2/sqrt2) - |cos t|^sqrt2) / t^(p+1); it is
nonnegative because H(2) >= 0 and H'(p) >= 0.  Both are certified from
explicit piece bounds.  Where a piece has a closed form the proof takes it:
I1 of H' by si, J of H' by int (t-1)/t^3 = 1/(2t^2) - 1/t and
int (t-1)^2/t^3 = ln t + 2/t - 1/(2t^2), H(2)'s four pieces by exp, Ei and
ci.  The two quadratures left, H''s [0, 1] piece and I2, are pieces whose
primitives need erf and erfc, which specfun does not have.  The closed
forms' derivations are checked in
tests/test_identities.py and their transcriptions against mpmath in
tests/test_verifier_cond2.py, not by the certificate.

Constant repairs (each cross-checked against high-precision references and
recorded in the project notes): the lambda-side tail constant is 0.0433
(1.75 * int cos^2/t^4 = 0.0433640, so the printed 0.043369 is not a valid
lower bound); the gaussian piece of H(2) is bounded below by 0.29586 (true
value 0.2958653); the second quadratic cosine majorant uses -0.0439 (with
-0.04399 the majorant dips below x^sqrt2 near x = sqrt2/2).
"""

from __future__ import annotations

from fractions import Fraction

from ..interval import E as EULER_E
from ..interval import HALF_PI, PI, SQRT2, Interval, imin, pow_real
from ..quad import integrate, note_missed, tail_bound_mu_p
from ..specfun import LN_COS_COEFFS, ci, ei_neg, si
from .cond1 import P_BOXES, p_boxes
from .engine import (
    lemma_exp_affine,
    lemma_log_le_affine,
    lemma_neg_log_affine,
    lemma_one_minus_exp_quadratic,
    point_check,
    subdivision_check,
)
from .result import CheckResult, combine

# certified replacement for the printed 0.043369 (see module docstring)
LAMBDA_TAIL_CONST = 0.0433
LAMBDA_TAIL_CONST_PRINTED = 0.043369
GAUSS_PIECE_FLOOR = 0.29586
GAUSS_PIECE_FLOOR_PRINTED = 0.29587
QUAD_MAJORANT_SHIFT = -0.0439
QUAD_MAJORANT_SHIFT_PRINTED = -0.04399

_FR = Fraction

_SQRT2_M1 = SQRT2 - 1.0  # quadratic coefficient of both cosine-power majorants
_TWO_M_SQRT2 = 2.0 - SQRT2
_INV_6_SQRT2 = Interval(1.0, 1.0) / (SQRT2 * 6.0)  # = sqrt2/12
_TWO_OVER_PI = Interval(2.0, 2.0) / PI


def _exp_gauss(t: Interval) -> Interval:
    return (-(t * t) / SQRT2).exp()


def _cos_majorant_chain() -> CheckResult:
    return point_check(
        "cosine-majorant-series",
        Interval.from_fraction(min(LN_COS_COEFFS)),
        note="positive series coefficients give |cos t|^s <= exp(-s sum c_k t^2k)",
    )


# ---------------------------------------------------------------------------
# H'(p) >= 0
# ---------------------------------------------------------------------------


def check_cond2_hprime() -> CheckResult:
    """H'(p) >= 0 on [2, 3] from the three interval pieces.

    [0,1]: integrand bounded below by (1-t) e^{-t^2/sqrt2}(t/(6 sqrt2)-t^5/144),
    whose integral exceeds 0.0153, by quadrature.  [1, pi/2]: bounded below
    by -J, where J uses the secant majorant e(1) + b (t - 1) of the gaussian
    factor e(t) = e^{-t^2/sqrt2} and step minorants c of the cosine power
    (|cos 1.2|^sqrt2 on [1, 1.2], |cos 1.4|^sqrt2 on [1.2, 1.4], 0 on
    [1.4, pi/2]); J <= 0.0147.  Each step's integrand
    (t - 1)(a + b (t - 1))/t^3, a = e(1) - c, is rational, and

        int (t - 1)/t^3 = 1/(2t^2) - 1/t,
        int (t - 1)^2/t^3 = ln t + 2/t - 1/(2t^2)

    give J in closed form.  [pi/2, inf): bounded below by
    lambda_p I1 - Lambda_p I2 > 0, I2 = int e^{-t^2/sqrt2}/t^2 by quadrature
    and I1 = int_{pi/2}^inf cos^2 t/t^4 dt in closed form.  With
    cos^2 t = (1 + cos 2t)/2 and u = 2t, I1 = 4/(3 pi^3) + 4 int_pi^inf cos u/u^4,
    and three integrations by parts, where sin pi = 0 and cos pi = -1, give

        int_pi^inf cos u/u^4 = -1/(3 pi^3) - (1/3) int_pi^inf sin u/u^3,
        int_pi^inf sin u/u^3 = (1/2) int_pi^inf cos u/u^2,
        int_pi^inf cos u/u^2 = -1/pi + si(pi),

    so I1 = (2/3)(1/pi - si(pi)), si(x) = Si(x) - pi/2 (DLMF 6.2).  The
    [0, 1] piece and I2 stay quadratures: their primitives need erf and
    erfc.  The tail comparison and the net bound run on the P_BOXES p boxes,
    and each quadrature has its own fixed target width.  Every integrand also
    runs on a Jet.
    """
    # -- piece [0, 1] ---------------------------------------------------
    c144 = Interval.from_fraction(_FR(1, 144))

    def minorant_a(t: Interval) -> Interval:
        poly = t * _INV_6_SQRT2 - (t**5) * c144
        return (1.0 - t) * _exp_gauss(t) * poly

    qa = integrate(minorant_a, 0.0, 1.0, 2e-5)
    piece_a_val = qa.value
    piece_a = combine(
        "piece-near-0",
        [
            _cos_majorant_chain(),
            lemma_one_minus_exp_quadratic(0.12, name="one-minus-exp-on-[0,0.12]"),
            lemma_neg_log_affine(),
            subdivision_check(
                "minorant-polynomial-nonneg",
                lambda t: _INV_6_SQRT2 - (t**4) * c144,
                0.0,
                1.0,
                note="t/(6 sqrt2) - t^5/144 = t (1/(6 sqrt2) - t^4/144) >= 0",
            ),
            point_check(
                "integral-above-0.0153",
                piece_a_val - 0.0153,
                note=note_missed(
                    f"enclosure {piece_a_val!r} via {qa.cells} quadrature cells", qa
                ),
            ),
        ],
        note="b = t^4/(6 sqrt2); b - b^2/2 with b^2/2 = t^8/144 exactly",
    )

    # -- piece [1, pi/2] --------------------------------------------------
    e_at_1 = _exp_gauss(Interval(1.0, 1.0))
    e_at_hp = _exp_gauss(HALF_PI)
    slope = (e_at_hp - e_at_1) / (HALF_PI - 1.0)

    def secant(t: Interval) -> Interval:
        return e_at_1 + slope * (t - 1.0)

    def primitive(x: float, c: Interval | float) -> Interval:
        """Antiderivative of (t - 1)(secant(t) - c)/t^3 at t = x."""
        t = Interval(x, x)
        r, half_r2 = 1.0 / t, 0.5 / (t * t)
        return slope * (t.ln() + r * 2.0 - half_r2) + (e_at_1 - c) * (half_r2 - r)

    s12 = pow_real(Interval(1.2, 1.2).cos(), SQRT2)
    s14 = pow_real(Interval(1.4, 1.4).cos(), SQRT2)
    ends, steps = (1.0, 1.2, 1.4, HALF_PI.hi), (s12, s14, 0.0)
    J = sum(primitive(b, c) - primitive(a, c) for a, b, c in zip(ends, ends[1:], steps))
    piece_b = combine(
        "piece-middle",
        [
            lemma_log_le_affine(HALF_PI.hi),
            subdivision_check(
                "gauss-factor-convex",
                lambda t: t * t * 2.0 - SQRT2,
                1.0,
                HALF_PI.hi,
                note="(e^{-t^2/sqrt2})'' has sign 2t^2 - sqrt2; secant dominates",
            ),
            subdivision_check(
                "cos-decreasing-here",
                lambda t: t.sin(),
                1.0,
                HALF_PI.hi,
                note="sin > 0 so the step minorants of |cos t|^sqrt2 are valid",
            ),
            point_check(
                "secant-steps-ordered",
                imin([secant(Interval(1.0, 1.2)) - s12,
                      secant(Interval(1.2, 1.4)) - s14]),
                note="secant majorant stays above the step minorants",
            ),
            point_check(
                "J-below-0.0147",
                Interval(0.0147, 0.0147) - J,
                note=f"J enclosure {J!r} by the rational primitive",
            ),
        ],
        note="middle piece of H' is bounded below by -J",
    )

    # -- tail piece [pi/2, inf) ------------------------------------------
    lemma_511 = combine(
        "log-weight-lower",
        [
            point_check(
                "increasing-in-t",
                (Interval(0.0, 1.0) * Interval(HALF_PI.lo, float("inf")).ln())
                + 1.0,
                note="(ln t) t^(3-p) increases on [pi/2, inf) for p <= 3",
            ),
            point_check(
                "anchor",
                HALF_PI.ln() * HALF_PI**3 - 1.75,
                note="ln(pi/2)(pi/2)^3 = 1.75024 >= 1.75",
            ),
        ],
        note="ln t / t^(p+1) >= 1.75 (2/pi)^p / t^4 on [pi/2, inf)",
    )
    lemma_512 = combine(
        "log-weight-upper",
        [
            lemma_exp_affine(),
            point_check(
                "substitution-positive",
                Interval(HALF_PI.lo, HALF_PI.lo).ln(),
                note="v = (p-1) ln t > 0 on the domain; e v <= e^v applies",
            ),
        ],
        note="ln t / t^(p+1) <= 1/(e (p-1) t^2), max at t = e^(1/(p-1))",
    )

    I1 = (1.0 / PI - si(PI)) * 2.0 / 3.0
    i1_child = point_check(
        "cos-integral-floor",
        I1 * 1.75 - LAMBDA_TAIL_CONST,
        note=f"1.75 I1 = {(I1 * 1.75)!r} with I1 = (2/3)(1/pi - si(pi)); printed "
        "0.043369 exceeds the true value 0.0433640 and is repaired to 0.0433",
    )

    q2 = integrate(lambda t: _exp_gauss(t) / (t * t), HALF_PI.lo, 8.0, 1e-6)
    I2 = q2.value + tail_bound_mu_p(SQRT2, Interval(1.0, 1.0), 8.0)
    i2_child = point_check(
        "gauss-integral-ceiling",
        EULER_E * 0.00705 - I2,
        note=note_missed(f"I2 = {I2!r} <= 0.00705 e; margin is a few 1e-6", q2),
    )

    boxes = p_boxes()
    cmp_used = point_check(
        "tail-comparison-certified-constant",
        imin([(b - 1.0) * pow_real(_TWO_OVER_PI, b) * LAMBDA_TAIL_CONST - 0.00705
              for b in boxes]),
        note=f"0.0433 (2/pi)^p >= 0.00705/(p-1) on {P_BOXES} p boxes",
    )
    cos_power_vs_square = point_check(
        "cos-power-dominates-square",
        _TWO_M_SQRT2,
        note="|cos|^sqrt2 >= cos^2 since |cos| <= 1",
    )
    tail_piece = combine(
        "piece-tail",
        [lemma_511, lemma_512, i1_child, i2_child, cos_power_vs_square, cmp_used],
    )

    # -- net over p boxes -------------------------------------------------
    nets = []
    for b in boxes:
        lam = pow_real(_TWO_OVER_PI, b) * 1.75
        Lam = Interval(1.0, 1.0) / (EULER_E * (b - 1.0))
        nets.append(piece_a_val - J + lam * I1 - Lam * I2)
    net = point_check(
        "net-lower-bound",
        imin(nets),
        note=note_missed(
            "piece_a - J + lambda_p I1 - Lambda_p I2 over the p boxes",
            qa, q2,
        ),
    )
    return combine(
        "cond2/hprime", [piece_a, piece_b, tail_piece, net]
    )


# ---------------------------------------------------------------------------
# H(2) >= 0
# ---------------------------------------------------------------------------


def _F23(t: Interval) -> Interval:
    """Antiderivative of cos^2 t / t^3 that vanishes at +infinity."""
    tt = t * 2.0
    return (
        -(tt.cos()) / (t * t) + tt.sin() * 2.0 / t - ci(tt) * 4.0 - 1.0 / (t * t)
    ) * 0.25


def _Fc(t: Interval) -> Interval:
    """Antiderivative of cos t / t^3 that vanishes at +infinity."""
    return (-(t.cos()) / (t * t) + t.sin() / t - ci(t)) * 0.5


def _inv_sq_half(t: Interval) -> Interval:
    """Antiderivative of 1/t^3 (equals -1/(2 t^2))."""
    return Interval(-1.0, -1.0) / (t * t * 2.0)


def lemma52_piece2_margin(gamma: float) -> CheckResult:
    """Subdivision margin of (sqrt2-1)x^2 + 0.6355x + gamma - x^sqrt2 on
    [0.25, sqrt2/2]; exposed so the printed constant can be shown to fail."""
    def margin(x: Interval) -> Interval:
        return _SQRT2_M1 * x * x + x * 0.6355 + gamma - pow_real(x, SQRT2)

    return subdivision_check(
        "quad-majorant-high",
        margin,
        0.25,
        float((SQRT2 / 2.0).hi),
        note=f"second cosine-power majorant with shift {gamma}",
    )


def _lemma52_piece1() -> CheckResult:
    """(sqrt2-1)x^2 + (2-sqrt2-0.126)x >= x^sqrt2 on [0, 0.25]."""
    def f0(x: Interval) -> Interval:
        return _SQRT2_M1 * x * x + _TWO_M_SQRT2 * x - pow_real(x, SQRT2)

    concavity = subdivision_check(
        "concave-on-piece",
        lambda x: SQRT2 / 2.0 - pow_real(x, _TWO_M_SQRT2),
        0.0,
        0.25,
        note="f0'' = (sqrt2-1)(2 - sqrt2 x^(sqrt2-2)) < 0 iff x^(2-sqrt2) < sqrt2/2",
    )
    anchor = point_check(
        "chord-slope-room",
        f0(Interval(0.25, 0.25)) - 0.126 * 0.25,
        note="f0(1/4) = 0.0315492 >= 0.126/4; concavity pushes f0 above the chord",
    )
    origin = point_check(
        "origin-value", Interval(0.0, 0.0), strict=False,
        note="f0(0) = 0 exactly: each term carries a factor x",
    )

    def quotient(x: Interval) -> Interval:
        return _SQRT2_M1 * x + (_TWO_M_SQRT2 - 0.126) - pow_real(x, _SQRT2_M1)

    direct = subdivision_check(
        "direct-quotient", quotient, 0.0, 0.25,
        note="((sqrt2-1)x^2 + (2-sqrt2-0.126)x - x^sqrt2)/x on (0, 1/4]",
    )
    return combine("quad-majorant-low", [concavity, anchor, origin, direct])


def check_cond2_h2() -> CheckResult:
    """H(2) >= 0 from the four pieces A + B - C - D.

    A: closed-form lower bound of the [0, pi/4] integral (>= 0.03129).
    B: exact gaussian integral over [pi/4, inf) via Ei (>= 0.29586).
    C: quadratic cosine-power majorants integrated by ci primitives (<= 0.2577).
    D: Hoelder bound of the cosine tail (<= 0.0667).

    Every piece is a closed form; the certificate runs no quadrature.
    """
    quarter_pi = PI * 0.25
    qp_sq = quarter_pi * quarter_pi

    # -- piece A ----------------------------------------------------------
    c2 = SQRT2 / 45.0 - qp_sq * (_INV_6_SQRT2 + SQRT2 / 45.0 * qp_sq) ** 2 * 0.5
    U = qp_sq / SQRT2
    eU = (-U).exp()
    a_closed = (1.0 - eU) * _FR(1, 12) + c2 * (1.0 - (U + 1.0) * eU)
    piece_a = combine(
        "piece-A",
        [
            _cos_majorant_chain(),
            lemma_one_minus_exp_quadratic(0.06, name="one-minus-exp-on-[0,0.06]"),
            point_check(
                "sixth-order-coefficient",
                c2,
                note="sqrt2/45 - (pi/4)^2 (sqrt2/12 + sqrt2 (pi/4)^2/45)^2 / 2 > 0",
            ),
            point_check(
                "closed-form-floor",
                a_closed - 0.03129,
                note=f"A = {a_closed!r}; margin is about 5e-8",
            ),
        ],
        note="substitution u = t^2/sqrt2 reduces the minorant to e^-u(a'+b'u)",
    )

    # -- piece B ----------------------------------------------------------
    b_exact = eU / (qp_sq * 2.0) + ei_neg(-U) / (SQRT2 * 2.0)
    piece_b = point_check(
        "piece-B",
        b_exact - GAUSS_PIECE_FLOOR,
        note=(
            "int_a^inf e^{-t^2/sqrt2}/t^3 = e^{-a^2/sqrt2}/(2a^2) + Ei(-a^2/sqrt2)/(2 sqrt2) "
            f"= {b_exact!r}; true value 0.2958653 sits below the printed 0.29587, "
            "floor repaired to 0.29586"
        ),
    )

    # -- piece C ----------------------------------------------------------
    aq = _SQRT2_M1
    b1 = _TWO_M_SQRT2 - 0.126
    b2 = 0.6355
    gam = QUAD_MAJORANT_SHIFT
    t1 = Interval(0.25, 0.25).arccos()
    t2 = PI - t1
    three_qpi = PI * 0.75

    lemma_piece1 = _lemma52_piece1()
    lemma_piece2 = lemma52_piece2_margin(gam)

    def segment(lo, hi, b, shift=None):
        """int_lo^hi (aq cos^2 t + b cos t + shift) / t^3 dt by the primitives."""
        seg = (_F23(hi) - _F23(lo)) * aq + (_Fc(hi) - _Fc(lo)) * b
        if shift is None:
            return seg
        return seg + (_inv_sq_half(hi) - _inv_sq_half(lo)) * shift

    c_total = (
        segment(quarter_pi, t1, b2, gam)
        + segment(t1, HALF_PI, b1)
        + segment(HALF_PI, t2, -b1)
        + segment(t2, three_qpi, -b2, gam)
    )

    piece_c = combine(
        "piece-C",
        [
            lemma_piece1,
            lemma_piece2,
            point_check(
                "majorant-integral-ceiling",
                Interval(0.2577, 0.2577) - c_total,
                note=f"C = {c_total!r} via the ci primitives",
            ),
        ],
        note="second majorant shift repaired to -0.0439 (printed -0.04399 fails)",
    )

    # -- piece D ----------------------------------------------------------
    muX = Interval(1.0, 1.0) / (three_qpi * three_qpi * 2.0)
    S = -_F23(three_qpi)
    d_bound = pow_real(muX, 1.0 - SQRT2 * 0.5) * pow_real(S, SQRT2 * 0.5)
    piece_d = combine(
        "piece-D",
        [
            point_check("cos-square-tail-positive", S),
            point_check(
                "hoelder-ceiling",
                Interval(0.0667, 0.0667) - d_bound,
                note=f"D bound = {d_bound!r} = mu(X)^(1-s/2) (int cos^2 dmu)^(s/2)",
            ),
        ],
        note="Hoelder on ((3pi/4, inf), dt/t^3) with s = sqrt2",
    )

    net = point_check(
        "net-margin",
        a_closed + b_exact - c_total - d_bound,
        note="A + B - C - D; about 0.0030 with the repaired constants "
        "(the printed summands give 0.0026)",
    )
    return combine(
        "cond2/h2", [piece_a, piece_b, piece_c, piece_d, net]
    )
