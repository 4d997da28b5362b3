"""Generic single-sign-change checker and direct cross-checks.

The distribution-function comparison lemma (Nazarov & Podkorytov) has two
hypotheses: F - G changes sign once, and int (g^s0 - f^s0) d(mu) >= 0 at
s0 = sqrt(2).  np_generic certifies the first for arbitrary enclosures F, G.
check_conclusion_direct encloses the integrals themselves at sample exponents,
independently of the piecewise proofs: its s0 column is the second hypothesis,
its larger s the lemma's conclusion.  At an even integer s the integral is
Haagerup's closed form (haagerup_gap), in no quadrature.  At any other s
(gauss_cos_gap_integrals) it is a near-zero majorant, a series integrated in
closed form, one quadrature of the direct form that ends at 7 pi/2, and the
gaussian and two-sided cos-power tails past it.  check_fp_convergence
compares exact Rademacher moments with their gaussian limit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Callable

from ..distfn import SERIES_K, MeasureParams, derivatives, f_star, g_star, star_difference
from ..interval import EULER_GAMMA, DomainError, Interval, imin, ipoly_eval, poly_mul, pow_real
from ..jet import Jet
from ..polytools import poly
from ..quad import (
    QuadResult,
    cos_power_tail,
    integrate,
    near_zero_bound,
    note_missed,
    tail_bound_mu_p,
)
from ..specfun import LN_COS_COEFFS, SQRT2, b_constant, cos_taylor, gamma_iv, neg_ln_cos_excess
from .engine import (
    bisect_boxes,
    monotone_nonneg_check,
    point_check,
    subdivision_check,
)
from .result import (
    FAILED,
    INCONCLUSIVE,
    PROVED,
    CheckResult,
    combine,
    leaf,
)

FnEnclosure = Callable[[Interval], Interval]

# np_generic's classifier window [Y_LO, Y_HI], and the cell width below
# which a straddling cell is no longer bisected
Y_LO = 1e-3
Y_HI = 0.99
Y_TOL = 1e-5

# the p's at which both hypotheses of the comparison lemma are certified:
# hypothesis 1 by check_np_cos_gauss, hypothesis 2 by check_conclusion_direct
HYPOTHESIS_P = (2.0, 2.5, 2.9)


# ---------------------------------------------------------------------------
# generic NP hypothesis checker
# ---------------------------------------------------------------------------


def np_generic(
    F: FnEnclosure,
    G: FnEnclosure,
    slope: FnEnclosure,
    diff: Callable[[Interval, Interval, Interval], Interval],
    grid: int = 16,
    *,
    name: str = "np-generic",
) -> CheckResult:
    """Certify: F - G <= 0 left of some y0 and >= 0 right of it.

    F and G must be nondecreasing, as distribution functions are: each is
    called only on point intervals, once per distinct point, and on a cell
    X = [a, b] the difference is first enclosed by the monotone hull
    [F(a).lo - G(b).hi, F(b).hi - G(a).lo].  diff(X, F(a), F(b)), given the
    enclosures F returned at X's ends, must enclose {F(x) - G(x) : x in X}
    or raise DomainError, and slope(X) must enclose (F - G)' at every x in
    X.  Where the hull leaves a cell's sign open, it is intersected with
    diff's enclosure, a form that can avoid the hull's
    subtraction of two wide ranges; where that still leaves the sign open,
    or diff raises DomainError, F and G are also evaluated at the cell's
    midpoint m, the point bisection would add, and the enclosure is further
    intersected with the mean-value forms (F(y) - G(y)) + slope(X) (X - y)
    about y = m, a and b (Moore, Kearfott & Cloud, Introduction to Interval
    Analysis, 2009, section 6.4).  So F and G are evaluated at cell
    endpoints and at the midpoints of cells where the slope forms were
    tried.  Endpoint enclosures that certify a decrease, or enclosures with
    no common point, which a wrong diff or slope can give, raise ValueError.

    The difference is classified on a refining partition of [Y_LO, Y_HI],
    bisected by the engine's bisect_boxes; cells straddling the sign change
    shrink below Y_TOL.  A cell is certified negative when its enclosure d
    has d.hi <= 0 and positive when d.lo >= 0, with no tolerance, so
    d = [0, 0] is both.  More than one sign change, or a rightmost cell
    certified negative, fails the check; unresolved cells where the
    nonnegative phase could still lie leave it inconclusive.  Unresolved
    cells between the last negative and the first positive cell (the
    transition gap) pass only when slope over the whole gap is certified
    positive, so that F - G crosses zero at most once there.  The result
    has the one leaf single-sign-change.
    """
    if grid < 16:
        raise ValueError("grid must be >= 16")

    # neighbouring cells share endpoints, and a split cell's midpoint is its
    # children's endpoint; each point is evaluated once
    at_point: dict[float, tuple[Interval, Interval]] = {}

    def endpoint(y: float) -> tuple[Interval, Interval]:
        if y not in at_point:
            pt = Interval(y, y)
            at_point[y] = (F(pt), G(pt))
        return at_point[y]

    def graded(d: Interval) -> tuple[Interval, bool, bool]:
        return d, d.hi <= 0.0, d.lo >= 0.0

    def evaluate(box) -> tuple[Interval, bool, bool]:
        ((a, b),) = box
        (fa, ga), (fb, gb) = endpoint(a), endpoint(b)
        if fa.lo > fb.hi or ga.lo > gb.hi:
            raise ValueError(
                f"F or G decreases on [{a:.17g}, {b:.17g}]; both must be nondecreasing"
            )
        fe, ge = Interval(fa.lo, fb.hi), Interval(ga.lo, gb.hi)
        # identical enclosures satisfy both sign conditions
        if fe == ge:
            return fe - ge, True, True
        d, is_neg, is_pos = graded(fe - ge)
        if is_neg or is_pos:
            return d, is_neg, is_pos
        X = Interval(a, b)
        lo, hi = d.lo, d.hi
        try:
            e = diff(X, fa, fb)
        except DomainError:
            pass
        else:
            lo, hi = max(lo, e.lo), min(hi, e.hi)
            if lo > hi:
                raise ValueError(
                    f"the monotone hull and diff {e} of F - G do not intersect "
                    f"on [{a:.17g}, {b:.17g}]; F, G or diff is unsound"
                )
            d, is_neg, is_pos = graded(Interval(lo, hi))
            if is_neg or is_pos:
                return d, is_neg, is_pos
        m = 0.5 * (a + b)
        fm, gm = endpoint(m)
        s = slope(X)
        for y, fy, gy in ((m, fm, gm), (a, fa, ga), (b, fb, gb)):
            form = (fy - gy) + s * (X - Interval(y, y))
            lo, hi = max(lo, form.lo), min(hi, form.hi)
        if lo > hi:
            raise ValueError(
                f"the monotone hull and the mean-value forms of F - G do not "
                f"intersect on [{a:.17g}, {b:.17g}] (slope {s}); F, G or slope "
                "is unsound"
            )
        return graded(Interval(lo, hi))

    start = [((c.lo, c.hi),) for c in Interval(Y_LO, Y_HI).split(grid)]
    # terminal cells come back left to right
    cells, evals = bisect_boxes(
        start, evaluate, lambda enc: enc[1] or enc[2], min_width=Y_TOL
    )

    # certified-negative cells must all lie left of certified-positive ones;
    # unresolved cells are tolerable only inside the transition gap
    last_neg_end = None
    first_pos_start = None
    verdict = PROVED
    diag = ""
    margins: list[Interval] = []
    straddles: list[tuple[float, float]] = []
    for ((a, b),), (d, is_neg, is_pos) in cells:
        if is_neg and is_pos:
            margins.append(Interval(0.0, 0.0))
        elif is_neg:
            if first_pos_start is not None:
                verdict = FAILED
                diag = f"negative again on [{a:.6g}, {b:.6g}] after the sign change"
                margins.append(d)
                break
            margins.append(-d)
            last_neg_end = b
        elif is_pos:
            if first_pos_start is None:
                first_pos_start = a
            margins.append(d)
        else:
            straddles.append((a, b))
    if verdict is PROVED:
        if first_pos_start is None and last_neg_end is not None:
            # failing needs the rightmost cell certified negative; an
            # unresolved cell right of it may still hold the positive phase
            right = [s for s in straddles if s[0] >= last_neg_end]
            if right:
                verdict = INCONCLUSIVE
                diag = (
                    f"no cell certified positive; {len(right)} cells right of "
                    "the last negative one unresolved"
                )
            else:
                verdict = FAILED
                diag = "difference still negative at the right edge of the window"
        else:
            gap_lo = last_neg_end if last_neg_end is not None else Y_LO
            gap_hi = first_pos_start if first_pos_start is not None else Y_HI
            outside = [s for s in straddles if s[0] < gap_lo or s[1] > gap_hi]
            note = f"one sign change on [{Y_LO:g}, {Y_HI:g}]: y0 in [{gap_lo:.6g}, {gap_hi:.6g}]"
            if outside:
                verdict = INCONCLUSIVE
                diag = f"{len(outside)} cells unresolved outside the transition gap"
            elif straddles:
                # every unresolved cell lies in the gap; F - G crosses zero
                # there at most once if it rises across the whole gap, however
                # wide the budget left its cells
                rise = slope(Interval(gap_lo, gap_hi))
                rise_note = f"(F - G)' in [{rise.lo:.6g}, {rise.hi:.6g}]"
                note += f"; {rise_note} on it"
                # a straddle wider than Y_TOL was cut short by the budget
                cut = [s for s in straddles if s[1] - s[0] > Y_TOL]
                if not rise.lo > 0.0:
                    verdict = INCONCLUSIVE
                    diag = (
                        f"{len(cut)} cells unresolved when the evaluation budget ran out"
                        if cut else
                        f"{len(straddles)} cells unresolved in the transition gap "
                        f"[{gap_lo:.6g}, {gap_hi:.6g}], where {rise_note} is not "
                        "certified positive"
                    )

    hyp1 = leaf(
        "single-sign-change",
        imin(margins or [Interval(0.0, 0.0)]),
        strict=False,
        evaluations=evals,
        note=diag or note,
        verdict=verdict,
    )
    return combine(name, [hyp1], note=hyp1.note)


# ---------------------------------------------------------------------------
# direct conclusion integrals
# ---------------------------------------------------------------------------

# the near-zero cut of the gauss/cos gap integral; its C4 bound is certified
# by _near_zero_children
_GAP_DELTA = 1e-4
_GAP_TARGET = 3.4e-4  # target width of its one quadrature, on [_SERIES_T1, 7 pi/2]
# a series covers [_GAP_DELTA, _SERIES_T1] (_gap_series); its orders (K, N, L),
# N odd and L even, cut -ln cos t - t^2/2 below t^(2K), 1 - e^{-b} below b^N, e^{-a} below a^L
_SERIES_T1 = 0.6
_SERIES_ORDERS = (12, 7, 20)

# (cos t - 1 + t^2/2) / t^4
_COS_QUOT = cos_taylor(6).quotient(4, minus=poly(1, 0, Fraction(-1, 2)))


def _c4(delta: float) -> Interval:
    """C4 = 1/(8 (1 - delta^2/2)), certified by _near_zero_children(delta)."""
    div = Interval(delta, delta)
    return Interval(1.0, 1.0) / ((1.0 - div * div * 0.5) * 8.0)


def _near_zero_children(delta: float) -> list[CheckResult]:
    """Certificates for -ln cos t - t^2/2 <= C4 t^4 on [0, delta], C4 = _c4(delta)."""
    cos_lower = subdivision_check(
        "cos-above-quadratic",
        _COS_QUOT,
        0.0,
        delta,
        note="(cos t - 1 + t^2/2)/t^4 >= 0; cos t >= 1 - t^2/2",
    )
    ln_upper = monotone_nonneg_check(
        "ln-reciprocal-quadratic",
        lambda u: 1.0 / ((1.0 - u) * (1.0 - u) * 2.0),
        Interval(0.0, 0.0),
        0.0,
        (Interval(delta, delta) ** 2 * 0.5).hi,
        increasing_from_left=True,
        note="-ln(1-u) <= u + u^2/(2(1-u)); derivative u^2/(2(1-u)^2), "
        "taken on 1/(2(1-u)^2) with the factor u^2 >= 0 taken out",
    )
    return [cos_lower, ln_upper]


def _memo(fn, memo: dict):
    """fn read through memo by cell argument; a factor that raises
    DomainError is not stored.  quad._cell passes Jet.var(X), the float
    midpoint and the cell's ends as points (each end once per integrate
    call, which keeps them) and, as its fallback, X itself, so a jet's key
    carries a flag that keeps it apart from X's."""

    def read(t):
        key = (t.v.lo, t.v.hi, True) if type(t) is Jet else (t.lo, t.hi)
        if key not in memo:
            memo[key] = fn(t)
        return memo[key]

    return read


@cache
def _excess_powers(k: int, n: int, t1: float) -> tuple[list[list[Interval]], Interval, Interval]:
    """Q^j for 0 < j < n in u = t^2, where u^2 Q = R_K is R = -ln cos t - t^2/2
    below u^k (specfun.LN_COS_COEFFS); with every c_i > 0, Q(u1) and
    (R - R_K)(u1)/u1^k are the largest Q and (R - R_K)/u^k on [0, u1 = t1^2].
    u1 encloses t1^2, which a float can miss."""
    u1 = Interval(t1) * Interval(t1)
    q = [Interval.from_fraction(c) for c in LN_COS_COEFFS[1 : k - 1]]
    powers = [q]
    while len(powers) < n - 1:
        powers.append(poly_mul(powers[-1], q))
    rq = ipoly_eval(q, u1)
    return powers, rq, (neg_ln_cos_excess(Interval(t1)) - rq * u1 * u1) / u1**k


def _gap_series(s: Interval) -> list[tuple[int, Interval]]:
    """Terms (j, c_j) with e^{-s t^2/2} - |cos t|^s in sum_j c_j u^j, u = t^2,
    on [0, t1]; the remainders are terms with c_j = [0, r].

    The integrand is E G, E = e^{-a} with a = s u/2 and G = 1 - e^{-b} with
    b = s R, so the exponentials' difference is never formed: R's c_1 = 1/2
    cancels exactly, and G_p below has the factor u^2.  With (K, N, L) =
    _SERIES_ORDERS, E_p = sum_{i<L} (-a)^i/i! leaves a remainder of sign
    (-1)^L and size at most a^L/L!, and G_p = sum_{0<j<N} -(-b_K)^j/j!,
    b_K = s R_K, one of sign (-1)^(N+1) and size at most b_K^N/N! <=
    (s rq u^2)^N/N!; R's tail adds at most s tau u^K, as G rises in b with
    slope e^{-b} <= 1.  With L even, N odd and b_K <= 2, 0 <= G_p <= s rq u^2
    and 0 < E <= 1, so 0 <= E G - E_p G_p = E (G - G_p) + (E - E_p) G_p.
    """
    k, n, l = _SERIES_ORDERS
    powers, rq, tau = _excess_powers(k, n, _SERIES_T1)
    u1 = Interval(_SERIES_T1) * Interval(_SERIES_T1)
    if not (s * rq * u1 * u1).hi <= 2.0:
        raise DomainError(f"gap series needs s R(t1) <= 2, got s = {s}")
    g = [Interval(0.0, 0.0)] * (len(powers[-1]) + 2 * n - 4)  # G_p / u^2
    for j, qj in enumerate(powers, 1):
        w = s**j * Fraction((-1) ** (j + 1), factorial(j))
        for i, c in enumerate(qj, 2 * j - 2):
            g[i] = g[i] + w * c
    half = s * 0.5
    e = [half**i * Fraction((-1) ** i, factorial(i)) for i in range(l)]
    rems = [(2 * n, (s * rq) ** n * Fraction(1, factorial(n))), (k, s * tau),
            (l + 2, half**l * Fraction(1, factorial(l)) * (s * rq))]
    return [*enumerate(poly_mul(e, g), 2)] + [(j, Interval(0.0, r.hi)) for j, r in rems]


def _gap_series_integral(terms: list[tuple[int, Interval]], p: Interval) -> Interval:
    """int_delta^t1 sum_j c_j t^(2j-p-1) dt over terms (j, c_j), each power in
    closed form: (t1^(2j-p) - delta^(2j-p))/(2j-p), which is > 0."""
    t1, delta = Interval(_SERIES_T1), Interval(_GAP_DELTA)
    total = Interval(0.0, 0.0)
    for j, c in terms:
        e = 2.0 * j - p
        total = total + c * ((pow_real(t1, e) - pow_real(delta, e)) / e)
    return total


def gauss_cos_gap_integrals(
    pairs: list[tuple[Interval, Interval]],
) -> list[tuple[Interval, QuadResult]]:
    """Enclosure of int_0^inf (e^{-s t^2/2} - |cos t|^s) / t^(p+1) dt, and
    the quadrature behind it, for every (p, s) in pairs.

    Near zero, on [0, delta] with delta = 1e-4, the integrand lies in
    [0, s C4 t^(3-p)] with C4 = 1/(8 (1 - delta^2/2)).  On [delta, t1],
    t1 = 0.6, a series in t^2 with one-sided remainders (_gap_series) is
    integrated in closed form, so the exponentials are never subtracted
    where they nearly cancel.  On [t1, T], T the float just above 7 pi/2,
    a zero of cos, one quadrature runs on the direct form, also on a Jet.
    Past T the gaussian tail is the stock majorant and the cos-power tail
    the two-sided quad.cos_power_tail, whose m_s is exact at an even
    integer s and a closed bracket at any other.

    Each integrand is an s-factor times the p-factor t^-(p+1).  The pairs
    share the t-only factors, the s-factor by s and the p-factor by p through
    memos of this call (_memo), and the series coefficients by s; results
    equal one-pair calls' bit for bit.
    """
    if not pairs:
        return []
    # the cos-power tails past 7 pi/2 (k = 3) share the float end T
    tails = [cos_power_tail(s, p, 3) for p, s in pairs]
    T = tails[0][0]
    t_only = _memo(lambda t: (-(t * t), t.cos().abs()), {})
    s_gap = lambda s, t2, c: (t2 * s * 0.5).exp() - pow_real(c, s)
    by_s, by_p, series_by_s, out = {}, {}, {}, []
    for (p, s), (_, cospow) in zip(pairs, tails):
        # integrate runs in this iteration, so the closures see this pair
        s_factor = _memo(lambda t: s_gap(s, *t_only(t)), by_s.setdefault(s, {}))
        minus_p1 = -(p + 1.0)
        p_factor = _memo(lambda t: pow_real(t, minus_p1), by_p.setdefault(p, {}))
        direct = integrate(lambda t: s_factor(t) * p_factor(t), _SERIES_T1, T, _GAP_TARGET)
        if s not in series_by_s:
            series_by_s[s] = _gap_series(s)
        series = _gap_series_integral(series_by_s[s], p)
        near0 = near_zero_bound(s * _c4(_GAP_DELTA), 3.0 - p, _GAP_DELTA)
        gauss = tail_bound_mu_p(s, p, T)
        out.append((near0 + series + direct.value + gauss - cospow, direct))
    return out


def gauss_cos_gap_integral(p: Interval, s: Interval) -> tuple[Interval, QuadResult]:
    """gauss_cos_gap_integrals at the one pair (p, s)."""
    return gauss_cos_gap_integrals([(p, s)])[0]


def _gap_leaf_name(p: float, s: Interval) -> str:
    """The name of check_conclusion_direct's gap-integral leaf at (p, s)."""
    return f"integral-p{p}-s{round(s.lo, 6)}"


def check_conclusion_direct(
    p_grid=HYPOTHESIS_P, s_grid=(SQRT2, 2.0, 4.0, 16.0)
) -> CheckResult:
    """The gap integral int (g^s - f^s) d(mu_p) is nonnegative at every
    sampled (p, s); each s is an Interval or a float.

    At the SQRT2 box it is the comparison lemma's hypothesis 2, and the
    default p_grid, HYPOTHESIS_P, holds the p where check_np_cos_gauss
    certifies hypothesis 1; at larger s it is the lemma's conclusion.  An
    even integer s is enclosed by haagerup_gap, in no cells, so p must lie
    in [2, 3]; every other s by gauss_cos_gap_integrals, and its leaf's
    evaluations are the cells of its quadrature.
    """
    s_grid = [s if isinstance(s, Interval) else Interval(s, s) for s in s_grid]
    if any(s.lo < float(SQRT2.lo) - 1e-12 for s in s_grid):
        raise ValueError("conclusion holds for s >= sqrt(2) only")
    children = _near_zero_children(_GAP_DELTA)
    even = lambda s: s.lo == s.hi and s.lo % 2.0 == 0.0
    grid = [(Interval(p, p), s) for p in p_grid for s in s_grid if not even(s)]
    gaps = iter(gauss_cos_gap_integrals(grid))
    for p in p_grid:
        row = []
        for s in s_grid:
            if even(s):
                enc, cells = haagerup_gap(Interval(p, p), int(s.lo)), 0
                note = ("limit formula, no Gamma" if p == 2.0 else
                        "Haagerup identity; Gamma by Lanczos, whose error bound is empirical")
            else:
                enc, direct = next(gaps)
                cells = direct.cells
                note = note_missed("hypothesis 2, s0 = sqrt(2)" if s == SQRT2 else "", direct)
            row.append(leaf(_gap_leaf_name(p, s), enc, strict=False, evaluations=cells, note=note))
        children.append(combine(f"p-{p}", row))
    return combine("np/conclusion-direct", children)


# ---------------------------------------------------------------------------
# the cosine/gaussian distribution functions fed through the generic checker
# ---------------------------------------------------------------------------


def check_np_cos_gauss(
    p: float, K: int = SERIES_K, grid: int = 16
) -> CheckResult:
    """np_generic on the |cos| and gaussian distribution functions at one p:
    hypothesis 1 of the comparison lemma; check_conclusion_direct holds
    hypothesis 2.  diff is distfn.star_difference on the F_* values that
    np_generic holds at the cell's ends, so it costs no series; on
    x < cos 1.2 it raises DomainError and the slope forms take over."""
    mp = MeasureParams(Interval(p, p))

    def F(x: Interval) -> Interval:
        return f_star(x, mp, K=K)

    def G(x: Interval) -> Interval:
        return g_star(x, mp)

    def diff(x: Interval, fa: Interval, fb: Interval) -> Interval:
        return star_difference(x, mp, fa, fb)

    def slope(x: Interval) -> Interval:
        f_prime, g_prime = derivatives(x, mp, K=K)
        return f_prime - g_prime

    return np_generic(F, G, slope, diff, grid=grid, name=f"np/cos-gauss-p{p}")


# ---------------------------------------------------------------------------
# Haagerup's identity, and the Rademacher moments' convergence to the gaussian
# ---------------------------------------------------------------------------

FP_P = 2.5  # the exponent of the moment-convergence check
FP_S = (4, 16, 64)  # its increasing numbers n of random signs


def rademacher_moment(n: int, p: Interval) -> Interval:
    """E|S_n/sqrt(n)|^p for S_n a sum of n random signs: the binomial sum
    2^(1-n) sum_{j<n/2} C(n, j) |n - 2j|^p / n^(p/2), with exact weights."""
    terms = [
        Interval.from_fraction(Fraction(2 * comb(n, j), 2**n)) * pow_real(Interval(n - 2 * j), p)
        for j in range((n + 1) // 2)
    ]
    return sum(terms, Interval(0.0)) / pow_real(Interval(n), p * 0.5)


def gauss_moment_integral(p: Interval) -> Interval:
    """int_0^inf (t^2/2 - 1 + e^(-t^2/2)) t^(-p-1) dt = 2^(-(p+2)/2) Gamma(-p/2)
    on 2 < p < 4, with Gamma(a) = Gamma(a+3)/(a(a+1)(a+2)) at a = -p/2."""
    a = p * -0.5
    return pow_real(Interval(2.0), a - 1.0) * gamma_iv(a + 3.0) / (a * (a + 1.0) * (a + 2.0))


def haagerup_gap(p: Interval, n: int) -> Interval:
    """H(p, n) = int_0^inf (e^(-n t^2/2) - cos^n t) t^(-p-1) dt at an even
    n, the gap integral of gauss_cos_gap_integrals at s = n, in closed form
    by Haagerup's identity (Haagerup, Studia Math. 70, 1981), for 2 <= p <= 3.

    With K(p) = int_0^inf (cos u - 1 + u^2/2) u^(-p-1) du, finite and > 0 on
    2 < p < 4, u = |x| t gives int_0^inf (cos xt - 1 + x^2 t^2/2) t^(-p-1) dt
    = K(p) |x|^p; the integrand is >= 0, so for a symmetric X with E X^2 = n
    the mean over X is int_0^inf (phi_X(t) - 1 + n t^2/2) t^(-p-1) dt =
    K(p) E|X|^p.  cos^n t is phi_X at X = S_n, a sum of n random signs, and
    e^(-n t^2/2) at X = sqrt(n) Z, Z gaussian, so H = K(p) (n^(p/2) B_p^p -
    E|S_n|^p) with B_p^p = E|Z|^p.  X = Z gives gauss_moment_integral(p) =
    K(p) B_p^p, hence H = n^(p/2) gauss_moment_integral(p) (1 - m_n/B_p^p),
    m_n = rademacher_moment(n, p).

    At p = 2, K has a pole, K(p) = 1/(2(p-2)) + O(1), and the bracket a
    zero, with slope (n/2)(2 - gamma + ln(n/2)) - E[S_n^2 ln|S_n|] in p
    (d/dp E|Z|^p = (2 - gamma - ln 2)/2 there, as psi(3/2) = 2 - gamma -
    2 ln 2).  H is continuous in p, so H(2, n) is the limit
    (n/4)(2 - gamma + ln(n/2)) - E[S_n^2 ln|S_n|]/2, with exact weights and
    no Gamma.  At p > 2, B_p and gauss_moment_integral take Gamma from
    specfun.gamma_iv.
    """
    if p.lo == p.hi == 2.0:
        terms = [Interval.from_fraction(Fraction(comb(n, j) * (n - 2 * j) ** 2, 2 ** (n - 1)))
                 * Interval(n - 2 * j).ln() for j in range(n // 2)]
        mean = sum(terms, Interval(0.0))  # E[S_n^2 ln|S_n|]
        return (2.0 - EULER_GAMMA + Interval(n / 2).ln()) * (n / 4) - mean * 0.5
    ratio = rademacher_moment(n, p) / pow_real(b_constant(p), p)
    return pow_real(Interval(n), p * 0.5) * gauss_moment_integral(p) * (1.0 - ratio)


def check_fp_convergence() -> CheckResult:
    """The Rademacher moments m_n = E|S_n/sqrt(n)|^p rise toward B_p^p.

    By Haagerup's identity I(inf) - I(n) = I(inf) (1 - m_n/B_p^p) for even
    n, where I(n) is int_0^inf (t^2/2 - 1 + |cos(t/sqrt(n))|^n) t^(-p-1) dt
    and I(inf) its gaussian limit; the difference is n^(-p/2) times
    haagerup_gap(p, n), which builds it from the same rademacher_moment and
    b_constant.  So the deviations fall along FP_S as the m_n rise, and the
    last is below I(inf)/100 when m_n >= 0.99 B_p^p.
    """
    piv = Interval(FP_P)
    bpp = pow_real(b_constant(piv), piv)
    m = {n: rademacher_moment(n, piv) for n in FP_S}
    n_last = FP_S[-1]
    lanczos = "Gamma by Lanczos, whose error bound is empirical"
    children = [
        *(point_check(f"deviation-decreasing-{a}-to-{b}", m[b] - m[a],
                      note=f"m_{a} = {m[a]!r} vs m_{b} = {m[b]!r}")
          for a, b in zip(FP_S, FP_S[1:])),
        point_check("final-within-1-percent", m[n_last] - bpp * 0.99,
                    note=f"m_{n_last} = {m[n_last]!r} vs B_p^p = {bpp!r}; {lanczos}"),
    ]
    return combine(f"np/moment-convergence-p{FP_P}", children)
