"""Outward-rounded interval arithmetic kernel.

Every rigorous claim in this package reduces to operations on :class:`Interval`.
The contract for each operation: for all points x, y in the input intervals the
exact real result op(x, y) lies inside the output interval.

Rounding realization: soft outward widening.  Basic arithmetic results are
widened by one ulp per endpoint (float arithmetic is correctly rounded, so the
true endpoint is within half an ulp of the computed one).  Results of libm
elementary functions are widened by ELEM_ULPS ulps; documented worst-case libm
errors for exp/log/sqrt/sin/cos/acos are below 2 ulp on all supported
platforms, and the margin is validated empirically by the point-containment
test suite against 4x-precision references.

An n-ulp widening of an endpoint x is one step, not n ``nextafter`` calls:
with u = ulp(x), the lower end is r = x - n u and the upper end r = x + n u,
kept when ulp(r) == u (and, at the upper end, r != 0); otherwise the
``nextafter`` loop of ``_down_n``/``_up_n`` runs.  The step equals the loop
bit for bit.  The floats whose ulp is u form grids of spacing u: the two
binades +-[2^e, 2^(e+1)) when u > 2^-1074, and when u = 2^-1074 the one grid
(-2^-1021, 2^-1021) of the subnormals, 0 and the least normal binades.  x
lies on one of them, and so does the exact x +- n u whenever it lies between
that grid's ends, so it is representable, r equals it and every ``nextafter``
step in between moves by u.  Past a grid end the exact x +- n u, a multiple
of u, is at least the next power of two in magnitude, which rounding keeps
and whose ulp is at least 2u, or a float of the finer binade below, computed
exactly with ulp u/2; an overflow gives inf and inf - inf gives NaN.  In
each case ulp(r) != u and the loop runs.  At +-inf the accepted step gives
+-inf, as the loop does.  The loop ends at -0.0 where the step gives
x + n u = +0.0 (``nextafter(-2^-1074, inf)`` is -0.0), so an upper end of 0
goes to the loop; a lower end of 0 is +0.0 both ways.

Operator results are built by ``_make`` from endpoints that are already
Python floats, so they skip ``Interval.__init__``'s ``float()`` conversion
but keep its ``lo <= hi`` / NaN check.
"""

from __future__ import annotations

import math
from fractions import Fraction as _Fraction
from typing import Sequence

__all__ = [
    "Interval",
    "IntervalError",
    "DomainError",
    "PI",
    "TWO_PI",
    "HALF_PI",
    "EULER_GAMMA",
    "SQRT2",
    "E",
]

INF = math.inf

# widening applied to every libm-backed elementary function endpoint
ELEM_ULPS = 4

# |arguments| beyond this lose too much precision in trig reduction; enclosures
# fall back to [-1, 1] (still valid).  Quadrature tails keep arguments far below.
TRIG_ARG_LIMIT = 1.0e4

_nextafter = math.nextafter
_ulp = math.ulp
_exp = math.exp
_log = math.log
_ELEM = float(ELEM_ULPS)  # the factor n of the one-step widening x -+ n ulp(x)
_new = object.__new__


class IntervalError(ValueError):
    """Malformed interval construction (lo > hi or NaN endpoint)."""


class DomainError(ValueError):
    """Operand outside the mathematical domain of the operation."""


def _up(x: float) -> float:
    return _nextafter(x, INF)


def _down(x: float) -> float:
    return _nextafter(x, -INF)


def _up_n(x: float, n: int) -> float:
    """x moved n ulps up: the one-step rule, else the nextafter loop."""
    u = _ulp(x)
    r = x + n * u
    if r and _ulp(r) == u:
        return r
    for _ in range(n):
        x = _nextafter(x, INF)
    return x


def _down_n(x: float, n: int) -> float:
    """x moved n ulps down: the one-step rule, else the nextafter loop."""
    u = _ulp(x)
    r = x - n * u
    if _ulp(r) == u:
        return r
    for _ in range(n):
        x = _nextafter(x, -INF)
    return x


def _make(lo: float, hi: float) -> "Interval":
    """Interval from two Python float endpoints (no conversion)."""
    if not lo <= hi:  # also rejects NaN endpoints
        raise IntervalError(f"invalid interval endpoints [{lo!r}, {hi!r}]")
    iv = _new(Interval)
    iv.lo = lo
    iv.hi = hi
    return iv


def _hull4(p1: float, p2: float, p3: float, p4: float) -> "Interval":
    """[min, max] of four corner values, each end moved one ulp outward.

    Ties go to the earlier value, as with the min/max builtins.
    """
    lo = hi = p1
    if p2 < lo:
        lo = p2
    elif p2 > hi:
        hi = p2
    if p3 < lo:
        lo = p3
    elif p3 > hi:
        hi = p3
    if p4 < lo:
        lo = p4
    elif p4 > hi:
        hi = p4
    return _make(_nextafter(lo, -INF), _nextafter(hi, INF))


class Interval:
    """Closed interval [lo, hi] over the extended reals (no NaN, lo <= hi)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:  # also rejects NaN endpoints
            raise IntervalError(f"invalid interval endpoints [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(fr) -> "Interval":
        """Tight enclosure of an exact `fractions.Fraction` (or int)."""
        v = float(fr)  # correctly rounded
        if v == fr:
            return _make(v, v)
        return _make(_down(v), _up(v))

    @staticmethod
    def literal(decimal_string: str) -> "Interval":
        """Enclosure of the exact value of a decimal literal."""
        v = float(decimal_string)  # correctly rounded
        return Interval(_down(v), _up(v))

    @staticmethod
    def hull(*items: "Interval") -> "Interval":
        return Interval(min(i.lo for i in items), max(i.hi for i in items))

    # -- basic queries -----------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        if self.lo == -INF or self.hi == INF:
            raise IntervalError("midpoint of unbounded interval")
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def split(self, n: int) -> list["Interval"]:
        pts = [self.lo + (self.hi - self.lo) * k / n for k in range(n + 1)]
        pts[0], pts[-1] = self.lo, self.hi
        return [Interval(a, b) for a, b in zip(pts, pts[1:])]

    def __repr__(self) -> str:
        return f"[{self.lo:.17g}, {self.hi:.17g}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Interval":
        return _make(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = other if type(other) is Interval else _operand(other)
        if o is NotImplemented:
            return o
        # a float sum that lands exactly on 0.0 is exact (subnormal grid)
        lo = self.lo + o.lo
        hi = self.hi + o.hi
        return _make(
            lo if lo == 0.0 else _nextafter(lo, -INF),
            hi if hi == 0.0 else _nextafter(hi, INF),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = other if type(other) is Interval else _operand(other)
        if o is NotImplemented:
            return o
        lo = self.lo - o.hi
        hi = self.hi - o.lo
        return _make(
            lo if lo == 0.0 else _nextafter(lo, -INF),
            hi if hi == 0.0 else _nextafter(hi, INF),
        )

    def __rsub__(self, other) -> "Interval":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Interval":
        o = other if type(other) is Interval else _operand(other)
        if o is NotImplemented:
            return o
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        p1, p2, p3, p4 = a * c, a * d, b * c, b * d
        if p1 == p1 and p2 == p2 and p3 == p3 and p4 == p4:  # no 0 * inf corner
            return _hull4(p1, p2, p3, p4)
        return _hull4(_prod(a, c), _prod(a, d), _prod(b, c), _prod(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = other if type(other) is Interval else _operand(other)
        if o is NotImplemented:
            return o
        c, d = o.lo, o.hi
        if c <= 0.0 <= d:
            raise DomainError(f"division by interval containing zero: {o}")
        a, b = self.lo, self.hi
        if c == -INF or d == INF:
            return _hull4(_quot(a, c), _quot(a, d), _quot(b, c), _quot(b, d))
        return _hull4(a / c, a / d, b / c, b / d)

    def __rtruediv__(self, other) -> "Interval":
        return _coerce(other).__truediv__(self)

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int):
            raise TypeError("use pow_real for non-integer exponents")
        if n == 0:
            return _make(1.0, 1.0)
        if n < 0:
            return _make(1.0, 1.0) / self.__pow__(-n)
        if n % 2 == 0 and self.lo < 0.0 <= self.hi:
            m = self.mag
            return _make(0.0, _up_n(_ipow(m, n), n))  # even power across zero
        # monotone on each sign; repeated squaring is unnecessary at our sizes
        lo, hi = _ipow(self.lo, n), _ipow(self.hi, n)
        if lo > hi:
            lo, hi = hi, lo
        return _make(_down_n(lo, n), _up_n(hi, n))

    # -- elementary functions ----------------------------------------------

    def exp(self) -> "Interval":
        try:
            lo = math.exp(self.lo)
        except OverflowError:
            lo = INF
        try:
            hi = math.exp(self.hi)
        except OverflowError:
            hi = INF
        u = _ulp(lo)
        r = lo - _ELEM * u
        lo = r if _ulp(r) == u else _down_n(lo, ELEM_ULPS)
        u = _ulp(hi)
        r = hi + _ELEM * u
        hi = r if r and _ulp(r) == u else _up_n(hi, ELEM_ULPS)
        return _make(lo if lo > 0.0 else 0.0, hi)

    def ln(self) -> "Interval":
        if self.lo <= 0.0:
            raise DomainError(f"ln of non-positive interval {self}")
        lo = math.log(self.lo)
        hi = math.log(self.hi)
        u = _ulp(lo)
        r = lo - _ELEM * u
        lo = r if _ulp(r) == u else _down_n(lo, ELEM_ULPS)
        u = _ulp(hi)
        r = hi + _ELEM * u
        hi = r if r and _ulp(r) == u else _up_n(hi, ELEM_ULPS)
        return _make(lo, hi)

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainError(f"sqrt of negative interval {self}")
        # IEEE sqrt is correctly rounded; 1 ulp is already generous
        return _make(max(0.0, _down(math.sqrt(self.lo))), _up(math.sqrt(self.hi)))

    def abs(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return _make(0.0, self.mag)

    def arccos(self) -> "Interval":
        if self.lo < -1.0 or self.hi > 1.0:
            raise DomainError(f"arccos of interval {self} outside [-1, 1]")
        # decreasing on [-1, 1]
        return _make(
            max(0.0, _down_n(math.acos(self.hi), ELEM_ULPS)),
            min(_up_n(math.acos(self.lo), ELEM_ULPS), PI.hi),
        )

    def cos(self) -> "Interval":
        # maxima of cos at 2k*pi, minima at pi + 2k*pi
        return _trig(self, math.cos, _ZERO, PI)

    def sin(self) -> "Interval":
        return _trig(self, math.sin, HALF_PI, _NEG_HALF_PI)


def _trig(a: Interval, fn, peak: Interval, trough: Interval) -> Interval:
    """Enclosure of cos or sin (fn) over `a`; extrema at peak/trough + 2k*pi."""
    lo, hi = a.lo, a.hi
    if abs(lo) > TRIG_ARG_LIMIT or abs(hi) > TRIG_ARG_LIMIT or hi - lo >= TWO_PI.lo:
        return _make(-1.0, 1.0)
    v_lo = v_hi = fn(lo)
    v = fn(hi)
    if v < v_lo:
        v_lo = v
    elif v > v_hi:
        v_hi = v
    u = _ulp(v_lo)
    r = v_lo - _ELEM * u
    v_lo = r if _ulp(r) == u else _down_n(v_lo, ELEM_ULPS)
    u = _ulp(v_hi)
    r = v_hi + _ELEM * u
    v_hi = r if r and _ulp(r) == u else _up_n(v_hi, ELEM_ULPS)
    # over-inclusion of an extremum is sound
    if v_hi > 1.0 or _contains_multiple(a, peak):
        v_hi = 1.0
    if v_lo < -1.0 or _contains_multiple(a, trough):
        v_lo = -1.0
    return _make(v_lo, v_hi)


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if type(x) is float:
        return _make(x, x)
    if isinstance(x, (int, float)):
        return Interval(x, x)
    if isinstance(x, _Fraction):
        return Interval.from_fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an interval")


def _operand(x):
    """_coerce for a binary operator: NotImplemented for a foreign type, so
    Python tries that operand's reflected method (a Jet's, for instance).
    The type test comes first: _coerce's TypeError formats repr(x)."""
    if isinstance(x, (Interval, int, float, _Fraction)):
        return _coerce(x)
    return NotImplemented


def _ipow(x: float, n: int) -> float:
    try:
        return x**n
    except OverflowError:
        return INF if (x > 0 or n % 2 == 0) else -INF


def _prod(a: float, b: float) -> float:
    # 0 * inf arises only from candidate corner products; the correct
    # enclosure corner in that degenerate case is 0
    if (a == 0.0 and math.isinf(b)) or (b == 0.0 and math.isinf(a)):
        return 0.0
    return a * b


def _quot(a: float, b: float) -> float:
    if math.isinf(b):
        # b has uniform sign (0 not in divisor); finite/inf -> 0, and the
        # inf/inf corner is dominated by the finite-divisor corners
        return 0.0
    return a / b


def _contains_multiple(a: Interval, offset: "Interval") -> bool:
    """Conservatively decide whether offset + 2*pi*k meets `a` for integer k.

    Interval arithmetic in the quotient makes the test a possible
    over-inclusion (which only widens trig enclosures), never an omission.
    """
    q = (a - offset) / TWO_PI
    return math.floor(q.hi) >= math.ceil(q.lo)


def pow_real(a: Interval, s: Interval | float) -> Interval:
    """Enclosure of {x**sigma : x in a, sigma in s} for a >= 0.

    Implemented as exp(s * ln a); an interval touching zero requires s > 0 and
    uses the limit 0**sigma = 0.  A Jet argument goes to Jet.pow_real.
    """
    s = s if type(s) is Interval else _coerce(s)
    if type(a) is not Interval:
        return a.pow_real(s)
    if 0.0 < a.lo and a.hi < INF:
        # the endpoints of (s * a.ln()).exp(), carried as floats: ln moves
        # both ends ELEM_ULPS ulps outward; * hulls the four corners and moves
        # each end one ulp outward; exp (an overflow is inf) moves both ends
        # ELEM_ULPS ulps outward and clamps a lower end <= 0 to 0.  The ends
        # of ln a are finite and nonzero (libm's log is 0 only at 1, and the
        # widening moves that off 0), so no corner is 0 * inf.
        l_lo = _log(a.lo)
        l_hi = _log(a.hi)
        u = _ulp(l_lo)
        r = l_lo - _ELEM * u
        l_lo = r if _ulp(r) == u else _down_n(l_lo, ELEM_ULPS)
        u = _ulp(l_hi)
        r = l_hi + _ELEM * u
        l_hi = r if r and _ulp(r) == u else _up_n(l_hi, ELEM_ULPS)
        s_lo, s_hi = s.lo, s.hi
        lo = hi = s_lo * l_lo
        v = s_lo * l_hi
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
        v = s_hi * l_lo
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
        v = s_hi * l_hi
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
        try:
            lo = _exp(_nextafter(lo, -INF))
        except OverflowError:
            lo = INF
        try:
            hi = _exp(_nextafter(hi, INF))
        except OverflowError:
            hi = INF
        u = _ulp(lo)
        r = lo - _ELEM * u
        lo = r if _ulp(r) == u else _down_n(lo, ELEM_ULPS)
        u = _ulp(hi)
        r = hi + _ELEM * u
        hi = r if r and _ulp(r) == u else _up_n(hi, ELEM_ULPS)
        return _make(lo if lo > 0.0 else 0.0, hi)
    if a.lo < 0.0:
        raise DomainError(f"pow_real of interval {a} with negative values")
    if a.lo == 0.0:
        if s.lo <= 0.0:
            raise DomainError("pow_real of interval touching 0 needs s > 0")
        if a.hi == 0.0:
            return _make(0.0, 0.0)
        upper = pow_real(Interval(a.hi, a.hi), s).hi
        return _make(0.0, upper)
    if a.lo == INF:
        raise DomainError("pow_real at +inf")
    lower = pow_real(Interval(a.lo, a.lo), s)
    if s.hi <= 0:
        return Interval.hull(lower, Interval(0.0, lower.hi))
    if s.lo < 0:
        return _make(0.0, INF)  # x**sigma -> 0 as x -> inf for sigma < 0
    return _make(min(lower.lo, 1.0) if s.lo == 0 else lower.lo, INF)


def imin(items: Sequence[Interval]) -> Interval:
    """Enclosure of the pointwise minimum of nonempty items.

    Both ends come from the builtin ``min`` over items in order, so of equal
    ends (0.0 and -0.0) the first one wins.
    """
    return _make(min(i.lo for i in items), min(i.hi for i in items))


def ipoly_eval(coeffs: Sequence[Interval], t: Interval) -> Interval:
    """Interval Horner evaluation of sum_k coeffs[k] * t**k."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * t + c
    return acc


def horner_nonneg(coeffs: Sequence[Interval], x: Interval) -> Interval:
    """Enclosure of sum_k coeffs[k] * x**k for coefficients with lo >= 0.

    For x >= 0 such a polynomial increases in x and in every coefficient, so
    its range over the box is [P(x.lo; lower ends), P(x.hi; upper ends)].  Two
    Horner chains evaluate those corners with the rounding of ``*`` and ``+``:
    each product moved one ulp outward, each sum one ulp unless it is exactly
    0.  A chain endpoint can dip to -5e-324 only through a zero coefficient,
    and multiplying it by x.lo >= 0 keeps it a lower bound.  When every
    coefficient has lo > 0 and x.lo > 0, each step equals the interval step
    ``acc * x + c``, so the result is ``ipoly_eval``'s bit for bit.  An
    argument with x.lo < 0 (t * t at t.lo = 0 has lo = -5e-324) or x.hi = inf
    goes through ``ipoly_eval`` instead.
    """
    xlo, xhi = x.lo, x.hi
    if xlo < 0.0 or xhi == INF:
        return ipoly_eval(coeffs, x)
    lo, hi = coeffs[-1].lo, coeffs[-1].hi
    if lo < 0.0:
        raise DomainError(f"horner_nonneg needs coefficients >= 0, got {coeffs[-1]}")
    for c in coeffs[-2::-1]:
        c_lo = c.lo
        if c_lo < 0.0:
            raise DomainError(f"horner_nonneg needs coefficients >= 0, got {c}")
        lo = _nextafter(lo * xlo, -INF) + c_lo
        hi = _nextafter(hi * xhi, INF) + c.hi
        if lo != 0.0:
            lo = _nextafter(lo, -INF)
        if hi != 0.0:
            hi = _nextafter(hi, INF)
    return _make(lo, hi)


def poly_mul(x: Sequence[Interval], y: Sequence[Interval]) -> list[Interval]:
    """Product of two coefficient lists.

    Bit for bit the loop ``out[i + j] = out[i + j] + x[i] * y[j]`` from
    ``out = [Interval(0.0, 0.0), ...]``, carried on float endpoints: each
    product is the hull of its four corners with each end moved one ulp
    outward (a tie between 0.0 and -0.0 does not matter after that step),
    each sum moves one ulp outward unless it is exactly 0, as in ``+``.  A
    product with a 0 * inf corner is the interval product.  A NaN sum stays
    NaN and raises IntervalError at the end, as the loop raises at once.
    """
    n = len(x) + len(y) - 1
    lo = [0.0] * n
    hi = [0.0] * n
    for i, a in enumerate(x):
        a_lo, a_hi = a.lo, a.hi
        for j, b in enumerate(y, i):
            c, d = b.lo, b.hi
            p_lo = p_hi = a_lo * c
            p2, p3, p4 = a_lo * d, a_hi * c, a_hi * d
            if p_lo == p_lo and p2 == p2 and p3 == p3 and p4 == p4:
                if p2 < p_lo:
                    p_lo = p2
                elif p2 > p_hi:
                    p_hi = p2
                if p3 < p_lo:
                    p_lo = p3
                elif p3 > p_hi:
                    p_hi = p3
                if p4 < p_lo:
                    p_lo = p4
                elif p4 > p_hi:
                    p_hi = p4
                p_lo = _nextafter(p_lo, -INF)
                p_hi = _nextafter(p_hi, INF)
            else:
                q = a * b
                p_lo, p_hi = q.lo, q.hi
            v = lo[j] + p_lo
            lo[j] = v if v == 0.0 else _nextafter(v, -INF)
            v = hi[j] + p_hi
            hi[j] = v if v == 0.0 else _nextafter(v, INF)
    return [_make(v, w) for v, w in zip(lo, hi)]


def exp_sum(
    s: Interval, x_lo: Sequence[float], x_hi: Sequence[float], acc: Interval
) -> Interval:
    """Enclosure of acc + sum_k exp(s * X_k), X_k = [x_lo[k], x_hi[k]], for
    s.hi <= 0 < x_lo[k].

    Bit for bit the loop ``acc = acc + (s * X_k).exp()``.  Under these signs
    the corners of s * X_k are ordered: s.lo * x_hi[k] is the least and
    s.hi * x_lo[k] the greatest, and rounding is monotone, so ``*`` keeps
    exactly those two (a 0 * inf corner counts as 0) and moves each one ulp
    outward; a tie between 0.0 and -0.0 does not matter after that step.
    The product's upper end is at most 5e-324, so ``exp`` cannot overflow;
    both ends move ELEM_ULPS ulps outward and a lower end <= 0 becomes 0.
    Each sum moves one ulp outward unless it is exactly 0, as in ``+``.
    Only the endpoints are carried, so no intermediate Interval is built.
    """
    s_lo, s_hi = s.lo, s.hi
    if s_hi > 0.0:
        raise DomainError(f"exp_sum needs s <= 0, got {s}")
    lo, hi = acc.lo, acc.hi
    for xl, xh in zip(x_lo, x_hi):
        if not xl > 0.0:
            raise DomainError(f"exp_sum needs x > 0, got [{xl!r}, {xh!r}]")
        a = s_lo * xh
        b = s_hi * xl
        if a != a:  # 0 * inf
            a = 0.0
        if b != b:
            b = 0.0
        t_lo = _exp(_nextafter(a, -INF))
        t_hi = _exp(_nextafter(b, INF))
        u = _ulp(t_lo)
        r = t_lo - _ELEM * u
        t_lo = r if _ulp(r) == u else _down_n(t_lo, ELEM_ULPS)
        u = _ulp(t_hi)
        r = t_hi + _ELEM * u
        t_hi = r if r and _ulp(r) == u else _up_n(t_hi, ELEM_ULPS)
        lo += t_lo if t_lo > 0.0 else 0.0  # -0.0 + 0.0 is 0.0, as in ``+``
        hi += t_hi
        if lo != 0.0:
            lo = _nextafter(lo, -INF)
        if hi != 0.0:
            hi = _nextafter(hi, INF)
    return _make(lo, hi)


def ln_ints(a: int, b: int) -> tuple[list[float], list[float]]:
    """The ends of ``Interval(k, k).ln()`` for the integers a <= k < b
    (a >= 1), bit for bit, as two lists: the lower and the upper ends."""
    lows: list[float] = []
    highs: list[float] = []
    for k in range(a, b):
        v = _log(float(k))
        u = _ulp(v)
        r = v - _ELEM * u
        lows.append(r if _ulp(r) == u else _down_n(v, ELEM_ULPS))
        r = v + _ELEM * u
        highs.append(r if r and _ulp(r) == u else _up_n(v, ELEM_ULPS))
    return lows, highs


# -- constants (two-ulp windows around correctly rounded literals) ----------

_ZERO = Interval(0.0, 0.0)
PI = Interval.literal("3.14159265358979323846264338327950288")
TWO_PI = Interval.literal("6.28318530717958647692528676655900577")
HALF_PI = Interval.literal("1.57079632679489661923132169163975144")
_NEG_HALF_PI = -HALF_PI
EULER_GAMMA = Interval.literal("0.57721566490153286060651209008240243")
SQRT2 = Interval.literal("1.41421356237309504880168872420969808")
E = Interval.literal("2.71828182845904523536028747135266250")
