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
"""

from __future__ import annotations

import math
from fractions import Fraction as _Fraction

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


class IntervalError(ValueError):
    """Malformed interval construction (lo > hi or NaN endpoint)."""


class DomainError(ValueError):
    """Operand outside the mathematical domain of the operation."""


def _up(x: float) -> float:
    return math.nextafter(x, INF)


def _down(x: float) -> float:
    return math.nextafter(x, -INF)


def _up_n(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, INF)
    return x


def _down_n(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, -INF)
    return x


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
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def from_fraction(fr) -> "Interval":
        """Tight enclosure of an exact `fractions.Fraction` (or int)."""
        v = float(fr)  # correctly rounded
        if v == fr:
            return Interval(v, v)
        return Interval(_down(v), _up(v))

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
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = _coerce(other)
        # a float sum that lands exactly on 0.0 is exact (subnormal grid)
        lo = self.lo + o.lo
        hi = self.hi + o.hi
        return Interval(lo if lo == 0.0 else _down(lo), hi if hi == 0.0 else _up(hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = _coerce(other)
        lo = self.lo - o.hi
        hi = self.hi - o.lo
        return Interval(lo if lo == 0.0 else _down(lo), hi if hi == 0.0 else _up(hi))

    def __rsub__(self, other) -> "Interval":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Interval":
        o = _coerce(other)
        p = (
            _prod(self.lo, o.lo),
            _prod(self.lo, o.hi),
            _prod(self.hi, o.lo),
            _prod(self.hi, o.hi),
        )
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = _coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise DomainError(f"division by interval containing zero: {o}")
        q = (
            _quot(self.lo, o.lo),
            _quot(self.lo, o.hi),
            _quot(self.hi, o.lo),
            _quot(self.hi, o.hi),
        )
        return Interval(_down(min(q)), _up(max(q)))

    def __rtruediv__(self, other) -> "Interval":
        return _coerce(other).__truediv__(self)

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int):
            raise TypeError("use pow_real for non-integer exponents")
        if n == 0:
            return Interval(1.0, 1.0)
        if n < 0:
            return Interval(1.0, 1.0) / self.__pow__(-n)
        if n % 2 == 0 and self.lo < 0.0 <= self.hi:
            m = self.mag
            return Interval(0.0, _up_n(_ipow(m, n), n))  # even power across zero
        # monotone on each sign; repeated squaring is unnecessary at our sizes
        lo, hi = _ipow(self.lo, n), _ipow(self.hi, n)
        if lo > hi:
            lo, hi = hi, lo
        return Interval(_down_n(lo, n), _up_n(hi, n))

    # -- elementary functions ----------------------------------------------

    def exp(self) -> "Interval":
        return Interval(
            max(0.0, _down_n(_safe_exp(self.lo), ELEM_ULPS)),
            _up_n(_safe_exp(self.hi), ELEM_ULPS),
        )

    def ln(self) -> "Interval":
        if self.lo <= 0.0:
            raise DomainError(f"ln of non-positive interval {self}")
        return Interval(
            _down_n(math.log(self.lo), ELEM_ULPS),
            _up_n(math.log(self.hi), ELEM_ULPS),
        )

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainError(f"sqrt of negative interval {self}")
        # IEEE sqrt is correctly rounded; 1 ulp is already generous
        return Interval(max(0.0, _down(math.sqrt(self.lo))), _up(math.sqrt(self.hi)))

    def abs(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, self.mag)

    def arccos(self) -> "Interval":
        if self.lo < -1.0 or self.hi > 1.0:
            raise DomainError(f"arccos of interval {self} outside [-1, 1]")
        # decreasing on [-1, 1]
        return Interval(
            max(0.0, _down_n(math.acos(self.hi), ELEM_ULPS)),
            min(_up_n(math.acos(self.lo), ELEM_ULPS), PI.hi),
        )

    def cos(self) -> "Interval":
        if self.mag > TRIG_ARG_LIMIT or self.width >= TWO_PI.lo:
            return Interval(-1.0, 1.0)
        c1, c2 = math.cos(self.lo), math.cos(self.hi)
        lo_v = _down_n(min(c1, c2), ELEM_ULPS)
        hi_v = _up_n(max(c1, c2), ELEM_ULPS)
        # maxima of cos at 2k*pi, minima at pi + 2k*pi; over-inclusion is sound
        if _contains_multiple(self, _ZERO):
            hi_v = 1.0
        if _contains_multiple(self, PI):
            lo_v = -1.0
        return Interval(max(lo_v, -1.0), min(hi_v, 1.0))

    def sin(self) -> "Interval":
        if self.mag > TRIG_ARG_LIMIT or self.width >= TWO_PI.lo:
            return Interval(-1.0, 1.0)
        s1, s2 = math.sin(self.lo), math.sin(self.hi)
        lo_v = _down_n(min(s1, s2), ELEM_ULPS)
        hi_v = _up_n(max(s1, s2), ELEM_ULPS)
        if _contains_multiple(self, HALF_PI):
            hi_v = 1.0
        if _contains_multiple(self, -HALF_PI):
            lo_v = -1.0
        return Interval(max(lo_v, -1.0), min(hi_v, 1.0))


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, float)):
        return Interval(x, x)
    if isinstance(x, _Fraction):
        return Interval.from_fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an interval")


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return INF


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
    uses the limit 0**sigma = 0.
    """
    s = _coerce(s)
    if a.lo < 0.0:
        raise DomainError(f"pow_real of interval {a} with negative values")
    if a.lo == 0.0:
        if s.lo <= 0.0:
            raise DomainError("pow_real of interval touching 0 needs s > 0")
        if a.hi == 0.0:
            return Interval(0.0, 0.0)
        upper = pow_real(Interval(a.hi, a.hi), s).hi
        return Interval(0.0, upper)
    if a.hi == INF:
        if a.lo == INF:
            raise DomainError("pow_real at +inf")
        lower = pow_real(Interval(a.lo, a.lo), s)
        if s.hi > 0:
            return Interval(min(lower.lo, 1.0) if s.lo <= 0 else lower.lo, INF)
        return Interval.hull(lower, Interval(0.0, lower.hi))
    return (s * a.ln()).exp()


# -- constants (two-ulp windows around correctly rounded literals) ----------

_ZERO = Interval(0.0, 0.0)
PI = Interval.literal("3.14159265358979323846264338327950288")
TWO_PI = Interval.literal("6.28318530717958647692528676655900577")
HALF_PI = Interval.literal("1.57079632679489661923132169163975144")
EULER_GAMMA = Interval.literal("0.57721566490153286060651209008240243")
SQRT2 = Interval.literal("1.41421356237309504880168872420969808")
E = Interval.literal("2.71828182845904523536028747135266250")
