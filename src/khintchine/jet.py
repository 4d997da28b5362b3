"""Forward-mode interval jets: f, f' and f'' of a one-variable function.

A :class:`Jet` holds three Intervals (v, d, dd) that enclose f, f' and f''
over one interval X.  Evaluating an integrand written for Intervals on
``Jet.var(X)`` instead of on X encloses all three in a single pass
(Taylor-mode interval AD; Tucker, *Validated Numerics*, 2011), and
``quad.integrate`` turns them into a Simpson cell enclosure with its
Peano remainder.

Every primitive is the chain rule

    (g o u)' = g'(u) u',    (g o u)'' = g''(u) u'^2 + g'(u) u'',

with g, g' and g'' enclosed by kernel operations over u's value interval, so
a jet is exactly as sound as those operations.  The value part is computed
by the same kernel calls as the plain Interval evaluation.  Where g is not
twice differentiable on the value interval (abs across 0, a real power or
ln of an interval touching 0, a reciprocal across 0) the primitive raises
DomainError.  ``interval.pow_real`` accepts a Jet argument too.
"""

from __future__ import annotations

from .interval import INF, DomainError, Interval

__all__ = ["Jet"]

_ONE = Interval(1.0, 1.0)
_ZERO = Interval(0.0, 0.0)


class Jet:
    """Enclosures v of f, d of f' and dd of f'' over one interval."""

    __slots__ = ("v", "d", "dd")

    def __init__(self, v: Interval, d: Interval, dd: Interval):
        self.v = v
        self.d = d
        self.dd = dd

    @staticmethod
    def var(x: Interval) -> "Jet":
        """The identity function over x: (x, 1, 0)."""
        return Jet(x, _ONE, _ZERO)

    def __repr__(self) -> str:
        return f"Jet({self.v!r}, {self.d!r}, {self.dd!r})"

    def chain(self, g0: Interval, g1: Interval, g2: Interval) -> "Jet":
        """Jet of g(u) for u = self, given g, g', g'' enclosed over self.v."""
        d = self.d
        if d is _ONE and self.dd is _ZERO:  # u is the variable itself
            return Jet(g0, g1, g2)
        return Jet(g0, g1 * d, g2 * d**2 + g1 * self.dd)

    # -- arithmetic; a non-Jet operand is a constant ----------------------

    def __neg__(self) -> "Jet":
        return Jet(-self.v, -self.d, -self.dd)

    def __add__(self, o) -> "Jet":
        if type(o) is Jet:
            return Jet(self.v + o.v, self.d + o.d, self.dd + o.dd)
        return Jet(self.v + o, self.d, self.dd)

    __radd__ = __add__

    def __sub__(self, o) -> "Jet":
        if type(o) is Jet:
            return Jet(self.v - o.v, self.d - o.d, self.dd - o.dd)
        return Jet(self.v - o, self.d, self.dd)

    def __rsub__(self, o) -> "Jet":
        return Jet(o - self.v, -self.d, -self.dd)

    def __mul__(self, o) -> "Jet":
        if type(o) is Jet:
            v, d, dd = self.v, self.d, self.dd
            return Jet(
                v * o.v,
                d * o.v + v * o.d,
                dd * o.v + (d * o.d) * 2.0 + v * o.dd,
            )
        return Jet(self.v * o, self.d * o, self.dd * o)

    __rmul__ = __mul__

    def __truediv__(self, o) -> "Jet":
        if type(o) is Jet:
            return o._divide(self.v, self.d, self.dd)
        return Jet(self.v / o, self.d / o, self.dd / o)

    def __rtruediv__(self, o) -> "Jet":
        return self._divide(o, _ZERO, _ZERO)

    def _divide(self, v, d: Interval, dd: Interval) -> "Jet":
        """Jet (v, d, dd) over self: q = v/w, q' = (d - q w')/w and
        q'' = (dd - 2 q' w' - q w'')/w for w = self."""
        q = v / self.v  # DomainError across 0
        r = _ONE / self.v
        qd = (d - q * self.d) * r
        return Jet(q, qd, (dd - qd * self.d * 2.0 - q * self.dd) * r)

    def __pow__(self, n: int) -> "Jet":
        if not isinstance(n, int):
            raise TypeError("use pow_real for non-integer exponents")
        if n == 0:
            return Jet(_ONE, _ZERO, _ZERO)
        if n == 1:
            return self
        v = self.v
        return self.chain(
            v**n, v ** (n - 1) * float(n), v ** (n - 2) * float(n * (n - 1))
        )

    # -- elementary functions -----------------------------------------------

    def exp(self) -> "Jet":
        e = self.v.exp()
        return self.chain(e, e, e)

    def ln(self) -> "Jet":
        lg = self.v.ln()  # DomainError unless v > 0
        r = _ONE / self.v
        return self.chain(lg, r, -(r**2))

    def cos(self) -> "Jet":
        c, s = self.v.cos(), self.v.sin()
        return self.chain(c, -s, -c)

    def sin(self) -> "Jet":
        c, s = self.v.cos(), self.v.sin()
        return self.chain(s, c, -s)

    def abs(self) -> "Jet":
        """|u| where u keeps one sign on the cell (then |u| = u or -u there)."""
        if self.v.lo >= 0.0:
            return self
        if self.v.hi <= 0.0:
            return -self
        raise DomainError(f"abs of a jet whose value {self.v} crosses 0")

    def pow_real(self, s: Interval) -> "Jet":
        """u**s for u > 0 on the cell; the value is interval.pow_real's."""
        v = self.v
        if not (0.0 < v.lo and v.hi < INF):
            raise DomainError(f"pow_real of a jet needs 0 < value < inf, got {v}")
        lg = v.ln()
        s1 = s - 1.0
        return self.chain(
            (s * lg).exp(),
            s * (s1 * lg).exp(),
            s * s1 * ((s1 - 1.0) * lg).exp(),
        )
