"""Adaptive interval quadrature: integrals with certificates.

Each cell [u,v] carries the intersection of the first-order enclosure
f([u,v]) * (v-u) and Simpson's rule with its Peano remainder,
(v-u)/6 (f(u) + 4 f(c) + f(v)) + (v-u)^3/162 (D2 - D2) for c the midpoint,
with D2 = f''([u,v]) from one evaluation of the integrand on an interval
jet; f(u) and f(v) are the parent cell's point values.  Bisection is driven by a priority queue on the
width of the cell integrals, so refinement flows to where the integrand is
hardest.  Stopping early (at quad.MAX_CELLS cells) never invalidates the
answer, it only widens it.  Where an integral has a closed form, the
verifier takes that instead, and the quadrature becomes its cross-check.
"""

import math

from khintchine.interval import PI, Interval, SQRT2, pow_real
from khintchine.quad import _cos_power_mean, cos_power_tail, integrate, tail_bound_mu_p
from khintchine.specfun import si

print("== warm-up: enclosing int_0^pi sin t dt = 2 ==")
for width in (1e-2, 1e-4, 3e-5):
    r = integrate(lambda t: t.sin(), 0.0, math.pi, width)
    print(f"target {width:7.0e}: {r.value}  ({r.cells} cells, {r.status})")

print()
print("== an oscillatory proof integrand: int_{pi/2}^inf cos^2 t / t^4 dt ==")
f = lambda t: (t.cos() ** 2) * pow_real(t, Interval(-4.0, -4.0))
# past 9 pi/2, a zero of cos, the tail is m_s T^-3/3 with m_s = 1/2 (exact
# by Wallis at even s), less a band of order T^-5 from integrating by parts
# twice
T, tail = cos_power_tail(Interval(2.0, 2.0), Interval(3.0, 3.0), 4)
fin = integrate(f, math.pi / 2, T, 2e-5)
total = fin.value + tail
print(f"finite part to 9 pi/2: {fin.value}  ({fin.cells} cells)")
print(f"two-sided tail beyond: {tail}")
print(f"total enclosure:       {total}")
# three integrations by parts give the integral as (2/3)(1/pi - si(pi))
closed = (1.0 / PI - si(PI)) * 2.0 / 3.0
assert closed.intersects(total), "the closed form and the quadrature disagree"
print(f"closed form:           {closed}  (width {closed.width:.2g})")
print("reference value:       0.02477944066414741...")
print()
print("1.75 times this integral is 0.0433640..., which certifiably refutes")
print("the printed tail constant 0.043369 and certifies the repaired 0.0433.")

print()
print("== the period mean m_s of |cos|^s, in closed form ==")
# exact by Wallis at an even s; at any other s a bracket from 64 Wallis
# steps and m_t m_(t+1) = 2/(pi (t+1)), no quadrature
for name, s in (("2", Interval(2.0)), ("16", Interval(16.0)), ("sqrt 2", SQRT2),
                ("3", Interval(3.0)), ("[1, 1.5]", Interval(1.0, 1.5))):
    m = _cos_power_mean(s.lo, s.hi)
    print(f"s = {name:8}  m_s = {m}  (width {m.width:.2g})")

print()
print("== gaussian tails are nearly free ==")
g = tail_bound_mu_p(SQRT2, Interval(2.0, 2.0), 5.0)
print(f"int_5^inf e^(-sqrt2 t^2/2)/t^3 dt <= {g.hi:.3g}")
