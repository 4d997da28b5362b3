"""Certified special functions: series with explicit tail bounds.

The proof needs Ei, si, ci, partial zeta sums and the Gamma-based constant
B_p, each as an enclosure rather than an approximation.
"""

import math

from khintchine.interval import Interval
from khintchine.specfun import (
    LN_COS_COEFFS,
    b_constant,
    ci,
    ei_neg,
    neg_ln_cos_excess,
    si,
    zeta_sum,
)


def iv(x):
    return Interval(x, x)


print("== exponential / sine / cosine integrals ==")
for name, enc, reference in [
    ("Ei(-1)   ", ei_neg(iv(-1.0)), -0.2193839343955203),
    ("si(pi)   ", si(iv(math.pi)), 0.2811407251875696),
    ("ci(pi/2) ", ci(iv(math.pi / 2)), 0.4720006514395687),
]:
    print(f"{name} = {enc}   width {enc.width:.2g}, reference {reference}")

print()
print("== zeta partial sums with integral-bracket tails ==")
z2 = zeta_sum(iv(2.0))
print(f"zeta(2) = {z2}   contains pi^2/6: {z2.contains(math.pi ** 2 / 6)}")
print(f"zeta(3) = {zeta_sum(iv(3.0))}")

print()
print("== the optimal constant B_p = sqrt2 (Gamma((p+1)/2)/sqrt(pi))^(1/p) ==")
for p in (2.0, 2.25, 2.5, 2.75, 3.0):
    B = b_constant(iv(p))
    print(f"B_{p:<5} = {B.mid:.12f}  (enclosure width {B.width:.2g})")
print("B_2 contains exactly 1, the Euclidean-norm case.")

print()
print("== the -ln cos series that powers the cosine majorants ==")
print("-ln cos t = sum c_k t^(2k), first coefficients:",
      ", ".join(str(c) for c in LN_COS_COEFFS[:4]))
excess = neg_ln_cos_excess(iv(1.0))
print(f"-ln cos 1 - 1/2 in {excess}")
print(f"true -ln cos 1 - 1/2 = {-math.log(math.cos(1.0)) - 0.5:.12f}")
print("positive coefficients give |cos t|^s <= exp(-s (t^2/2 + c_2 t^4 + ...))")
