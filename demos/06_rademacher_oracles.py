"""Brute-force oracles for the Khintchine inequality itself.

The analytic machinery proves the optimal constant; these oracles check the
conclusion on enumerable instances: exact moments over all sign patterns,
binomial-weight moments of equal coefficients, and seeded Monte Carlo.
"""

import math

from khintchine.oracle import (
    CoefficientVector,
    exact_moment,
    khintchine_check,
    monte_carlo_moment,
    random_unit_vectors,
    steckin_convergence,
)

print("== exact moments by enumeration ==")
v = CoefficientVector((1 / math.sqrt(2), 1 / math.sqrt(2)))
print(f"a = (1/sqrt2, 1/sqrt2): E|sum|^3 = {exact_moment(v, 3.0):.12f} "
      f"(= sqrt 2 exactly)")

print()
print("== the inequality holds on a seeded sweep ==")
gaps = {2.2: [], 2.5: [], 2.8: []}
# vector outside, p inside: each vector's sign sums are enumerated once
for vec in random_unit_vectors(200, 16, seed=20240801):
    for p, row in gaps.items():
        ratio, bound, ok = khintchine_check(vec, p)
        assert ok
        row.append(bound - ratio)
for p, row in gaps.items():
    print(f"p={p}: 200 unit vectors pass; smallest gap to B_p is {min(row):.4f}")

print()
print("== equal coefficients approach the gaussian moment (Steckin) ==")
rows = steckin_convergence(3.0, (4, 16, 64, 256, 1024))
print(f"{'n':>6} {'moment':>10} {'target':>10} {'gap':>10}")
for n, m, target in rows:
    print(f"{n:>6} {m:>10.6f} {target:>10.6f} {abs(m - target):>10.2e}")
print("the approach to 2^{3/2}/sqrt(pi) from below is what forces B_p to be")
print("optimal: no smaller constant can survive n -> infinity.")

print()
print("== Monte Carlo agrees with enumeration ==")
v8 = CoefficientVector(tuple([1 / math.sqrt(8)] * 8))
est, err = monte_carlo_moment(v8, 2.5, 100_000, seed=7)
print(f"estimate {est:.6f} +- {err:.6f}  vs exact {exact_moment(v8, 2.5):.6f}")
