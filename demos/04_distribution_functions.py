"""The two distribution functions under dt/t^(p+1) and their single crossing.

F_* measures where |cos t| is small, G_* where the gaussian e^{-t^2/2} is;
the comparison lemma needs F_* - G_* to change sign exactly once.  This
script traces the difference, shows the independent brute-force oracle
agreeing with the series evaluation, compares three enclosures of F_* - G_*
on a cell near x = 1, and prints the slope of F_* - G_* that certifies the
crossing single across the classifier's transition gap.
"""

from khintchine.distfn import (
    MeasureParams,
    brute_force_dist,
    derivatives,
    f_star,
    g_star,
    star_difference,
)
from khintchine.interval import Interval
from khintchine.verifier import check_np_cos_gauss

mp2 = MeasureParams(Interval(2.0, 2.0))

print("== F_* - G_* along (0, 1) at p = 2 ==")
print(f"{'x':>6} {'F_*':>12} {'G_*':>12} {'sign of F-G':>12}")
for x in (0.05, 0.2, 0.4, 0.5, 0.55, 0.7, 0.9, 0.97):
    xi = Interval(x, x)
    f = f_star(xi, mp2)
    g = g_star(xi, mp2)
    d = f - g
    sign = "negative" if d.hi < 0 else ("positive" if d.lo > 0 else "straddles")
    print(f"{x:>6} {f.mid:>12.6f} {g.mid:>12.6f} {sign:>12}")
print("single crossing near x = 0.536, inside (1/15, 0.97) as the proof needs.")

print()
print("== two derivations, one measure ==")
print("series evaluation vs direct sublevel-interval sums:")
for x in (0.3, 0.6, 0.9):
    f = f_star(Interval(x, x), mp2)
    b = brute_force_dist(x, mp2, "cos")
    print(f"x={x}:  series {f}")
    print(f"        brute  {b}   overlap: {f.intersects(b)}")

print()
print("== derivatives govern the monotonicity condition ==")
fp, gp = derivatives(Interval(0.5, 0.5), mp2)
print(f"F_*'(0.5) = {fp.mid:.6f},  G_*'(0.5) = {gp.mid:.6f}")
print(f"ratio enclosure: {fp / gp}  (must exceed 1 beyond x = 1/15)")

print()
print("== near x = 1: three enclosures of F_* - G_* on one grid cell ==")
a, b = 0.9745, 0.99
cell, m = Interval(a, b), 0.5 * (a + b)
fa, fm, fb = (f_star(Interval(x, x), mp2) for x in (a, m, b))
ga, gm, gb = (g_star(Interval(x, x), mp2) for x in (a, m, b))
fp, gp = derivatives(cell, mp2)
hull = Interval(fa.lo, fb.hi) - Interval(ga.lo, gb.hi)
slope_form = (fm - gm) + (fp - gp) * (cell - Interval(m, m))
new_form = star_difference(cell, mp2, fa, fb)
print(f"cell [{a}, {b}], where F_* and G_* both exceed 8")
print(f"monotone hull          {hull}")
print(f"slope form about m     {slope_form}")
print(f"cancellation-free form {new_form}")
print("F_* and G_* share the term a^-p/p (a = arccos x): the hull subtracts two")
print("ranges of that size and the slope form two derivatives that each blow up")
print("as x -> 1, while the third form never subtracts it and settles the cell.")

print()
print("== the crossing is single: F_* - G_* rises across the transition gap ==")
sign_change = check_np_cos_gauss(2.0).children[0]
print(f"{sign_change.name}: {sign_change.status} after "
      f"{sign_change.evaluations} classifier cells")
print(f"  {sign_change.note}")
print("the slope is distfn.derivatives over the whole gap, certified positive.")
