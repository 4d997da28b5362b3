"""The two distribution functions under dt/t^(p+1) and their single crossing.

F_* measures where |cos t| is small, G_* where the gaussian e^{-t^2/2} is;
the comparison lemma needs F_* - G_* to change sign exactly once.  This
script traces the difference, shows the independent brute-force oracle
agreeing with the series evaluation, and prints the slope of F_* - G_* that
certifies the crossing single across the classifier's transition gap.
"""

from khintchine.distfn import (
    MeasureParams,
    brute_force_dist,
    derivatives,
    f_star,
    g_star,
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
print("== the crossing is single: F_* - G_* rises across the transition gap ==")
sign_change = check_np_cos_gauss(2.0).children[0]
print(f"{sign_change.name}: {sign_change.status} after "
      f"{sign_change.evaluations} classifier cells")
print(f"  {sign_change.note}")
print("the slope is distfn.derivatives over the whole gap, certified positive.")
