# For p = 3 the Newton polygon of the cuspidal characteristic series
# det(1 - tM) stays above the parabola (3/2)m(m-1) + 2m, touching it exactly
# at m = (3^i - 1)/2 = 0, 1, 4, 13, 40, ...  Between consecutive contact
# points the polygon also stays below the secant line through them, so the
# polygon is pinched from both sides.
#
# Everything here is certified: a coefficient valuation counts only when it
# sits strictly below the truncation error bound (a column-valuation truncation bound from
# the row divisibilities) and two truncation sizes agree.

from upadic.charseries import (parabola_floor, secant_line,
                               equality_indices_upto, polygon_from_records)
from upadic.weights import stable_valuations

TERMS, SIZE = 14, 24      # enough to see the contacts at 1, 4 and 13

records = stable_valuations(3, 0, TERMS, SIZE)     # p = 3, weight 0

print(" m   v_3(a_m)  parabola  certified  contact")
for r in records:
    par = parabola_floor(r.m)
    mark = "  <== m_i" if r.v_obs == par else ""
    print("%2d   %7s  %8s  %9s%s"
          % (r.m, r.v_obs, par, r.certified or r.m == 0, mark))

print("\ncontact points up to %d:" % TERMS, equality_indices_upto(TERMS))

# the polygon itself, from the certified points
poly = polygon_from_records(records)
print("polygon vertices:", poly.vertices)
print("polygon slopes:", [(str(s), m) for s, m in poly.slopes()])

# strictly between contacts: parabola < polygon <= secant
print("\n m   parabola   polygon   secant")
for i, (a, b) in enumerate(((1, 4), (4, 13))):
    for m in range(a + 1, b):
        print("%2d   %8s  %8s  %7s"
              % (m, parabola_floor(m), poly.value_at(m), secant_line(i + 1, m)))
