# Changing the weight multiplies U by a twist operator.  For p = 3 the
# twist by (S/V(S))^(k/3) is unit lower-triangular with strong 3-adic
# divisibilities, so polygons of nearby weights share their low vertices and
# characteristic series of 3-adically close weights are congruent.

from upadic.weights import (s_over_vs, expand_in_d3, twist_matrix,
                            weight_contact_check, slope_distribution,
                            congruence_check, eisenstein_unit_congruence,
                            oldform_window_check)

# S/V(S) - 1 expands in d_3 with 9 | r_1 and 27 | r_m for m >= 2
rho = expand_in_d3(s_over_vs(16), 8)
print("d_3 coefficients of S/V(S):", rho)

# the twist for weight k = 2*3^(n+1)*l: unit diagonal, subdiagonal m has
# scaled valuation at least n - v_3(m)
t = twist_matrix(54, 8)
print("\nweight 54 twist: n =", t.n_param)
print("scaled subdiagonal valuations:",
      [str(t.scaled_entry_valuation(m)) for m in range(1, 6)])

# contact points below 2*3^(n-1) survive the twist
rep = weight_contact_check(1, 2)       # k = 54
print("\nweight 54 keeps the parabola contacts:")
for pt in rep["points"]:
    print("  m = %2d: v_3(a_m) = %s (expected %s)"
          % (pt["s"], pt["value"], pt["expected"]))

# between consecutive vertices the slopes bunch: exactly 3^i of them,
# averaging 3^(i+1) - 1
rep = slope_distribution(3)   # k = 162
for band in rep["bands"]:
    print("weight 162, band %d: slopes %s, average %s, window %s"
          % (band["i"], band["slopes"], band["average"], band["window"]))

# characteristic series of 3-adically close weights are congruent:
# v_3(a_m(k) - a_m(k')) >= n + 1 when k' - k = 2*3^n*l
rep = congruence_check(0, 54, 10, 20)
print("\nweights 0 vs 54 (n = %d): coefficient differences" % rep["n"])
for row in rep["rows"][1:6]:
    print("  m = %d: v_3(diff) = %s (needs >= %s), margin over the "
          "strengthened candidate: %s"
          % (row["m"], row["v_diff"], row["required"],
             row["strengthened_candidate_margin"]))

# the same unit-congruence mechanism for p = 5 and 7
for p in (5, 7):
    print("\nE_%d power ratio divisibility:" % (p - 1),
          eisenstein_unit_congruence(p, 1))

# and the oldform slope window: the polygon's entering slope at the last
# forced contact stays below k/4 - 1
print("\noldform window:", oldform_window_check(2))
