# Why does the p=3 polygon touch its parabola exactly at m = (3^i - 1)/2?
# Reduce the factored matrix K modulo sqrt(3): the upper m x m minors of the
# resulting F_3 matrix Kbar are nonzero exactly at those m.  Kbar's entries
# are the coefficients of a rational generating function Gbar whose
# self-similarity under the Frobenius cube drives everything.

from upadic.mod3 import (gbar, kbar_rows, upper_minor_f3,
                         enumerate_excellent, recursive_witness_permutation,
                         is_excellent, verify_selfsim_base, verify_selfsim_full,
                         verify_extraction, vanishing_check,
                         verify_cube_ladder)

# Gbar = xy(1 + 2xy + x^2) / (1 - xy(1 + x^2 + xy + y^2)) over F_3
g = gbar(20)
print("Gbar low-order terms:", sorted((k, v) for k, v in g.data.items()
                                      if k[0] + k[1] <= 6))

# the self-similarity: Gbar = (1 + y/x + (y/x)^2) Gbar^3 + tail * Cbar_1,
# an exact identity (the published display of this identity transposes one
# monomial of the degree-0 factor; the corrected form is verified here)
print("degree-1 identity mismatch:", verify_selfsim_base())           # None = exact
print("full identity mismatch (window 36):", verify_selfsim_full(36))
print("cube ladder Cbar_0^3 = Cbar_1:", verify_cube_ladder(0, 30))

# its consequence: the coefficient of x^i y^(3j) equals that of
# x^(i/3) y^j, and vanishes unless 3 | i
print("extraction violations:", verify_extraction(30))
print("vanishing violations:", vanishing_check(30))

# the minors: nonzero exactly at m = 0, 1, 4, 13, 40
rows = kbar_rows(45)
nonzero = [m for m in range(46) if upper_minor_f3(rows, m)]
print("\nupper minors of Kbar nonzero at:", nonzero)

# behind each surviving minor sits exactly one permutation whose selection
# against Kbar is all-nonzero ("excellent"); elsewhere there are none
for m in (1, 2, 3, 4, 5, 13):
    count, wits = enumerate_excellent(m)
    print("degree %2d: %d excellent permutation(s) %s"
          % (m, count, wits if count else ""))

# the degree-40 witness comes from the base-3 recursion
pi40 = recursive_witness_permutation(4)
print("\ndegree-40 recursive witness is excellent:",
      is_excellent(pi40, kbar_rows(40)))
