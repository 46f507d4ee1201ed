# The operator U picks every p-th q-coefficient.  On the cuspidal weight-0
# space it acts on the basis d_p, d_p^2, ... by an integer matrix M.  This
# script builds M twice -- by brute force on q-expansions and from the
# recurrence that I_p induces -- and inspects the p-adic structure that makes
# the whole theory run.

from upadic.umatrix import (build_matrix_oracle, build_matrix_genfun,
                            row_bound, scaled_row_minima, kbar)
from upadic.scalars import vp_int
from upadic.modcurve import e_exponent

# Route one: expand U(d_p^j) as a q-series and re-express it in powers of
# d_p.  Each column terminates at degree p*j; the solver checks the residual
# vanishes on a guard band, so the expansion is certified, not assumed.
m = build_matrix_oracle(3, 8)
print("U(d_3) =", " + ".join("%d d^%d" % (m.entry(i, 1), i)
                             for i in range(1, 4) if m.entry(i, 1)))

# Route two: columns satisfy the linear recurrence that I_3 induces.
g = build_matrix_genfun(3, 8)
print("oracle == genfun:", m.rows == g.rows)

# Every entry obeys v_p(M_ij) >= e(pi - j) - 1, that is, every row of the
# scaled matrix p^(e(j-i)) M_ij has valuation at least e(p-1)i - 1.
print("scaled row minima against the row bound:",
      [(str(r), str(row_bound(3, i)))
       for i, r in enumerate(scaled_row_minima(m.rows, 3), 1)])
print("v_3(M_11) =", vp_int(m.entry(1, 1), 3),
      " bound =", e_exponent(3) * (3 - 1) - 1)

# For p=3 the natural rescaling 3^((3/2)(j-i)) M_ij lands in Z[sqrt(3)].
# Row i is divisible by 3^(3i-1), and that exponent is attained in every row:
g12 = build_matrix_genfun(3, 12)
for i, r in enumerate(scaled_row_minima(g12.rows, 3)[:4], 1):
    print("row %d: min valuation %s, attains 3i-1: %s"
          % (i, r, r == row_bound(3, i)))

# Factoring the row divisibility out, M' = diag(3^(3i-1)) * K, and K mod
# sqrt(3) is a matrix over F_3 whose first row is concentrated in column 1.
kb = kbar(g12)
print("Kbar row 1:", kb[0])
print("Kbar row 2:", kb[1])
print("Kbar row 3:", kb[2])
