# The genus-zero primes 2, 3, 5, 7, 13 are exactly those where the modular
# curve X_0(p) has a hauptmodul: a single function d_p that uniformizes it.
# This walkthrough builds the q-expansions, the degree-(p+1) polynomial
# relating d_p to j, and the bivariate polynomial I_p that encodes the whole
# U operator.

from upadic.modcurve import (d_series, j_series, solve_hauptmodul_poly,
                             check_hauptmodul_polygon, ip_poly, e_exponent)

# d_p = (Delta(q^p)/Delta(q))^(1/(p-1)) is an eta quotient with integer
# coefficients and leading term q.
for p in (2, 3, 5, 7, 13):
    d = d_series(p, 8)
    print("d_%-2d = q %s + ..." % (p, " ".join(
        "%+d q^%d" % (d.coeff(n), n) for n in range(2, 6))))

# j has the familiar expansion q^-1 + 744 + 196884 q + ...
j = j_series(4)
print("\nj starts:", [(n, j.coeff(n)) for n in range(-1, 3)])

# d_p * j is a polynomial in d_p: integral, degree p+1, constant term 1.
for p in (2, 3, 5):
    h = solve_hauptmodul_poly(p)
    print("\nH_%d coefficients:" % p, h.coeffs)

# Subtracting c_p * d and taking p-adic valuations of the coefficients gives
# a Newton polygon with a single slope e*p, e = 12/(p^2-1).
for p in (2, 3, 5, 7, 13):
    poly = check_hauptmodul_polygon(p)
    print("polygon of H_%d - c_%d d: slope %s (multiplicity %d), e*p = %s"
          % (p, p, poly.sides[0][0], poly.sides[0][1], e_exponent(p) * p))

# I_p(x, y) is the unique bidegree-(p,p) polynomial with constant term 1
# vanishing on (d_p(q^p), 1/d_p(q)).  Two independent constructions (an exact
# linear-algebra fit on q-expansions, and the quotient of the modular
# equation H_p(pi y) x - H_p(x) pi y by its fixed-line factor x - pi y, read
# off H_p in closed form) must agree -- and do.
for p in (2, 3):
    print("\nI_%d:" % p)
    print(ip_poly(p).pretty())
