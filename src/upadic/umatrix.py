"""The matrix of U acting on cuspidal weight-0 forms in the basis of powers
of the hauptmodul d_p, built two independent ways: by expanding U(d_p^j) in
q and re-expressing it in powers of d_p (oracle), and from the linear
recurrence induced by the bivariate polynomial I_p (genfun).  Includes the
proven entry valuation bounds, the valuations of the rows of the scaled
matrix p^(e(j-i)) M_ij with the row-bound premise check that every
truncation certificate rests on, the graded form diag(p^c) K of M that the
graded char-series kernel reads, and at p=3 the scaled matrix over Z[sqrt3]
and K mod sqrt3, where M' = diag(3^(3i-1)) K.
"""

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .scalars import QuadInt3, val_quad3, val_p, vp_int, INF
from .series import eta_quotient
from .modcurve import (d_expansion, d_powers, ip_poly, e_exponent,
                       GENUS_ZERO_PRIMES, _as_int)

# the matrix generating function carries one global sign choice relative to
# the log-derivative of I_p; this build uses sum M_ij x^i y^j =
# -(y/p) d/dy log I_p(x,y), the choice validated against the oracle
SIGN_CONVENTION = "negated-log-derivative"

GUARD = 16

# basis label of the p=3 scaled matrix, whose entry (i, j) is 3^((3/2)(j-i))
# times the entry of M
SCALED_P3 = "scaled-3^(3m/2)"


class UMatrix:
    """Exact n x n truncation of the U matrix, with provenance metadata.

    Entries are 1-indexed through entry(); rows[i][j] is 0-indexed storage,
    a tuple of tuples, so that a matrix handed out by a cached builder cannot
    be changed under its other callers.
    """

    def __init__(self, p, n, rows, basis="d-powers", provenance="oracle"):
        self.p = p
        self.n = n
        self.rows = tuple(tuple(row) for row in rows)
        self.basis = basis
        self.provenance = provenance
        self.sign_convention = SIGN_CONVENTION

    def entry(self, i, j):
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        return (isinstance(other, UMatrix) and self.p == other.p
                and self.n == other.n and self.rows == other.rows)

    def __repr__(self):
        return "UMatrix(p=%d, n=%d, basis=%s, provenance=%s)" % (
            self.p, self.n, self.basis, self.provenance)


@lru_cache(maxsize=None)
def build_matrix_oracle(p, n):
    """Build M by brute force from q-expansions.

    U(d^j) is a polynomial of degree p*j in d without constant term; each
    column is expanded in full against the powers of d and the residual must
    vanish on the whole guard band.  The returned matrix is the upper n x n
    truncation.

    With E = prod (1 - q^k) and t = 24/(p-1), d^j = q^j E(q^p)^(tj) E^(-tj),
    and U(f(q^p) g) = f U(g) gives U(d^j) = E^(tj) U(q^j E^(-tj)): only
    E^(-tj) is needed at the long precision, and it is an eta power.  The n
    series U(d^j) are formed first and expanded together, one power of d at
    a time, so no table of the p*n + 1 powers is held; column j is taken to
    degree p*n, and its coefficients past p*j must be 0.
    """
    if p not in GENUS_ZERO_PRIMES:
        raise ValueError("unsupported prime %d" % p)
    if n == 0:
        return UMatrix(p, 0, [])
    # full columns reach degree p*j <= p*n, and live at q-precision p*n+GUARD;
    # before u_extract q^j E^(-tj) therefore needs p*(p*n+GUARD)
    solve_prec = p * n + GUARD
    t = 24 // (p - 1)
    images = [eta_quotient([(1, t * j)], solve_prec)
              * eta_quotient([(1, -t * j)], p * solve_prec - j).shift(j)
              .u_extract(p) for j in range(1, n + 1)]
    columns = d_expansion(images, d_powers(p, p * n + 1, solve_prec))
    for j, (col, residual) in enumerate(columns, 1):
        if col[0] or any(col[p * j + 1:]) or not residual.is_zero():
            raise ValueError("U(d^%d) is not a polynomial of degree %d in d "
                             "without constant term" % (j, p * j))
    rows = [[col[i] for col, _ in columns] for i in range(1, n + 1)]
    return UMatrix(p, n, rows, provenance="oracle")


def column_recurrence(p, ip, jmax, imax):
    """Columns of M as polynomials in the row index, from the recurrence
    C_j = sum_r c_r C_(j-r) + (j/p) c_j induced by I_p = 1 - sum_r c_r(x) y^r.

    Returns a list whose j-th item (j >= 1) is a dict {i: M_ij} over the
    rows i <= imax.  Dropping the rows above imax inside the recurrence is
    exact: the c_r are polynomials in x, so a row index i1 + i2 with
    i1 >= 0 never falls back below imax.
    """
    c = {}
    for r in range(1, p + 1):
        c[r] = {i: -v for i, v in ip.y_part(r).items() if i <= imax}
    cols = [dict()]                      # C_0 = 0
    for j in range(1, jmax + 1):
        col = {}
        for r in range(1, min(p, j - 1) + 1):
            prev = cols[j - r]
            for i1, v1 in c[r].items():
                for i2, v2 in prev.items():
                    k = i1 + i2
                    if k <= imax:
                        col[k] = col.get(k, 0) + v1 * v2
        if j <= p:
            for i, v in c[j].items():
                col[i] = col.get(i, 0) + Fraction(j * v, p)
        col = {i: _as_int(v, "recurrence entry (%d,%d)", i, j)
               for i, v in col.items() if v}
        cols.append(col)
    return cols


@lru_cache(maxsize=None)
def build_matrix_genfun(p, n):
    """Build M from the generating-function recurrence of I_p."""
    if n == 0:
        return UMatrix(p, 0, [], provenance="genfun")
    cols = column_recurrence(p, ip_poly(p), n, n)
    rows = [[cols[j].get(i, 0) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return UMatrix(p, n, rows, provenance="genfun")


def row_bound(p, i):
    """Proven valuation lower bound e(p-1)i - 1 for row i of the scaled
    matrix p^(e(j-i)) M_ij (3i - 1 at p = 3, where e = 3/2)."""
    return e_exponent(p) * (p - 1) * i - 1


def entry_bound(p, basis, i, j):
    """Proven lower bound on the valuation of entry (i, j): the row bound
    less e(j - i), that is e(pi - j) - 1, in the basis of powers of d_p, and
    the row bound 3i - 1 itself in the scaled p=3 basis."""
    return row_bound(p, i) - (0 if basis == SCALED_P3 else
                              e_exponent(p) * (j - i))


def entry_valuation(m, i, j):
    """Valuation of entry (i, j) of m, an integer or, in the scaled p=3
    basis, an element of Z[sqrt3] with v(sqrt3) = 1/2."""
    x = m.entry(i, j)
    return val_quad3(x) if isinstance(x, QuadInt3) else val_p(x, m.p)


def scaled_row_minima(rows, p):
    """r_i = min_j v_p(x_ij) + e(j - i), e = e(p), for each row of an
    integer matrix; a zero row's r_i is INF, the valuation of 0.

    r_i is the valuation of row i of the scaled matrix p^(e(j-i)) x_ij:
    conjugating x by diag(p^(-e i)) leaves every principal minor unchanged.
    With e = a/b, column j = r + bt of class r mod b adds at to v_p(x_ij),
    so b r_i = min_r b v_p(gcd_t x_ij p^(at)) + a(r - i): b vp_int per row.
    """
    e = e_exponent(p)
    a, b = e.numerator, e.denominator
    width = -(-max(map(len, rows), default=0) // b)
    steps = [p ** (a * t) for t in range(width)]
    out = []
    for i, row in enumerate(rows):
        vals = [b * vp_int(g, p) + a * (r - i) for r in range(b)
                if (g := math.gcd(*map(mul, row[r::b], steps)))]
        out.append(Fraction(min(vals), b) if vals else INF)
    return out


def check_row_bounds(m, weight=0):
    """The premise of every truncation certificate on the exact matrix m:
    each row i of its scaled matrix has valuation r_i at least the row
    bound e(p-1)i - 1, which a zero row's INF always meets.  Raises
    ValueError naming p, the weight and the first row that falls short;
    returns the scaled row minima it checked."""
    minima = scaled_row_minima(m.rows, m.p)
    for i, r in enumerate(minima, 1):
        if r < row_bound(m.p, i):
            raise ValueError("p = %d%s: row %d of the scaled matrix has "
                             "valuation %s, below the row bound %s"
                             % (m.p, ", weight %d" % weight if weight else "",
                                i, r, row_bound(m.p, i)))
    return minima


def graded(m, weight=0):
    """(c, K) with diag(p^-f) M diag(p^f) = diag(p^c) K for f_i = floor(e i),
    K an integer matrix and c_i the least valuation of row i of the left
    side, after check_row_bounds, whose scaled row minima r_i give c.

    Entry (i, j) of the conjugate is M_ij p^(f_j - f_i), of valuation
    v_p(M_ij) + e(j - i) + {e i} - {e j}: an integer above r_i + {e i} - 1,
    equal to r_i + {e i} - {e j} where r_i is attained.  So every entry
    meets c_i = floor(r_i + e i) - f_i, and one entry attains it.  A zero
    row, whose r_i is INF, takes the row bound in place of r_i.
    """
    p, e = m.p, e_exponent(m.p)
    floors = [e * j // 1 for j in range(m.n + 1)]
    grades, krows = [], []
    for i, (row, r) in enumerate(zip(m.rows, check_row_bounds(m, weight)), 1):
        r = row_bound(p, i) if r == INF else r
        c = (r + e * i) // 1 - floors[i]
        krow = []
        for j, x in enumerate(row, 1):
            t = floors[j] - floors[i] - c
            if t >= 0:
                krow.append(x * p ** t)
            else:
                q, rem = divmod(x, p ** -t)
                if rem:
                    raise ValueError("entry (%d,%d) is not divisible by "
                                     "p^%d" % (i, j, -t))
                krow.append(q)
        grades.append(c)
        krows.append(tuple(krow))
    return tuple(grades), tuple(krows)


def _shift3(x, k):
    """x * 3^k for an integer x and an integer k; for k < 0 the division is
    exact whenever the row bounds hold."""
    return x * 3 ** k if k >= 0 else x // 3 ** -k


def scaled_matrix_p3(m):
    """The p=3 scaled matrix M'_ij = 3^((3/2)(j-i)) M_ij over Z[sqrt3]."""
    if m.p != 3:
        raise ValueError("scaled quadratic-ring form is specific to p=3")
    check_row_bounds(m)
    rows = []
    for i in range(1, m.n + 1):
        row = []
        for j in range(1, m.n + 1):
            x = m.entry(i, j)
            if x and (i > 3 * j or j > 3 * i):
                raise ValueError("entry (%d,%d) outside the band is nonzero" % (i, j))
            k = 3 * (j - i)
            if k % 2 == 0:
                row.append(QuadInt3(_shift3(x, k // 2), 0))
            else:
                row.append(QuadInt3(0, _shift3(x, (k - 1) // 2)))
        rows.append(row)
    return UMatrix(3, m.n, rows, basis=SCALED_P3, provenance=m.provenance)


def kbar(m):
    """K mod sqrt3 for the p=3 matrix m, where M' = diag(3^(3i-1)) K.

    Once m meets the row bounds, K lies over Z[sqrt3].  Its entries with
    j - i odd lie in sqrt3 Z and reduce to 0; the others are the integers
    M_ij 3^(3(j-i)/2 - (3i-1)), read mod 3.
    """
    if m.p != 3:
        raise ValueError("K mod sqrt3 is specific to p=3")
    check_row_bounds(m)
    return [[0 if (j - i) % 2
             else _shift3(x, 3 * (j - i) // 2 - int(row_bound(3, i))) % 3
             for j, x in enumerate(row, 1)]
            for i, row in enumerate(m.rows, 1)]
