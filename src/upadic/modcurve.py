"""Canonical modular-form q-expansions and the genus-zero level structure:
Delta, Eisenstein series, j, the hauptmoduls d_p, the degree-(p+1) polynomial
relating d_p to j, and the bivariate polynomial I_p whose coefficients drive
the U-matrix recurrence.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from types import MappingProxyType

from .scalars import val_p
from .series import PrecisionError, QSeries, eta_quotient
from .newton import NewtonPolygon
from .linalg import _mod_kernel, _prime_pool, _sym_crt

GENUS_ZERO_PRIMES = (2, 3, 5, 7, 13)

# weight multipliers t_p and the constants c_p with
# E_{t_p(p-1)}^{12/(t_p(p-1))} = (j - c_p) * Delta
T_P = {2: 4, 3: 3, 5: 1, 7: 1, 13: 1}
C_P = {2: 0, 3: 1728, 5: 0, 7: 1728, 13: Fraction(432000, 691)}


def e_exponent(p):
    """The scaling exponent e = 12/(p^2 - 1)."""
    return Fraction(12, p * p - 1)


@lru_cache(maxsize=None)
def bernoulli(n):
    if n == 0:
        return Fraction(1)
    s = Fraction(0)
    for j in range(n):
        s += comb(n + 1, j) * bernoulli(j)
    return -s / (n + 1)


@lru_cache(maxsize=None)
def eisenstein(k, prec):
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k < 4 or k % 2:
        raise ValueError("weight must be even and at least 4")
    factor = Fraction(-2 * k) / bernoulli(k)
    sig = [0] * prec
    for d in range(1, prec):
        dk = d ** (k - 1)
        for n in range(d, prec, d):
            sig[n] += dk
    coeffs = [1] + [factor * s for s in sig[1:]]
    return QSeries(0, coeffs, prec)


@lru_cache(maxsize=None)
def delta_series(prec):
    """The discriminant cusp form q prod (1-q^n)^24."""
    return eta_quotient([(1, 24)], max(prec - 1, 0)).shift(1)


@lru_cache(maxsize=None)
def j_series(prec):
    """j = E_4^3 / Delta = q^-1 + 744 + 196884 q + ..."""
    e4 = eisenstein(4, prec + 2)
    return (e4 ** 3) * delta_series(prec + 2).inv()


def d_series(p, prec):
    """The hauptmodul d_p = (Delta(q^p)/Delta(q))^(1/(p-1)) of X_0(p)."""
    d = list(d_powers(p, 2, prec))[1]
    if not all(isinstance(x, int) for x in d.c):
        raise ValueError("d_%d has a non-integer coefficient" % p)
    return d


def d_powers(p, count, prec):
    """d_p^0, ..., d_p^(count-1) below q^prec, each the eta quotient
    d_p^i = q^i prod ((1-q^pn)/(1-q^n))^(ti), t = 24/(p-1), by the power
    recurrence and no product of powers: an iterator, each power built as
    it is read (the prime is checked at the call)."""
    if p not in GENUS_ZERO_PRIMES:
        raise ValueError("X_0(%d) is not of genus 0" % p)
    t = 24 // (p - 1)
    return (eta_quotient([(p, t * i), (1, -t * i)], max(prec - i, 0)).shift(i)
            for i in range(count))


def _as_int(x, what="value", *args):
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError("%s is not an integer: %s" % (what % args, x))
        return x.numerator
    return x


def d_expansion(fs, dpows):
    """Expand each series f of the list fs in the powers dpows = 1, d, ...,
    d^(k-1) of a d = q + O(q^2) by triangular solve: the coefficient of q^i
    of what is left of f pins its r_i.  dpows may be an iterator: each
    power is read once, and every f takes it before the next is read.

    Returns, for each f in turn, its integer coefficients r_0..r_(k-1) and
    its residual f - sum r_i d^i, which the caller checks; a non-integer r_i
    raises, and so does a degree i at or past a residual's precision, for
    the first f at the least such degree.  A residual is one list of the
    coefficients of q^lo .. q^(prec-1): each step with r_i != 0 lowers prec
    to that of d^i and subtracts r_i d^i in one slice update, as
    f - r_0 - r_1 d - ... in QSeries arithmetic would.
    """
    out = [([], f.start, f.prec, list(f.c) + [0] * (f.prec - f.start - len(f.c)))
           for f in fs]
    for i, dpow in enumerate(dpows):
        for k, (coeffs, lo, prec, res) in enumerate(out):
            if i >= prec:
                raise PrecisionError("coefficient of q^%d unknown (precision %d)"
                                     % (i, prec))
            r = _as_int(res[i - lo] if i >= lo else 0,
                        "d-expansion coefficient of degree %d", i)
            coeffs.append(r)
            if not r:
                continue
            if dpow.start < lo:
                res[:0] = [0] * (lo - dpow.start)
                lo = dpow.start
            prec = min(prec, dpow.prec)
            del res[max(prec - lo, 0):]
            a = dpow.start - lo
            seg = dpow.c[:max(len(res) - a, 0)]
            res[a:a + len(seg)] = [x - r * y
                                   for x, y in zip(res[a:a + len(seg)], seg)]
            out[k] = coeffs, lo, prec, res
    return [(coeffs, QSeries(lo, res, prec)) for coeffs, lo, prec, res in out]


def verify_eisenstein_power(p):
    """Check E_{t_p(p-1)}^(12/(t_p(p-1))) = (j - c_p) Delta to precision 60.

    Returns None on success, else (exponent, lhs, rhs) for the first mismatch.
    """
    prec = 60
    k = T_P[p] * (p - 1)
    lhs = eisenstein(k, prec) ** (12 // k)
    rhs = (j_series(prec) - C_P[p]) * delta_series(prec)
    hi = min(lhs.prec, rhs.prec)
    for n in range(0, hi):
        if lhs.coeff(n) != rhs.coeff(n):
            return (n, lhs.coeff(n), rhs.coeff(n))
    return None


class HPoly:
    """The degree-(p+1) integer polynomial with d_p * j = H_p(d_p).  The
    coefficients are a tuple, so a cached H_p cannot be changed."""

    def __init__(self, p, coeffs):
        if len(coeffs) != p + 2:
            raise ValueError("H_%d needs %d coefficients, got %d"
                             % (p, p + 2, len(coeffs)))
        if coeffs[0] != 1:
            raise ValueError("H_%d must have constant term 1" % p)
        if coeffs[-1] == 0:
            raise ValueError("H_%d must have degree %d" % (p, p + 1))
        if not all(isinstance(c, int) for c in coeffs):
            raise ValueError("H_%d must have integer coefficients" % p)
        self.p = p
        self.coeffs = tuple(coeffs)

    def degree(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (isinstance(other, HPoly) and self.p == other.p
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "HPoly(%d, %r)" % (self.p, self.coeffs)


@lru_cache(maxsize=None)
def solve_hauptmodul_poly(p):
    """Solve d_p * j = H_p(d_p) for H_p by expanding d_p * j in powers of d_p.

    The residual beyond degree p+1 must vanish through the full working
    precision.
    """
    prec = 3 * (p + 2) + 16
    d = d_series(p, prec)
    target = d * j_series(prec)
    [(coeffs, residual)] = d_expansion([target],
                                       d_powers(p, p + 2, target.prec))
    if not residual.is_zero():
        raise ValueError("nonzero residual at exponent %d" % residual.valuation())
    return HPoly(p, coeffs)


def check_hauptmodul_polygon(p):
    """Newton polygon of H_p(d) - c_p d as a polynomial in d: must consist of a
    single side of slope e*p."""
    h = solve_hauptmodul_poly(p)
    coeffs = [Fraction(c) for c in h.coeffs]
    coeffs[1] -= Fraction(C_P[p])
    poly = NewtonPolygon([(i, val_p(c, p)) for i, c in enumerate(coeffs)])
    slopes = poly.slopes()
    want = e_exponent(p) * p
    if len(slopes) != 1 or slopes[0][0] != want:
        raise ValueError("polygon of H_%d - c_%d d is %r, expected single slope %s"
                         % (p, p, slopes, want))
    return poly


class BiPoly:
    """A finitely supported bivariate polynomial/Laurent polynomial in (x, y).
    The terms are a read-only mapping, so a cached I_p cannot be changed."""

    def __init__(self, terms):
        self.terms = MappingProxyType({k: v for k, v in terms.items()
                                       if v != 0})

    def get(self, i, j):
        return self.terms.get((i, j), 0)

    def bidegree(self):
        if not self.terms:
            return (0, 0)
        return (max(i for i, _ in self.terms), max(j for _, j in self.terms))

    def y_part(self, j):
        """Coefficient of y^j, as a dict i -> coefficient."""
        return {i: v for (i, jj), v in self.terms.items() if jj == j}

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __repr__(self):
        return "BiPoly(%r)" % (dict(sorted(self.terms.items())),)

    def pretty(self):
        """Human-readable layout grouped by ascending powers of y."""
        _, dj = self.bidegree()
        lines = []
        const = self.get(0, 0)
        if const:
            lines.append(str(const))
        for j in range(1, dj + 1):
            part = self.y_part(j)
            if not part:
                continue
            monos = []
            for i in sorted(part, reverse=True):
                c = part[i]
                monos.append("%s*x^%d" % (c, i) if i > 1 else "%s*x" % c)
            lines.append("+ (%s) * y^%d" % (" + ".join(monos), j))
        return "\n".join(lines)


@lru_cache(maxsize=None)
def modular_equation_ip(p):
    """Derive I_p symbolically from H_p.

    With pi = p^(-12/(p-1)) the involution swaps d and pi/d, giving the
    two-variable relation F(x, Y) = H_p(pi Y) x - H_p(x) pi Y = 0 on
    (x, Y) = (d(q^p), 1/d(q)).  Its k-th term h_k ((pi Y)^k x - x^k pi Y)
    is 0 at k = 1 and -h_k pi Y x (x^(k-1) - (pi Y)^(k-1)) at k >= 2, so,
    as h_0 = 1, F / (x - pi Y) = I_p = 1 - sum h_(a+b) pi^b x^a Y^b over
    a, b >= 1, a + b <= p + 1, every term of which must be an integer.
    """
    h = solve_hauptmodul_poly(p).coeffs
    pi = Fraction(1, p ** (12 // (p - 1)))
    return BiPoly({(0, 0): 1, **{(a, b): _as_int(
        -h[a + b] * pi ** b, "I_%d coefficient of x^%d y^%d", p, a, b)
        for a in range(1, p + 1) for b in range(1, p + 2 - a)}})


@lru_cache(maxsize=None)
def _ip_powers(p):
    """1, x, ..., x^p and 1, d, ..., d^p for x = d(q^p) and d = d_p(q), to
    the precision of certify_ip_laurent, as tuples: the fit builds its
    system from them, and its check and the certificate claims re-read them."""
    prec = max(p * (p + 1) + 40, p * (p + 3) + 24)
    dpows = tuple(d_powers(p, p + 1, prec))
    return tuple(f.v_substitute(p).truncate(prec) for f in dpows), dpows


@lru_cache(maxsize=None)
def practical_ip_fit(p, n_eq=None):
    """Find I_p by exact linear algebra: the bidegree-(p,p) polynomial with
    constant term 1 vanishing on (d_p(q^p), 1/d_p(q)).

    The q-expansion of sum c_ij d(q^p)^i d(q)^(p-j) below q^n_eq gives one
    integer linear equation per coefficient, solved modulo the product M of
    two pool primes (about 2^60, so the system is held once, as columns of
    64-bit words; the largest coefficient, of I_13, has 46 bits), moving to
    the next disjoint pair (at most three) when a pivot is not a unit or the
    kernel there is not one-dimensional.
    Scaled to c_00 = 1 and lifted to (-M/2, M/2], the vector must pass the
    check of certify_ip_laurent, which covers every equation.  That makes it
    the unique I_p: the rank over each F_q is at most the rank over Q, so the
    kernel over Q has dimension at most 1.
    """
    if n_eq is None:
        n_eq = p * (p + 1) + 40
    xpows, dpows = _ip_powers(p)
    cols = [(i, j) for i in range(p + 1) for j in range(p + 1)]
    primes = _prime_pool(6)
    for modulus in (a * b for a, b in zip(primes[::2], primes[1::2])):
        columns = [memoryview(bytearray(8 * n_eq)).cast("Q") for _ in cols]
        for col, (i, j) in zip(columns, cols):
            for r, c in enumerate((xpows[i] * dpows[p - j]).coeffs_from(0, n_eq)):
                col[r] = c % modulus
        kern = _mod_kernel(columns, modulus)
        if kern is not None:
            break
    else:
        raise ValueError("kernel dimension is not 1: precision too low")
    del columns                         # not held through the lift's check
    if gcd(kern[0], modulus) != 1:       # cols[0] is (0, 0)
        raise ValueError("relation misses the constant term")
    scale = pow(kern[0], -1, modulus)
    vec = _sym_crt([[v * scale for v in kern]], [modulus])
    fit = BiPoly(dict(zip(cols, vec)))
    if not certify_ip_laurent(p, fit):
        raise ValueError("exact residual check failed")
    return fit


def certify_ip_laurent(p, ip):
    """Check I_p(d_p(q^p), 1/d_p(q)) = 0 in the polynomial form
    d^p I_p = sum_i x^i (sum_j c_ij d^(p-j)), x = d(q^p), below
    q^max(p(p + 1) + 40, p(p + 3) + 24).  As d = q + O(q^2), d^p is q^p
    times a unit, so that is the Laurent identity to p fewer terms.  A
    relation of bidegree above (p, p) is rejected, not evaluated."""
    if max(ip.bidegree()) > p:
        return False
    xpows, dpows = _ip_powers(p)
    prec = dpows[0].prec
    inner = [[0] * prec for _ in xpows]
    for (i, j), c in ip.terms.items():
        f, acc = dpows[p - j], inner[i]
        acc[f.start:f.start + len(f.c)] = [a + c * b for a, b in
                                           zip(acc[f.start:], f.c)]
    return sum((x * QSeries(0, acc, prec - x.start)
                for x, acc in zip(xpows, inner)), QSeries.zero(prec)).is_zero()


@lru_cache(maxsize=None)
def ip_poly(p):
    """The canonical I_p: the exact fit, which passes certify_ip_laurent,
    must agree exactly with the symbolic route."""
    fit = practical_ip_fit(p)
    if fit != modular_equation_ip(p):
        raise ValueError("the two I_%d routes disagree" % p)
    return fit
