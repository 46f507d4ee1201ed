"""Truncated formal power/Laurent series in q with exact rational coefficients.

A QSeries stores coefficients for exponents start <= n < prec and represents
a series known modulo q^prec.  All operations propagate precision
pessimistically and never claim coefficients beyond what the operands
determine, so downstream truncation certificates stay sound.
"""

from fractions import Fraction
from math import lcm

from .scalars import INF


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the known precision is requested."""


def _norm(x):
    # collapse Fraction with denominator 1 to int (keeps arithmetic on the
    # integer fast path)
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class QSeries:

    __slots__ = ("start", "prec", "c")

    def __init__(self, start, coeffs, prec):
        # canonical form: no leading or trailing zeros, length <= prec - start;
        # a tuple, so that no caller can change a cached series
        c = tuple(coeffs)
        if Fraction in map(type, c):
            c = tuple(map(_norm, c))
        lo = next((i for i, x in enumerate(c) if x != 0), len(c))
        hi = min(len(c), prec - start)
        while hi > lo and c[hi - 1] == 0:
            hi -= 1
        if hi <= lo:
            start, c = prec, ()
        else:
            start, c = start + lo, c[lo:hi]
        self.start = start
        self.prec = prec
        self.c = c

    @classmethod
    def const(cls, value, prec):
        return cls(0, [value], prec)

    @classmethod
    def zero(cls, prec):
        return cls(prec, [], prec)

    def coeff(self, n):
        """Coefficient of q^n; raises PrecisionError for n >= prec."""
        if n >= self.prec:
            raise PrecisionError("coefficient of q^%d unknown (precision %d)"
                                 % (n, self.prec))
        if n < self.start:
            return 0
        k = n - self.start
        return self.c[k] if k < len(self.c) else 0

    def coeffs_from(self, lo, hi):
        """Coefficients of q^lo .. q^(hi-1) as a list; hi must be <= prec."""
        if hi > self.prec:
            raise PrecisionError("range beyond precision")
        pad = max(min(self.start, hi) - lo, 0)
        body = self.c[max(lo - self.start, 0):max(hi - self.start, 0)]
        return [0] * pad + list(body) + [0] * (hi - lo - pad - len(body))

    def valuation(self):
        """Exponent of the first nonzero known coefficient, or None if the
        series is zero to its precision."""
        return None if not self.c else self.start

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        """Exact equality of the stored data (same precision and coefficients)."""
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.start == other.start and self.prec == other.prec
                and self.c == other.c)

    def agrees_with(self, other, upto=INF):
        """Equality of all shared known coefficients below q^upto."""
        hi = min(self.prec, other.prec, upto)
        lo = min(self.start, other.start)
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, hi))

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.const(other, self.prec)
        prec = min(self.prec, other.prec)
        start = min(self.start, other.start, prec)
        out = [0] * (prec - start)
        for src in (self, other):
            for k, x in enumerate(src.c):
                n = src.start + k
                if n < prec:
                    out[n - start] += x
        return QSeries(start, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.start, [-x for x in self.c], self.prec)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.const(other, self.prec)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, s):
        if s == 0:
            return QSeries.zero(self.prec)
        return QSeries(self.start, [s * x for x in self.c], self.prec)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scalar_mul(other)
        # product of f + O(q^p1) and g + O(q^p2) is known modulo
        # q^min(p1 + start2, p2 + start1)
        prec = min(self.prec + other.start, other.prec + self.start)
        start = self.start + other.start
        if start >= prec or self.is_zero() or other.is_zero():
            return QSeries.zero(prec)
        length = prec - start
        out = [0] * length
        a, b = self.c, other.c
        if len(a) > len(b):
            a, b = b, a
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            seg = b[:length - i]
            out[i:i + len(seg)] = [u + ai * v for u, v in zip(out[i:i + len(seg)], seg)]
        return QSeries(start, out, prec)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k: the same canonical coefficients, shared."""
        out = QSeries.__new__(QSeries)
        out.start, out.c, out.prec = self.start + k, self.c, self.prec + k
        return out

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return QSeries(self.start, self.c[:max(0, prec - self.start)], prec)

    def __pow__(self, e):
        """f^e for every integer e, the inverse at e = -1.

        f = c q^s (1 + sum u_k q^k) gives f^e = c^e q^(se) (1 + sum u_k q^k)^e,
        known to f's relative precision prec - start, the unit part's power
        by _sparse_power.  Rational u_k go through the integral rescaling
        g = 1 + sum u_k D^k q^k, D the lcm of their denominators: the
        coefficient of q^m in the power is G_m / D^m.  A zero series has no
        negative power; its power e >= 0 is zero to precision e * prec.
        """
        if not isinstance(e, int):
            raise TypeError("series exponent must be an integer")
        if not self.c:
            if e < 0:
                raise ValueError("cannot invert a series that is zero to precision")
            return QSeries.zero(e * self.prec)
        lead, rest = self.c[0], self.c[1:]
        unit = rest if lead == 1 else [Fraction(x, lead) for x in rest]
        d = lcm(*(x.denominator for x in unit))
        groups = {}
        for k, x in enumerate(unit, 1):
            if x:
                groups.setdefault(int(x * d ** k), []).append(k)
        f = _sparse_power(groups.items(), e, self.prec - self.start)
        if lead != 1 or d != 1:
            lead = Fraction(lead) ** e
            f = [lead * x / d ** m for m, x in enumerate(f)]
        return QSeries(e * self.start, f, e * self.start + self.prec - self.start)

    def v_substitute(self, p):
        """q -> q^p on coefficients; precision scales by p."""
        out = [0] * (len(self.c) * p - (p - 1) if self.c else 0)
        for k, x in enumerate(self.c):
            out[k * p] = x
        return QSeries(self.start * p, out, self.prec * p)

    def u_extract(self, p):
        """Coefficient of q^n in the result is the coefficient of q^(pn).

        Precision becomes floor(prec/p).  Laurent inputs are accepted only
        when every negative exponent carrying a nonzero coefficient is
        divisible by p.
        """
        if self.start < 0:
            for k, x in enumerate(self.c):
                n = self.start + k
                if n >= 0:
                    break
                if x != 0 and n % p != 0:
                    raise ValueError(
                        "negative exponent %d not divisible by %d" % (n, p))
        # first multiple of p at or above start; the constructor drops what
        # lies at or beyond the new precision
        n0 = -((-self.start) // p) * p
        return QSeries(n0 // p, self.c[n0 - self.start::p], self.prec // p)


def _sparse_power(groups, expo, n):
    """Coefficients of g^expo below q^n for g = 1 + sum_k c_k q^k, with the
    terms given grouped by coefficient: pairs (c, ks), ks the exponents
    k >= 1 of coefficient c, ascending, the groups in any order.

    F = g^expo satisfies g F' = expo g' F, that is J. C. P. Miller's
    m F_m = sum_(k>=1) c_k ((expo + 1) k - m) F_(m-k) (Knuth, TAOCP 2,
    4.7): O(n t) operations for t terms instead of dense products, with
    (expo + 1) k formed once per term and one multiplication by c per
    group.  The groups are sorted by first exponent, so that the sum for
    F_m stops at the first group past m.  Each division by m must be exact.
    """
    f = [1] + [0] * (n - 1) if n > 0 else []
    terms = sorted(((c, [(k, (expo + 1) * k) for k in ks])
                    for c, ks in groups if ks), key=lambda t: t[1][0][0])
    for m in range(1, n):
        s = 0
        for c, pairs in terms:
            if pairs[0][0] > m:
                break
            t = 0
            for k, ak in pairs:
                if k > m:
                    break
                t += (ak - m) * f[m - k]
            s += c * t
        q, r = divmod(s, m)
        if r:
            raise ValueError("power recurrence: inexact division at q^%d" % m)
        f[m] = q
    return f


def eta_quotient(pairs, prec):
    """prod_s prod_{n>=1} (1 - q^(s n))^(e_s) for pairs of (scale s, exponent e_s).

    Each factor is a power of E = prod (1 - q^n) in q^s, by _sparse_power:
    by Euler's pentagonal theorem E_k is (-1)^i at k = i(3i - 1)/2 and
    i(3i + 1)/2, i >= 1, and 0 elsewhere, so the power costs O(n sqrt n).
    The q-power prefactor of an eta quotient is the caller's business.
    """
    plus, minus = [], []
    i = 1
    while i * (3 * i - 1) // 2 < prec:
        (minus if i % 2 else plus).extend((i * (3 * i - 1) // 2,
                                           i * (3 * i + 1) // 2))
        i += 1
    result = QSeries.const(1, prec)
    for scale, expo in pairs:
        if expo == 0:
            continue
        f = _sparse_power(((1, plus), (-1, minus)), expo, -(-prec // scale))
        spread = [0] * (scale * len(f))
        spread[::scale] = f
        factor = QSeries(0, spread, prec)
        # while the product is still 1, the factor itself is the product
        result = factor if result.c == (1,) else result * factor
    return result.truncate(prec)
