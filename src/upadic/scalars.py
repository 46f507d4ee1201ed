"""Exact scalars: p-adic valuations with +infinity, and elements of Z[sqrt(3)]
with their valuation.

All values are immutable.  Valuations are exact rationals (never floats),
because half-integer and other fractional valuations occur throughout.
"""

from fractions import Fraction


def vp_int(n, p):
    """Exponent of p in a nonzero integer n, in O(log v) big-int divisions.

    Dividing out p, p^2, p^4, ... while they divide leaves a cofactor of
    valuation below the last square tried; the same squares, largest first,
    then take off its remaining valuation bit by bit.
    """
    if n == 0:
        raise ValueError("vp_int requires n != 0")
    n = abs(n)
    v = 0
    squares = []
    q = p
    while n % q == 0:
        n //= q
        v += 1 << len(squares)
        squares.append(q)
        q *= q
    for k in range(len(squares) - 1, -1, -1):
        if n % squares[k] == 0:
            n //= squares[k]
            v += 1 << k
    return v


class Val:
    """A p-adic valuation value: an exact rational, or +infinity (valuation of 0).

    Totally ordered with +infinity maximal; addition is absorbing at infinity.
    """

    __slots__ = ("v",)

    def __init__(self, v=None):
        # v is a Fraction/int, or None for +infinity
        self.v = None if v is None else Fraction(v)

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self.v is None

    def __add__(self, other):
        if not isinstance(other, Val):
            other = Val(other)
        if self.v is None or other.v is None:
            return Val.infinity()
        return Val(self.v + other.v)

    __radd__ = __add__

    def _cmp_key(self, other):
        if not isinstance(other, Val):
            other = Val(other)
        return self.v, other.v

    def __eq__(self, other):
        a, b = self._cmp_key(other)
        return a == b

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        if a is None:
            return False
        if b is None:
            return True
        return a < b

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return "Val(inf)" if self.v is None else "Val(%s)" % self.v

    def __str__(self):
        if self.v is None:
            return "inf"
        if self.v.denominator == 1:
            return str(self.v.numerator)
        return "%d/%d" % (self.v.numerator, self.v.denominator)


INF = Val.infinity()


def val_p(x, p):
    """Exact p-adic valuation of a rational x, as a Val (+infinity for 0)."""
    x = Fraction(x)
    if x == 0:
        return INF
    return Val(vp_int(x.numerator, p) - vp_int(x.denominator, p))


class QuadInt3:
    """An element a + b*sqrt(3) of Z[sqrt(3)]."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a
        self.b = b

    def __eq__(self, other):
        try:
            other = _coerce3(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __repr__(self):
        if self.b == 0:
            return "QuadInt3(%d)" % self.a
        return "QuadInt3(%d%+d*sqrt3)" % (self.a, self.b)


def _coerce3(x):
    if isinstance(x, QuadInt3):
        return x
    if isinstance(x, int):
        return QuadInt3(x, 0)
    raise TypeError("cannot coerce %r into Z[sqrt(3)]" % (x,))


def val_quad3(x):
    """Valuation on Z[sqrt(3)] normalized so v(sqrt(3)) = 1/2 and v(3) = 1.

    v(a + b sqrt3) = min(v_3(a), v_3(b) + 1/2); +infinity for 0.
    """
    x = _coerce3(x)
    if x.is_zero():
        return INF
    if x.a == 0:
        return Val(Fraction(2 * vp_int(x.b, 3) + 1, 2))
    if x.b == 0:
        return Val(vp_int(x.a, 3))
    return Val(min(Fraction(vp_int(x.a, 3)), Fraction(2 * vp_int(x.b, 3) + 1, 2)))

