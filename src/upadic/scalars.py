"""Exact scalars: p-adic valuations, and elements of Z[sqrt(3)] with their
valuation.

A finite valuation is an exact rational, an int or a Fraction, and never a
float, because half-integer and other fractional valuations occur
throughout.  INF = math.inf, the package's only float, is every known
infinity: the valuation of 0, the reliable window of an exact F_3 series
(mod3.F3BiSeries) and the scaled minimum of a zero row
(umatrix.scaled_row_minima).  It compares exactly with ints and Fractions
and absorbs addition.  None means unknown and nothing else: comparing it
with any valuation raises TypeError, so it never passes for a proven one.
"""

import math
from fractions import Fraction

INF = math.inf


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


def val_p(x, p):
    """Exact p-adic valuation of a rational x: an int, or INF for 0."""
    x = Fraction(x)
    if x == 0:
        return INF
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


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

    v(a + b sqrt3) = min(v_3(a), v_3(b) + 1/2); INF for 0.
    """
    x = _coerce3(x)
    if x.is_zero():
        return INF
    return min(val_p(x.a, 3), val_p(x.b, 3) + Fraction(1, 2))

