"""Characteristic-3 bivariate (Laurent) series combinatorics: the generating
function Gbar of the reduced matrix Kbar, its factorizations through the
cube-power ladder, the self-similarity identities, the vanishing property,
and excellent-permutation enumeration certifying which upper minors of Kbar
survive over F_3.
"""

from functools import lru_cache
from types import MappingProxyType

from .linalg import _charpoly_mod
from .scalars import INF


class F3BiSeries:
    """Finitely supported coefficients over F_3 in two variables, with an
    explicit reliability window: all coefficients of total degree <= known_upto
    are correct.  An exact series, such as a polynomial, has known_upto = INF.

    Multiplying series with Laurent (negative-exponent) factors shrinks the
    reliable window; the arithmetic here tracks that conservatively via the
    minimal total degree of each operand's support.  The coefficients are a
    read-only mapping, so a cached series cannot be changed.
    """

    __slots__ = ("data", "known_upto", "min_total")

    def __init__(self, data, known_upto=INF, min_total=None):
        clean = {}
        for (i, j), v in data.items():
            v %= 3
            if v and i + j <= known_upto:
                clean[(i, j)] = v
        self.data = MappingProxyType(clean)
        if min_total is None:
            min_total = min((i + j for (i, j) in clean), default=0)
        self.min_total = min_total
        self.known_upto = known_upto

    def coeff(self, i, j):
        if i + j > self.known_upto:
            raise ValueError("coefficient (%d,%d) beyond reliable window %d"
                             % (i, j, self.known_upto))
        return self.data.get((i, j), 0)

    def __add__(self, other):
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0) + v
        return F3BiSeries(out, min(self.known_upto, other.known_upto),
                          min(self.min_total, other.min_total))

    def __mul__(self, other):
        ku = min(self.known_upto + other.min_total,
                 other.known_upto + self.min_total)
        out = {}
        for (i1, j1), v1 in self.data.items():
            for (i2, j2), v2 in other.data.items():
                i, j = i1 + i2, j1 + j2
                if i + j <= ku:
                    k = (i, j)
                    out[k] = out.get(k, 0) + v1 * v2
        return F3BiSeries(out, ku, self.min_total + other.min_total)

    def cube(self):
        """Frobenius: f^3 has coefficient of (3i,3j) equal to that of (i,j)."""
        return F3BiSeries({(3 * i, 3 * j): v for (i, j), v in self.data.items()},
                          3 * self.known_upto + 2, 3 * self.min_total)

    def first_mismatch(self, other, window=INF):
        """The first key, in sorted order, whose coefficients differ on the
        largest shared reliable window, capped at window, or None."""
        ku = min(self.known_upto, other.known_upto, window)
        for k in sorted(set(self.data) | set(other.data)):
            if (k[0] + k[1] <= ku
                    and self.data.get(k, 0) != other.data.get(k, 0)):
                return k
        return None

    def agrees_with(self, other, window=INF):
        """Coefficientwise equality on the largest shared reliable window,
        capped at window."""
        return self.first_mismatch(other, window) is None

    def __eq__(self, other):
        return (isinstance(other, F3BiSeries) and self.data == other.data
                and self.known_upto == other.known_upto)

    def __repr__(self):
        return "F3BiSeries(%d terms, known_upto=%r)" % (len(self.data), self.known_upto)


def poly(data):
    return F3BiSeries(data)


# the quartic xy(1 + x^2 + xy + y^2), the common kernel of the generating
# function's denominator and of the cube-ladder factors
A_QUARTIC = poly({(1, 1): 1, (3, 1): 1, (2, 2): 1, (1, 3): 1})

# Laurent multiplier of the self-similarity identities: 1 + (y/x) + (y/x)^2.
# Only its constant term shifts y-degrees by a multiple of 3, which is what
# makes the coefficient extraction below work.
SELFSIM_MULTIPLIER = poly({(0, 0): 1, (-1, 1): 1, (-2, 2): 1})

# the inhomogeneous polynomial tail of the self-similarity identities; all
# y-exponents avoid 0 mod 3
SELFSIM_TAIL = poly({(1, 1): 1, (1, 5): 2, (3, 1): 1, (3, 5): 1, (3, 7): 1,
                     (4, 2): 2, (4, 4): 1, (6, 2): 1, (6, 4): 2})

# the published display of the same identity (multiplier, tail, and the
# mirrored leading factor); kept for the erratum check: no identity of this
# shape exists, see verify_selfsim_printed_display
PRINTED_MULTIPLIER = poly({(-1, 1): 1, (0, 0): 1, (1, -1): -1, (0, -2): 1})
PRINTED_TAIL = poly({(1, 1): 1, (2, 4): 1, (6, 2): 1})
PRINTED_GBAR0 = poly({(1, 1): 1, (2, 2): -1, (1, 3): 1})


def gbar0():
    """xy(1 - xy + x^2), the degree-0 factor of the generating function.

    The orientation (x marks the row index) is pinned by the matrix itself:
    row 1 of Kbar is concentrated in column 1, which forces the x^3 y term;
    the published display mirrors this monomial to x y^3."""
    return poly({(1, 1): 1, (2, 2): -1, (3, 1): 1})


@lru_cache(maxsize=None)
def r_factor(i):
    """(1 + A + A^2)^(3^i), computed exactly through Frobenius cubes."""
    base = poly({(0, 0): 1}) + A_QUARTIC + A_QUARTIC * A_QUARTIC
    for _ in range(i):
        base = base.cube()
    return base


@lru_cache(maxsize=None)
def gbar(window):
    """The generating function of Kbar over F_3 on a total-degree window:
    xy(1 + 2xy + x^2) / (1 - A)."""
    num = poly({(1, 1): 1, (2, 2): 2, (3, 1): 1})
    acc = F3BiSeries(num.data, known_upto=window)
    term = acc
    while term.data:
        term = F3BiSeries((term * A_QUARTIC).data, known_upto=window)
        acc = acc + term
    return acc


def gbar_j(j):
    """Gbar_j = Gbar_0 * prod_{i<j} R(i); exact polynomial."""
    out = gbar0()
    for i in range(j):
        out = out * r_factor(i)
    return out


def cbar_j(j, window):
    """Cbar_j = prod_{i>=j} R(i) truncated to the window; factors become 1
    once their nonconstant support passes the window."""
    out = F3BiSeries({(0, 0): 1}, known_upto=window)
    i = j
    while 2 * 3 ** i <= window:
        out = F3BiSeries((out * r_factor(i)).data, known_upto=window)
        i += 1
    return out


def verify_gbar_factorization(j, window):
    """Gbar = Gbar_j * Cbar_j on the window."""
    lhs = gbar(window)
    rhs = gbar_j(j) * cbar_j(j, window)
    return lhs.agrees_with(rhs)


def verify_cube_ladder(j, window):
    """Cbar_j^3 = Cbar_(j+1) on the window."""
    lhs = cbar_j(j, 3 * window + 2)
    return lhs.cube().agrees_with(cbar_j(j + 1, window), window=window)


def verify_selfsim_base():
    """Gbar_1 = (1 + x^-1 y + x^-2 y^2) Gbar_0^3 + tail, an exact polynomial
    identity.  Returns None, or the first mismatch."""
    rhs = SELFSIM_MULTIPLIER * gbar0().cube() + SELFSIM_TAIL
    return gbar_j(1).first_mismatch(rhs)


def verify_selfsim_printed_display():
    """The published display of the degree-1 self-similarity identity, as
    printed, in both variable orientations.  Returns the first mismatch per
    orientation; both are expected to be non-None (display errata): an
    exhaustive affine-space search shows no identity with a 4-term Laurent
    multiplier and 3-term tail exists for either orientation of Gbar_0."""
    return [(g0 * r_factor(0)).first_mismatch(
                PRINTED_MULTIPLIER * g0.cube() + PRINTED_TAIL)
            for g0 in (gbar0(), PRINTED_GBAR0)]


def verify_selfsim_full(window):
    """Gbar = (1 + x^-1 y + x^-2 y^2) Gbar^3 + tail * Cbar_1 on the reliable
    window.  Returns None, or the first mismatching (i, j)."""
    g = gbar(window)
    rhs = SELFSIM_MULTIPLIER * g.cube() + SELFSIM_TAIL * cbar_j(1, window)
    return g.first_mismatch(rhs)


def verify_extraction(window):
    """The consequence the self-similarity identities exist to deliver: the
    coefficient of x^i y^(3j) in Gbar equals that of x^i y^(3j) in Gbar^3,
    i.e. Gbar(3a, 3b) = Gbar(a, b) and the coefficient vanishes for 3 not
    dividing i.  Returns the list of violations on the window."""
    g = gbar(window)
    bad = []
    for i in range(1, window):
        for j3 in range(3, window - i + 1, 3):
            v = g.data.get((i, j3), 0)
            want = g.data.get((i // 3, j3 // 3), 0) if i % 3 == 0 else 0
            if v != want:
                bad.append((i, j3))
    return bad


def vanishing_check(window):
    """Coefficient of x^i y^(3j) in Gbar vanishes whenever 3 does not divide i.
    Returns the list of counterexamples on the window (empty on success)."""
    g = gbar(window)
    bad = []
    for (i, j), v in g.data.items():
        if j % 3 == 0 and i % 3 != 0 and v:
            bad.append((i, j))
    return sorted(bad)


def kbar_rows(size):
    """Kbar as a size x size matrix over F_3: entry (i, j) is the coefficient
    of x^i y^j in Gbar (1-indexed)."""
    g = gbar(2 * size)
    return tuple(tuple(g.coeff(i, j) for j in range(1, size + 1))
                 for i in range(1, size + 1))


def upper_minor_f3(rows, m):
    """Determinant over F_3 of the upper m x m corner: (-1)^m times the
    constant term of its characteristic polynomial det(tI - A)."""
    if m > len(rows):
        raise ValueError("no upper %d x %d minor in a %d x %d matrix"
                         % (m, m, len(rows), len(rows)))
    corner = [row[:m] for row in rows[:m]]
    return (-1) ** m * _charpoly_mod(corner, 3)[-1] % 3


def enumerate_excellent(m, rows):
    """Count degree-m permutations pi whose selection against the upper
    m x m corner of Kbar, read from rows (kbar_rows(s) for any s >= m), is
    all-nonzero; returns (count, witnesses), the first four found.

    Permutations are returned 1-indexed as tuples (pi(1), ..., pi(m)).
    Backtracking over the sparse nonzero support; the bandwidth of Kbar
    keeps this immediate for m <= 13.
    """
    support = [[j + 1 for j in range(m) if rows[i][j]] for i in range(m)]
    count = 0
    witnesses = []
    used = [False] * (m + 1)
    pick = [0] * (m + 1)

    def rec(i):
        nonlocal count
        if i > m:
            count += 1
            if len(witnesses) < 4:
                witnesses.append(tuple(pick[1:]))
            return
        for j in support[i - 1]:
            if not used[j]:
                used[j] = True
                pick[i] = j
                rec(i + 1)
                used[j] = False

    rec(1)
    return count, witnesses


def recursive_witness_permutation(i):
    """The recursively built excellent permutation of degree m_i = (3^i-1)/2.

    Degree m maps to degree 3m+1 by pi(1) = 1 and, for each t, the block
    pi(3t) = 3 sigma(t), pi(3t-1) = 3 sigma(t) + 1, pi(3t+1) = 3 sigma(t) - 1.
    Returned 1-indexed as a tuple.
    """
    pi = ()
    for _ in range(i):
        m = len(pi)
        new = [0] * (3 * m + 2)
        new[1] = 1
        for t in range(1, m + 1):
            s = pi[t - 1]
            new[3 * t] = 3 * s
            new[3 * t - 1] = 3 * s + 1
            new[3 * t + 1] = 3 * s - 1
        pi = tuple(new[1:])
    return pi


def is_excellent(pi, rows):
    """Whether the selection of Kbar along (1..m) and pi is all-nonzero, Kbar
    read from rows (kbar_rows(s) for any s >= m)."""
    m = len(pi)
    if sorted(pi) != list(range(1, m + 1)):
        raise ValueError("not a permutation")
    return all(rows[i - 1][pi[i - 1] - 1] for i in range(1, m + 1))
