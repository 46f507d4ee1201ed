"""Characteristic series det(1 - tM) of truncated U matrices, each
coefficient known modulo a proven power of p (exact CRT coefficients at
infinite precision), the one truncation certificate for them, Newton
polygons, and the p=3 parabola (3/2)m(m-1) + 2m with its equality set and
secant upper bounds.
"""

import math
from fractions import Fraction
from operator import sub

from .scalars import INF, val_p, vp_int
from .newton import NewtonPolygon
from .modcurve import e_exponent, ip_poly
from .linalg import _CHUNK, _charpoly_mod, _prime_pool, _sym_crt
from .umatrix import row_bound


def charpoly_leverrier(rows):
    """Coefficients a_0..a_n of det(1 - tA) for an integer matrix A.

    Integer-only Faddeev-LeVerrier: every division is exact, and a
    ValueError is raised if one is not (a non-integral matrix).
    """
    n = len(rows)
    coeffs = [1]
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        ab = _matmul(rows, b)
        tr = sum(ab[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise ValueError("trace not divisible in exact Leverrier step %d"
                             % k)
        coeffs.append(q)
        if k < n:
            b = [[ab[i][j] + (q if i == j else 0) for j in range(n)]
                 for i in range(n)]
    return coeffs


def _matmul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in bt]
            for row in a]


def _coefficient_floors(minima):
    """L_0..L_n with p^(L_m) dividing the coefficient a_m of det(1 - tA).

    Each term of an m-row principal minor has valuation at least the sum of
    its rows' scaled minima r_i (umatrix.scaled_row_minima), so
    L_m = max(0, ceil(sum of the m smallest r_i)) holds for any integer
    matrix.  Rows that are zero drop out; with fewer than m nonzero rows
    a_m = 0 and L_m = 0.
    """
    mins = sorted(r for r in minima if r < INF)
    floors, s = [0], 0
    for r in mins:
        s += r
        floors.append(max(0, math.ceil(s)))
    return floors + [0] * (len(minima) - len(mins))


def _coefficient_bounds(rows):
    """B_0..B_n with |a_m| <= B_m for det(1 - tA).

    a_m is a signed sum of principal m-minors, and by Hadamard each is at
    most the product of its rows' norms, so B_m = e_m(ceil ||row_1||, ...,
    ceil ||row_n||): one exact elementary-symmetric recurrence.
    """
    bounds = [1] + [0] * len(rows)
    for k, row in enumerate(rows, 1):
        s = sum(x * x for x in row)
        if s:
            c = math.isqrt(s - 1) + 1
            for m in range(k, 0, -1):
                bounds[m] += bounds[m - 1] * c
    return bounds


def _crt_bits(rows, p, floors):
    """Bit length of the largest |a_m| / p^(L_m) the bounds allow."""
    return max((b // p ** l).bit_length()
               for b, l in zip(_coefficient_bounds(rows), floors))


def charpoly_crt(rows, p, minima):
    """Coefficients a_0..a_n of det(1 - tA), exactly.

    What is reconstructed is b_m = a_m / p^(L_m), with L_m the floors that
    _coefficient_floors reads off minima, the scaled row minima of rows, and
    _crt_bits fixes how many primes of the pool are needed.  The Hessenberg
    reduction runs once per chunk of _CHUNK of them, modulo their product; a
    chunk where a pivot is not a unit modulo that product is redone one
    prime at a time.  Each residue is divided by p^(L_m) modulo its modulus
    (the pool primes exceed p), and CRT over the chunk moduli with a
    symmetric lift gives the b_m.
    """
    n = len(rows)
    if n == 0:
        return [1]
    floors = _coefficient_floors(minima)
    primes = _prime_pool(_crt_bits(rows, p, floors) // 29 + 2)
    moduli, residues = [], []
    for start in range(0, len(primes), _CHUNK):
        chunk = primes[start:start + _CHUNK]
        modulus = math.prod(chunk)
        res = _charpoly_mod(rows, modulus)
        if res is None:
            parts = [(q, _charpoly_mod(rows, q)) for q in chunk]
        else:
            parts = [(modulus, res)]
        for q, rs in parts:
            inv = pow(p, -1, q)
            moduli.append(q)
            residues.append([r * pow(inv, l, q) % q
                             for r, l in zip(rs, floors)])
    return [p ** l * b for l, b in zip(floors, _sym_crt(residues, moduli))]


class CharSeries:
    """Coefficients a_0..a_t of det(1 - tM) for a truncation of U, known
    modulo proven powers of p: v_p(a_m - residues[m]) >= precisions[m], INF
    for an exact a_m.  a_0 = 1 is exact on every route."""

    def __init__(self, p, residues, precisions, trunc_size):
        if residues[0] != 1:
            raise ValueError("a characteristic series starts with 1, not %r"
                             % (residues[0],))
        self.p = p
        self.residues = tuple(residues)
        self.precisions = (INF, *precisions[1:])
        self.trunc_size = trunc_size

    def valuation(self, m):
        """v_p(a_m): an int, INF for a_m = 0, or None when the residue
        leaves it open."""
        return _known_valuation(self.residues[m], self.precisions[m], self.p)


def _known_valuation(x, pi, p):
    """v_p of a number known to be x modulo p^pi (exactly if pi is INF), or
    None unless v_p(x) lies below pi, which makes it the number's."""
    v = val_p(x, p)
    return v if pi == INF or v < pi else None


def full_series(q):
    """The full characteristic series (1 - t) Q from the cuspidal Q:
    P_m = a_m - a_(m-1), known to the lesser of the two precisions.  a_0 = 1
    is exact, and so is a_(size+1) = 0 when Q has every coefficient."""
    a, pis = q.residues, q.precisions
    if len(a) == q.trunc_size + 1:
        a, pis = a + (0,), pis + (INF,)
    return CharSeries(q.p, [1, *map(sub, a[1:], a)],
                      [INF, *map(min, pis[1:], pis)], q.trunc_size)


def check_scaled_integrality(p):
    """The finite check behind the row bounds: every term c x^i y^j of I_p
    satisfies v_p(c) >= e(pi - j)."""
    e = e_exponent(p)
    ip = ip_poly(p)
    for (i, j), c in ip.terms.items():
        if (i, j) == (0, 0):
            continue
        if vp_int(c, p) < e * (p * i - j):
            return False
    return True


def trunc_bound(p, m, n_trunc):
    """Valuation below which the n_trunc-truncation cannot change a_m: a
    Fraction, or INF for m = 0.

    The row bounds r_i = e(p-1)i - 1 increase with i, so any size-m diagonal
    minor using a row beyond the truncation has valuation at least the sum
    of the m-1 smallest row bounds, (m-1)(r_1 + r_(m-1))/2 as r_i is linear
    in i, plus the bound of the first omitted row.
    """
    if m == 0:
        return INF
    return (Fraction(m - 1, 2) * (row_bound(p, 1) + row_bound(p, m - 1))
            + row_bound(p, n_trunc + 1))


def parabola_floor(m):
    """The p=3 parabola (3/2)m(m-1) + 2m below the cuspidal Newton polygon."""
    return Fraction(3, 2) * m * (m - 1) + 2 * m


def m_index(i):
    """m_i = (3^i - 1)/2, the abscissas of forced polygon contact."""
    return (3 ** i - 1) // 2


def equality_indices_upto(m_max):
    out = []
    i = 0
    while m_index(i) <= m_max:
        out.append(m_index(i))
        i += 1
    return out


class CoefficientRecord:
    """Certification record for one characteristic-series coefficient."""

    __slots__ = ("m", "v_obs", "bound", "certified")

    def __init__(self, m, v_obs, bound, agree):
        self.m = m
        self.v_obs = v_obs
        self.bound = bound
        self.certified = bool(agree and v_obs < bound)

    def lower_bound(self):
        """A valuation the true coefficient provably meets or exceeds."""
        return self.v_obs if self.certified else min(self.v_obs, self.bound)

    def __repr__(self):
        return ("CoefficientRecord(m=%d, v=%s, bound=%s, certified=%s)"
                % (self.m, self.v_obs, self.bound, self.certified))


def certify(q1, q2, m_max):
    """Certification of v_p(a_m) from two truncations (sizes n and n+10), or
    None unless the residues settle every record (exact series always do).

    Enlarging the truncation changes each coefficient by an error of
    valuation at least the truncation bound T_m, so the observed valuation
    v of the first truncation is exact once it sits strictly below T_m.  Its
    residue must prove v and both precisions reach T_m; the second
    truncation is an independent recomputation, which must agree with the
    first modulo p^(T_m), as the certificate predicts.  Below T_m that
    congruence gives the second truncation the valuation v too, and at or
    above T_m no record is certified, so its valuation is never read.
    """
    p = q1.p
    if q2.trunc_size <= q1.trunc_size:
        raise ValueError("the second truncation (size %d) must be larger "
                         "than the first (size %d)"
                         % (q2.trunc_size, q1.trunc_size))
    out = [CoefficientRecord(0, 0, INF, True)]         # a_0 = 1
    for m in range(1, m_max + 1):
        v = q1.valuation(m)
        bound = trunc_bound(p, m, q1.trunc_size)
        if v is None or min(q1.precisions[m], q2.precisions[m]) < bound:
            return None
        agree = val_p(q1.residues[m] - q2.residues[m], p) >= bound
        out.append(CoefficientRecord(m, v, bound, agree))
    return out


def equality_set(records):
    """{m : v_3(a_m(Q_0)) = (3/2)m(m-1) + 2m} over the certified records of
    the p=3 weight-0 series; raises when a record is neither certified nor
    provably above the parabola."""
    out = set()
    for rec in records:
        target = parabola_floor(rec.m)
        if rec.m == 0:
            out.add(0)
        elif rec.certified and rec.v_obs == target:
            out.add(rec.m)
        elif not rec.certified and rec.lower_bound() <= target:
            raise ValueError("coefficient %d neither certified nor provably "
                             "above the parabola" % rec.m)
    return out


def secant_line(i, m):
    """L(m) for the secant through (m_i, parabola) and (m_{i+1}, parabola)."""
    a, b = m_index(i), m_index(i + 1)
    ya, yb = parabola_floor(a), parabola_floor(b)
    return ya + Fraction(yb - ya, b - a) * (m - a)


def polygon_from_records(records):
    """Newton polygon of the certified/lower-bounded points.

    Uncertified coefficients enter at their proven lower bound, so the hull
    computed here lies at or below the true polygon everywhere.
    """
    return NewtonPolygon([(r.m, r.lower_bound()) for r in records])
