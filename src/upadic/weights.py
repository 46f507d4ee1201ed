"""Weight twists for p=3 via multiplication by (S/V(S))^(k/3); the cached
characteristic series, for every prime p at weight 0 and every weight k at
p=3, as graded residues and exactly, certified from the residues when they
settle every record, else from the exact series; the quadratic lower-bound
function built from classical dimension gaps, congruences between
characteristic series of nearby weights (read the same way), and
slope-distribution reports.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, takewhile
from operator import itemgetter, mul

from .scalars import INF, vp_int
from .series import QSeries, _sparse_power, eta_quotient
from .modcurve import d_expansion, d_powers, eisenstein, ip_poly
from .newton import NewtonPolygon
from . import charseries, umatrix
from .linalg import _charpoly_graded
from .charseries import (CharSeries, certify, check_scaled_integrality,
                         full_series, trunc_bound, m_index, parabola_floor,
                         polygon_from_records, _known_valuation)


def s_series(prec):
    """S = (Delta^3 / Delta(q^3))^(1/8) = prod (1-q^n)^9 (1-q^3n)^-3,
    the weight-3 level-3 Eisenstein series with the quadratic character."""
    return eta_quotient([(1, 9), (3, -3)], prec)


def s_eisenstein_character(prec):
    """Independent expansion of S: 1 - 9 sum (sum_{d|n} chi(d) d^2) q^n with
    chi the quadratic character mod 3."""
    sig = [0] * prec
    for d in range(1, prec):
        ch = [0, 1, -1][d % 3]
        if ch:
            dd = ch * d * d
            for n in range(d, prec, d):
                sig[n] += dd
    return QSeries(0, [1] + [-9 * s for s in sig[1:]], prec)


def d9_series(prec):
    """The hauptmodul of X_0(9): (Delta(q^9)/Delta(q))^(1/8)."""
    return eta_quotient([(9, 3), (1, -3)], max(prec - 1, 0)).shift(1)


@lru_cache(maxsize=None)
def s_over_vs(prec):
    """S/V(S), equal to d_9/d_3 as q-series."""
    s = s_series(prec)
    vs = s_series(prec // 3 + 1).v_substitute(3).truncate(prec)
    return s * vs ** -1


def expand_in_d3(f, nterms):
    """Coefficients r_0..r_nterms of f = sum r_m d_3^m, by triangular solve.

    Valid for f with integer d_3-expansion; raises on non-integers.
    """
    prec = nterms + 2
    if f.prec < prec:
        raise ValueError("series precision %d too low for %d terms" % (f.prec, nterms))
    return d_expansion([f.truncate(prec)], d_powers(3, nterms + 1, prec))[0][0]


def s_ratio_divisibility():
    """The expansion facts behind the twist bounds: S/V(S) - 1 has d_3
    coefficients with 9 | r_1 and 27 | r_m for m >= 2 (60 terms)."""
    rho = expand_in_d3(s_over_vs(64), 60)
    if rho[0] != 1:
        return False
    if rho[1] % 9:
        return False
    return all(r % 27 == 0 for r in rho[2:])


def twist_coefficients(k, size):
    """rho_0..rho_size, the d_3-expansion of (S/V(S))^(k/3), as one power of
    G (TwistMatrix docstring).  Each division by m + 2 must be exact."""
    g = [1]
    for m in range(size):
        q, r = divmod(-9 * (3 * m + 2) * g[m], m + 2)
        if r:
            raise ValueError("twist root coefficient g_%d: inexact division "
                             "by %d" % (m + 1, m + 2))
        g.append(q)
    return _sparse_power([(c, (m,)) for m, c in enumerate(g[1:], 1)],
                         k // 3, size + 1)


class TwistMatrix:
    """Multiplication by (S/V(S))^(k/3) on the cuspidal space.

    In the plain basis of d_3 powers this is the unit lower-triangular
    Toeplitz matrix with subdiagonal coefficients rho_m; in the scaled basis
    its (j+m, j) entry is rho_m 3^(-3m/2), an element of Z[sqrt3].

    The rho_m are the coefficients of G^(k/3), G = S/V(S) = x/d_3, x = d_9.
    The identity d_3 = x (1 + 9x + 27x^2), which the hauptmodul-tower claim
    checks, gives (1 + 9x)^3 = 1 + 27 d_3, so G = ((1 + 27 d_3)^(1/3) - 1) /
    (9 d_3) = sum g_m d_3^m, g_0 = 1, g_(m+1) = -9 (3m + 2) g_m / (m + 2).
    series._sparse_power, the power recurrence behind every eta power and
    q-series power too, raises G to k/3.  No q-series is built; the
    twist-routes-agree claim compares this with the q-series route.
    """

    def __init__(self, k, size):
        if k % 6:
            raise ValueError("twist weight must be even and divisible by 3")
        self.k = k
        self.size = size
        self.n_param = vp_int(k, 3) - 1 if k else None
        self.rho = tuple(twist_coefficients(k, size))

    def scaled_entry_valuation(self, m):
        """v_3 of the scaled-basis entry C_(j+m, j) = rho_m 3^(-3m/2)."""
        if self.rho[m] == 0:
            return INF
        return vp_int(self.rho[m], 3) - Fraction(3 * m, 2)

    def check_bounds(self):
        """Unit diagonal, strict lower triangularity (by construction), the
        Z[sqrt3] membership v_3(rho_m) >= ceil(3m/2), and the subdiagonal
        bound v_3(C_(j+m,j)) >= n - v_3(m), doubled; returns the violations."""
        bad = []
        if self.rho[0] != 1:
            bad.append(("diag", self.rho[0]))
        for m in range(1, self.size + 1):
            r = self.rho[m]
            if r == 0:
                continue
            v = vp_int(r, 3)
            if 2 * v < 3 * m:          # v < ceil(3m/2) for integers
                bad.append(("integrality", m, r))
            if self.k and 2 * v - 3 * m < 2 * (self.n_param - vp_int(m, 3)):
                bad.append(("subdiagonal", m, r))
        return bad


def twist_matrix(k, size):
    t = TwistMatrix(k, size)
    bad = t.check_bounds()
    if bad:
        raise ValueError("twist bound violations for k=%d: %r" % (k, bad[:3]))
    return t


@lru_cache(maxsize=None)
def _m_slab(size):
    """Rows 1..size of M as an n x 3n slab, row i through column 3i: the
    same for every weight, so uk_matrix builds it once per size and reads
    its first three columns of M * C off it."""
    wide = 3 * size
    cols = umatrix.column_recurrence(3, ip_poly(3), wide, size)
    return tuple(tuple(cols[l].get(i, 0) for l in range(min(3 * i, wide) + 1))
                 for i in range(1, size + 1))


def uk_matrix(k, size):
    """Matrix of the weight-k operator (up to similarity): M * C in the plain
    basis of d_3 powers.

    Row i of M vanishes beyond column 3i, so taking M as an n x 3n slab makes
    every entry of the n x n window equal to the entry of the infinite
    product; the standard truncation certificate then applies unchanged.
    C is Toeplitz, so column j of M * C is D_j = sum_s rho_s C_(j+s), and
    only D_1..D_3 are correlations of the slab rows with rho: every C_l with
    l > 3 obeys the homogeneous recurrence of I_3, so D_j does for j > 3,
    and umatrix.column_recurrence continues D_1..D_3 to D_size.
    """
    rho = twist_matrix(k, 3 * size).rho
    first = [{i: x for i, mrow in enumerate(_m_slab(size), 1)
              if (x := sum(map(mul, mrow[j:], rho)))}
             for j in range(1, min(3, size) + 1)]
    cols = umatrix.column_recurrence(3, ip_poly(3), size, size, first)
    rows = [[cols[j].get(i, 0) for j in range(1, size + 1)]
            for i in range(1, size + 1)]
    return umatrix.UMatrix(3, size, rows, provenance="genfun*twist")


def _cuspidal_matrix(p, k, size):
    """The weight-k cuspidal matrix: M at k = 0 for every genus-zero p,
    M * C at p = 3.

    Its truncation certificate rests on the row bounds e(p-1)i - 1, so the
    scaled integrality of I_p, which proves the bounds for the rows beyond
    the truncation, is checked first; each builder then checks the bounds
    themselves on the exact rows it certifies.
    """
    if k and p != 3:
        raise ValueError("weight twists are implemented for p = 3, not "
                         "p = %d" % p)
    if not check_scaled_integrality(p):
        raise ValueError("I_%d fails the scaled integrality check, so the "
                         "row bounds behind the truncation certificate do "
                         "not hold at p = %d" % (p, p))
    return uk_matrix(k, size) if k else umatrix.build_matrix_genfun(p, size)


@lru_cache(maxsize=None)
def cuspidal_char_series(p, k, size):
    """Exact characteristic series of the weight-k cuspidal matrix."""
    m = _cuspidal_matrix(p, k, size)
    coeffs = charseries.charpoly_crt(m.rows, p,
                                     umatrix.check_row_bounds(m, weight=k))
    return CharSeries(p, coeffs, [INF] * len(coeffs), size)


# Reruns of the graded kernel per series at most, whatever their cause.
GRADED_RERUNS = 2


@lru_cache(maxsize=None)
def graded_char_series(p, k, size, need):
    """Residues of a_0..a_t of the weight-k cuspidal series, t = len(need),
    from the graded kernel: need[m - 1] is the absolute precision wanted
    for a_m.

    The first run is at relative precision N = max_m need_m - G_m, G_m the
    sum of the m smallest grades of umatrix.graded.  A run that grade drops
    leave short, s the largest shortfall, or that leaves a valuation unknown
    (a residue 0 modulo its precision) is rerun at max(N + s, 3N) if one is
    unknown, else at N + s, as the last run decides, up to GRADED_RERUNS
    reruns in all (3N: a run's fixed cost makes a third run dearer than a
    longer second).  The precision a run proves is not monotone in N, so
    each a_m takes the residue of the latest run that proved it furthest.
    """
    grades, krows = umatrix.graded(_cuspidal_matrix(p, k, size), weight=k)
    lows = accumulate(sorted(grades))
    prec = max([t - g for t, g in zip(need, lows)] + [1])
    reruns, runs = GRADED_RERUNS, []
    while True:
        runs.append(_charpoly_graded(grades, krows, p, prec, len(need)))
        g = CharSeries(p, *runs[-1], size)
        short = max([t - pi for t, pi in zip(need, g.precisions[1:])] + [0])
        unknown = None in map(g.valuation, range(1, len(g.residues)))
        if not (short or unknown) or not reruns:
            break
        reruns -= 1
        prec = max(prec + short, 3 * prec if unknown else 0)
    best = [max(reversed(terms), key=itemgetter(1))
            for terms in zip(*(zip(*run) for run in runs))]
    return CharSeries(p, *zip(*best), size)


def certificate_need(p, m_max, size):
    """The least integer at or above each truncation bound T_1..T_m_max at
    this size: the precisions the graded residues must reach."""
    return tuple(math.ceil(trunc_bound(p, m, size))
                 for m in range(1, m_max + 1))


def stable_valuations(p, k, m_max, size):
    """Certified records of a_0..a_m_max of the weight-k series, from the
    truncations size and size + 10: certify on their graded residues, the
    second built only when the first proves every valuation, or on the
    exact series when the residues leave a record unsettled.  Either way
    the records are those certify gives on the exact series."""
    if not 0 <= m_max <= size:
        raise ValueError("m_max = %d lies outside 0..size = %d: a size-%d "
                         "truncation has a_0..a_%d"
                         % (m_max, size, size, size))
    need = certificate_need(p, m_max, size)
    g = graded_char_series(p, k, size, need)
    return (None not in map(g.valuation, range(1, m_max + 1))
            and certify(g, graded_char_series(p, k, size + 10, need), m_max)
            or certify(cuspidal_char_series(p, k, size),
                       cuspidal_char_series(p, k, size + 10), m_max))


def weight_contact_check(l, n):
    """For k = 2*3^(n+1)*l: at every parabola-contact point s = m_i below
    2*3^(n-1), the weight-k series keeps v_3(a_s) = (3/2)s(s-1) + 2s."""
    k = 2 * 3 ** (n + 1) * l
    limit = 2 * 3 ** (n - 1)
    points = [m for m in (m_index(i) for i in range(0, 10)) if m < limit]
    size = max(3 * max(points) + 12, 24)
    recs = stable_valuations(3, k, max(points), size)
    report = {"k": k, "n": n, "l": l, "points": []}
    ok = True
    for s in points:
        rec = recs[s]
        want = parabola_floor(s)
        good = (s == 0) or (rec.certified and rec.v_obs == want)
        ok &= good
        report["points"].append({"s": s, "value": rec.v_obs, "expected": want,
                                 "certified": rec.certified or s == 0, "pass": good})
    report["pass"] = ok
    return report


def exact_polygon_between(recs, a, b):
    """The true Newton polygon restricted to [a, b], rigorously.

    Requires every point in [a, b] certified; the polygon of the certified
    points must coincide on [a, b] with the hull of all available points
    taken at their proven lower bounds (which is a global lower envelope),
    and its endpoints must be polygon vertices.
    """
    for rec in recs[a:b + 1]:
        if rec.m and not rec.certified:
            raise ValueError("point %d not certified" % rec.m)
    inner = NewtonPolygon([(r.m, r.v_obs) for r in recs[a:b + 1]])
    outer = polygon_from_records(recs)
    for m in range(a, b + 1):
        if outer.value_at(m) != inner.value_at(m):
            raise ValueError("hull not pinned at %d" % m)
    return inner


def slope_distribution(n):
    """Slope statistics of the weight-k polygon, k = 2*3^(n+1), between the
    forced vertices m_i and m_(i+1) for i < n-1: exactly 3^i slopes, lying in
    [m_(i+1)+1, m_(i+2)-2], average 3^(i+1)-1, min >= 3m_i+2, max <= 3m_(i+1)-1.
    """
    k = 2 * 3 ** (n + 1)
    top = m_index(n - 1)
    size = max(3 * top + 12, 30)
    recs = stable_valuations(3, k, min(size - 2, 3 * top + 6), size)
    report = {"k": k, "n": n, "bands": [], "pass": True}
    for i in range(0, n - 1):
        a, b = m_index(i), m_index(i + 1)
        poly = exact_polygon_between(recs, a, b)
        slopes = poly.slope_multiset()
        lo, hi = m_index(i + 1) + 1, m_index(i + 2) - 2
        count_ok = len(slopes) == 3 ** i
        window_ok = all(lo <= s <= hi for s in slopes)
        avg = sum(slopes) / len(slopes)
        avg_ok = avg == 3 ** (i + 1) - 1
        min_ok = min(slopes) >= 3 * m_index(i) + 2
        max_ok = max(slopes) <= 3 * m_index(i + 1) - 1
        band_ok = count_ok and window_ok and avg_ok and min_ok and max_ok
        report["bands"].append({"i": i, "count": len(slopes),
                                "slopes": [str(s) for s in slopes],
                                "average": str(avg), "window": (lo, hi),
                                "pass": band_ok})
        report["pass"] &= band_ok
    return report


def dim_level1(k):
    """Dimension of the classical level-1 modular forms of weight k."""
    if k < 0 or k % 2:
        return 0
    if k % 12 == 2:
        return k // 12
    return k // 12 + 1


def dimension_gap_bound(p, k, m):
    """Quadratic lower bound for the weight-k polygon from dimension gaps.

    For p >= 5 this is the verbatim construction with steps of p-1.  For
    p in {2, 3} the classical ladder steps by weight 4 instead, and the
    prefactor (p-1)/(p+1) is kept as the analogous one; reports flag this
    variant as adapted, never as verbatim.

    With d_u = dim M_(k + u step) on the rungs u = 0..v where d_u <= m, the
    ladder sum sum_(u<=v) u (d_u - d_(u-1)) + (v+1)(m - d_v) telescopes to
    (v+1) m - (d_0 + ... + d_v), 0 when no rung qualifies (as for m <= 0).
    """
    if k % 2:   # the steps are even: an odd ladder never leaves dimension 0
        raise ValueError("the ladder needs an even weight, got %d" % k)
    step = p - 1 if p >= 5 else 4
    dims = list(takewhile(lambda d: d <= m,
                          (dim_level1(k + u * step) for u in count())))
    return Fraction(p - 1, p + 1) * (len(dims) * m - sum(dims)) - m


@lru_cache(maxsize=None)
def dimension_gap_infimum(p, m):
    """Measured infimum of the weight-indexed lower bounds over the
    representative even weights 0, 2, ..., 22."""
    return min(dimension_gap_bound(p, k, m) for k in range(0, 24, 2))


def _differences(f1, f2, m_max):
    """v_p(f1_m - f2_m) for 0 <= m <= m_max, or None when the residues leave
    one of them unproven: a difference is known to the lesser of its two
    precisions."""
    vals = [_known_valuation(f1.residues[m] - f2.residues[m],
                             min(f1.precisions[m], f2.precisions[m]), f1.p)
            for m in range(m_max + 1)]
    return None if any(v is None for v in vals) else vals


def congruence_check(k, k2, m_max, size):
    """v_3 of coefficient differences of the full series for two weights.

    With k2 - k = 2 * 3^n * l (3 not dividing l), every coefficient
    difference must have v_3 >= n+1; the margin against the strengthened
    candidate bound (adapted quadratic term + n + 1) is measured and
    reported, not asserted.  The valuations come from the graded residues
    at the certificate's need when those prove them, else from the exact
    series; either way they are the valuations of the exact differences.
    A row is sound when both truncation bounds behind P_m = a_m - a_(m-1)
    reach n+1, since each a_m is known only to its own bound T_m.
    """
    if k == k2:
        raise ValueError("weights must differ")
    diff = k2 - k
    n = vp_int(diff, 3)
    if diff % 2:
        raise ValueError("weight difference must be even")
    if m_max < 0:
        raise ValueError("m_max = %d is negative: no coefficient to compare"
                         % m_max)
    if m_max > size + 1:
        raise ValueError("m_max = %d exceeds size + 1 = %d: the full series "
                         "of a size-%d truncation stops at a_%d"
                         % (m_max, size + 1, size, size + 1))
    need = certificate_need(3, m_max, size)
    vals = (_differences(*(full_series(graded_char_series(3, w, size, need))
                            for w in (k, k2)), m_max)
            or _differences(*(full_series(cuspidal_char_series(3, w, size))
                              for w in (k, k2)), m_max))
    rows = []
    ok = True
    required = n + 1
    bounds = (INF,) + need      # ceil(T_m) >= required iff T_m >= required
    for m in range(0, m_max + 1):
        v = vals[m]
        sound = min(bounds[max(m - 1, 0):m + 1]) >= required
        passed = v >= required and sound
        ok &= passed
        margin = None
        if m >= 2:
            cand = dimension_gap_infimum(3, m - 2) + required
            margin = v - cand if v != INF else None
        rows.append({"m": m, "v_diff": v, "required": required,
                     "pass": passed, "strengthened_candidate_margin": margin})
    return {"k": k, "k2": k2, "n": n, "rows": rows, "pass": ok}


def eisenstein_unit_congruence(p, n):
    """E_(p-1)^(p^n)(q) / E_(p-1)^(p^n)(q^p) - 1 must be divisible by p^(n+1),
    both as a q-series (51 coefficients) and in its d_p-expansion (40)."""
    if p not in (5, 7):
        raise ValueError("classical route needs p in {5, 7}")
    prec, dterms = 51, 40
    ev = eisenstein(p - 1, prec // p + 2).v_substitute(p).truncate(prec)
    phi = (eisenstein(p - 1, prec) * ev ** -1) ** (p ** n) - 1
    mod = p ** (n + 1)
    q_ok = all(Fraction(phi.coeff(i)) % mod == 0 for i in range(phi.prec))
    dprec = min(dterms + 2, phi.prec)
    dpows = d_powers(p, min(dterms, dprec - 2) + 1, dprec)
    [(coeffs, _)] = d_expansion([phi.truncate(dprec)], dpows)
    d_ok = all(r % mod == 0 for r in coeffs)
    return {"p": p, "n": n, "q_divisible": q_ok, "d_divisible": d_ok,
            "pass": q_ok and d_ok}


def oldform_window_check(n):
    """Newton-polygon content of the oldform slope window for k = 2*3^(n+1):
    the polygon value at m_n equals the parabola, the slope entering m_n is
    below k/4 - 1, and each such slope s pairs with a mate k-1-s above 3k/4."""
    k = 2 * 3 ** (n + 1)
    mn = m_index(n)
    recs = stable_valuations(3, k, mn, max(3 * mn + 12, 24))
    rec = recs[mn]
    contact = rec.certified and rec.v_obs == parabola_floor(mn)
    poly = exact_polygon_between(recs, 0, mn)
    entering = poly.slopes()[-1][0]
    threshold = Fraction(k, 4) - 1
    slope_ok = entering < threshold
    mates = [(str(s), str(k - 1 - s)) for s, _ in poly.slopes()]
    mates_ok = all(k - 1 - s > Fraction(3 * k, 4) for s, _ in poly.slopes()
                   if s < threshold)
    return {"k": k, "m_n": mn, "contact": contact,
            "entering_slope": str(entering), "threshold": str(threshold),
            "slope_below_threshold": slope_ok, "mates": mates,
            "mates_above_3k4": mates_ok,
            "pass": contact and slope_ok and mates_ok}
