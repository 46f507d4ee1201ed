"""Verification suites: every claim the package is built to check, each with
a stable id, a neutral statement, observed and expected values, and a
pass/fail flag.  Suites are pure functions of their parameters, so reports
are byte-identical across runs.

Each claim is one unit, a ``with _claim(...)`` block: its id, statement and
expected value are fixed on entry, and an exception raised inside the block
fails that claim alone, with observed "<Type>: <message>", while the rest of
the suite runs.  Only an exception outside every claim, in the inputs a
suite shares, fails the suite as the one claim ``<suite>-raised``.
"""

from contextlib import contextmanager

from .scalars import val_p, vp_int
from . import modcurve, umatrix, charseries, weights, mod3, tables
from .modcurve import GENUS_ZERO_PRIMES
from .serialize import val_str


@contextmanager
def _claim(claims, cid, statement, expected):
    """Append the claim to claims and yield observe(observed, ok), which
    records its outcome; an exception in the block fails the claim with the
    exception as its observed value.  A block that records nothing fails."""
    claim = {"id": cid, "statement": statement, "observed": None,
             "expected": expected, "pass": False}
    claims.append(claim)

    def observe(observed, ok):
        claim["observed"], claim["pass"] = observed, bool(ok)
    try:
        yield observe
    except Exception as exc:
        observe("%s: %s" % (type(exc).__name__, exc), False)


def suite_modcurve():
    claims = []
    for p in GENUS_ZERO_PRIMES:
        with _claim(claims, "eisenstein-power-p%d" % p,
                    "the weight-12 power of the distinguished Eisenstein "
                    "series equals (j - c_p) Delta", "identity") as observe:
            mism = modcurve.verify_eisenstein_power(p)
            observe("first mismatch %r" % (mism,) if mism
                    else "identity to precision 60", mism is None)
        with _claim(claims, "hauptmodul-poly-p%d" % p,
                    "d_p * j = H_p(d_p) with H_p integral of degree p+1 and "
                    "constant term 1",
                    "degree %d, constant 1" % (p + 1)) as observe:
            h = modcurve.solve_hauptmodul_poly(p)
            observe("degree %d, constant %d" % (h.degree(), h.coeffs[0]),
                    h.degree() == p + 1 and h.coeffs[0] == 1)
        want = modcurve.e_exponent(p) * p
        with _claim(claims, "hauptmodul-slope-p%d" % p,
                    "the polygon of H_p(d) - c_p d in d has a single side of "
                    "slope e*p",
                    "[(%s, %d)]" % (val_str(want), p + 1)) as observe:
            slopes = modcurve.check_hauptmodul_polygon(p).slopes()
            observe("%r" % [(val_str(s), m) for s, m in slopes],
                    slopes == [(want, p + 1)])
    for p in GENUS_ZERO_PRIMES:
        with _claim(claims, "ip-two-routes-p%d" % p,
                    "the exact-fit and symbolic-division routes to I_p agree",
                    "equal") as observe:
            fit = modcurve.practical_ip_fit(p)
            ok = fit == modcurve.modular_equation_ip(p)
            observe("equal" if ok else "different", ok)
        with _claim(claims, "ip-laurent-certificate-p%d" % p,
                    "I_p(d_p(q^p), 1/d_p(q)) vanishes to working precision",
                    "vanishes") as observe:
            cert = modcurve.certify_ip_laurent(p, modcurve.practical_ip_fit(p))
            observe("vanishes" if cert else "nonzero", cert)
    for p, table in ((2, tables.IP2), (3, tables.IP3), (5, tables.IP5)):
        with _claim(claims, "ip-table-p%d" % p,
                    "I_%d equals the published table verbatim" % p,
                    "match") as observe:
            ok = modcurve.ip_poly(p).terms == table
            observe("match" if ok else "mismatch", ok)
    y1 = modcurve.ip_poly(7).y_part(1)
    with _claim(claims, "ip7-y1-displayed", "I_7 y^1 row matches the five "
                "structurally consistent published coefficients (x^7..x^3)",
                "match") as observe:
        ok = all(y1.get(i) == c for i, c in tables.IP7_Y1.items()
                 if i not in tables.IP7_Y1_PRINTED_ERRATA)
        observe("match" if ok else "mismatch", ok)
    with _claim(claims, "ip7-y1-corrected", "I_7 y^1 x^2 and x^1 coefficients "
                "equal the cross-validated corrections 176*7^4 and 82*7^2",
                "match") as observe:
        ok = all(y1.get(i) == c for i, c in tables.IP7_Y1.items())
        observe("match" if ok else "mismatch", ok)
    with _claim(claims, "ip7-y1-printed-erratum", "the published I_7 x^2/x^1 "
                "values violate the entry valuation bound v_7(c_i1) >= "
                "e(7i-1); they cannot be correct",
                "both violate the bound") as observe:
        e = modcurve.e_exponent(7)
        ok = all(vp_int(c, 7) < e * (7 * i - 1)
                 for i, c in tables.IP7_Y1_PRINTED_ERRATA.items())
        observe("both violate the bound" if ok
                else "consistent with the bound", ok)
    with _claim(claims, "ip13-y1", "I_13 y^1 row matches the published "
                "display verbatim", "match") as observe:
        ok = modcurve.ip_poly(13).y_part(1) == tables.IP13_Y1
        observe("match" if ok else "mismatch", ok)
    for p in GENUS_ZERO_PRIMES:
        with _claim(claims, "ip-corner-terms-p%d" % p,
                    "coefficient of x y^p is -1 and of x^p y is -p^12",
                    "(-1, -%d^12)" % p) as observe:
            ip = modcurve.ip_poly(p)
            observe("(%s, %s)" % (ip.get(1, p), ip.get(p, 1)),
                    ip.get(1, p) == -1 and ip.get(p, 1) == -(p ** 12))
        with _claim(claims, "ip-scaled-integrality-p%d" % p,
                    "every term c x^i y^j of I_p has v_p(c) >= e(pi - j), "
                    "giving the row bounds behind all truncation "
                    "certificates", "holds") as observe:
            ok = charseries.check_scaled_integrality(p)
            observe("holds" if ok else "fails", ok)
    return claims


def suite_umatrix():
    claims = []
    for p in GENUS_ZERO_PRIMES:
        n = 8 if p == 13 else 15
        with _claim(claims, "cross-method-p%d" % p,
                    "q-expansion oracle and generating-function matrices "
                    "agree entry for entry at size %d" % n,
                    "equal") as observe:
            ok = (umatrix.build_matrix_oracle(p, n).rows
                  == umatrix.build_matrix_genfun(p, n).rows)
            observe("equal" if ok else "different", ok)
        with _claim(claims, "entry-bound-p%d" % p,
                    "v_p(M_ij) >= e(pi - j) - 1 for every computed entry",
                    "0 violations") as observe:
            minima = umatrix.scaled_row_minima(
                umatrix.build_matrix_oracle(p, n).rows, p)
            viol = [i for i, r in enumerate(minima, 1)
                    if r < umatrix.row_bound(p, i)]
            observe("%d violations" % len(viol), not viol)
    m = umatrix.build_matrix_genfun(3, 40)
    kbar = umatrix.kbar(m)
    with _claim(claims, "scaled-row-bound-tight",
                "the scaled p=3 matrix attains the row bound 3i-1 in every "
                "row 1..13 (so 3i-1 is the operative bound, not 3i)",
                "attained in rows 1..13") as observe:
        minima = umatrix.scaled_row_minima(m.rows, 3)
        tight = [i for i in range(1, 14)
                 if minima[i - 1] == umatrix.row_bound(3, i)]
        observe("attained in rows %r" % tight, tight == list(range(1, 14)))
    with _claim(claims, "dk-row1-unit",
                "after factoring out diag(3^(3i-1)), row 1 of K mod sqrt3 is "
                "concentrated in column 1", "[1, 0, 0, ...]") as observe:
        observe("row 1 = %r..." % (kbar[0][:5],),
                kbar[0][0] != 0 and not any(kbar[0][1:]))
    with _claim(claims, "kbar-generating-function",
                "K mod sqrt3 equals the coefficient array of its rational "
                "generating function (20 x 20 window)", "equal") as observe:
        kb = mod3.kbar_rows(20)
        ok = all(kb[i][j] == kbar[i][j] for i in range(20) for j in range(20))
        observe("equal" if ok else "different", ok)
    return claims


# p3-parabola's terms and size, unless the command line sets them
PARABOLA_TERMS, PARABOLA_SIZE = 45, 60


def suite_p3_parabola(terms=PARABOLA_TERMS, size=PARABOLA_SIZE):
    claims = []
    recs = weights.stable_valuations(3, 0, terms, size)
    mis = charseries.equality_indices_upto(terms)
    with _claim(claims, "parabola-certification",
                "every cuspidal coefficient valuation through m=%d is "
                "certified exactly (truncation bound at size %d plus size-%d "
                "agreement)" % (terms, size, size + 10),
                "all certified") as observe:
        bad = [r.m for r in recs[1:] if not r.certified]
        observe("uncertified at %r" % bad if bad else "all certified", not bad)
    with _claim(claims, "parabola-lower-bound",
                "v_3(a_m) >= (3/2)m(m-1) + 2m for all m <= %d" % terms,
                "holds") as observe:
        ok = all(r.lower_bound() >= charseries.parabola_floor(r.m)
                 for r in recs)
        observe("holds" if ok else "violated", ok)
    with _claim(claims, "parabola-equality-set",
                "equality holds exactly at m = (3^i - 1)/2",
                "%r" % mis) as observe:
        eq = charseries.equality_set(recs)
        observe("%r" % sorted(eq), eq == set(mis))
    want = {m: v for m, v in {0: 0, 1: 2, 4: 26, 13: 260, 40: 2420}.items()
            if m <= terms}
    with _claim(claims, "parabola-contact-values",
                "the valuations at the contact points are 0, 2, 26, 260, 2420",
                "%r" % {m: str(v) for m, v in want.items()}) as observe:
        got = {m: recs[m].v_obs for m in want}
        observe("%r" % {m: val_str(v) for m, v in sorted(got.items())},
                got == want)
    with _claim(claims, "secant-upper-bound",
                "strictly between consecutive contact points the polygon lies "
                "strictly above the parabola and at or below the secant "
                "through them", "holds") as observe:
        hull = charseries.polygon_from_records(recs)
        bad = [m for i in range(len(mis) - 1)
               for m in range(mis[i] + 1, min(mis[i + 1], terms + 1))
               if not (charseries.parabola_floor(m) < hull.value_at(m)
                       <= charseries.secant_line(i, m))]
        observe("violated at %r" % bad if bad else "holds", not bad)
    return claims


def suite_mod3():
    claims = []
    window, minor_range = 40, 45
    rows = mod3.kbar_rows(minor_range)
    counts = {m: mod3.enumerate_excellent(m, rows)[0] for m in range(1, 14)}
    with _claim(claims, "selfsim-base",
                "the degree-1 self-similarity identity holds exactly: "
                "Gbar_1 = (1 + y/x + (y/x)^2) Gbar_0^3 + tail",
                "exact identity") as observe:
        mism = mod3.verify_selfsim_base()
        observe("mismatch at %r" % (mism,) if mism else "exact identity",
                mism is None)
    with _claim(claims, "selfsim-printed-erratum",
                "the published display of the identity fails in both "
                "variable orientations (documented erratum; no identity of "
                "the printed shape exists)", "both non-None") as observe:
        err = mod3.verify_selfsim_printed_display()
        observe("first mismatches %r" % (err,),
                all(e is not None for e in err))
    with _claim(claims, "selfsim-full",
                "Gbar = (1 + y/x + (y/x)^2) Gbar^3 + tail * Cbar_1 on the "
                "reliable window", "holds") as observe:
        mism = mod3.verify_selfsim_full(window)
        observe("mismatch at %r" % (mism,) if mism
                else "holds to window %d" % window, mism is None)
    with _claim(claims, "cube-extraction",
                "the coefficient of x^i y^(3j) in Gbar equals that in Gbar^3",
                "0 violations") as observe:
        bad = mod3.verify_extraction(window)
        observe("%d violations" % len(bad), not bad)
    with _claim(claims, "vanishing",
                "the coefficient of x^i y^(3j) in Gbar vanishes when 3 does "
                "not divide i", "0 violations") as observe:
        bad = mod3.vanishing_check(window)
        observe("%d violations" % len(bad), not bad)
    with _claim(claims, "cube-ladder",
                "Cbar_j^3 = Cbar_(j+1) on windows of total degree 30",
                "holds") as observe:
        ok = all(mod3.verify_cube_ladder(j, 30) for j in (0, 1, 2))
        observe("holds" if ok else "fails", ok)
    with _claim(claims, "gbar-factorization",
                "Gbar = Gbar_j Cbar_j on windows of total degree 30",
                "holds") as observe:
        ok = all(mod3.verify_gbar_factorization(j, 30) for j in (0, 1, 2))
        observe("holds" if ok else "fails", ok)
    want = [m for m in (0, 1, 4, 13, 40) if m <= minor_range]
    with _claim(claims, "minor-pattern",
                "the upper m x m minor of Kbar over F_3 is nonzero exactly at "
                "m = (3^i - 1)/2, m <= %d" % minor_range,
                "%r" % want) as observe:
        nz = [m for m in range(0, minor_range + 1)
              if mod3.upper_minor_f3(rows, m)]
        observe("%r" % nz, nz == want)
    want = {m: (1 if m in (1, 4, 13) else 0) for m in range(1, 14)}
    with _claim(claims, "excellent-counts",
                "excellent-permutation counts for m <= 13: one at m in "
                "{1,4,13}, zero elsewhere", "%r" % want) as observe:
        observe("%r" % counts, counts == want)
    with _claim(claims, "excellent-minor-consistency",
                "zero excellent count forces a zero minor; a unique count "
                "forces a nonzero minor (counts and minors reported "
                "separately)", "consistent") as observe:
        ok = all((counts[m] == 0) == (mod3.upper_minor_f3(rows, m) == 0)
                 for m in range(1, 14))
        observe("consistent" if ok else "inconsistent", ok)
    with _claim(claims, "recursive-witness-degree-40",
                "the recursively built degree-40 permutation is excellent "
                "(constructive witness for the m=40 contact)",
                "excellent") as observe:
        pi40 = mod3.recursive_witness_permutation(4)
        ok = len(pi40) == 40 and mod3.is_excellent(pi40, rows)
        observe("excellent" if ok else "not excellent", ok)
    return claims


def suite_weights():
    claims = []
    d3 = modcurve.d_series(3, 201)
    d9 = weights.d9_series(201)
    s = weights.s_series(60)
    with _claim(claims, "hauptmodul-tower",
                "d_3 = d_9 + 9 d_9^2 + 27 d_9^3 to q-precision 200",
                "holds") as observe:
        rhs = d9 + (d9 * d9).scalar_mul(9) + (d9 ** 3).scalar_mul(27)
        ok = d3.agrees_with(rhs, upto=200)
        observe("holds" if ok else "fails", ok)
    with _claim(claims, "s-eisenstein",
                "the eta-quotient eighth root equals the level-3 weight-3 "
                "character Eisenstein series on 50 coefficients",
                "holds") as observe:
        ok = s.agrees_with(weights.s_eisenstein_character(60), upto=50)
        observe("holds" if ok else "fails", ok)
    with _claim(claims, "s-squared-unit",
                "S^2 has constant term 1 (nonvanishing at the cusp)",
                "1") as observe:
        c0 = (s * s).coeff(0)
        observe("%s" % c0, c0 == 1)
    with _claim(claims, "s-ratio-hauptmodul", "S/V(S) = d_9/d_3 as q-series",
                "holds") as observe:
        ok = weights.s_over_vs(80).agrees_with(d9 * d3 ** -1, upto=70)
        observe("holds" if ok else "fails", ok)
    with _claim(claims, "twist-divisibility",
                "in the d_3 expansion of S/V(S): 9 divides the linear "
                "coefficient and 27 divides every higher one (60 terms)",
                "holds") as observe:
        ok = weights.s_ratio_divisibility()
        observe("holds" if ok else "fails", ok)
    claims.append(twist_routes_claim())
    claims.append(graded_residues_claim())
    for k in (6, 18, 54, 108, 162):
        with _claim(claims, "twist-bounds-k%d" % k,
                    "twist matrix for weight %d: unit diagonal, scaled "
                    "entries in Z[sqrt3], subdiagonal valuations >= n - "
                    "v_3(m)" % k, "0 violations") as observe:
            bad = weights.TwistMatrix(k, 30).check_bounds()
            observe("%d violations" % len(bad), not bad)
    for (l, n) in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3)):
        with _claim(claims, "weight-contact-l%d-n%d" % (l, n),
                    "weight k = 2*3^%d*%d keeps the parabola contact at "
                    "every m_i below 2*3^%d" % (n + 1, l, n - 1),
                    "equalities at all listed points") as observe:
            rep = weights.weight_contact_check(l, n)
            observe("%r" % [(pt["s"], val_str(pt["value"]))
                            for pt in rep["points"]], rep["pass"])
    for n in (2, 3):
        with _claim(claims, "slope-distribution-n%d" % n,
                    "for weight 2*3^%d: between contact points m_i, m_(i+1) "
                    "(i < %d) there are exactly 3^i slopes in the stated "
                    "window with average 3^(i+1)-1" % (n + 1, n - 1),
                    "counts 3^i, averages 3^(i+1)-1") as observe:
            rep = weights.slope_distribution(n)
            observe("%r" % [(b["i"], b["count"], b["average"])
                            for b in rep["bands"]], rep["pass"])
    for p, n in ((5, 0), (5, 1), (5, 2), (7, 0), (7, 1), (7, 2)):
        with _claim(claims, "unit-congruence-p%d-n%d" % (p, n),
                    "E_(p-1)^(p^n)(q)/E_(p-1)^(p^n)(q^p) - 1 is divisible by "
                    "p^(n+1), as a q-series (50 terms) and in its d_p "
                    "expansion", "q: True, d: True") as observe:
            rep = weights.eisenstein_unit_congruence(p, n)
            observe("q: %s, d: %s" % (rep["q_divisible"], rep["d_divisible"]),
                    rep["pass"])
    claims.extend(slope_floor_claims())
    for n in (1, 2):
        with _claim(claims, "oldform-window-n%d" % n,
                    "for weight 2*3^%d the polygon touches the parabola at "
                    "m_%d and its entering slope stays below k/4 - 1; mates "
                    "k-1-s land above 3k/4" % (n + 1, n),
                    "entering slope below threshold") as observe:
            rep = weights.oldform_window_check(n)
            seen = "entering %(entering_slope)s < %(threshold)s"
            if not rep["pass"]:
                seen = ("contact: %(contact)s, " + seen + ": "
                        "%(slope_below_threshold)s, mates above 3k/4: "
                        "%(mates_above_3k4)s")
            observe(seen % rep, rep["pass"])
    return claims


def twist_routes_claim():
    """The closed-form twist coefficients against the independent q-series
    route: (S/V(S))^(k/3) as a q-series, expanded in powers of d_3 by
    triangular solve."""
    claims = []
    with _claim(claims, "twist-routes-agree",
                "the closed-form twist coefficients rho_0..rho_60 equal the "
                "d_3 expansion of the q-series (S/V(S))^(k/3) for k = 6, "
                "162, -6", "agree") as observe:
        bad = [k for k in (6, 162, -6)
               if weights.expand_in_d3(weights.s_over_vs(64) ** (k // 3), 60)
               != list(weights.TwistMatrix(k, 60).rho)]
        observe("differ for k = %r" % bad if bad else "agree", not bad)
    return claims[0]


def graded_residues_claim():
    """The graded residues that certify p3-parabola and the weight twists,
    against the exact coefficients charpoly_crt reconstructs: every
    coefficient of the weight-0 series at size 40 and of the weight-162
    series at size 30, modulo its proven precision."""
    claims = []
    with _claim(claims, "graded-residues-agree",
                "the graded residues of a_0..a_n agree with the exact CRT "
                "coefficients modulo their proven precision, for p = 3 at "
                "weight 0, n = 40, and weight 162, n = 30",
                "agree") as observe:
        bad = []
        for k, size in ((0, 40), (162, 30)):
            need = weights.certificate_need(3, size, size)
            g = weights.graded_char_series(3, k, size, need)
            q = weights.cuspidal_char_series(3, k, size)
            bad += [(k, m) for m, (a, r, pi) in enumerate(zip(
                        q.residues, g.residues, g.precisions))
                    if val_p(a - r, 3) < pi]
        observe("differ at (k, m) = %r" % bad if bad else "agree", not bad)
    return claims[0]


def _clears_floors(p, k, size, floors):
    """v_p(a_m) >= floors[m - 1] for every m of the weight-k series at this
    size, read from graded residues asked for precision floors[m - 1]: a
    residue known that far is 0 modulo p^floor exactly when a_m is, and a
    precision that falls short fails."""
    g = weights.graded_char_series(p, k, size, tuple(floors))
    return all(pi >= f and val_p(r, p) >= f
               for f, r, pi in zip(floors, g.residues[1:], g.precisions[1:]))


def slope_floor_claims():
    """The p=2 floor 3*C(m+1,2) for the weight-0 polygon, and the p=3 floor
    3*C(m,2) for weights divisible by 6."""
    claims = []
    with _claim(claims, "p2-slope-floor",
                "for p=2, weight 0: v_2(a_m) >= 3 C(m+1,2) for m <= 15 "
                "(points and truncation bound both clear the floor)",
                "holds") as observe:
        floors = [3 * m * (m + 1) // 2 for m in range(1, 16)]
        ok = (_clears_floors(2, 0, 25, floors)
              and all(charseries.trunc_bound(2, m, 25) >= f
                      for m, f in enumerate(floors, 1)))
        observe("holds" if ok else "fails", ok)
    floors = [3 * m * (m - 1) // 2 for m in range(1, 16)]
    for k in (6, 18, 54):
        with _claim(claims, "p3-slope-floor-k%d" % k,
                    "for p=3, weight %d: v_3(a_m) >= 3 C(m,2) for m <= 15" % k,
                    "holds") as observe:
            ok = (_clears_floors(3, k, 26, floors)
                  and all(charseries.trunc_bound(3, m, 26) >= f
                          for m, f in enumerate(floors, 1)))
            observe("holds" if ok else "fails", ok)
    return claims


def suite_congruence():
    claims = []
    for k, k2 in ((0, 6), (0, 18), (6, 24), (18, 54), (0, 54), (54, 162)):
        with _claim(claims, "congruence-%d-%d" % (k, k2),
                    "every certified coefficient of the full series satisfies "
                    "v_3(a_m(k=%d) - a_m(k=%d)) >= %d; margins against the "
                    "strengthened quadratic candidate are measured, not "
                    "asserted" % (k, k2, vp_int(k2 - k, 3) + 1),
                    "all differences >= n+1") as observe:
            rep = weights.congruence_check(k, k2, 20, 30)
            margins = [r["strengthened_candidate_margin"] for r in rep["rows"]
                       if r["strengthened_candidate_margin"] is not None]
            bad = ", ".join("m = %(m)d (v_diff %(v_diff)s)" % r
                            for r in rep["rows"] if not r["pass"])
            seen = "pass with min margin %s" % min(margins, default=None)
            observe(("fail at " + bad) if bad else seen, rep["pass"])
    return claims


SUITES = {
    "modcurve": suite_modcurve,
    "umatrix": suite_umatrix,
    "p3-parabola": suite_p3_parabola,
    "mod3": suite_mod3,
    "weights": suite_weights,
    "congruence": suite_congruence,
}


def run_suites(names, parallel=1, *args):
    """Run the named suites, each called with args; returns (report,
    all_pass).  Suite order is fixed; output assembly is ordered regardless
    of execution strategy."""
    names = list(names)
    if parallel > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(parallel, len(names))) as ex:
            results = list(ex.map(_run_one, names, *([a] * len(names)
                                                      for a in args)))
    else:
        results = [_run_one(n, *args) for n in names]
    suites = [{"suite": name, "pass": all(c["pass"] for c in claims),
               "claims": claims} for name, claims in zip(names, results)]
    ok = all(s["pass"] for s in suites)
    return {"suites": suites, "pass": ok}, ok


def _run_one(name, *args):
    """The claims of the named suite called with args.  An exception outside
    every claim of the suite gives the one failing claim <suite>-raised
    instead, so that the other suites still run and the report lists it."""
    raised = []
    with _claim(raised, "%s-raised" % name,
                "the %s suite runs to completion" % name, "no exception"):
        return SUITES[name](*args)
    return raised
