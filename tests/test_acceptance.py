"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact arithmetic throughout; tolerance is zero unless a criterion states a
runtime budget.  Criteria that reduce to verification-suite claims are read
off the machine report of `upadic verify --suite all`, which is itself run
twice (separate processes) for the determinism criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest
from fractions import Fraction

from upadic import modcurve, umatrix, charseries, tables, weights

SRC = os.path.dirname(os.path.dirname(modcurve.__file__))
CRITERIA_PRINTED = set()


def report(num, ok, note):
    line = "ACCEPTANCE %02d %s - %s" % (num, "PASS" if ok else "FAIL", note)
    print(line)
    CRITERIA_PRINTED.add(num)
    assert ok, line


@pytest.fixture(scope="session")
def full_reports(tmp_path_factory):
    """Two independent `verify --suite all` runs (fresh processes, started
    together and awaited together)."""
    tmp = tmp_path_factory.mktemp("verify")
    outs = [tmp / ("report_%s.json" % tag) for tag in ("a", "b")]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "upadic.cli", "verify", "--suite", "all",
         "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=SRC))
        for out in outs]
    codes = [proc.wait(timeout=3600) for proc in procs]
    texts = [out.read_bytes() for out in outs]
    report_doc = json.loads(texts[0])
    claims = {}
    for s in report_doc["suites"]:
        for c in s["claims"]:
            claims[c["id"]] = c
    return {"texts": texts, "codes": codes, "doc": report_doc, "claims": claims}


@pytest.fixture(scope="session")
def parabola_records():
    t0 = time.time()
    recs = weights.stable_valuations(3, 0, 45, 60)
    return recs, time.time() - t0


def claims_pass(claims, ids):
    missing = [i for i in ids if i not in claims]
    assert not missing, "missing claims %r" % missing
    return all(claims[i]["pass"] for i in ids), \
        [i for i in ids if not claims[i]["pass"]]


def test_criterion_01_ip_reproduction():
    # cold timings: the criterion budgets one minute per prime
    for fn in (modcurve.ip_poly, modcurve.practical_ip_fit,
               modcurve.modular_equation_ip, modcurve.solve_hauptmodul_poly,
               modcurve.d_series):
        fn.cache_clear()
    times = {}
    ok = True
    for p in (2, 3, 5, 7, 13):
        t0 = time.time()
        modcurve.ip_poly(p)
        times[p] = time.time() - t0
        ok &= times[p] < 60
    ok &= modcurve.ip_poly(2).terms == tables.IP2
    ok &= modcurve.ip_poly(3).terms == tables.IP3
    ok &= modcurve.ip_poly(5).terms == tables.IP5
    ok &= modcurve.ip_poly(13).y_part(1) == tables.IP13_Y1
    ok &= modcurve.ip_poly(13).get(1, 13) == -1
    ok &= modcurve.ip_poly(7).get(1, 7) == -1
    y1 = modcurve.ip_poly(7).y_part(1)
    for i in range(3, 8):
        ok &= y1[i] == tables.IP7_Y1[i]     # the five consistent displayed values
    # the two printed low-order I_7 values are display errata: they violate
    # the entry bound v_7 >= e(7i-1) that criterion 3 verifies, and all three
    # independent routes give the corrections
    ok &= y1[2] == -176 * 7 ** 4 and y1[1] == -82 * 7 ** 2
    e = modcurve.e_exponent(7)
    for i, printed in tables.IP7_Y1_PRINTED_ERRATA.items():
        v, c = 0, abs(printed)
        while c % 7 == 0:
            v, c = v + 1, c // 7
        ok &= Fraction(v) < e * (7 * i - 1)
    report(1, ok,
           "I_p tables reproduced (p=2,3,5 and I_13 y^1 verbatim; I_7 y^1 "
           "x^7..x^3 verbatim, x^2/x^1 corrected: printed values provably "
           "violate the entry valuation bound); runtimes %s"
           % {p: "%.1fs" % t for p, t in sorted(times.items())})


def test_criterion_02_cross_method_matrices():
    t0 = time.time()
    ok = True
    for p, n in ((2, 15), (3, 15), (5, 15), (7, 15), (13, 8)):
        a = umatrix.build_matrix_oracle(p, n)
        b = umatrix.build_matrix_genfun(p, n)
        ok &= a.rows == b.rows
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report(2, ok, "oracle vs generating-function matrices identical at "
                  "sizes 15,15,15,15,8 in %.1fs (< 2 min)" % elapsed)


def test_criterion_03_entry_valuation_bound(full_reports):
    ok, bad = claims_pass(full_reports["claims"],
                          ["entry-bound-p%d" % p for p in (2, 3, 5, 7, 13)])
    report(3, ok, "v_p(M_ij) >= e(pi-j)-1 on every computed entry, all five "
                  "primes; failures: %r" % bad)


def test_criterion_04_parabola_theorem(parabola_records):
    recs, elapsed = parabola_records
    ok = all(r.certified for r in recs[1:])
    ok &= all(r.v_obs >= charseries.parabola_floor(r.m) for r in recs)
    eq = {r.m for r in recs if r.v_obs == charseries.parabola_floor(r.m)}
    ok &= eq == {0, 1, 4, 13, 40}
    vals = {m: recs[m].v_obs for m in (0, 1, 4, 13, 40)}
    ok &= vals == {0: 0, 1: 2, 4: 26, 13: 260, 40: 2420}
    ok &= elapsed < 1800
    report(4, ok, "p=3: certified to m=45 at sizes 60/70; v_3(a_m) >= "
                  "(3/2)m(m-1)+2m with equality exactly at {0,1,4,13,40}, "
                  "values 0,2,26,260,2420; %.0fs (< 30 min)" % elapsed)


def test_criterion_05_secant_upper_bound(parabola_records):
    recs, _ = parabola_records
    hull = charseries.polygon_from_records(recs)
    mis = charseries.equality_indices_upto(45)
    ok = True
    for i in range(len(mis) - 1):
        a, b = mis[i], mis[i + 1]
        for m in range(a + 1, min(b, 46)):
            low = hull.value_at(m)
            ok &= charseries.parabola_floor(m) < low
            if m < b:
                ok &= low <= charseries.secant_line(i, m)
    report(5, ok, "for every m strictly between consecutive contact points "
                  "<= 40: parabola < polygon <= secant; zero violations")


def test_criterion_06_mod3_identities(full_reports):
    ids = ["selfsim-base", "selfsim-printed-erratum", "selfsim-full",
           "cube-extraction", "vanishing", "cube-ladder",
           "gbar-factorization", "minor-pattern", "excellent-counts",
           "excellent-minor-consistency", "recursive-witness-degree-40"]
    ok, bad = claims_pass(full_reports["claims"], ids)
    report(6, ok, "mod-3 identities on windows >= 30 (self-similarity in "
                  "corrected form; printed display recorded as erratum), "
                  "c_m pattern {0,1,4,13,40} to 45, excellent counts 1 at "
                  "{1,4,13} / 0 otherwise; failures: %r" % bad)


def test_criterion_07_hauptmodul_tower(full_reports):
    ok, bad = claims_pass(full_reports["claims"],
                          ["hauptmodul-tower", "twist-divisibility",
                           "s-eisenstein", "s-ratio-hauptmodul",
                           "twist-routes-agree"])
    report(7, ok, "d_3 = d_9 + 9d_9^2 + 27d_9^3 to q-precision 200; "
                  "9 | r_1 and 27 | r_m (m >= 2) over 60 coefficients; the "
                  "closed-form and q-series twist routes agree; "
                  "failures: %r" % bad)


def test_criterion_08_weight_contacts(full_reports):
    ids = ["weight-contact-l1-n1", "weight-contact-l1-n2",
           "weight-contact-l2-n2", "weight-contact-l1-n3"]
    ok, bad = claims_pass(full_reports["claims"], ids)
    report(8, ok, "for (n,l) in {(1,1),(2,1),(2,2),(3,1)}: certified "
                  "v_3(a_s(Q_k)) = (3/2)s(s-1)+2s at every contact point "
                  "s < 2*3^(n-1); failures: %r" % bad)


def test_criterion_09_slope_distribution(full_reports):
    ok, bad = claims_pass(full_reports["claims"],
                          ["slope-distribution-n2", "slope-distribution-n3"])
    report(9, ok, "k = 2*3^(n+1), n in {2,3}, i < n-1: exactly 3^i slopes "
                  "in [m_(i+1)+1, m_(i+2)-2], average 3^(i+1)-1, min/max "
                  "bounds hold; failures: %r" % bad)


def test_criterion_10_congruences(full_reports):
    ids = [c for c in full_reports["claims"] if c.startswith("congruence-")]
    assert len(ids) >= 6
    ok, bad = claims_pass(full_reports["claims"], ids)
    margins_present = all("margin" in full_reports["claims"][i]["observed"]
                          for i in ids)
    report(10, ok and margins_present,
           "for weight pairs with difference l*2*3^n, n in {1,2,3}: every "
           "certified coefficient difference has v_3 >= n+1; strengthened-"
           "bound margins emitted (measured, not asserted); failures: %r" % bad)


def test_criterion_11_power_identity_and_slope(full_reports):
    ids = (["eisenstein-power-p%d" % p for p in (2, 3, 5, 7, 13)]
           + ["hauptmodul-slope-p%d" % p for p in (2, 3, 5, 7, 13)]
           + ["hauptmodul-poly-p%d" % p for p in (2, 3, 5, 7, 13)])
    ok, bad = claims_pass(full_reports["claims"], ids)
    report(11, ok, "Eisenstein power identity and single-slope polygon for "
                   "all five primes; H_p integral, degree p+1, constant "
                   "term 1; failures: %r" % bad)


def test_criterion_12_unit_congruences(full_reports):
    ids = ["unit-congruence-p%d-n%d" % (p, n) for p in (5, 7) for n in (0, 1, 2)]
    ok, bad = claims_pass(full_reports["claims"], ids)
    report(12, ok, "E_(p-1)^(p^n)(q)/E_(p-1)^(p^n)(q^p) - 1 divisible by "
                   "p^(n+1) through 50 coefficients, p in {5,7}, n in "
                   "{0,1,2}; failures: %r" % bad)


def test_criterion_13_slope_floors(full_reports):
    ids = ["p2-slope-floor", "p3-slope-floor-k6", "p3-slope-floor-k18",
           "p3-slope-floor-k54"]
    ok, bad = claims_pass(full_reports["claims"], ids)
    report(13, ok, "p=2: polygon >= 3C(m+1,2) for m <= 15; p=3, k in "
                   "{6,18,54}: polygon >= 3C(m,2) for m <= 15; "
                   "failures: %r" % bad)


# sha256 of the `verify --suite all` report; a change that alters the
# report on purpose updates it and says why
REPORT_SHA256 = ("d249e4a153389c98f3d4c75c223549c664f763b7"
                 "f814cd574bae0122a31fb274")


def test_criterion_14_determinism(full_reports):
    ok = (full_reports["texts"][0] == full_reports["texts"][1]
          and full_reports["codes"] == [0, 0]
          and hashlib.sha256(full_reports["texts"][0]).hexdigest()
          == REPORT_SHA256)
    report(14, ok, "two full `verify --suite all` runs: byte-identical "
                   "reports (%d bytes) with the pinned sha256, both exit 0"
                   % len(full_reports["texts"][0]))


def test_zz_all_criteria_reported():
    assert CRITERIA_PRINTED == set(range(1, 15))
