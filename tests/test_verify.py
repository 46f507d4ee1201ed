"""Each claim of a suite is one unit: a named perturbation of what a mod3
or p3-parabola claim, or a modcurve, umatrix or congruence claim family,
checks makes that claim fail, a failing congruence or oldform-window claim
says what was seen, and a claim that raises fails alone while the rest of
its suite still runs and is reported in order."""

import multiprocessing
import re

import pytest

from upadic import (charseries, mod3, modcurve, tables, umatrix, verify,
                    weights)
from upadic.charseries import CharSeries
from upadic.mod3 import F3BiSeries, poly
from upadic.modcurve import BiPoly, HPoly
from upadic.newton import NewtonPolygon
from upadic.series import QSeries
from upadic.umatrix import UMatrix

MOD3_IDS = ["selfsim-base", "selfsim-printed-erratum", "selfsim-full",
            "cube-extraction", "vanishing", "cube-ladder",
            "gbar-factorization", "minor-pattern", "excellent-counts",
            "excellent-minor-consistency", "recursive-witness-degree-40"]
CACHES = (mod3.gbar, mod3.r_factor)


@pytest.fixture
def fresh_caches():
    # a perturbed run must neither read nor leave behind cached values
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


def _with(f, key, value):
    """f with its coefficient at key set to value."""
    return F3BiSeries({**f.data, key: value}, f.known_upto)


def _series(name, key, value, arg=None):
    """Patch the mod3 series function name (at argument arg only, if given)
    to return its value with one coefficient set."""
    def patch(monkeypatch):
        orig = getattr(mod3, name)
        monkeypatch.setattr(mod3, name, lambda a: _with(orig(a), key, value)
                            if arg is None or a == arg else orig(a))
    return patch


def _constant(name, key, value):
    """Patch the mod3 polynomial constant name with one coefficient set."""
    return lambda monkeypatch: monkeypatch.setattr(
        mod3, name, _with(getattr(mod3, name), key, value))


def _kbar(entries):
    """Patch Kbar, at every size, with the given 1-indexed entries set."""
    def patch(monkeypatch):
        orig = mod3.kbar_rows

        def rows(size):
            out = [list(row) for row in orig(size)]
            for (i, j), v in entries.items():
                if i <= size and j <= size:
                    out[i - 1][j - 1] = v
            return tuple(map(tuple, out))
        monkeypatch.setattr(mod3, "kbar_rows", rows)
    return patch


def _printed_display_corrected(monkeypatch):
    monkeypatch.setattr(mod3, "PRINTED_MULTIPLIER", mod3.SELFSIM_MULTIPLIER)
    monkeypatch.setattr(mod3, "PRINTED_TAIL", mod3.SELFSIM_TAIL)


def _witness_block_swapped(monkeypatch):
    # pi(3t-1) and pi(3t+1) of every block of the recursion exchanged
    orig = mod3.recursive_witness_permutation

    def witness(i):
        pi = list(orig(i))
        for t in range(1, (len(pi) - 1) // 3 + 1):
            pi[3 * t - 2], pi[3 * t] = pi[3 * t], pi[3 * t - 2]
        return tuple(pi)
    monkeypatch.setattr(mod3, "recursive_witness_permutation", witness)


# one named perturbation per mod3 claim, in report order
MUTATIONS = [
    ("selfsim-base", _constant("SELFSIM_TAIL", (1, 1), 0)),
    ("selfsim-printed-erratum", _printed_display_corrected),
    ("selfsim-full", _constant("SELFSIM_MULTIPLIER", (-2, 2), 0)),
    ("cube-extraction", _series("gbar", (3, 3), 2, arg=40)),
    ("vanishing", _series("gbar", (1, 3), 1, arg=40)),
    ("cube-ladder", _series("r_factor", (1, 0), 1, arg=2)),
    ("gbar-factorization", lambda monkeypatch: monkeypatch.setattr(
        mod3, "gbar0", lambda: poly({(1, 1): 1, (2, 2): -1, (1, 3): 1}))),
    ("minor-pattern", _kbar({(2, 2): 1})),
    ("excellent-counts", _kbar({(4, 2): 0})),
    ("excellent-minor-consistency", _kbar({(1, 2): 1, (2, 1): 1, (2, 2): 1})),
    ("recursive-witness-degree-40", _witness_block_swapped),
]


def test_the_mutation_table_names_every_mod3_claim():
    assert [cid for cid, _ in MUTATIONS] == MOD3_IDS


@pytest.mark.parametrize("cid,perturb", MUTATIONS, ids=MOD3_IDS)
def test_a_perturbation_fails_its_mod3_claim(monkeypatch, fresh_caches, cid,
                                             perturb):
    perturb(monkeypatch)
    claims = verify.suite_mod3()
    assert [c["id"] for c in claims] == MOD3_IDS
    assert not {c["id"]: c for c in claims}[cid]["pass"]


MODCURVE_STEMS = ["eisenstein-power", "hauptmodul-poly", "hauptmodul-slope",
                  "ip-two-routes", "ip-laurent-certificate", "ip-table",
                  "ip7-y1-displayed", "ip7-y1-corrected",
                  "ip7-y1-printed-erratum", "ip13-y1", "ip-corner-terms",
                  "ip-scaled-integrality"]
# the caches a perturbed H_p, j or I_p can reach; the I_p fit, which reads
# only d_p, stays warm
MODCURVE_CACHES = (modcurve.solve_hauptmodul_poly,
                   modcurve.modular_equation_ip, modcurve.ip_poly)


@pytest.fixture
def fresh_modcurve_caches():
    for cache in MODCURVE_CACHES:
        cache.cache_clear()
    yield
    for cache in MODCURVE_CACHES:
        cache.cache_clear()


def _at(module, name, arg, change):
    """Patch the function module.name to pass its value at the first
    argument arg (a prime, or a q-precision for j_series) through change."""
    def patch(monkeypatch):
        orig = getattr(module, name)
        monkeypatch.setattr(module, name, lambda a, *rest: change(
            orig(a, *rest)) if a == arg else orig(a, *rest))
    return patch


def _term(key, delta):
    """A change of a BiPoly: the coefficient at key moved by delta."""
    return lambda f: BiPoly({**f.terms, key: f.get(*key) + delta})


def _table(name, key, value):
    """Patch the published table tables.name with one entry set."""
    return lambda monkeypatch: monkeypatch.setattr(
        tables, name, {**getattr(tables, name), key: value})


def _eisenstein_12(monkeypatch):
    # E_12 = 1 + (65520/691) q + ... with q^1 moved by 1: p = 13 reads it
    orig = modcurve.eisenstein
    monkeypatch.setattr(modcurve, "eisenstein", lambda k, prec: orig(k, prec)
                        + QSeries(1, [int(k == 12)], prec))


def _h3_moved(h):
    # h_2 + 3^6 keeps every term of the symbolic quotient integral (its
    # x y coefficient becomes one lower), so only the cross-check can see it
    c = list(h.coeffs)
    c[2] += 3 ** 6
    return HPoly(3, c)


# one named perturbation per modcurve claim family, each at one prime
MODCURVE_MUTATIONS = [
    ("eisenstein-power-p13", _eisenstein_12),
    # j at the precision H_2 is solved to (3 (p + 2) + 16) gains a q^10
    ("hauptmodul-poly-p2", _at(modcurve, "j_series", 28,
                               lambda j: j + QSeries(10, [1], j.prec))),
    ("hauptmodul-slope-p3", lambda monkeypatch: monkeypatch.setitem(
        modcurve.C_P, 3, 1727)),
    ("ip-two-routes-p3", _at(modcurve, "solve_hauptmodul_poly", 3, _h3_moved)),
    ("ip-laurent-certificate-p5", _at(modcurve, "practical_ip_fit", 5,
                                      _term((2, 3), 5 ** 6))),
    ("ip-table-p2", _table("IP2", (1, 1), -3 * 2 ** 4 + 2 ** 4)),
    ("ip7-y1-displayed", _table("IP7_Y1", 5, -45 * 7 ** 9)),
    ("ip7-y1-corrected", _table("IP7_Y1", 2, -176 * 7 ** 2)),
    ("ip7-y1-printed-erratum", _table("IP7_Y1_PRINTED_ERRATA", 2,
                                      -176 * 7 ** 4)),
    ("ip13-y1", _table("IP13_Y1", 2, -9605 * 13 ** 2)),
    ("ip-corner-terms-p7", _at(modcurve, "ip_poly", 7, _term((1, 7), -1))),
    ("ip-scaled-integrality-p13", _at(charseries, "ip_poly", 13,
                                      _term((13, 1), 1))),
]


def _stem(cid):
    return re.sub(r"-p\d+$", "", cid)


@pytest.fixture(scope="module")
def modcurve_ids():
    # taken before any perturbation, with the caches as they are
    return [c["id"] for c in verify.suite_modcurve()]


def test_the_mutation_table_names_every_modcurve_claim_family(modcurve_ids):
    assert [_stem(cid) for cid, _ in MODCURVE_MUTATIONS] == MODCURVE_STEMS
    assert all(cid in modcurve_ids for cid, _ in MODCURVE_MUTATIONS)
    assert {_stem(cid) for cid in modcurve_ids} == set(MODCURVE_STEMS)


@pytest.mark.parametrize("cid,perturb", MODCURVE_MUTATIONS,
                         ids=[cid for cid, _ in MODCURVE_MUTATIONS])
def test_a_perturbation_fails_its_modcurve_claim(monkeypatch, modcurve_ids,
                                                 fresh_modcurve_caches, cid,
                                                 perturb):
    perturb(monkeypatch)
    claims = verify.suite_modcurve()
    assert [c["id"] for c in claims] == modcurve_ids
    assert not {c["id"]: c for c in claims}[cid]["pass"]


def test_a_two_sided_hauptmodul_polygon_fails_the_slope_claim(monkeypatch):
    # a polygon that check_hauptmodul_polygon returns without raising, with
    # sides of slope 0 and (p + 1)/p in place of the single side e*p
    monkeypatch.setattr(modcurve, "check_hauptmodul_polygon",
                        lambda p: NewtonPolygon([(0, 0), (1, 0),
                                                 (p + 1, p + 1)]))
    claims = {c["id"]: c for c in verify.suite_modcurve()}
    slope = [cid for cid in claims if _stem(cid) == "hauptmodul-slope"]
    assert slope == ["hauptmodul-slope-p%d" % p
                     for p in modcurve.GENUS_ZERO_PRIMES]
    assert not any(claims[cid]["pass"] for cid in slope)
    assert claims["hauptmodul-slope-p3"]["observed"] == "[('0', 1), ('4/3', 3)]"


UMATRIX_STEMS = ["cross-method", "entry-bound", "scaled-row-bound-tight",
                 "dk-row1-unit", "kbar-generating-function"]
def _matrix(name, p, n, change):
    """Patch the umatrix builder name to pass its matrix at (p, n) through
    change, which edits the rows in place."""
    def patch(monkeypatch):
        orig = getattr(umatrix, name)

        def build(q, size):
            m = orig(q, size)
            if (q, size) != (p, n):
                return m
            rows = [list(row) for row in m.rows]
            change(rows)
            return UMatrix(q, size, rows, provenance=m.provenance)
        monkeypatch.setattr(umatrix, name, build)
    return patch


def _entry(i, j, new):
    """A change of a matrix: entry (i, j) x becomes new(x)."""
    def change(rows):
        rows[i - 1][j - 1] = new(rows[i - 1][j - 1])
    return change


def _row_times(i, c):
    """A change of a matrix: row i multiplied by c."""
    def change(rows):
        rows[i - 1] = [c * x for x in rows[i - 1]]
    return change


# one named perturbation per umatrix claim family, with the caches it reaches:
# each patches one builder, and a cached one must not hand it a stored matrix
GENFUN, ORACLE = umatrix.build_matrix_genfun, umatrix.build_matrix_oracle
UMATRIX_MUTATIONS = [
    ("cross-method-p3", _matrix("build_matrix_genfun", 3, 15,
                                _entry(2, 3, lambda x: x + 1)), [GENFUN]),
    # a unit at (15, 1), where the bound asks for a high power of 5
    ("entry-bound-p5", _matrix("build_matrix_oracle", 5, 15,
                               _entry(15, 1, lambda x: 1)), [ORACLE]),
    ("scaled-row-bound-tight", _matrix("build_matrix_genfun", 3, 40,
                                       _row_times(5, 3)), [GENFUN]),
    ("dk-row1-unit", _matrix("build_matrix_genfun", 3, 40,
                             _entry(1, 1, lambda x: 3 * x)), [GENFUN]),
    ("kbar-generating-function", _kbar({(1, 2): 1}), []),
]


@pytest.fixture(scope="module")
def umatrix_ids():
    return [c["id"] for c in verify.suite_umatrix()]


def test_the_mutation_table_names_every_umatrix_claim_family(umatrix_ids):
    assert [_stem(cid) for cid, _, _ in UMATRIX_MUTATIONS] == UMATRIX_STEMS
    assert all(cid in umatrix_ids for cid, _, _ in UMATRIX_MUTATIONS)
    assert {_stem(cid) for cid in umatrix_ids} == set(UMATRIX_STEMS)


@pytest.mark.parametrize("cid,perturb,caches", UMATRIX_MUTATIONS,
                         ids=[cid for cid, _, _ in UMATRIX_MUTATIONS])
def test_a_perturbation_fails_its_umatrix_claim(monkeypatch, umatrix_ids,
                                                cid, perturb, caches):
    for cache in caches:
        cache.cache_clear()
    perturb(monkeypatch)
    claims = verify.suite_umatrix()
    assert [c["id"] for c in claims] == umatrix_ids
    assert not {c["id"]: c for c in claims}[cid]["pass"]


PARABOLA_IDS = ["parabola-certification", "parabola-lower-bound",
                "parabola-equality-set", "parabola-contact-values",
                "secant-upper-bound"]
# a small run of the suite: every claim passes, and the records come from
# the graded residues of the truncations 24 and 34
PARABOLA_RUN = {"terms": 13, "size": 24}


def _residue(m, change, k=None):
    """Patch the graded series of every truncation (of weight k only, if
    given) to pass its residue a_m through change."""
    def patch(monkeypatch):
        orig = weights.graded_char_series

        def series(p, w, size, need):
            g = orig(p, w, size, need)
            if k is not None and w != k:
                return g
            residues = list(g.residues)
            residues[m] = change(residues[m])
            return CharSeries(g.p, residues, g.precisions, g.trunc_size)
        monkeypatch.setattr(weights, "graded_char_series", series)
    return patch


def _bound_lowered(monkeypatch):
    # T_5 lowered to the parabola value, which v_3(a_5) exceeds
    orig = charseries.trunc_bound
    monkeypatch.setattr(charseries, "trunc_bound", lambda p, m, n: (
        charseries.parabola_floor(m) if m == 5 else orig(p, m, n)))


# one named perturbation per p3-parabola claim, in report order; each keeps
# every record settled, so no claim falls back to the exact series
PARABOLA_MUTATIONS = [
    ("parabola-certification", _bound_lowered),
    # v_3(a_4) from 26 to 25, below the parabola
    ("parabola-lower-bound", _residue(4, lambda a: a // 3)),
    # v_3(a_4) from 26 to 27, off the parabola
    ("parabola-equality-set", _residue(4, lambda a: 3 * a)),
    ("parabola-contact-values", _residue(13, lambda a: 3 * a)),
    # a_2 = 3^7, on the parabola where the polygon must lie above it
    ("secant-upper-bound", _residue(2, lambda a: 3 ** 7)),
]


def test_the_mutation_table_names_every_parabola_claim():
    assert [cid for cid, _ in PARABOLA_MUTATIONS] == PARABOLA_IDS
    assert all(c["pass"] for c in verify.suite_p3_parabola(**PARABOLA_RUN))


@pytest.mark.parametrize("cid,perturb", PARABOLA_MUTATIONS, ids=PARABOLA_IDS)
def test_a_perturbation_fails_its_parabola_claim(monkeypatch, cid, perturb):
    perturb(monkeypatch)
    claims = verify.suite_p3_parabola(**PARABOLA_RUN)
    assert [c["id"] for c in claims] == PARABOLA_IDS
    claim = {c["id"]: c for c in claims}[cid]
    # failed by observation, not by raising
    assert not claim["pass"]
    assert not re.match(r"\w+: ", claim["observed"])


def test_the_secant_claim_builds_one_hull(monkeypatch):
    # one polygon serves every m between the contact points 1, 4 and 13
    calls = []
    orig = charseries.polygon_from_records
    monkeypatch.setattr(charseries, "polygon_from_records",
                        lambda recs: calls.append(1) or orig(recs))
    claims = verify.suite_p3_parabola(13, 20)
    assert all(c["pass"] for c in claims)
    assert len(calls) == 1


TWIST_CACHES = (weights.uk_matrix, weights.cuspidal_char_series,
                weights.graded_char_series)


@pytest.fixture
def fresh_twist_caches():
    for cache in TWIST_CACHES:
        cache.cache_clear()
    yield
    for cache in TWIST_CACHES:
        cache.cache_clear()


def test_a_perturbed_twist_fails_its_congruence_claim(monkeypatch,
                                                      fresh_twist_caches):
    # rho_1 of weight 6 moved by 3.  A move that keeps the twist bounds
    # (v_3(rho_m) >= ceil(3m/2)) keeps every difference at v_3 >= 3, so the
    # bound check is what fails the claim, by raising
    orig = weights.twist_coefficients

    def rho(k, size):
        out = orig(k, size)
        if k == 6:
            out[1] += 3
        return out
    monkeypatch.setattr(weights, "twist_coefficients", rho)
    claims = verify.suite_congruence()
    assert [c["id"] for c in claims] == [
        "congruence-%d-%d" % pair for pair in
        ((0, 6), (0, 18), (6, 24), (18, 54), (0, 54), (54, 162))]
    assert [c["id"] for c in claims if not c["pass"]] == [
        "congruence-0-6", "congruence-6-24"]
    assert claims[0]["observed"].startswith(
        "ValueError: twist bound violations for k=6")


def test_a_perturbed_residue_fails_its_congruence_claims_by_observation(
        monkeypatch):
    # a_1 of the graded weight-6 series raised by 3: its differences from
    # weights 0 and 24 drop to v_3 = 1 at m = 1 and 2 (P_2 = a_2 - a_1),
    # below the required 2, and no other pair reads weight 6
    _residue(1, lambda a: a + 3, k=6)(monkeypatch)
    claims = verify.suite_congruence()
    assert {c["id"]: c["observed"] for c in claims if not c["pass"]} == {
        cid: "fail at m = 1 (v_diff 1), m = 2 (v_diff 1)"
        for cid in ("congruence-0-6", "congruence-6-24")}


# each sub-check of oldform-window-n1 and -n2 failed alone, then two at
# once, with the observed texts of the two claims
OLDFORM_FAILURES = {
    "contact": ({"contact": False}, [
        "contact: False, entering 2 < 7/2: True, mates above 3k/4: True",
        "contact: False, entering 10 < 25/2: True, mates above 3k/4: True"]),
    "slope": ({"entering_slope": "13", "slope_below_threshold": False}, [
        "contact: True, entering 13 < 7/2: False, mates above 3k/4: True",
        "contact: True, entering 13 < 25/2: False, mates above 3k/4: True"]),
    "mates": ({"mates_above_3k4": False}, [
        "contact: True, entering 2 < 7/2: True, mates above 3k/4: False",
        "contact: True, entering 10 < 25/2: True, mates above 3k/4: False"]),
    "contact-and-mates": ({"contact": False, "mates_above_3k4": False}, [
        "contact: False, entering 2 < 7/2: True, mates above 3k/4: False",
        "contact: False, entering 10 < 25/2: True, mates above 3k/4: False"]),
}


@pytest.mark.parametrize("change, seen", OLDFORM_FAILURES.values(),
                         ids=OLDFORM_FAILURES)
def test_a_failing_oldform_claim_says_what_was_seen(monkeypatch, change,
                                                    seen):
    real = weights.oldform_window_check
    monkeypatch.setattr(weights, "oldform_window_check",
                        lambda n: {**real(n), **change, "pass": False})
    claims = verify.suite_weights()
    assert [(c["id"], c["observed"]) for c in claims if not c["pass"]] == [
        ("oldform-window-n1", seen[0]), ("oldform-window-n2", seen[1])]


def _boom(window):
    raise TypeError("boom")


def test_a_raising_claim_fails_alone(monkeypatch):
    monkeypatch.setattr(mod3, "vanishing_check", _boom)
    claims = verify.suite_mod3()
    assert [c["id"] for c in claims] == MOD3_IDS
    assert [c["id"] for c in claims if not c["pass"]] == ["vanishing"]
    assert claims[4]["observed"] == "TypeError: boom"
    assert claims[4]["expected"] == "0 violations"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker sees the monkeypatch")
def test_the_parallel_path_isolates_a_raising_claim(monkeypatch):
    monkeypatch.setattr(mod3, "vanishing_check", _boom)
    serial = verify.run_suites(["mod3", "congruence"], parallel=1)
    assert verify.run_suites(["mod3", "congruence"], parallel=2) == serial
    assert [c["id"] for c in serial[0]["suites"][0]["claims"]] == MOD3_IDS


def test_a_claim_records_its_outcome_or_fails():
    claims = []
    with verify._claim(claims, "a", "raises", "x"):
        raise ZeroDivisionError("division by zero")
    with verify._claim(claims, "b", "records nothing", "x"):
        pass
    with verify._claim(claims, "c", "holds", "x") as observe:
        observe("x", 1)
    assert [(c["observed"], c["pass"]) for c in claims] == [
        ("ZeroDivisionError: division by zero", False), (None, False),
        ("x", True)]
    with pytest.raises(KeyboardInterrupt):
        with verify._claim(claims, "d", "interrupted", "x"):
            raise KeyboardInterrupt
