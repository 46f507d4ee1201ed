import math
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from upadic.scalars import INF, val_p, vp_int
from upadic.newton import NewtonPolygon
from upadic.modcurve import GENUS_ZERO_PRIMES
from upadic.umatrix import UMatrix, build_matrix_genfun
from upadic import charseries, umatrix, weights
from upadic.charseries import (CharSeries, CoefficientRecord, certify, charpoly_leverrier,
                               charpoly_crt, full_series,
                               row_bound, trunc_bound,
                               check_scaled_integrality, parabola_floor, m_index,
                               equality_indices_upto, equality_set, secant_line,
                               polygon_from_records)
from upadic.weights import cuspidal_char_series, stable_valuations

SRC = os.path.dirname(os.path.dirname(charseries.__file__))


def _crt(rows, p):
    return charpoly_crt(rows, p, umatrix.scaled_row_minima(rows, p))


def _exact(m):
    coeffs = _crt(m.rows, m.p)
    return CharSeries(m.p, coeffs, [INF] * len(coeffs), m.n)


def test_charpoly_zero_and_diag():
    assert charpoly_leverrier([[0, 0], [0, 0]]) == [1, 0, 0]
    assert charpoly_leverrier([[3, 0], [0, 9]]) == [1, -12, 27]


def test_charpoly_crt_matches_leverrier_random():
    random.seed(21)
    cases = [[], [[7]], [[1, 2], [3, 4]],
             [[0, 5, -3], [0, 2, 8], [0, -1, 4]]]        # a zero column
    for _ in range(12):
        n = random.randint(1, 8)
        cases.append([[random.randint(-50, 50) for _ in range(n)]
                      for _ in range(n)])
    for rows in cases:
        assert _crt(rows, 3) == charpoly_leverrier(rows)


def test_charpoly_crt_big_entries():
    random.seed(22)
    for n in (6, 9):
        rows = [[random.randint(-10 ** 40, 10 ** 40) for _ in range(n)]
                for _ in range(n)]
        # several chunks, the last one short
        floors = charseries._coefficient_floors(
            umatrix.scaled_row_minima(rows, 3))
        need = charseries._crt_bits(rows, 3, floors) // 29 + 2
        assert need > charseries._CHUNK and need % charseries._CHUNK
        assert _crt(rows, 3) == charpoly_leverrier(rows)


@st.composite
def _valued_matrices(draw):
    """(p, rows): entries p^k u, so that the floors are often positive, with
    small k anywhere (below any row bound a U matrix would obey), some zero
    rows, and sometimes a first Hessenberg pivot that is a pool prime."""
    p = draw(st.sampled_from(GENUS_ZERO_PRIMES))
    n = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0),
                      st.builds(lambda k, u: p ** k * u, st.integers(0, 12),
                                st.integers(-10 ** 6, 10 ** 6)))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2)):
        if i < n:
            rows[i] = [0] * n
    if n >= 3 and draw(st.booleans()):
        rows[1][0] = charseries._prime_pool(1)[0]
    return p, rows


@settings(max_examples=60, deadline=None)
@given(_valued_matrices())
def test_charpoly_crt_matches_leverrier_property(case):
    p, rows = case
    want = charpoly_leverrier(rows)
    minima = umatrix.scaled_row_minima(rows, p)
    floors = charseries._coefficient_floors(minima)
    assert all(a % p ** l == 0 for a, l in zip(want, floors))
    assert charpoly_crt(rows, p, minima) == want


def test_charpoly_crt_prime_count_at_size_40(monkeypatch):
    class Enough(Exception):
        pass

    counts = []

    def spy(count):
        counts.append(count)
        raise Enough

    monkeypatch.setattr(charseries, "_prime_pool", spy)
    with pytest.raises(Enough):
        _crt(build_matrix_genfun(3, 40).rows, 3)
    assert counts[0] <= 4421 // 29 + 3


def test_prime_pool_grows_on_demand():
    code = ("import upadic.linalg as c; assert c._POOL == (); "
            "a = c._prime_pool(3); b = c._prime_pool(40); "
            "assert b[:3] == a and len(b) == 40 and c._POOL == b; "
            "assert all(c._is_probable_prime(x) for x in b); "
            "assert list(b) == sorted(set(b)) and b[0] > 2 ** 30")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr


def test_charpoly_crt_non_unit_pivot_falls_back(monkeypatch):
    random.seed(24)
    n = 6
    rows = [[random.randint(-10 ** 12, 10 ** 12) for _ in range(n)]
            for _ in range(n)]
    first = charseries._prime_pool(1)[0]
    rows[1][0] = first          # the first pivot: nonzero, not a unit
    moduli = []
    hessenberg = charseries._charpoly_mod

    def spy(a, p):
        moduli.append(p)
        return hessenberg(a, p)

    monkeypatch.setattr(charseries, "_charpoly_mod", spy)
    got = _crt(rows, 3)
    chunk = charseries._prime_pool(charseries._CHUNK)
    assert moduli[:1 + len(chunk)] == [math.prod(chunk)] + list(chunk)
    assert got == charpoly_leverrier(rows)


def test_char_series_methods_agree_on_umatrix():
    m = build_matrix_genfun(3, 18)
    a = _exact(m)
    assert a.residues == tuple(charpoly_leverrier(m.rows))
    assert a.residues[0] == 1


def test_leverrier_rejects_inexact_division():
    with pytest.raises(ValueError):
        charpoly_leverrier([[Fraction(1, 2)]])


def test_char_series_must_start_with_one():
    with pytest.raises(ValueError):
        CharSeries(3, [2, 1], [INF, INF], 1)


def test_certify_rejects_misordered_sizes():
    q = _exact(UMatrix(3, 2, [[3, 0], [0, 9]]))
    with pytest.raises(ValueError):
        certify(q, q, 1)


def test_trace_valuation_p3():
    q = cuspidal_char_series(3, 0, 20)
    assert val_p(q.residues[1], 3) == 2
    assert val_p(q.residues[4], 3) == 26


def test_full_series_of_an_exact_series():
    q = _exact(UMatrix(3, 2, [[3, 0], [0, 9]]))
    p = full_series(q)
    assert p.residues == (1, -13, 39, -27)   # (1 - t)(1 - 12t + 27t^2)
    assert val_p(p.residues[1] - (q.residues[1] - 1), 3) == INF


def test_full_series_precisions():
    q = _exact(UMatrix(3, 2, [[3, 0], [0, 9]]))
    assert full_series(q).precisions == (INF,) * 4
    # graded residues of every coefficient of a size-2 truncation: P_m is
    # known to the lesser precision of a_m and a_(m-1), a_0 = 1 and
    # a_3 = 0 exactly.  The kernel's 7 for a_0 is not kept: a_0 is exact
    q = CharSeries(3, [1, 3, 9], [7, 5, 4], 2)
    assert q.precisions == (INF, 5, 4)
    g = full_series(q)
    assert g.residues == (1, 2, 6, -9)
    assert g.precisions == (INF, 5, 4, 4)
    # a_0..a_2 of a size-5 truncation: no P_3, since a_3 is not 0
    g = full_series(CharSeries(3, [1, 3, 9], [7, 5, 4], 5))
    assert g.residues == (1, 2, 6)
    assert g.precisions == (INF, 5, 4)


def test_valuation_reads_only_what_the_residue_proves():
    exact = CharSeries(3, [1, 0, 18], [INF] * 3, 2)
    assert exact.valuation(1) == INF         # an exact zero: known, INF
    assert exact.valuation(2) == 2
    graded = CharSeries(3, [1, 0, 18, 27], [5, 4, 2, 4], 3)
    assert graded.valuation(1) is None        # 0 modulo 3^4
    assert graded.valuation(2) is None        # v_3(18) = 2 is not below 2
    assert graded.valuation(3) == 3
    # certify leaves the records to the exact series when a residue is open
    assert certify(graded, CharSeries(3, [1, 0, 18, 27], [5] * 4, 4),
                   1) is None
    assert certify(exact, CharSeries(3, [1, 0, 18], [INF] * 3, 3),
                   2) is not None


def _certify_reading_both_valuations(q1, q2, m_max, bounds):
    # the earlier rule: both valuations proven, and equal where they agree
    out = [(0, 0, True)]
    for m in range(1, m_max + 1):
        v, v2 = q1.valuation(m), q2.valuation(m)
        bound = bounds[m - 1]
        if (v is None or v2 is None
                or min(q1.precisions[m], q2.precisions[m]) < bound):
            return None
        agree = (v == v2 and val_p(q1.residues[m] - q2.residues[m], 3)
                 >= bound)
        out.append((m, v, agree and v < bound))
    return out


def _powers(t, top):
    return st.lists(st.builds(lambda u, e: u * 3 ** e, st.integers(-4, 4),
                              st.integers(0, top)), min_size=t, max_size=t)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certify_reads_one_valuation_where_it_read_two(data):
    # residue pairs r and r + delta, each known to a drawn precision near a
    # drawn truncation bound; wherever the earlier rule returns records,
    # certify returns the same valuations and certificates
    t = data.draw(st.integers(1, 3))
    bounds = data.draw(st.lists(st.builds(Fraction, st.integers(2, 16),
                                          st.sampled_from([1, 2])),
                                min_size=t, max_size=t))
    r1 = data.draw(_powers(t, 9))
    r2 = [r + d for r, d in zip(r1, data.draw(_powers(t, 20)))]
    pis = [data.draw(st.lists(st.one_of(
               st.just(INF), st.integers(math.ceil(b) - 1, math.ceil(b) + 3)),
               min_size=2, max_size=2)) for b in bounds]
    q1 = CharSeries(3, [1, *r1], [INF, *(pi[0] for pi in pis)], 4)
    q2 = CharSeries(3, [1, *r2], [INF, *(pi[1] for pi in pis)], 14)
    with mock.patch.object(charseries, "trunc_bound",
                           lambda p, m, n: bounds[m - 1]):
        new = certify(q1, q2, t)
    old = _certify_reading_both_valuations(q1, q2, t, bounds)
    if old is not None:
        assert [(r.m, r.v_obs, r.certified) for r in new] == old
    elif new is not None:
        # only an unproven second valuation, which certifies nothing
        unproven = [r for r in new[1:] if q2.valuation(r.m) is None]
        assert unproven and not any(r.certified for r in unproven)


def test_row_bound_values():
    assert row_bound(3, 1) == 2            # 3i - 1
    assert row_bound(3, 11) == 32
    assert row_bound(2, 1) == 3            # 4i - 1
    assert row_bound(13, 7) == Fraction(6, 7) * 7 - 1


def test_trunc_bound_examples():
    assert trunc_bound(3, 2, 10) == 34       # 2 + 32
    assert trunc_bound(3, 1, 10) == 32       # single omitted row 3n+2
    assert trunc_bound(3, 1, 20) == 62
    assert trunc_bound(3, 0, 10) == INF


def test_truncation_error_bound_generic():
    # row bounds 3i - 1: rows 1..3 plus the first omitted row 16
    assert trunc_bound(3, 4, 15) == (2 + 5 + 8) + 47


def test_trunc_bound_is_the_sum_of_its_row_bounds():
    # the closed form against the m - 1 smallest row bounds summed one by one
    for p in GENUS_ZERO_PRIMES:
        r = [row_bound(p, i) for i in range(81)]
        for m in range(1, 60):
            rows = sum(r[i] for i in range(1, m))
            for n in range(80):
                want = rows + r[n + 1]
                got = trunc_bound(p, m, n)
                assert type(got) is type(want) is Fraction
                assert got == want, (p, m, n)


def test_scaled_integrality_all_primes():
    for p in (2, 3, 5, 7, 13):
        assert check_scaled_integrality(p)


def test_nhat_values():
    assert parabola_floor(1) == 2
    assert parabola_floor(4) == 26
    assert parabola_floor(13) == 260
    assert parabola_floor(40) == 2420
    assert parabola_floor(45) == 3060
    # equals the running sum of the row bounds 3i - 1
    for m in range(0, 30):
        assert parabola_floor(m) == sum(3 * i - 1 for i in range(1, m + 1))


def test_m_index():
    assert [m_index(i) for i in range(5)] == [0, 1, 4, 13, 40]
    assert equality_indices_upto(45) == [0, 1, 4, 13, 40]


def test_newton_polygon_two_segments():
    np = NewtonPolygon([(0, 0), (1, 2), (2, 7)])
    assert np.slopes() == [(Fraction(2), 1), (Fraction(5), 1)]


def test_newton_polygon_single_point_and_collinear():
    assert NewtonPolygon([(0, 0)]).slopes() == []
    np = NewtonPolygon([(0, 0), (1, 3), (2, 6), (3, 9)])
    assert np.slopes() == [(Fraction(3), 3)]


def test_newton_polygon_skips_infinite():
    np = NewtonPolygon([(0, 0), (1, INF), (2, 4)])
    assert np.vertices == [(0, Fraction(0)), (2, Fraction(4))]


def test_newton_polygon_value_at():
    np = NewtonPolygon([(0, 0), (3, 6)])
    assert np.value_at(2) == 4
    with pytest.raises(ValueError):
        np.value_at(5)


def test_certification_small():
    recs = stable_valuations(3, 0, 6, 16)
    for r in recs[1:]:
        assert r.certified
    assert recs[1].v_obs == 2
    assert recs[4].v_obs == 26


def test_stable_valuations_checks_the_row_bound_premise(monkeypatch):
    monkeypatch.setattr(weights, "check_scaled_integrality",
                        lambda p: p != 5)
    cuspidal_char_series.cache_clear()
    weights.graded_char_series.cache_clear()
    assert stable_valuations(3, 0, 2, 12)[1].certified
    with pytest.raises(ValueError, match="p = 5"):
        stable_valuations(5, 0, 2, 12)


@pytest.mark.parametrize("p", [2, 3])
def test_cuspidal_char_series_checks_the_row_bounds(monkeypatch, p):
    rows = [list(row) for row in build_matrix_genfun(p, 6).rows]
    rows[3][1] = 1              # v_p = 0 at (4, 2): row 4 scales to -2e(p)
    patched = UMatrix(p, 6, rows)
    monkeypatch.setattr(umatrix, "build_matrix_genfun", lambda p, size: patched)
    with pytest.raises(ValueError, match=r"p = %d: row 4 " % p):
        cuspidal_char_series.__wrapped__(p, 0, 6)


def test_equality_set_small():
    assert equality_set(stable_valuations(3, 0, 5, 16)) == {0, 1, 4}


def test_unpinned_coefficient_fails_the_equality_set_claim(monkeypatch):
    # an uncertified record whose lower bound 5 does not clear the
    # parabola value 7 at m = 2
    recs = list(stable_valuations(3, 0, 5, 16))
    recs[2] = CoefficientRecord(2, recs[2].v_obs, 5, False)
    with pytest.raises(ValueError, match="coefficient 2 neither certified"):
        equality_set(recs)
    monkeypatch.setattr(weights, "stable_valuations", lambda p, k, m, n: recs)
    from upadic.verify import suite_p3_parabola
    claims = {c["id"]: c for c in suite_p3_parabola(terms=5, size=16)}
    claim = claims["parabola-equality-set"]
    assert not claim["pass"]
    assert claim["observed"].startswith(
        "ValueError: coefficient 2 neither certified")


def test_secant_line():
    assert secant_line(1, 2) == 10           # between (1,2) and (4,26)
    assert secant_line(2, 5) == 52            # slope 26 from (4,26)
    assert secant_line(2, 4) == 26            # endpoint
    assert secant_line(3, 40) == 2420


def test_polygon_from_records_uses_lower_bounds():
    recs = stable_valuations(3, 0, 10, 16)
    poly = polygon_from_records(recs)
    assert poly.vertices[0] == (0, Fraction(0))
    assert poly.value_at(1) == 2


def test_secant_upper_pinch():
    hull = polygon_from_records(stable_valuations(3, 0, 13, 20))
    # between the contact points 1 and 4, and between 4 and 13
    assert secant_line(1, 2) == 10 and parabola_floor(2) == 7
    assert parabola_floor(2) < hull.value_at(2) <= secant_line(1, 2)
    assert secant_line(2, 5) == 52
    assert parabola_floor(5) < hull.value_at(5) <= secant_line(2, 5)


def test_newton_polygon_helper():
    np = NewtonPolygon([(0, 0), (1, 2), (2, 7)])
    assert np.slopes() == [(Fraction(2), 1), (Fraction(5), 1)]


def test_newton_polygon_rejects_slopes_out_of_order(monkeypatch):
    from upadic import newton
    monkeypatch.setattr(newton, "_lower_hull", lambda pts: pts)
    with pytest.raises(ValueError, match="increase strictly"):
        NewtonPolygon([(0, 0), (1, 5), (2, 6)])


def _buzzard_calegari(m):
    # Buzzard-Calegari: the 2-adic slopes of U at weight 0 are
    # 1 + 2 v_2((3n)!/n!), n = 1, 2, ..., so v_2(a_m) is the sum of the first m
    return sum(1 + 2 * vp_int(math.factorial(3 * n) // math.factorial(n), 2)
               for n in range(1, m + 1))


def test_p2_valuations_match_buzzard_calegari():
    # an independent published result, through the graded and the exact route
    want = [_buzzard_calegari(m) for m in range(16)]
    assert want[:4] == [0, 3, 10, 23] and want[15] == 475
    exact = certify(cuspidal_char_series(2, 0, 25),
                    cuspidal_char_series(2, 0, 35), 15)
    for recs in (stable_valuations(2, 0, 15, 25), exact):
        assert all(r.certified for r in recs)
        assert [r.v_obs for r in recs] == want


def test_p2_polygon_floor_to_20():
    # weight-0 cuspidal polygon for p = 2 stays above 3*C(m+1,2) through
    # m = 20 (points and the truncation bound both clear the floor)
    q2 = cuspidal_char_series(2, 0, 25)
    for m in range(1, 21):
        floor = 3 * m * (m + 1) // 2
        assert val_p(q2.residues[m], 2) >= floor
        assert trunc_bound(2, m, 25) >= floor
