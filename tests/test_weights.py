import re

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from upadic import charseries, umatrix, verify, weights
from upadic.scalars import INF, val_p
from upadic.series import QSeries, _sparse_power
from upadic.modcurve import d_series
from upadic.linalg import _charpoly_graded
from upadic.umatrix import UMatrix, build_matrix_genfun, check_row_bounds, graded
from upadic.weights import (s_series, s_eisenstein_character, d9_series,
                            s_over_vs, expand_in_d3, s_ratio_divisibility,
                            twist_coefficients,
                            TwistMatrix, twist_matrix, uk_matrix,
                            cuspidal_char_series, certificate_need,
                            graded_char_series,
                            stable_valuations,
                            weight_contact_check,
                            slope_distribution, dim_level1, dimension_gap_bound,
                            dimension_gap_infimum, congruence_check, eisenstein_unit_congruence,
                            oldform_window_check)
from upadic.charseries import CharSeries, certify, trunc_bound


def test_hauptmodul_tower_identity():
    d3 = d_series(3, 201)
    d9 = d9_series(201)
    rhs = d9 + (d9 * d9).scalar_mul(9) + (d9 ** 3).scalar_mul(27)
    assert d3.agrees_with(rhs, upto=200)


def test_s_is_character_eisenstein():
    assert s_series(60).agrees_with(s_eisenstein_character(60), upto=50)


def test_s_squared_weight6_unit():
    s2 = s_series(30) ** 2
    assert s2.coeff(0) == 1


def test_s_over_vs_equals_d9_over_d3():
    r = s_over_vs(80)
    assert r.agrees_with(d9_series(80) * d_series(3, 80).inv(), upto=70)


def test_s_ratio_divisibility_pattern():
    assert s_ratio_divisibility()
    rho = expand_in_d3(s_over_vs(24), 20)
    assert rho[0] == 1 and rho[1] == -9
    assert rho[1] % 9 == 0
    assert all(r % 27 == 0 for r in rho[2:])


def test_expand_in_d3_needs_precision():
    with pytest.raises(ValueError):
        expand_in_d3(s_over_vs(10), 30)


@settings(max_examples=25, deadline=None)
@given(st.integers(-10, 27), st.integers(0, 40))
def test_closed_form_twist_equals_q_series_route(a, size):
    # k = 6a runs over 6Z in [-60, 162]; the q-series route is the power of
    # S/V(S) expanded in powers of d_3 by triangular solve
    k = 6 * a
    route = expand_in_d3(s_over_vs(size + 4) ** (k // 3), size)
    assert list(TwistMatrix(k, size).rho) == route


TRINOMIAL = ((9, (1,)), (27, (2,)))        # 1 + 9x + 27x^2


def test_trinomial_power_matches_dense_power():
    for e in range(-12, 13):
        dense = QSeries(0, [1, 9, 27], 25) ** e
        assert _sparse_power(TRINOMIAL, e, 25) == dense.coeffs_from(0, 25)
    assert _sparse_power(TRINOMIAL, 3, 0) == []


def _lagrange_buermann_rho(k, size):
    # rho_m = -(a/m) [x^(m-1)] (9 + 54x) (1 + 9x + 27x^2)^(-(a+m+1)), a = k/3,
    # by Lagrange-Buermann inversion of d_3 = x (1 + 9x + 27x^2)
    a, rho = k // 3, [1]
    for m in range(1, size + 1):
        f = _sparse_power(TRINOMIAL, -(a + m + 1), m)
        c = 9 * f[m - 1] + (54 * f[m - 2] if m >= 2 else 0)
        assert -a * c % m == 0
        rho.append(-a * c // m)
    return rho


def test_twist_power_equals_the_lagrange_buermann_form():
    for k in range(0, 163, 6):
        assert twist_coefficients(k, 120) == _lagrange_buermann_rho(k, 120)


def test_closed_form_divisions_must_be_exact(monkeypatch):
    # (1 + 9x + 27x^2)^(1/2) has the non-integral coefficient 9/2 at x
    with pytest.raises(ValueError, match="inexact division at q\\^1"):
        _sparse_power(TRINOMIAL, Fraction(1, 2), 3)
    # a remainder in the ratio g_(m+1) / g_m of the coefficients of G
    monkeypatch.setattr(weights, "divmod", lambda x, y: (x // y, x % y or 1),
                        raising=False)
    with pytest.raises(ValueError, match="g_1: inexact division by 2"):
        twist_coefficients(6, 4)


def test_a_perturbed_twist_power_fails_the_bounds(monkeypatch):
    real = weights._sparse_power

    def off_by_one(groups, e, n):
        f = real(groups, e, n)
        f[-1] += 1
        return f

    monkeypatch.setattr(weights, "_sparse_power", off_by_one)
    with pytest.raises(ValueError, match="twist bound violations for k=6: "
                                         "\\[\\('integrality', 4, "):
        twist_matrix(6, 4)


def test_weight_zero_twist_is_the_identity():
    assert TwistMatrix(0, 5).rho == (1, 0, 0, 0, 0, 0)


def _rho_moved(monkeypatch):
    # rho_7 of every twist moved by 3^20, well within the twist bounds
    real = weights.twist_coefficients

    def perturbed(k, size):
        rho = real(k, size)
        rho[7] += 3 ** 20
        return rho

    monkeypatch.setattr(weights, "twist_coefficients", perturbed)


def test_twist_routes_claim_fails_on_a_perturbed_rho(monkeypatch):
    assert verify.twist_routes_claim()["pass"]
    _rho_moved(monkeypatch)
    claim = verify.twist_routes_claim()
    assert not claim["pass"]
    assert claim["observed"] == "differ for k = [6, 162, -6]"


def test_twist_matrix_unit_diagonal_any_k():
    for k in (6, 18, -6, 54):
        t = twist_matrix(k, 12)
        assert t.rho[0] == 1
        assert t.check_bounds() == []


def test_twist_matrix_rejects_bad_weight():
    with pytest.raises(ValueError):
        TwistMatrix(4, 8)      # not divisible by 6
    with pytest.raises(ValueError):
        TwistMatrix(9, 8)


def test_twist_subdiagonal_valuations():
    # k = 18 = 2*3^2: n = 1: first subdiagonal valuation >= n - v_3(1) = 1
    t18 = twist_matrix(18, 10)
    assert t18.n_param == 1
    assert t18.scaled_entry_valuation(1) >= 1
    # k = 54 = 2*3^3: n = 2: third subdiagonal >= 2 - v_3(3) = 1
    t54 = twist_matrix(54, 10)
    assert t54.n_param == 2
    assert t54.scaled_entry_valuation(3) >= 1
    # odd m keeps a half-integer margin
    assert t54.scaled_entry_valuation(1) % 1 == Fraction(1, 2)


def test_uk_matrix_weight0_is_plain():
    assert uk_matrix(0, 8).rows == uk_matrix(0, 8).rows
    assert uk_matrix(0, 8).rows == build_matrix_genfun(3, 8).rows


def test_uk_matrix_scaled_rows_keep_bound():
    # raises on the first scaled row below its bound 3i - 1
    check_row_bounds(uk_matrix(18, 10), weight=18)
    check_row_bounds(uk_matrix(54, 10), weight=54)


def test_uk_matrix_is_the_product_with_the_toeplitz_twist():
    # reference: the n x 3n slab of the square genfun matrix times the
    # lower-triangular Toeplitz twist, entry by entry
    n = 10
    m = build_matrix_genfun(3, 3 * n).rows
    for k in (6, 18, -6, 162):
        rho = twist_matrix(k, 3 * n).rho
        want = [[sum(m[i][l] * rho[l - j] for l in range(j, 3 * n))
                 for j in range(n)] for i in range(n)]
        assert [list(row) for row in uk_matrix(k, n).rows] == want


def test_the_m_slab_is_built_once_per_size(monkeypatch):
    # the slab of M does not depend on the weight: uk_matrix of the other
    # weights at one size re-reads it
    sizes = []
    real = umatrix.column_recurrence
    monkeypatch.setattr(umatrix, "column_recurrence",
                        lambda p, ip, jmax, imax: sizes.append(imax)
                        or real(p, ip, jmax, imax))
    weights._m_slab.cache_clear()
    for size in (8, 10):
        for k in (6, 18, -6, 162):
            assert uk_matrix.__wrapped__(k, size) == uk_matrix(k, size)
    assert sizes == [8, 10]
    assert isinstance(weights._m_slab(8), tuple)
    assert all(isinstance(row, tuple) for row in weights._m_slab(8))


def test_twisted_series_checks_the_scaled_row_bound(monkeypatch):
    rows = [list(row) for row in uk_matrix(18, 6).rows]
    rows[3][1] = 1              # v_3 = 0 at (4, 2): row 4 scales to -3 < 11
    patched = UMatrix(3, 6, rows)
    monkeypatch.setattr(weights, "uk_matrix", lambda k, size: patched)
    with pytest.raises(ValueError, match=r"p = 3, weight 18: row 4 "):
        cuspidal_char_series.__wrapped__(3, 18, 6)


def test_every_weight_checks_the_integrality_premise(monkeypatch):
    monkeypatch.setattr(weights, "check_scaled_integrality", lambda p: False)
    cuspidal_char_series.cache_clear()
    graded_char_series.cache_clear()
    with pytest.raises(ValueError, match="I_3 fails the scaled integrality"):
        stable_valuations(3, 18, 2, 12)
    with pytest.raises(ValueError, match="I_3 fails the scaled integrality"):
        congruence_check(0, 18, 2, 12)


def test_weight_twists_need_p3():
    with pytest.raises(ValueError, match="p = 5"):
        cuspidal_char_series.__wrapped__(5, 6, 10)


def test_uk_trace_valuation_k18():
    q18 = cuspidal_char_series(3, 18, 12)
    assert val_p(q18.residues[1], 3) >= 2


def test_weight_contact_small():
    rep = weight_contact_check(1, 1)            # k = 18, contact at s = 1
    assert rep["pass"]
    assert rep["points"][1]["value"] == 2


def test_slope_distribution_n2():
    rep = slope_distribution(2)
    assert rep["pass"]
    assert rep["bands"][0]["slopes"] == ["2"]


def test_dim_level1():
    assert dim_level1(0) == 1
    assert dim_level1(12) == 2
    assert dim_level1(2) == 0
    assert dim_level1(14) == 1
    assert dim_level1(-4) == 0
    assert dim_level1(7) == 0
    # brute-force cross-check for weight 12: E_4^3, Delta independent
    from upadic.modcurve import eisenstein, delta_series
    e43 = eisenstein(4, 6) ** 3
    d = delta_series(6)
    # they are linearly independent: q-coefficients differ
    assert e43.coeff(0) == 1 and d.coeff(0) == 0


def test_dimension_gap_bound_structure():
    v = dimension_gap_bound(5, 0, 1)
    assert isinstance(v, (int, Fraction)) and v != INF
    assert dimension_gap_bound(5, 0, 0) == 0
    # monotone-ish: going one step right never drops by more than 1
    for m in range(1, 20):
        assert dimension_gap_bound(5, 0, m + 1) >= dimension_gap_bound(5, 0, m) - 1
    # boundary case m = d_v exactly: the (v+1)(m - d_v) term vanishes
    assert dimension_gap_bound(5, 0, dim_level1(0)) is not None


def test_dimension_gap_infimum_is_min():
    for m in (3, 5, 9):
        assert dimension_gap_infimum(3, m) <= dimension_gap_bound(3, 0, m)
        assert dimension_gap_infimum(3, m) == min(
            dimension_gap_bound(3, k, m) for k in range(0, 24, 2))
    assert dimension_gap_infimum(3, 5) is dimension_gap_infimum(3, 5)


def _ladder_sum(p, k, m):
    """The dimension-gap bound accumulated rung by rung, as first written."""
    step = p - 1 if p >= 5 else 4
    if m <= 0:
        return -m
    dims = [dim_level1(k)]
    while dims[-1] <= m:
        dims.append(dim_level1(k + len(dims) * step))
    if m < dims[0]:
        return -m
    v = max(u for u in range(len(dims)) if dims[u] <= m)
    acc = 0
    for u in range(1, v + 1):
        acc += u * (dims[u] - dims[u - 1])
    acc += (v + 1) * (m - dims[v])
    return Fraction(p - 1, p + 1) * acc - m


def test_dimension_gap_bound_is_the_ladder_sum():
    for p in (2, 3, 5, 7, 13):
        for k in range(-4, 60, 2):
            for m in range(-3, 80):
                assert dimension_gap_bound(p, k, m) == _ladder_sum(p, k, m), \
                    (p, k, m)


def test_dimension_gap_bound_rejects_an_odd_weight():
    # every rung of an odd ladder has dimension 0, so no rung ever exceeds m
    for k in (1, -3, 23):
        with pytest.raises(ValueError, match="even weight, got %d" % k):
            dimension_gap_bound(3, k, 5)


def test_congruence_identity_case():
    with pytest.raises(ValueError):
        congruence_check(6, 6, 5, 12)


def test_congruence_small():
    rep = congruence_check(0, 18, 8, 16)
    assert rep["n"] == 2
    assert rep["pass"]
    # coefficient differences all divisible by 3^(n+1)
    for row in rep["rows"][1:]:
        assert row["v_diff"] >= 3


def test_unit_congruence_n0():
    assert eisenstein_unit_congruence(5, 0)["pass"]
    assert eisenstein_unit_congruence(7, 0)["pass"]
    with pytest.raises(ValueError):
        eisenstein_unit_congruence(3, 0)


def test_oldform_window_n1():
    rep = oldform_window_check(1)
    assert rep["pass"]
    assert rep["entering_slope"] == "2"
    assert rep["threshold"] == "7/2"


def test_trunc_bound_covers_congruence_soundness():
    # the truncation bound exceeds every congruence requirement n+1 used
    for m in range(1, 21):
        assert trunc_bound(3, m, 30) >= 4


def _exact_records(p, k, m_max, size):
    return certify(cuspidal_char_series(p, k, size),
                   cuspidal_char_series(p, k, size + 10), m_max)


def _fields(recs):
    return [(r.m, r.v_obs, r.bound, r.certified) for r in recs]


@pytest.mark.parametrize("p, k, m_max, size", [
    (2, 0, 10, 12), (3, 0, 12, 16), (5, 0, 10, 12), (7, 0, 8, 10),
    (13, 0, 8, 12), (3, 18, 10, 12), (3, 162, 10, 12)])
def test_graded_records_equal_the_exact_ones(p, k, m_max, size):
    need = certificate_need(p, m_max, size)
    recs = certify(graded_char_series(p, k, size, need),
                   graded_char_series(p, k, size + 10, need), m_max)
    assert recs is not None                   # the graded route settles all
    assert _fields(recs) == _fields(_exact_records(p, k, m_max, size))
    assert _fields(stable_valuations(p, k, m_max, size)) == _fields(recs)


def _graded_at(p, size, prec, terms):
    grades, krows = graded(build_matrix_genfun(p, size))
    res, pis = _charpoly_graded(grades, krows, p, prec, terms)
    return CharSeries(p, res, pis, size)


def test_precision_below_the_bound_never_certifies():
    # at prec 30 the size-16 residues of a_m are known modulo 3^(G_m + 30),
    # below the truncation bound T_m = G_(m-1) + 50 for every m
    size, m_max = 16, 8
    short = _graded_at(3, size, 30, m_max)
    full = _graded_at(3, size + 10, 60, m_max)
    assert all(pi < trunc_bound(3, m, size)
               for m, pi in enumerate(short.precisions[1:], 1))
    assert certify(short, full, m_max) is None
    assert certify(_graded_at(3, size, 60, m_max),
                   _graded_at(3, size + 10, 30, m_max), m_max) is None
    assert (_fields(certify(_graded_at(3, size, 60, m_max), full, m_max))
            == _fields(_exact_records(3, 0, m_max, size)))


def test_short_graded_series_falls_back_to_the_exact_route(monkeypatch):
    # a builder stuck below the bound: the records come from the exact series
    monkeypatch.setattr(weights, "graded_char_series",
                        lambda p, k, size, need: _graded_at(p, size, 30,
                                                            len(need)))
    calls = []
    exact = weights.cuspidal_char_series
    monkeypatch.setattr(weights, "cuspidal_char_series",
                        lambda *args: calls.append(args) or exact(*args))
    recs = stable_valuations(3, 0, 8, 16)
    assert calls == [(3, 0, 16), (3, 0, 26)]
    assert _fields(recs) == _fields(_exact_records(3, 0, 8, 16))


def test_graded_route_reads_the_row_minima_once(monkeypatch):
    calls = []
    minima = umatrix.scaled_row_minima
    monkeypatch.setattr(umatrix, "scaled_row_minima",
                        lambda rows, p: calls.append(len(rows))
                        or minima(rows, p))
    graded_char_series.__wrapped__(3, 0, 14, certificate_need(3, 6, 14))
    assert calls == [14]


def test_exact_route_reads_the_row_minima_once(monkeypatch):
    calls = []
    minima = umatrix.scaled_row_minima
    monkeypatch.setattr(umatrix, "scaled_row_minima",
                        lambda rows, p: calls.append(len(rows))
                        or minima(rows, p))
    exact = cuspidal_char_series.__wrapped__(3, 18, 12)
    assert calls == [12]                # checked once, and the CRT reuses it
    rows = uk_matrix(18, 12).rows
    assert exact.residues == tuple(charseries.charpoly_crt(
        rows, 3, minima(rows, 3)))


def _residue_moved(monkeypatch):
    # a_5 of every graded series moved by p^(precision - 1)
    real = weights.graded_char_series

    def perturbed(p, k, size, need):
        g = real(p, k, size, need)
        res = list(g.residues)
        res[5] += p ** (g.precisions[5] - 1)
        return CharSeries(p, res, g.precisions, size)

    monkeypatch.setattr(weights, "graded_char_series", perturbed)


def test_graded_residues_claim_fails_on_one_perturbed_residue(monkeypatch):
    assert verify.graded_residues_claim()["pass"]
    _residue_moved(monkeypatch)
    claim = verify.graded_residues_claim()
    assert not claim["pass"]
    assert claim["observed"] == "differ at (k, m) = [(0, 5), (162, 5)]"


def _exact_congruence(monkeypatch, *args):
    # the report of the exact route: residues that never prove a valuation
    with monkeypatch.context() as m:
        m.setattr(weights, "graded_char_series", _blank_residues)
        return congruence_check(*args)


def _no_exact(*args):
    raise AssertionError("exact series built for %r" % (args,))


@pytest.mark.parametrize("k, k2, m_max, size", [
    (0, 18, 8, 16), (138, 156, 20, 30)])
def test_graded_congruence_rows_equal_the_exact_ones(monkeypatch, k, k2,
                                                      m_max, size):
    # one graded read per weight.  (138, 156) has v_diff 648 and 724 at
    # m = 19 and 20, and each series' second doubling knows the differences
    # there to 798 and 848, above them
    exact = _exact_congruence(monkeypatch, k, k2, m_max, size)
    calls = []
    real = weights.graded_char_series
    monkeypatch.setattr(weights, "graded_char_series",
                        lambda *a: calls.append(a[1]) or real(*a))
    monkeypatch.setattr(weights, "cuspidal_char_series", _no_exact)
    rep = congruence_check(k, k2, m_max, size)
    assert rep == exact                 # every field of every row, margins too
    assert calls == [k, k2]
    if k == 138:
        assert [r["v_diff"] for r in rep["rows"][19:]] == [648, 724]


@pytest.mark.parametrize("k, m_max, size, runs", [
    # short by a trit and with a_14 .. a_20 unknown: the rerun triples,
    # which also covers the shortfall
    (144, 20, 30, [90, 270]),
    # a_21 .. a_30 are exactly 0, which no precision proves: the triplings
    # stop at GRADED_RERUNS
    (162, 30, 30, [90, 270, 810]),
    # short after grade drops, every valuation known: topped up by the
    # shortfall alone, not doubled
    (0, 45, 60, [180, 209])],
    ids=["k144-short-and-unknown", "k162-exact-zeros", "k0-short-only"])
def test_graded_series_reruns_by_one_rule(monkeypatch, k, m_max, size, runs):
    precs = []                  # the relative precision of each kernel run
    real = weights._charpoly_graded
    monkeypatch.setattr(weights, "_charpoly_graded",
                        lambda grades, rows, p, prec, terms: precs.append(prec)
                        or real(grades, rows, p, prec, terms))
    need = certificate_need(3, m_max, size)
    graded_char_series.__wrapped__(3, k, size, need)
    assert precs == runs


@pytest.mark.parametrize("budget", [3, 4])
def test_slope_floors_hold_whatever_the_rerun_budget(monkeypatch, budget):
    # the precision a run proves is not monotone in N: at weight 54, size
    # 26, N = 4 proves a_13 .. a_15 past their floors and N = 8 and 16 do
    # not, so each coefficient keeps the residue of its best run
    monkeypatch.setattr(weights, "GRADED_RERUNS", budget)
    monkeypatch.setattr(weights, "graded_char_series",
                        graded_char_series.__wrapped__)
    assert all(c["pass"] for c in verify.slope_floor_claims())


def test_an_open_first_truncation_builds_no_second(monkeypatch):
    # a_21 .. a_30 of the weight-162 series at size 30 are exactly 0, which
    # no residue proves, so certify cannot settle on the residues: the
    # size-40 graded series is never built, and the exact series gives the
    # records
    runs = []
    kernel = weights._charpoly_graded
    monkeypatch.setattr(weights, "_charpoly_graded",
                        lambda *a: runs.append(a[3]) or kernel(*a))
    monkeypatch.setattr(weights, "graded_char_series",
                        graded_char_series.__wrapped__)
    recs = stable_valuations(3, 162, 30, 30)
    assert runs == [90, 270, 810]
    assert _fields(recs) == _fields(_exact_records(3, 162, 30, 30))


def _blank_residues(p, k, size, need):
    # residues known modulo p^0, which prove nothing but the exact a_0 = 1
    return CharSeries(p, [1] + [0] * len(need), [0] * (len(need) + 1), size)


def _short_residues(p, k, size, need):
    # the weight-18 residues cut to one trit of precision, so a difference
    # is known only that far, whatever the other weight's precision
    g = graded_char_series(p, k, size, need)
    if k != 18:
        return g
    return CharSeries(p, [r % p for r in g.residues], [1] * len(g.residues),
                      size)


@pytest.mark.parametrize("short", [_blank_residues, _short_residues])
def test_short_graded_congruence_falls_back_to_the_exact_series(monkeypatch,
                                                                short):
    # the one graded read leaves a row open, so the pair reads the exact
    # series
    exact = _exact_congruence(monkeypatch, 0, 18, 8, 16)
    monkeypatch.setattr(weights, "graded_char_series", short)
    calls = []
    real = weights.cuspidal_char_series
    monkeypatch.setattr(weights, "cuspidal_char_series",
                        lambda *a: calls.append(a) or real(*a))
    assert congruence_check(0, 18, 8, 16) == exact
    assert calls == [(3, 0, 16), (3, 18, 16)]


def test_settled_congruence_makes_no_crt_call(monkeypatch):
    calls = []
    crt = charseries.charpoly_crt
    monkeypatch.setattr(charseries, "charpoly_crt",
                        lambda rows, p, minima: calls.append(len(rows))
                        or crt(rows, p, minima))
    # uncached, so an exact series would reach the spy
    monkeypatch.setattr(weights, "cuspidal_char_series",
                        cuspidal_char_series.__wrapped__)
    assert congruence_check(0, 18, 8, 16)["pass"]
    assert calls == []
    weights.cuspidal_char_series(3, 0, 6)      # the spy sees an exact series
    assert calls == [6]


def test_benchmark_congruence_pairs_make_12_kernel_runs(monkeypatch):
    # the seed-0 pairs of the benchmark's congruence workload, at its
    # m_max 20 and size 30, from cold graded series: 7 weights, 12 runs
    runs, crt_calls = [], []
    kernel = weights._charpoly_graded
    monkeypatch.setattr(weights, "_charpoly_graded",
                        lambda *a: runs.append(a[3]) or kernel(*a))
    crt = charseries.charpoly_crt
    monkeypatch.setattr(charseries, "charpoly_crt",
                        lambda rows, p, minima: crt_calls.append(len(rows))
                        or crt(rows, p, minima))
    monkeypatch.setattr(weights, "cuspidal_char_series",
                        cuspidal_char_series.__wrapped__)
    graded_char_series.cache_clear()
    for k, k2 in [(18, 42), (42, 48), (48, 84), (84, 114), (114, 138),
                  (138, 156)]:
        assert congruence_check(k, k2, 20, 30)["pass"]
    assert len(runs) == 12
    assert crt_calls == []


def test_suite_congruence_claims_do_not_depend_on_the_route(monkeypatch):
    calls = []
    real = weights.cuspidal_char_series
    monkeypatch.setattr(weights, "cuspidal_char_series",
                        lambda *a: calls.append(a) or real(*a))
    claims = verify.suite_congruence()
    assert calls == []                      # the residues settle every pair
    monkeypatch.setattr(weights, "graded_char_series", _blank_residues)
    assert verify.suite_congruence() == claims
    assert len(calls) == 12
    assert all(c["pass"] for c in claims)


def test_congruence_m_max_beyond_the_series_is_a_usage_error(monkeypatch):
    with pytest.raises(ValueError, match=r"m_max = 14 exceeds size \+ 1 = 13"):
        congruence_check(0, 6, 14, 12)
    # m_max = size + 1 reads P_13 = -a_12, the last coefficient
    rep = congruence_check(0, 6, 13, 12)
    assert len(rep["rows"]) == 14
    assert rep == _exact_congruence(monkeypatch, 0, 6, 13, 12)


def test_congruence_row_soundness_reads_both_truncation_bounds():
    # weights 0 and 486 = 2 * 3^5 need v_3 >= 6.  At size 1, T_1 = 5 and
    # T_2 = 7: P_2 = a_2 - a_1 is proven only to T_1, so row 2 is unsound
    # too, whatever its v_diff
    assert [trunc_bound(3, m, 1) for m in (1, 2)] == [5, 7]
    rep = congruence_check(0, 486, 2, 1)
    assert [(r["v_diff"], r["pass"]) for r in rep["rows"]] == [
        (INF, True), (9, False), (9, False)]
    assert not rep["pass"]


def test_congruence_negative_m_max_is_a_usage_error():
    # no rows would make a vacuous pass
    with pytest.raises(ValueError, match=r"m_max = -1 is negative"):
        congruence_check(0, 6, -1, 12)
    assert len(congruence_check(0, 6, 0, 12)["rows"]) == 1


@pytest.mark.parametrize("m_max", [-1, 4])
def test_stable_valuations_m_max_outside_the_series_is_a_usage_error(m_max):
    with pytest.raises(ValueError,
                       match=r"m_max = %d lies outside 0\.\.size = 3" % m_max):
        stable_valuations(3, 0, m_max, 3)
    assert len(stable_valuations(3, 0, 3, 3)) == 4
    assert len(stable_valuations(3, 0, 0, 3)) == 1


def _perturbed_floor_residue(p0, k0, m, shortfall):
    # one residue of the weight-k0 series at p0 moved to valuation floor - 1,
    # or left alone with its precision cut below the floor
    def builder(p, k, size, need):
        g = graded_char_series(p, k, size, need)
        if (p, k) != (p0, k0):
            return g
        res, pis = list(g.residues), list(g.precisions)
        if shortfall:
            pis[m] = need[m - 1] - 1
            res[m] %= p ** pis[m]
        else:
            res[m] += p ** (need[m - 1] - 1)
        return CharSeries(p, res, pis, size)
    return builder


@pytest.mark.parametrize("shortfall", [False, True])
@pytest.mark.parametrize("p, k, cid", [
    (2, 0, "p2-slope-floor"), (3, 18, "p3-slope-floor-k18")])
def test_slope_floor_claims_read_each_residue(monkeypatch, p, k, cid,
                                              shortfall):
    assert all(c["pass"] for c in verify.slope_floor_claims())
    monkeypatch.setattr(weights, "graded_char_series",
                        _perturbed_floor_residue(p, k, 9, shortfall))
    monkeypatch.setattr(weights, "cuspidal_char_series", _no_exact)
    failed = [c["id"] for c in verify.slope_floor_claims() if not c["pass"]]
    assert failed == [cid]


def _at(name, arg, change):
    """Patch weights.name to pass its value at the first argument arg
    through change."""
    def patch(monkeypatch):
        orig = getattr(weights, name)
        monkeypatch.setattr(weights, name, lambda a, *rest: change(
            orig(a, *rest)) if a == arg else orig(a, *rest))
    return patch


def _graded(builder):
    """Patch graded_char_series with builder."""
    return lambda monkeypatch: monkeypatch.setattr(
        weights, "graded_char_series", builder)


def _scaled_residue(k0, m, c):
    # the residue a_m of every weight-k0 graded series multiplied by c
    def builder(p, k, size, need):
        g = graded_char_series(p, k, size, need)
        if k != k0:
            return g
        res = list(g.residues)
        res[m] *= c
        return CharSeries(p, res, g.precisions, size)
    return builder


WEIGHTS_STEMS = ["hauptmodul-tower", "s-eisenstein", "s-squared-unit",
                 "s-ratio-hauptmodul", "twist-divisibility",
                 "twist-routes-agree", "graded-residues-agree",
                 "twist-bounds", "weight-contact", "slope-distribution",
                 "unit-congruence", "p2-slope-floor", "p3-slope-floor",
                 "oldform-window"]
# one named perturbation per weights claim family, in report order.  Each
# patches a function above the caches it reaches, or below them only at
# arguments the suite has already cached, so no perturbed value is stored
WEIGHTS_MUTATIONS = [
    # d_9 gains a q^150, beyond the q^70 that s-ratio-hauptmodul compares
    ("hauptmodul-tower", _at("d9_series", 201,
                             lambda d: d + QSeries(150, [1], d.prec))),
    ("s-eisenstein", _at("s_eisenstein_character", 60,
                         lambda s: s + QSeries(40, [1], s.prec))),
    ("s-squared-unit", _at("s_series", 60, lambda s: s.scalar_mul(2))),
    ("s-ratio-hauptmodul", _at("s_over_vs", 80,
                               lambda f: f + QSeries(60, [1], f.prec))),
    # r_2 of the d_3 expansion moved by 3, which 27 does not divide
    ("twist-divisibility", _at("s_over_vs", 64,
                               lambda f: f + QSeries(2, [3], f.prec))),
    ("twist-routes-agree", _rho_moved),
    ("graded-residues-agree", _residue_moved),
    # v_3(rho_1) of weight 6 drops to 1, below ceil(3/2)
    ("twist-bounds-k6", _at("twist_coefficients", 6,
                            lambda rho: [rho[0], rho[1] + 3, *rho[2:]])),
    # v_3(a_1) from 2 to 3 for k = 36, which only this claim reads
    ("weight-contact-l2-n1", _graded(_scaled_residue(36, 1, 3))),
    # the slope of the first band of k = 162 becomes 3, outside [2, 2]
    ("slope-distribution-n3", _graded(_scaled_residue(162, 1, 3))),
    # E_4 gains a q^3, which moves the q^3 coefficient of the ratio by 1
    ("unit-congruence-p5-n0", _at("eisenstein", 4,
                                  lambda e: e + QSeries(3, [1], e.prec))),
    ("p2-slope-floor", _graded(_perturbed_floor_residue(2, 0, 9, False))),
    ("p3-slope-floor-k18",
     _graded(_perturbed_floor_residue(3, 18, 9, False))),
    # v_3(a_1) from 2 to 3 for k = 18: no contact at m_1 = 1
    ("oldform-window-n1", _graded(_scaled_residue(18, 1, 3))),
]


def _weights_stem(cid):
    return re.sub(r"(-[klnp]\d+)+$", "", cid)


@pytest.fixture(scope="module")
def weights_ids():
    # the unperturbed suite passes and leaves every cache it reads warm
    claims = verify.suite_weights()
    assert all(c["pass"] for c in claims)
    return [c["id"] for c in claims]


def test_the_mutation_table_names_every_weights_claim_family(weights_ids):
    assert [_weights_stem(cid) for cid, _ in WEIGHTS_MUTATIONS] == WEIGHTS_STEMS
    assert all(cid in weights_ids for cid, _ in WEIGHTS_MUTATIONS)
    assert {_weights_stem(cid) for cid in weights_ids} == set(WEIGHTS_STEMS)


@pytest.mark.parametrize("cid,perturb", WEIGHTS_MUTATIONS,
                         ids=[cid for cid, _ in WEIGHTS_MUTATIONS])
def test_a_perturbation_fails_its_weights_claim(monkeypatch, weights_ids, cid,
                                                perturb):
    perturb(monkeypatch)
    claims = verify.suite_weights()
    assert [c["id"] for c in claims] == weights_ids
    claim = {c["id"]: c for c in claims}[cid]
    # failed by observation, not by raising
    assert not claim["pass"]
    assert not re.match(r"\w+Error: ", claim["observed"])
