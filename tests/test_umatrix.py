import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from upadic.scalars import INF, val_quad3, vp_int
from upadic.umatrix import (UMatrix, build_matrix_oracle, build_matrix_genfun,
                            check_row_bounds, column_recurrence, graded,
                            row_bound, scaled_matrix_p3, scaled_row_minima,
                            kbar)
from upadic import modcurve
from upadic.modcurve import GENUS_ZERO_PRIMES, e_exponent, ip_poly
from upadic import charseries
from upadic.weights import (TwistMatrix, cuspidal_char_series,
                            graded_char_series, uk_matrix, twist_matrix)
from upadic.charseries import charpoly_leverrier


def test_u_of_d2():
    m = build_matrix_oracle(2, 4)
    assert [m.entry(i, 1) for i in range(1, 5)] == [24, 2048, 0, 0]


def test_empty_matrix():
    assert build_matrix_oracle(5, 0).rows == ()


def test_oracle_vs_genfun_small():
    for p, n in ((2, 10), (3, 10), (5, 6), (7, 4), (13, 3)):
        a = build_matrix_oracle(p, n)
        assert a.provenance == "oracle"
        assert a.rows == build_matrix_genfun(p, n).rows


@pytest.mark.parametrize("build", [build_matrix_oracle, build_matrix_genfun,
                                   lambda p, n: uk_matrix(6, n)])
def test_cached_matrices_are_immutable(build):
    m = build(3, 4)
    before = [list(row) for row in m.rows]
    with pytest.raises(TypeError):
        m.rows[0][0] = 0
    with pytest.raises(TypeError):
        m.rows[0] = (0, 0, 0, 0)
    assert build(3, 4) is m
    assert [list(row) for row in m.rows] == before


@pytest.mark.parametrize("build, field", [
    (lambda: cuspidal_char_series(3, 0, 6), "residues"),
    (lambda: cuspidal_char_series(3, 6, 6), "residues"),
    (lambda: graded_char_series(3, 6, 6, (10, 20)), "residues"),
    (lambda: graded_char_series(3, 6, 6, (10, 20)), "precisions"),
    (lambda: twist_matrix(6, 6), "rho")],
    ids=["cuspidal_char_series", "cuspidal_char_series_twisted",
         "graded_char_series_residues", "graded_char_series_precisions",
         "twist_matrix"])
def test_cached_series_and_twists_are_immutable(build, field):
    obj = build()
    before = list(getattr(obj, field))
    with pytest.raises(TypeError):
        getattr(obj, field)[1] = 0
    # a twist is rebuilt on each call; uk_matrix caches the matrix it gives
    if not isinstance(obj, TwistMatrix):
        assert build() is obj
    assert list(getattr(obj, field)) == before


def test_genfun_entry_magnitude_p2():
    g = build_matrix_genfun(2, 3)
    assert abs(g.entry(1, 1)) == 24


def test_column_recurrence_matches_oracle():
    m = build_matrix_oracle(3, 12)
    cols = column_recurrence(3, ip_poly(3), 12, 36)   # keeps every row
    for j in range(1, 13):
        for i in range(1, 13):
            assert cols[j].get(i, 0) == m.entry(i, j)
    # recurrence order: each column only looks back p steps
    assert len(ip_poly(3).y_part(3)) >= 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_column_recurrence_row_cap_is_exact(p):
    # the row index only grows inside the recurrence, so capping it at i
    # gives the uncapped columns restricted to the rows <= i
    jmax = 12 if p < 13 else 6
    full = column_recurrence(p, ip_poly(p), jmax, math.inf)
    assert max(max(col) for col in full[1:]) > jmax
    for i in (1, 5, jmax, 3 * jmax):
        capped = column_recurrence(p, ip_poly(p), jmax, i)
        assert capped == [{r: x for r, x in col.items() if r <= i} for col in full]


def test_entry_bound_small():
    for p, n in ((2, 8), (3, 8), (5, 6), (7, 5), (13, 3)):
        m = build_matrix_genfun(p, n)
        assert all(r >= row_bound(p, i)
                   for i, r in enumerate(scaled_row_minima(m.rows, p), 1))


@st.composite
def _matrices(draw):
    # entries p^k u around the bound e(pi - j) - 1, so rows fall on both
    # sides of it
    p = draw(st.sampled_from(GENUS_ZERO_PRIMES))
    n = draw(st.integers(1, 6))
    top = int(e_exponent(p) * p * n) + 1       # above every bound
    entry = st.one_of(st.just(0), st.builds(
        lambda k, u: p ** k * u, st.integers(0, top),
        st.integers(-50, 50).filter(lambda u: u % p)))
    return p, [draw(st.lists(entry, min_size=n, max_size=n))
               for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_an_entry_below_its_bound_is_a_row_below_the_row_bound(case):
    # e(p - 1)i - 1 - e(j - i) = e(pi - j) - 1: the entry bound and the
    # row bound on the scaled minima are one inequality
    p, rows = case
    e = e_exponent(p)
    entry_low = any(x and vp_int(x, p) < e * (p * i - j) - 1
                    for i, row in enumerate(rows, 1)
                    for j, x in enumerate(row, 1))
    minima = scaled_row_minima(rows, p)
    row_low = any(r < row_bound(p, i) for i, r in enumerate(minima, 1))
    assert entry_low == row_low
    assert minima == _per_entry_minima(rows, p)


def _per_entry_minima(rows, p):
    # the definition: min_j v_p(x_ij) + e(j - i) over the nonzero entries
    e = e_exponent(p)
    return [min((vp_int(x, p) + e * (j - i) for j, x in enumerate(row) if x),
                default=INF) for i, row in enumerate(rows)]


@pytest.mark.parametrize("p", GENUS_ZERO_PRIMES)
def test_scaled_row_minima_equal_their_per_entry_definition(p):
    n = {2: 14, 3: 12, 5: 10, 7: 8, 13: 6}[p]
    rows = [list(row) for row in build_matrix_genfun(p, n).rows]
    rows[1] = [0] * n
    rng = random.Random(p)
    rows.append([rng.choice((0, 1, p)) * p ** rng.randrange(40) * rng.choice(
        (1, -1, p + 1)) for _ in range(n)])
    rows.append([0] * n)
    for m in (rows, [row[:n - 1] for row in rows], rows[:1], []):
        assert scaled_row_minima(m, p) == _per_entry_minima(m, p)
    assert scaled_row_minima(rows, p)[1] == scaled_row_minima(rows, p)[-1] == INF


def test_m11_valuation_p3():
    m = build_matrix_oracle(3, 2)
    assert m.entry(1, 1) == 90
    assert vp_int(m.entry(1, 1), 3) == 2   # e(p-1) - 1 = 2 exactly


def test_scaled_matrix_band_and_bounds():
    m = build_matrix_genfun(3, 12)
    mp = scaled_matrix_p3(m)
    for i in range(1, 13):
        for j in range(1, 13):
            x = mp.entry(i, j)
            if i > 3 * j or j > 3 * i:
                assert x.is_zero()
            if not x.is_zero():
                assert val_quad3(x) >= 3 * i - 1


def test_scaled_matrix_similarity_preserves_charpoly():
    # diagonal conjugation: char poly of the scaled truncation equals that of
    # the plain truncation (computed through the quadratic ring)
    m = build_matrix_genfun(3, 6)
    mp = scaled_matrix_p3(m)
    plain = charpoly_leverrier(m.rows)
    # fold the sqrt3 scaling back row by row: entry (i,j) * 3^((3/2)(i-j))
    rows = []
    for i in range(1, 7):
        row = []
        for j in range(1, 7):
            x = mp.entry(i, j)
            k = 3 * (i - j)
            if k % 2 == 0:
                assert x.b == 0
                val = x.a * 3 ** (k // 2) if k >= 0 else x.a // 3 ** (-k // 2)
            else:
                assert x.a == 0
                val = x.b * 3 ** ((k + 1) // 2) if k >= -1 else x.b // 3 ** ((-k - 1) // 2)
            row.append(val)
        rows.append(row)
    assert charpoly_leverrier(rows) == plain


def test_scaled_row_bounds_tight_at_3i_minus_1():
    m = build_matrix_genfun(3, 40)
    minima = scaled_row_minima(m.rows, 3)
    for i, r in enumerate(minima[:13], 1):
        assert r == row_bound(3, i) < 3 * i
    # the integer route agrees with the minima over Z[sqrt3] on every row
    mp = scaled_matrix_p3(m)
    assert minima == [min(val_quad3(x) for x in row) for row in mp.rows]


def test_a_zero_row_has_scaled_minimum_inf():
    m = build_matrix_genfun(3, 6)
    rows = [list(row) for row in m.rows]
    rows[2] = [0] * 6
    z = UMatrix(3, 6, rows)
    minima = scaled_row_minima(m.rows, 3)
    assert minima == [2, 5, 8, 11, Fraction(29, 2), 17]
    assert scaled_row_minima(z.rows, 3) == minima[:2] + [INF] + minima[3:]
    assert check_row_bounds(z) == scaled_row_minima(z.rows, 3)
    # the zero row takes its grade from the row bound 8; K's row 3 is zero
    # and every other row is m's
    grades, krows = graded(z)
    m_grades, m_krows = graded(m)
    assert grades == m_grades == (2, 5, 8, 11, 15, 17)
    assert krows == m_krows[:2] + ((0,) * 6,) + m_krows[3:]
    # floors from the five nonzero rows, and 0 for a_6, which is 0
    assert charseries._coefficient_floors(scaled_row_minima(z.rows, 3)) == [
        0, 2, 7, 18, 33, 50, 0]


def test_a_zero_row_leaves_the_row_bound_check_to_the_others():
    rows = [list(row) for row in build_matrix_genfun(3, 6).rows]
    rows[2] = [0] * 6
    rows[3][0] = 1
    with pytest.raises(ValueError, match="row 4 of the scaled matrix has "
                       "valuation -9/2, below the row bound 11"):
        check_row_bounds(UMatrix(3, 6, rows))


def test_kbar_is_k_mod_sqrt3():
    # reference: K = diag(3^-(3i-1)) M' over Z[sqrt3] by exact division,
    # and a + b sqrt3 reduces to a mod 3 at the prime (sqrt3)
    for n in (12, 40):
        m = build_matrix_genfun(3, n)
        mp = scaled_matrix_p3(m)
        ref = []
        for i in range(1, n + 1):
            scale = 3 ** (3 * i - 1)
            row = []
            for j in range(1, n + 1):
                x = mp.entry(i, j)
                qa, ra = divmod(x.a, scale)
                qb, rb = divmod(x.b, scale)
                assert ra == rb == 0
                row.append(qa % 3)
            ref.append(row)
        assert kbar(m) == ref
        assert ref[0] == [1] + [0] * (n - 1)


def _leibniz_det(rows):
    # sum over permutations of sign(pi) * prod_i rows[i][pi(i)]
    total = 0
    for pi in permutations(range(len(rows))):
        sign = (-1) ** sum(pi[a] > pi[b] for a, b in combinations(range(len(pi)), 2))
        total += sign * math.prod(row[j] for row, j in zip(rows, pi))
    return total


def test_sum_of_minors_equals_charpoly_coefficient():
    # sum of all size-k diagonal minors is (-1)^k a_k(det(1 - tM))
    random.seed(9)
    for _ in range(5):
        rows = [[random.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        coeffs = charpoly_leverrier(rows)
        for k in range(1, 5):
            total = sum(_leibniz_det([[rows[i][j] for j in s] for i in s])
                        for s in combinations(range(4), k))
            assert total == (-1) ** k * coeffs[k]
    assert _leibniz_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3


def _traced_peak_mb(fn, *args):
    """The peak of Python allocations made during fn(*args), in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_u_matrix_layer_holds_each_table_once():
    # at p = 13 the fit holds its 222 x 196 system once, in 64-bit columns
    # (1.56 MB traced when it held two copies as Python ints), and the
    # oracle one power of d at a time (0.62 MB with all 105 powers held)
    modcurve._ip_powers(13)                 # the fit's cached table
    assert _traced_peak_mb(modcurve.practical_ip_fit.__wrapped__, 13) < 1.0
    assert _traced_peak_mb(build_matrix_oracle.__wrapped__, 13, 8) < 0.5


def test_oracle_rejects_bad_prime():
    with pytest.raises(ValueError):
        build_matrix_oracle(11, 4)


def test_oracle_rejects_a_column_with_a_residual(monkeypatch):
    # with d_2 + q^5 in place of the hauptmodul in the table of powers of d,
    # U(d^j) is no longer a polynomial of degree 2j in d
    from upadic import umatrix
    from upadic.modcurve import d_powers
    from upadic.series import QSeries
    monkeypatch.setattr(umatrix, "d_powers", lambda p, count, prec: [
        f + QSeries(5, [1], prec) if i == 1 else f
        for i, f in enumerate(d_powers(p, count, prec))])
    with pytest.raises(ValueError, match="not a polynomial of degree 2 in d"):
        build_matrix_oracle.__wrapped__(2, 3)


def test_oracle_rejects_a_wrong_eta_power(monkeypatch):
    # a stray q^5 in the eta powers behind U(d^j) must fail the residual check
    from upadic import umatrix
    from upadic.series import QSeries, eta_quotient
    monkeypatch.setattr(
        umatrix, "eta_quotient",
        lambda pairs, prec: eta_quotient(pairs, prec) + QSeries(5, [1], prec))
    with pytest.raises(ValueError, match="not a polynomial of degree 2 in d"):
        build_matrix_oracle.__wrapped__(2, 3)


@pytest.mark.parametrize("p, n", [(2, 3), (5, 2)])
def test_oracle_residual_check_reaches_the_end_of_the_band(monkeypatch, p, n):
    # U(d^j) = E^(tj) U(q^j E^(-tj)) is checked to q-precision p n + 16.
    # U(q E^(-t)) starts at q^1, so a stray q^(p n + 14) in the short factor
    # E^t reaches U(d^1) at q^(p n + 15), the last coefficient of the band
    from upadic import umatrix
    from upadic.series import QSeries, eta_quotient
    band = p * n + 16

    def stray(pairs, prec):
        f = eta_quotient(pairs, prec)
        if pairs[0][1] > 0:                 # E^(tj), not E^(-tj)
            f = f + QSeries(band - 2, [1], prec)
        return f

    monkeypatch.setattr(umatrix, "eta_quotient", stray)
    with pytest.raises(ValueError, match="U\\(d\\^1\\) is not a polynomial"):
        build_matrix_oracle.__wrapped__(p, n)
