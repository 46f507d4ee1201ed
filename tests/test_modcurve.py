import re

import pytest
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from upadic import modcurve, verify
from upadic.linalg import _prime_pool
from upadic.modcurve import (bernoulli, eisenstein, delta_series, j_series,
                             d_series, verify_eisenstein_power, solve_hauptmodul_poly,
                             check_hauptmodul_polygon, modular_equation_ip,
                             practical_ip_fit, ip_poly, certify_ip_laurent,
                             e_exponent, HPoly, C_P, d_expansion, d_powers)
from upadic.series import QSeries
from upadic.umatrix import GUARD
from upadic import tables

PRIMES = (2, 3, 5, 7, 13)


def test_bernoulli():
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_eisenstein_series():
    e4 = eisenstein(4, 5)
    assert e4.coeffs_from(0, 4) == [1, 240, 2160, 6720]
    assert eisenstein(6, 3).coeff(1) == -504
    assert eisenstein(12, 3).coeff(1) == Fraction(65520, 691)


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        eisenstein(5, 10)
    with pytest.raises(ValueError):
        eisenstein(2, 10)


def test_j_series():
    j = j_series(4)
    assert j.valuation() == -1
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884


def test_j_times_delta_is_e4_cubed():
    prec = 30
    lhs = j_series(prec) * delta_series(prec)
    rhs = eisenstein(4, prec) ** 3
    assert lhs.agrees_with(rhs)


@pytest.mark.parametrize("p", PRIMES)
def test_eisenstein_power_identity(p):
    assert verify_eisenstein_power(p) is None


def test_hauptmodul_poly_p2():
    h = solve_hauptmodul_poly(2)
    assert h.coeffs == (1, 768, 196608, 16777216)  # (1 + 2^8 d)^3


@pytest.mark.parametrize("p", PRIMES)
def test_hauptmodul_poly_shape(p):
    h = solve_hauptmodul_poly(p)
    assert h.degree() == p + 1
    assert h.coeffs[0] == 1
    assert all(isinstance(c, int) for c in h.coeffs)


@pytest.mark.parametrize("p", PRIMES)
def test_hauptmodul_polygon_single_slope(p):
    poly = check_hauptmodul_polygon(p)
    slopes = poly.slopes()
    assert len(slopes) == 1
    assert slopes[0] == (e_exponent(p) * p, p + 1)


def test_d_series_integral_unit_leading():
    for p in PRIMES:
        d = d_series(p, 300)
        assert d.coeff(1) == 1
        assert all(isinstance(x, int) for x in d.c)


def test_d_expansion_of_a_polynomial_in_d():
    d = d_series(3, 30)
    f = 3 + d.scalar_mul(5) - (d ** 3).scalar_mul(2)
    [(coeffs, residual)] = d_expansion([f], d_powers(3, 10, 30))
    assert coeffs == [3, 5, 0, -2, 0, 0, 0, 0, 0, 0]
    assert residual.is_zero() and residual.prec == 30


def test_d_expansion_rejects_a_non_integer_coefficient():
    d = d_series(3, 30)
    with pytest.raises(ValueError, match="degree 1 "):
        d_expansion([d.scalar_mul(Fraction(1, 2))], d_powers(3, 5, 30))


def test_d_expansion_needs_precision_for_every_term():
    d = d_series(3, 30)
    with pytest.raises(ValueError):
        d_expansion([d.scalar_mul(2)], d_powers(3, 31, 40))


def _powers(d, count, prec):
    # 1, d, ..., d^(count-1) by repeated products, each truncated to prec
    out = [QSeries.const(1, prec)][:count]
    while len(out) < count:
        out.append((out[-1] * d).truncate(prec))
    return out


@pytest.mark.parametrize("p, n", [(2, 6), (13, 2)])
def test_powers_match_the_hand_written_loops(p, n):
    # the eta quotients q^i E(q^p)^(ti) E^(-ti) against the loop that
    # multiplied a constant 1 by d over and over, each product truncated to
    # the precision asked: at the oracle's solve precision and at 40
    solve_prec = p * n + GUARD
    new = list(d_powers(p, p * n + 1, solve_prec))
    assert new == _powers(d_series(p, solve_prec), p * n + 1, solve_prec)
    assert [f.prec for f in new] == [solve_prec] * (p * n + 1)
    loop = _powers(d_series(p, 40), p + 1, 40)
    assert list(d_powers(p, p + 1, 40)) == loop   # == compares precisions
    assert [f.prec for f in loop] == [40] * (p + 1)
    assert list(d_powers(p, 0, 40)) == []
    assert list(d_powers(p, 1, 40)) == loop[:1]
    with pytest.raises(ValueError, match="not of genus 0"):
        d_powers(11, 2, 40)


def _d_expansion_by_qseries(f, dpows):
    # the expansion as QSeries arithmetic, one subtraction per nonzero r_i
    coeffs, residual = [], f
    for i, dpow in enumerate(dpows):
        r = modcurve._as_int(residual.coeff(i),
                             "d-expansion coefficient of degree %d" % i)
        coeffs.append(r)
        if r:
            residual = residual - dpow.scalar_mul(r)
    return coeffs, residual


def _outcome(expand, fs, dpows):
    try:
        out = expand(fs, dpows)
    except ValueError as exc:           # PrecisionError is a ValueError
        return type(exc), str(exc)
    return [(coeffs, (r.start, r.prec, r.c)) for coeffs, r in out]


def _by_qseries(fs, dpows):
    return [_d_expansion_by_qseries(f, dpows) for f in fs]


def _degree(error):
    # both errors name the degree first: "coefficient of q^i unknown ..."
    # and "d-expansion coefficient of degree i is not an integer ..."
    return int(re.search(r"\d+", error[1])[0])


@st.composite
def _expansions(draw):
    """(fs, dpows): one to three series f, each a Laurent or power series
    with integer or Fraction coefficients, near a polynomial in d so that
    most r_i are integers; the powers of d at the first f's precision or
    lower, some cut shorter or given a stray term below q^k, and sometimes
    more of them than an f has coefficients."""
    small = st.integers(-4, 4)
    dprec = draw(st.integers(2, 14))
    d = QSeries(1, [1] + draw(st.lists(small, max_size=dprec)), dprec)
    fprecs = draw(st.lists(st.integers(0, 14), min_size=1, max_size=3))
    pprec = draw(st.integers(max(fprecs[0] - 4, 0), fprecs[0]))
    dpows = _powers(d, draw(st.integers(0, max(fprecs) + 2)), pprec)
    for k in draw(st.lists(st.integers(0, max(len(dpows) - 1, 0)),
                           max_size=2)):
        if k >= len(dpows):
            continue
        if draw(st.booleans()):
            dpows[k] = dpows[k].truncate(draw(st.integers(0, pprec)))
        else:
            dpows[k] = dpows[k] + QSeries(draw(st.integers(-3, k)), [1],
                                          pprec)
    fs = []
    for fprec in fprecs:
        poly = QSeries(0, draw(st.lists(small, max_size=fprec)), fprec)
        f = sum((dpow.scalar_mul(c) for dpow, c in
                 zip(_powers(d, fprec, fprec), poly.coeffs_from(0, fprec))),
                QSeries.zero(fprec))
        start = draw(st.integers(-3, fprec))
        noise = st.one_of(small, st.builds(Fraction, small, st.integers(1, 3)))
        extra = draw(st.lists(noise, max_size=max(fprec - start, 0)))
        fs.append(f + QSeries(start, extra, fprec))
    return fs, dpows


@settings(max_examples=300, deadline=None)
@given(_expansions())
def test_d_expansion_matches_the_qseries_loop(case):
    # each series alone, with the powers given as an iterator, against the
    # QSeries loop; all of them at once give each its own result, or, when
    # some raise, the error of the first to fail at the least degree
    fs, dpows = case
    singles = [_outcome(_by_qseries, [f], dpows) for f in fs]
    assert [_outcome(d_expansion, [f], iter(dpows)) for f in fs] == singles
    errors = [s for s in singles if isinstance(s, tuple)]
    joint = (min(errors, key=_degree) if errors
             else [single for single, in singles])
    assert _outcome(d_expansion, fs, iter(dpows)) == joint


def test_ip_tables_exact():
    assert ip_poly(2).terms == tables.IP2
    assert ip_poly(3).terms == tables.IP3
    assert ip_poly(5).terms == tables.IP5


def test_cached_ip_poly_is_immutable():
    # every later U matrix at p = 3 is built from the cached I_3
    ip = ip_poly(3)
    with pytest.raises(TypeError):
        ip.terms[(1, 1)] += 3
    assert ip_poly(3) is ip
    assert ip.terms == tables.IP3


def test_cached_hauptmodul_poly_is_immutable():
    h = solve_hauptmodul_poly(3)
    with pytest.raises(TypeError):
        h.coeffs[1] += 1
    assert solve_hauptmodul_poly(3) is h
    assert h == solve_hauptmodul_poly.__wrapped__(3)


def test_ip_two_routes_agree():
    for p in PRIMES:
        assert practical_ip_fit(p) == modular_equation_ip(p)


def test_a_non_integral_quotient_raises(monkeypatch):
    # h_2 + 1 is odd, so the term -(h_2 + 1) 2^-12 x y of the quotient is
    # not an integer
    h = solve_hauptmodul_poly(2).coeffs
    monkeypatch.setattr(modcurve, "solve_hauptmodul_poly",
                        lambda p: HPoly(2, [h[0], h[1], h[2] + 1, h[3]]))
    with pytest.raises(ValueError, match="I_2 coefficient of x\\^1 y\\^1"):
        modular_equation_ip.__wrapped__(2)


def test_ip_laurent_certificate():
    for p in (2, 3, 5):
        assert certify_ip_laurent(p, ip_poly(p))


def test_laurent_certificate_keeps_its_precision(monkeypatch):
    # d^p I_p(d_p(q^p), 1/d_p(q)) vanishes below these q-precisions, one per
    # prime: the fit's p(p + 1) + 40 equations, and at p = 13 the Laurent
    # identity to p(p + 3) + 24 - p terms
    ips = [ip_poly(p) for p in PRIMES]       # cached before the spy
    seen = []
    build = modcurve._ip_powers.__wrapped__

    def spy(p):
        seen.append(build(p))
        return seen[-1]

    monkeypatch.setattr(modcurve, "_ip_powers", lru_cache(maxsize=None)(spy))
    assert all(certify_ip_laurent(p, ip) for p, ip in zip(PRIMES, ips))
    assert [dpows[0].prec for _, dpows in seen] == [46, 52, 70, 96, 232]
    assert all(f.prec == dpows[0].prec for xpows, dpows in seen
               for f in xpows + dpows)
    # the fit builds its system from the same table, which its check of
    # its lift re-reads
    modcurve._ip_powers.cache_clear()        # the spy's cache
    first = len(seen)
    practical_ip_fit.__wrapped__(3)
    assert [dpows[0].prec for _, dpows in seen[first:]] == [52]


def test_each_ip_table_is_built_once(monkeypatch):
    # ip_poly and then the ip-laurent-certificate claims: the fit, its
    # check and the claims read one table per prime
    for fn in (ip_poly, practical_ip_fit, modcurve._ip_powers):
        fn.cache_clear()
    built = []
    real = modcurve.d_powers

    def spy(p, count, prec):
        if count == p + 1:                  # 1, d, ..., d^p
            built.append(p)
        return real(p, count, prec)

    monkeypatch.setattr(modcurve, "d_powers", spy)
    for p in PRIMES:
        ip_poly(p)
    claims = [c for c in verify.suite_modcurve()
              if c["id"].startswith("ip-laurent-certificate-p")]
    assert len(claims) == len(PRIMES) and all(c["pass"] for c in claims)
    assert built == list(PRIMES)


def test_ip_tables_cannot_be_changed():
    # the fit's check of its lift and the certificate claims re-read them
    xpows, dpows = modcurve._ip_powers(3)
    assert type(xpows) is tuple and type(dpows) is tuple
    with pytest.raises(TypeError):
        dpows[1] = dpows[0]
    with pytest.raises(TypeError):
        xpows[1].c[0] += 1


def test_laurent_certificate_fails_on_a_perturbed_i13():
    terms = dict(ip_poly(13).terms)
    terms[13, 1] += 1                       # the corner term -13^12 x^13 y
    assert not certify_ip_laurent(13, modcurve.BiPoly(terms))


@pytest.mark.parametrize("p", PRIMES)
def test_every_single_term_change_fails_the_ip_check(monkeypatch, p):
    # each term of I_p moved by +1 or -1 fails, and so does a relation of
    # bidegree above (p, p)
    tables = modcurve._ip_powers(p)
    monkeypatch.setattr(modcurve, "_ip_powers", lambda q: tables)
    ip = ip_poly(p)
    assert certify_ip_laurent(p, ip)
    for key, c in ip.terms.items():
        for delta in (1, -1):
            moved = modcurve.BiPoly({**ip.terms, key: c + delta})
            assert not certify_ip_laurent(p, moved)
    for key in ((p + 1, 0), (0, p + 1)):
        assert not certify_ip_laurent(p, modcurve.BiPoly({**ip.terms,
                                                          key: 1}))


def test_ip7_displayed_and_corrected():
    y1 = ip_poly(7).y_part(1)
    assert y1 == tables.IP7_Y1
    # the two printed low-order values violate the entry bound the
    # polynomial itself must satisfy, hence the corrections
    e = e_exponent(7)
    for i, printed in tables.IP7_Y1_PRINTED_ERRATA.items():
        v = 0
        c = abs(printed)
        while c % 7 == 0:
            v += 1
            c //= 7
        assert Fraction(v) < e * (7 * i - 1)


def test_ip13_y1_verbatim():
    assert ip_poly(13).y_part(1) == tables.IP13_Y1
    assert ip_poly(13).get(1, 13) == -1


# middle rows of I_7 and I_13 are not published; frozen from the
# cross-validated computation as regression fixtures
IP7_Y2_FIXTURE = {1: -8624, 2: -289835, 3: -4571504, 4: -37882978,
                  5: -161414428, 6: -282475249}
IP7_Y6_FIXTURE = {1: -28, 2: -49}
IP13_Y12_FIXTURE = {1: -26, 2: -13}


def test_ip_middle_row_fixtures():
    assert ip_poly(7).y_part(2) == IP7_Y2_FIXTURE
    assert ip_poly(7).y_part(6) == IP7_Y6_FIXTURE
    assert ip_poly(13).y_part(12) == IP13_Y12_FIXTURE


def test_ip_corner_pattern():
    for p in PRIMES:
        ip = ip_poly(p)
        assert ip.get(1, p) == -1
        assert ip.get(p, 1) == -(p ** 12)
        assert ip.get(0, 0) == 1
        assert ip.bidegree() == (p, p)


def test_practical_fit_rejects_low_precision():
    with pytest.raises(ValueError):
        practical_ip_fit(3, n_eq=5)


def test_ip_fit_non_unit_pivot_uses_next_chunk(monkeypatch):
    first = _prime_pool(1)[0]
    moduli, kernels = [], []
    kernel = modcurve._mod_kernel

    def spy(columns, modulus):
        moduli.append(modulus)
        if len(moduli) == 1:        # every pivot nonzero, none a unit
            columns = [[first * x % modulus for x in col] for col in columns]
        kernels.append(kernel(columns, modulus))
        return kernels[-1]

    monkeypatch.setattr(modcurve, "_mod_kernel", spy)
    fit = practical_ip_fit.__wrapped__(3)
    pool = _prime_pool(4)
    assert moduli == [pool[0] * pool[1], pool[2] * pool[3]]
    assert kernels[0] is None and kernels[1] is not None
    assert fit == modular_equation_ip(3)


def test_ip_fit_moduli_fit_in_64_bit_words(monkeypatch):
    # with no kernel found, the fit tries its three moduli, the first six
    # pool primes in pairs, each below 2^64 as its word columns need
    moduli = []

    def spy(columns, modulus):
        moduli.append(modulus)
        assert all(col.format == "Q" and len(col) == 13 * 14 + 40
                   for col in columns)
        return None

    monkeypatch.setattr(modcurve, "_mod_kernel", spy)
    with pytest.raises(ValueError, match="kernel dimension is not 1"):
        practical_ip_fit.__wrapped__(13)
    pool = _prime_pool(6)
    assert moduli == [pool[0] * pool[1], pool[2] * pool[3], pool[4] * pool[5]]
    assert all(m < 2 ** 64 for m in moduli)


def test_ip_fit_rejects_wrong_lift(monkeypatch):
    kernel = modcurve._mod_kernel

    def off_by_one(columns, modulus):
        vec = kernel(columns, modulus)
        vec[-1] = (vec[-1] + 1) % modulus
        return vec

    monkeypatch.setattr(modcurve, "_mod_kernel", off_by_one)
    with pytest.raises(ValueError, match="residual"):
        practical_ip_fit.__wrapped__(3)
    monkeypatch.setattr(modcurve, "_mod_kernel",
                        lambda columns, modulus: [0] + kernel(columns,
                                                              modulus)[1:])
    with pytest.raises(ValueError, match="constant term"):
        practical_ip_fit.__wrapped__(3)


def test_hpoly_validation():
    with pytest.raises(ValueError):
        HPoly(2, [2, 1, 1, 1])     # constant term must be 1


def test_c13_constant():
    assert C_P[13] == Fraction(432000, 691)
