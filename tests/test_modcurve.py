import math

import pytest
from fractions import Fraction

from upadic import modcurve
from upadic.linalg import _CHUNK, _prime_pool
from upadic.modcurve import (bernoulli, eisenstein, delta_series, j_series,
                             d_series, verify_eisenstein_power, solve_hauptmodul_poly,
                             check_hauptmodul_polygon, modular_equation_ip,
                             practical_ip_fit, ip_poly, certify_ip_laurent,
                             e_exponent, HPoly, C_P, d_expansion, powers)
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
    assert h.coeffs == [1, 768, 196608, 16777216]  # (1 + 2^8 d)^3


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
    coeffs, residual = d_expansion(f, powers(d, 10, 30))
    assert coeffs == [3, 5, 0, -2, 0, 0, 0, 0, 0, 0]
    assert residual.is_zero() and residual.prec == 30


def test_d_expansion_rejects_a_non_integer_coefficient():
    d = d_series(3, 30)
    with pytest.raises(ValueError, match="degree 1 "):
        d_expansion(d.scalar_mul(Fraction(1, 2)), powers(d, 5, 30))


def test_d_expansion_needs_precision_for_every_term():
    d = d_series(3, 30)
    with pytest.raises(ValueError):
        d_expansion(d.scalar_mul(2), powers(d, 31, 40))


@pytest.mark.parametrize("p, n", [(2, 6), (13, 2)])
def test_powers_match_the_hand_written_loops(p, n):
    # the oracle's list at its solve precision, and the loop that multiplied
    # a constant 1 by d over and over
    solve_prec = p * n + GUARD
    d = d_series(p, p * solve_prec)
    oracle = [QSeries.const(1, solve_prec), d.truncate(solve_prec)]
    for _ in range(2, p * n + 1):
        oracle.append(oracle[-1] * oracle[1])
    new = list(powers(d, p * n + 1, solve_prec))
    assert new == oracle                      # == compares the precision too
    assert [f.prec for f in new] == [f.prec for f in oracle]
    small = d_series(p, 40)
    loop = [QSeries.const(1, 40)]
    for _ in range(p):
        loop.append(loop[-1] * small)
    assert list(powers(small, p + 1, 40)) == loop
    assert list(powers(small, 0, 40)) == []
    assert list(powers(small, 1, 40)) == loop[:1]


def test_ip_tables_exact():
    assert ip_poly(2).terms == tables.IP2
    assert ip_poly(3).terms == tables.IP3
    assert ip_poly(5).terms == tables.IP5


def test_ip_two_routes_agree():
    for p in PRIMES:
        assert practical_ip_fit(p) == modular_equation_ip(p)


def test_ip_laurent_certificate():
    for p in (2, 3, 5):
        assert certify_ip_laurent(p, ip_poly(p))


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

    def spy(rows, modulus):
        moduli.append(modulus)
        if len(moduli) == 1:        # every pivot nonzero, none a unit
            rows = [[first * x for x in row] for row in rows]
        kernels.append(kernel(rows, modulus))
        return kernels[-1]

    monkeypatch.setattr(modcurve, "_mod_kernel", spy)
    fit = practical_ip_fit.__wrapped__(3)
    chunks = _prime_pool(2 * _CHUNK)
    assert moduli == [math.prod(chunks[:_CHUNK]), math.prod(chunks[_CHUNK:])]
    assert kernels[0] is None and kernels[1] is not None
    assert fit == modular_equation_ip(3)


def test_ip_fit_rejects_wrong_lift(monkeypatch):
    kernel = modcurve._mod_kernel

    def off_by_one(rows, modulus):
        vec = kernel(rows, modulus)
        vec[-1] = (vec[-1] + 1) % modulus
        return vec

    monkeypatch.setattr(modcurve, "_mod_kernel", off_by_one)
    with pytest.raises(ValueError, match="residual"):
        practical_ip_fit.__wrapped__(3)
    monkeypatch.setattr(modcurve, "_mod_kernel",
                        lambda rows, modulus: [0] + kernel(rows, modulus)[1:])
    with pytest.raises(ValueError, match="constant term"):
        practical_ip_fit.__wrapped__(3)


def test_hpoly_validation():
    with pytest.raises(ValueError):
        HPoly(2, [2, 1, 1, 1])     # constant term must be 1


def test_c13_constant():
    assert C_P[13] == Fraction(432000, 691)
