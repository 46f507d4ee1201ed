import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from upadic.series import QSeries, PrecisionError, _sparse_power, eta_quotient
from upadic.modcurve import d_series


def geometric(prec):
    return QSeries(0, [1] * prec, prec)


def delta(prec):
    return eta_quotient([(1, 24)], prec - 1).shift(1)


def test_geometric_inverse():
    one = QSeries(0, [1, -1], 30) * geometric(29)
    assert one.c == (1,) and one.start == 0


def test_a_cached_series_cannot_be_changed():
    # the coefficients are a tuple, so no caller of the cached d_series can
    # change what every later caller reads
    d = d_series(3, 30)
    with pytest.raises(TypeError):
        d.c[1] += 1
    assert d_series(3, 30).coeff(2) == 12
    # and multiplying by q^k shares them instead of copying
    assert d.shift(2).c is d.c


def test_laurent_bookkeeping():
    prod = QSeries(-1, [1], 5) * QSeries(1, [1], 5)
    assert prod.start == 0 and prod.c == (1,)


def test_delta_inverse_roundtrip():
    d = delta(51)
    r = d * d.inv()
    assert r.coeff(0) == 1
    assert all(r.coeff(n) == 0 for n in range(1, r.prec))
    assert r.prec == 50  # min(51 + (-1), 49 + 1)


def test_inv_rejects_zero():
    with pytest.raises(ValueError):
        QSeries.zero(10).inv()


def test_inv_one_and_alternating():
    assert QSeries.const(1, 8).inv().c == (1,)
    i = QSeries(0, [1, 1], 8).inv()
    assert i.c == (1, -1, 1, -1, 1, -1, 1, -1)


def test_inv_delta_over_q_integral():
    # 1/(Delta/q) = prod (1-q^n)^(-24) has integer coefficients; the oracle
    # is a colored-partition DP, independent of the series inverse
    f = eta_quotient([(1, 24)], 30).inv()
    assert all(isinstance(x, int) for x in f.c)
    dp = [1] + [0] * 29
    for n in range(1, 30):
        for _ in range(24):
            for i in range(n, 30):
                dp[i] += dp[i - n]
    assert [f.coeff(n) for n in range(30)] == dp


def test_nth_root_eta_identity():
    # (q * prod ((1-q^3n)/(1-q^n))^12)^2 = Delta(q^3)/Delta(q)
    d = delta(81)
    ratio = d.v_substitute(3) * d.inv()
    ind = eta_quotient([(3, 12), (1, -12)], 40).shift(1)
    square = ind * ind
    assert square.prec == 42 and square.agrees_with(ratio)
    assert all(isinstance(x, int) for x in ratio.c)


def test_v_substitute():
    assert QSeries(1, [1], 10).v_substitute(3) == QSeries(3, [1], 30)
    one = QSeries.const(1, 10)
    assert one.v_substitute(5).coeff(0) == 1
    d = delta(10)
    dv = d.v_substitute(3)
    assert dv.start == 3 and dv.coeff(3) == 1


def test_u_extract():
    assert QSeries(2, [1], 10).u_extract(2) == QSeries(1, [1], 5)
    with pytest.raises(ValueError):
        QSeries(-1, [1, 0, 1], 10).u_extract(2)
    # negative exponents divisible by p are fine
    f = QSeries(-2, [1], 10).u_extract(2)
    assert f.start == -1 and f.c == (1,)


@st.composite
def _u_extractable(draw):
    # (p, f): a series whose negative exponents with nonzero coefficients
    # are all divisible by p, so that U_p accepts it
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    start = draw(st.integers(-30, 30))
    coeffs = draw(st.lists(st.integers(-9, 9), max_size=60))
    coeffs = [0 if start + k < 0 and (start + k) % p else x
              for k, x in enumerate(coeffs)]
    prec = start + len(coeffs) + draw(st.integers(0, 2 * p))
    return p, QSeries(start, coeffs, prec)


@settings(max_examples=200, deadline=None)
@given(_u_extractable())
def test_u_extract_reads_every_pth_coefficient(case):
    p, f = case
    u = f.u_extract(p)
    assert u.prec == f.prec // p
    assert all(u.coeff(n) == f.coeff(p * n)
               for n in range(f.start // p - 1, u.prec))


def test_u_extract_delta_tau_values():
    u2 = delta(61).u_extract(2)
    # tau(2), tau(4), tau(6) from the brute-force product expansion
    assert u2.coeffs_from(1, 4) == [-24, -1472, -6048]


def test_roundtrip_random_100():
    random.seed(12)
    for _ in range(100):
        p = random.choice([2, 3, 5, 7, 13])
        st = random.randint(0, 4)
        n = random.randint(1, 20)
        f = QSeries(st, [random.randint(-99, 99) for _ in range(n)], st + n)
        assert f.v_substitute(p).u_extract(p) == f


def test_precision_tracking():
    f = QSeries(0, [1, 1], 10)
    g = QSeries(0, [1, -1], 6)
    assert (f * g).prec == 6
    assert (f + g).prec == 6
    with pytest.raises(PrecisionError):
        (f * g).coeff(7)


def test_mul_precision_with_laurent_shift():
    # f known mod q^10 with start -2: product with q^5 known mod q^15
    f = QSeries(-2, [1, 1], 10)
    g = QSeries(5, [1], 100)
    assert (f * g).prec == 15


def test_eta_quotient_trivial():
    assert eta_quotient([], 10).c == (1,)
    dq = eta_quotient([(1, 24)], 8)
    assert dq.coeffs_from(0, 5) == [1, -24, 252, -1472, 4830]


def test_d2_expansion():
    d2 = eta_quotient([(2, 24), (1, -24)], 10).shift(1)
    assert d2.coeffs_from(1, 4) == [1, 24, 300]


def test_generator_series_integral_all_primes():
    # d_p = q prod ((1-q^pn)/(1-q^n))^(24/(p-1)): integral, leading coeff 1
    for p in (2, 3, 5, 7, 13):
        t = 24 // (p - 1)
        d = eta_quotient([(p, t), (1, -t)], 200).shift(1)
        assert d.coeff(1) == 1
        assert all(isinstance(x, int) for x in d.c)


def test_euler_factor_matches_dense_product():
    dense = QSeries.const(1, 40)
    for n in range(1, 40):
        dense = dense * QSeries(0, [1] + [0] * (n - 1) + [-1], 40)
    assert eta_quotient([(1, 1)], 40) == dense


@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(1, 13), st.integers(-30, 30)),
                      max_size=3),
       prec=st.integers(1, 120))
def test_eta_quotient_matches_dense_factor_products(pairs, prec):
    # the power recurrence against the product of the factors (1 - q^(sn))^(+-1)
    dense = QSeries.const(1, prec)
    for scale, expo in pairs:
        for n in range(1, (prec - 1) // scale + 1):
            factor = QSeries(0, [1] + [0] * (scale * n - 1) + [-1], prec)
            if expo < 0:
                factor = factor.inv()
            for _ in range(abs(expo)):
                dense = dense * factor
    assert eta_quotient(pairs, prec) == dense


@settings(max_examples=60, deadline=None)
@given(terms=st.dictionaries(st.integers(1, 9),
                             st.integers(-40, 40).filter(bool), max_size=4),
       expo=st.integers(-12, 12), n=st.integers(1, 30))
def test_sparse_power_matches_the_dense_power(terms, expo, n):
    # the power recurrence against repeated squaring of 1 + sum c_k q^k, the
    # terms grouped by coefficient
    groups = tuple((c, tuple(sorted(k for k in terms if terms[k] == c)))
                   for c in set(terms.values()))
    base = [1] + [terms.get(k, 0) for k in range(1, 10)]
    dense = QSeries(0, base, n) ** expo
    assert _sparse_power(groups, expo, n) == dense.coeffs_from(0, n)
    assert _sparse_power(groups, expo, 0) == []


def test_eta_quotient_rejects_an_inexact_recurrence_step():
    # prod (1 - q^n)^(1/2) = 1 - q/2 - ...: the recurrence's first division
    # leaves a remainder
    with pytest.raises(ValueError, match="inexact division at q\\^1"):
        eta_quotient([(1, Fraction(1, 2))], 5)


@st.composite
def _units(draw):
    # a series with a nonzero leading coefficient, Laurent or not
    start = draw(st.integers(-3, 3))
    lead = draw(st.fractions(min_value=-50, max_value=50, max_denominator=9)
                .filter(bool))
    rest = draw(st.lists(st.fractions(min_value=-50, max_value=50,
                                      max_denominator=9), max_size=12))
    prec = start + 1 + draw(st.integers(0, 15))
    return QSeries(start, [lead] + rest, prec)


@settings(max_examples=80, deadline=None)
@given(_units())
def test_inverse_of_a_unit_to_its_precision(f):
    # f * f.inv() = 1 + O(q^(f.prec - f.start)): the inverse keeps f's
    # relative precision, and every known coefficient past q^0 vanishes
    assert f * f.inv() == QSeries.const(1, f.prec - f.start)
