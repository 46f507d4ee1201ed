import math
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from upadic import charseries, umatrix, weights
from upadic.scalars import INF, val_p, vp_int, QuadInt3, val_quad3
from upadic.serialize import val_str


def test_val_p_basics():
    assert val_p(0, 3) == INF
    assert val_p(Fraction(432000, 691), 13) == 0
    assert val_p(3 ** 2420, 3) == 2420
    assert val_p(Fraction(1, 9), 3) == -2


def _vp_naive(n, p):
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 13)), k=st.integers(0, 3000),
       u=st.integers(-10 ** 30, 10 ** 30).filter(bool))
def test_vp_int_matches_the_naive_loop(p, k, u):
    n = p ** k * u
    assert vp_int(n, p) == _vp_naive(abs(n), p)
    with pytest.raises(ValueError):
        vp_int(0, p)


def test_infinity_is_math_inf_and_exact_against_rationals():
    assert INF is math.inf
    big = 10 ** 400
    assert sorted([INF, big, Fraction(big, 3), -big, 0]) == [
        -big, 0, Fraction(big, 3), big, INF]
    for x in (0, -7, 10 ** 9, Fraction(-1, 2), Fraction(10 ** 9 + 1, 2), INF):
        assert x + INF == INF and INF + x == INF


def test_none_is_not_a_valuation():
    assert (None == INF) is False
    assert None not in [INF, 0]
    for bad in (lambda: INF < None, lambda: 3 < None,
                lambda: Fraction(1, 2) >= None):
        with pytest.raises(TypeError):
            bad()


def test_val_str():
    assert [val_str(v) for v in (0, 5, Fraction(3, 2), Fraction(-1, 2),
                                 Fraction(4, 2), INF)] == [
        "0", "5", "3/2", "-1/2", "2", "inf"]
    for bad in (None, 1.5):
        with pytest.raises(TypeError):
            val_str(bad)


def _is_valuation(v):
    return v == INF or type(v) in (int, Fraction)


def test_every_valuation_is_an_int_a_fraction_or_inf():
    vals = [val_p(x, p) for x, p in ((0, 3), (Fraction(1, 9), 3),
                                     (3 ** 2420, 3), (Fraction(432000, 691), 13))]
    vals += [val_quad3(QuadInt3(a, b))
             for a, b in ((0, 1), (9, 3), (0, 0), (6, 0), (2, 0))]
    vals += [charseries.trunc_bound(p, m, 10)
             for p in (2, 3, 5) for m in range(5)]
    exact = charseries.CharSeries(3, [1, 0, 18], [INF] * 3, 2)
    vals += [exact.valuation(m) for m in range(3)]
    for m in (umatrix.build_matrix_genfun(3, 6),
              umatrix.scaled_matrix_p3(umatrix.build_matrix_genfun(3, 6))):
        vals += [umatrix.entry_valuation(m, i, j)
                 for i in range(1, 7) for j in range(1, 7)]
    twist = weights.TwistMatrix(54, 10)
    vals += [twist.scaled_entry_valuation(m) for m in range(11)]
    vals += [weights.dimension_gap_bound(p, k, m)
             for p in (3, 5) for k in (0, 12) for m in range(-1, 8)]
    assert all(map(_is_valuation, vals)), [v for v in vals
                                            if not _is_valuation(v)]
    assert INF in vals and any(type(v) is Fraction for v in vals)
    # None stands only for a valuation the residues leave open
    assert exact.valuation(1) == INF
    assert charseries.CharSeries(3, [1, 9], [INF, 1], 1).valuation(1) is None


def test_ultrametric_on_random_pairs():
    random.seed(1)
    for _ in range(10 ** 4):
        x = Fraction(random.randint(-500, 500), random.randint(1, 500))
        y = Fraction(random.randint(-500, 500), random.randint(1, 500))
        vx, vy, vs = val_p(x, 3), val_p(y, 3), val_p(x + y, 3)
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)
        assert val_p(x * y, 3) == vx + vy


def test_val_quad3():
    assert val_quad3(QuadInt3(0, 1)) == Fraction(1, 2)
    assert val_quad3(QuadInt3(9, 3)) == Fraction(3, 2)
    assert val_quad3(QuadInt3(0, 0)) == INF
    assert val_quad3(QuadInt3(6, 0)) == 1


def test_val_quad3_multiplicative_random():
    random.seed(3)
    for _ in range(2000):
        a = QuadInt3(random.randint(-81, 81), random.randint(-81, 81))
        b = QuadInt3(random.randint(-81, 81), random.randint(-81, 81))
        # (a + b r)(c + d r) with r^2 = 3
        prod = QuadInt3(a.a * b.a + 3 * a.b * b.b, a.a * b.b + a.b * b.a)
        assert val_quad3(prod) == val_quad3(a) + val_quad3(b)
        s = val_quad3(QuadInt3(a.a + b.a, a.b + b.b))
        assert s >= min(val_quad3(a), val_quad3(b))


def test_vp_int():
    assert vp_int(48, 2) == 4
    assert vp_int(-27, 3) == 3
