import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from upadic.scalars import Val, INF, val_p, vp_int, QuadInt3, val_quad3


def test_val_p_basics():
    assert val_p(0, 3) == INF
    assert val_p(Fraction(432000, 691), 13) == Val(0)
    assert val_p(3 ** 2420, 3) == Val(2420)
    assert val_p(Fraction(1, 9), 3) == Val(-2)


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


def test_val_ordering_and_addition():
    assert INF > Val(10 ** 9)
    assert Val(Fraction(1, 2)) < Val(1)
    assert (Val(2) + Val(Fraction(1, 2))) == Val(Fraction(5, 2))
    assert (INF + Val(3)).is_infinite
    assert str(Val(Fraction(3, 2))) == "3/2"
    assert str(INF) == "inf"


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
    assert val_quad3(QuadInt3(0, 1)) == Val(Fraction(1, 2))
    assert val_quad3(QuadInt3(9, 3)) == Val(Fraction(3, 2))
    assert val_quad3(QuadInt3(0, 0)) == INF
    assert val_quad3(QuadInt3(6, 0)) == Val(1)


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
