import random

import pytest

from upadic.mod3 import (F3BiSeries, poly, gbar, gbar0,
                         r_factor, verify_selfsim_base, verify_selfsim_printed_display,
                         verify_selfsim_full, verify_extraction, vanishing_check,
                         verify_cube_ladder, verify_gbar_factorization,
                         kbar_rows, upper_minor_f3, enumerate_excellent,
                         recursive_witness_permutation, is_excellent,
                         SELFSIM_MULTIPLIER, SELFSIM_TAIL)
from upadic.scalars import INF
from upadic.umatrix import build_matrix_genfun, kbar


def test_gbar0_display():
    assert gbar0().data == {(1, 1): 1, (2, 2): 2, (3, 1): 1}


def test_cached_gbar_is_immutable():
    # kbar_rows reads the cached Gbar, so an edit to it would reach Kbar
    g = gbar(20)
    with pytest.raises(AttributeError):
        g.data.clear()
    with pytest.raises(TypeError):
        g.data[(1, 1)] = 0
    assert gbar(20) is g
    assert g == gbar.__wrapped__(20)


def test_r_factor_constant_term():
    for i in range(3):
        assert r_factor(i).data[(0, 0)] == 1


def test_frobenius_cube_random():
    random.seed(31)
    for _ in range(50):
        f = poly({(random.randint(0, 5), random.randint(0, 5)): random.randint(1, 2)
                  for _ in range(4)})
        g = poly({(random.randint(0, 5), random.randint(0, 5)): random.randint(1, 2)
                  for _ in range(4)})
        assert (f * g).cube() == f.cube() * g.cube()
        # f^3 = f(x^3, y^3) over F_3, coefficients fixed by cubing
        cubed = f * f * f
        assert cubed == f.cube()


def test_reliability_window_shrinks_with_laurent():
    f = F3BiSeries({(1, 1): 1}, known_upto=10)
    shift = poly({(-1, -1): 1})
    assert (f * shift).known_upto == 8


def test_exact_series_have_an_infinite_window():
    f = poly({(1, 1): 1, (2, 0): 2})
    assert f.known_upto == INF and f.cube().known_upto == INF
    assert (f * f + f).known_upto == INF
    assert f.coeff(500, 500) == 0


# the window of a product is min(a.known_upto + b.min_total, b.known_upto
# + a.min_total), an exact factor counting as known_upto = INF
def test_product_window_exact_times_windowed():
    f = poly({(1, 1): 1, (2, 0): 2})                      # min_total 2
    g = F3BiSeries({(0, 0): 1, (1, 0): 1}, known_upto=10)  # min_total 0
    assert (f * g).known_upto == (g * f).known_upto == 12


def test_product_window_windowed_times_windowed():
    f = F3BiSeries({(1, 0): 1, (2, 3): 1}, known_upto=10)  # min_total 1
    g = F3BiSeries({(1, 1): 2, (0, 4): 1}, known_upto=7)   # min_total 2
    fg = f * g
    assert fg.known_upto == (g * f).known_upto == 8
    assert fg.data == {(2, 1): 2, (1, 4): 1, (3, 4): 2}  # (2, 7) is past 8


def test_product_window_laurent_times_exact():
    # an exact Laurent factor leaves an exact product exact, and lowers a
    # windowed one's window by its negative minimal total degree
    assert (SELFSIM_MULTIPLIER * gbar0()).known_upto == INF
    g = F3BiSeries({(1, 1): 1, (2, 2): 1}, known_upto=6)
    assert (poly({(-1, -1): 1, (0, 0): 1}) * g).known_upto == 4


def test_coeff_beyond_window_raises():
    f = F3BiSeries({(1, 1): 1}, known_upto=4)
    with pytest.raises(ValueError):
        f.coeff(3, 3)


def test_recg_corrected_exact():
    assert verify_selfsim_base() is None


def test_recg_structure():
    # the multiplier is the geometric progression 1 + (y/x) + (y/x)^2 and
    # only its constant term preserves y-degree mod 3; the tail avoids
    # y-degrees divisible by 3 entirely
    assert SELFSIM_MULTIPLIER.data == {(0, 0): 1, (-1, 1): 1, (-2, 2): 1}
    assert all(j % 3 for (_, j) in SELFSIM_TAIL.data)


def test_recg_printed_display_fails_both_orientations():
    err = verify_selfsim_printed_display()
    assert len(err) == 2
    assert all(e is not None for e in err)


def test_selfsim_full_and_extraction():
    assert verify_selfsim_full(36) is None
    assert verify_extraction(36) == []


def test_vanishing():
    assert vanishing_check(40) == []
    g = gbar(20)
    assert g.coeff(1, 9) == 0       # (i, 3j) with 3 not dividing i
    assert g.coeff(2, 6) == 0


def test_cube_ladder_and_factorization():
    for j in (0, 1):
        assert verify_cube_ladder(j, 30)
    for j in (0, 1, 2):
        assert verify_gbar_factorization(j, 30)


def test_gbar_matches_matrix_kbar():
    kb = kbar(build_matrix_genfun(3, 15))
    rows = kbar_rows(15)
    assert all(rows[i][j] == kb[i][j]
               for i in range(15) for j in range(15))


def test_minor_pattern_to_13():
    rows = kbar_rows(13)
    nz = [m for m in range(0, 14) if upper_minor_f3(rows, m)]
    assert nz == [0, 1, 4, 13]


def test_excellent_counts():
    rows = kbar_rows(13)
    counts = {m: enumerate_excellent(m, rows)[0] for m in range(1, 14)}
    assert counts == {m: (1 if m in (1, 4, 13) else 0) for m in range(1, 14)}


def test_excellent_witness_m4():
    count, wits = enumerate_excellent(4, kbar_rows(4))
    assert count == 1 and wits == [(1, 4, 3, 2)]


def test_recursive_witness_recursion():
    assert recursive_witness_permutation(0) == ()
    assert recursive_witness_permutation(1) == (1,)
    assert recursive_witness_permutation(2) == (1, 4, 3, 2)
    pi13 = recursive_witness_permutation(3)
    assert len(pi13) == 13 and sorted(pi13) == list(range(1, 14))
    assert is_excellent(pi13, kbar_rows(13))
    # the unique degree-13 excellent permutation is the recursive one
    assert enumerate_excellent(13, kbar_rows(13))[1] == [pi13]


def test_recursive_witness_degree_40_excellent():
    pi40 = recursive_witness_permutation(4)
    assert len(pi40) == 40
    assert is_excellent(pi40, kbar_rows(40))


def test_excellence_rejects_non_permutation():
    with pytest.raises(ValueError):
        is_excellent((1, 1, 2), kbar_rows(3))
