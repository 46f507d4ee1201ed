import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from upadic.charseries import charpoly_leverrier
from upadic.linalg import (_CHUNK, _charpoly_graded, _charpoly_mod,
                           _mod_kernel, _prime_pool)
from upadic.mod3 import kbar_rows, upper_minor_f3
from upadic.scalars import val_p


def _system_with_kernel(seed, nrows, ncols):
    """Random integer rows whose kernel over Q is spanned by w, w[-1] = 1."""
    rng = random.Random(seed)
    w = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(ncols - 1)] + [1]
    rows = []
    for _ in range(nrows):
        row = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(ncols - 1)]
        rows.append(row + [-sum(a * b for a, b in zip(row, w))])
    return rows, w


def test_mod_kernel_modulo_chunk_product():
    modulus = math.prod(_prime_pool(_CHUNK))
    for seed, nrows, ncols in ((31, 12, 8), (32, 9, 9), (33, 30, 20)):
        rows, w = _system_with_kernel(seed, nrows, ncols)
        vec = _mod_kernel(rows, modulus)
        assert vec is not None and any(vec)
        assert all(sum(a * v for a, v in zip(row, vec)) % modulus == 0
                   for row in rows)
        # one-dimensional: the vector is a multiple of w modulo the product
        assert all((vec[i] * w[j] - vec[j] * w[i]) % modulus == 0
                   for i in range(ncols) for j in range(ncols))


def test_mod_kernel_none_off_dimension_one_or_on_non_unit_pivot():
    modulus = math.prod(_prime_pool(_CHUNK))
    rows, _ = _system_with_kernel(34, 12, 8)
    assert _mod_kernel([row + row[:1] for row in rows], modulus) is None
    assert _mod_kernel([row[:-1] for row in rows], modulus) is None
    first = _prime_pool(1)[0]
    assert _mod_kernel([[first * x for x in row] for row in rows],
                       modulus) is None
    assert _mod_kernel([[first * x for x in row] for row in rows],
                       math.prod(_prime_pool(2 * _CHUNK)[_CHUNK:])) is not None


def _rank_mod(rows, q):
    """Rank of the rows modulo the prime q, by plain elimination."""
    rows = [[x % q for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv
            rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def _planted_kernels(draw):
    """(rows, w): small integer rows with row . w = 0 and w[0] = 1.  Column
    0 is solved for; in about half the cases every other column is zero
    above a drawn first row, a staircase as in the I_p fit system.  Then
    the columns are permuted, w with them."""
    small = st.integers(-3, 3)
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(1, 9))
    w = [1] + draw(st.lists(small, min_size=ncols - 1, max_size=ncols - 1))
    starts = [0] * ncols
    if draw(st.booleans()):                 # staircase
        starts[1:] = sorted(draw(st.lists(st.integers(0, nrows),
                                          min_size=ncols - 1,
                                          max_size=ncols - 1)))
    rows = []
    for r in range(nrows):
        row = [0] + [draw(small) if r >= starts[c] else 0
                     for c in range(1, ncols)]
        row[0] = -sum(a * b for a, b in zip(row, w))
        rows.append(row)
    perm = draw(st.permutations(range(ncols)))
    return [[row[c] for c in perm] for row in rows], [w[c] for c in perm]


@settings(max_examples=300, deadline=None)
@given(_planted_kernels())
def test_mod_kernel_on_planted_kernels(case):
    rows, w = case
    ncols = len(w)
    q, q2 = _prime_pool(2)
    vec = _mod_kernel(rows, q)
    if ncols - _rank_mod(rows, q) != 1:
        assert vec is None
    else:
        # the kernel is spanned by w, and vec comes in the caller's order
        assert vec is not None and any(vec)
        assert all(sum(a * v for a, v in zip(row, vec)) % q == 0
                   for row in rows)
        assert all((vec[i] * w[j] - vec[j] * w[i]) % q == 0
                   for i in range(ncols) for j in range(ncols))
    # every entry a nonzero non-unit modulo q q2: the first pivot fails
    scaled = _mod_kernel([[q * x for x in row] for row in rows], q * q2)
    if any(any(row) for row in rows):
        assert scaled is None


@st.composite
def _graded_matrices(draw):
    """(p, grades, K, prec): grades from -3 to 8, K with entries p^k u, so
    that pivots are often not units and rows often drop their grade, and
    sometimes a zero row."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    n = draw(st.integers(0, 7))
    grades = draw(st.lists(st.integers(-3, 8), min_size=n, max_size=n))
    entry = st.one_of(st.just(0),
                      st.builds(lambda k, u: p ** k * u, st.integers(0, 5),
                                st.integers(-10 ** 4, 10 ** 4)))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * n
    return p, grades, rows, draw(st.integers(1, 12))


@settings(max_examples=120, deadline=None)
@given(_graded_matrices())
def test_charpoly_graded_meets_its_precision(case):
    # diag(p^(c + s)) K is an integer matrix for s = -min(c), with
    # a_m = p^(s m) a_m(diag(p^c) K)
    p, grades, rows, prec = case
    n = len(rows)
    s = max([0] + [-c for c in grades])
    h = [[p ** (c + s) * x for x in row] for c, row in zip(grades, rows)]
    want = charpoly_leverrier(h)
    residues, precisions = _charpoly_graded(grades, rows, p, prec, n)
    assert len(residues) == len(precisions) == n + 1
    assert residues[0] == 1
    low = sorted(grades)
    for m in range(n + 1):
        a = Fraction(want[m], p ** (s * m))
        assert val_p(a - residues[m], p) >= precisions[m]
        # grade drops only lower the precision below prec + G_m
        assert precisions[m] <= prec + sum(low[:m])


def test_charpoly_graded_drops_a_grade_below_a_non_unit_pivot():
    # column 0: the pivot is row 1 (c + v = 0 + 2); row 2 has c + v = 3 + 0
    # with v < 2, so its grade drops to 1 and a_3 is known modulo 3^11,
    # not 3^13
    p, prec = 3, 10
    grades = [0, 0, 3]
    rows = [[1, 2, 4], [9, 1, 1], [1, 5, 7]]
    residues, precisions = _charpoly_graded(grades, rows, p, prec, 3)
    assert precisions == [10, 10, 10, 11]
    want = charpoly_leverrier([[p ** c * x for x in row]
                               for c, row in zip(grades, rows)])
    assert all(val_p(a - r, p) >= pi
               for a, r, pi in zip(want, residues, precisions))


def test_charpoly_graded_truncates_to_the_terms_asked():
    rows = [[3, 1, 0, 2], [9, 3, 1, 0], [0, 27, 1, 5], [1, 0, 3, 9]]
    full = _charpoly_graded([0, 1, 2, 3], rows, 3, 20, 4)
    part = _charpoly_graded([0, 1, 2, 3], rows, 3, 20, 2)
    assert part == (full[0][:3], full[1][:3])


_small_matrices = st.integers(0, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-30, 30), min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(_small_matrices)
def test_charpoly_mod_is_leverrier_reduced(rows):
    # modulo a chunk product, as the CRT route calls it, and modulo 3, as the
    # F_3 minors do; neither modulus meets a non-unit pivot on these entries
    want = charpoly_leverrier(rows)
    for modulus in (math.prod(_prime_pool(_CHUNK)), 3):
        assert _charpoly_mod(rows, modulus) == [a % modulus for a in want]


def test_charpoly_mod_is_none_on_a_non_unit_pivot():
    # the pivot of column 0 is row 1, whose entry q1 is not a unit modulo
    # q1 q2; modulo each prime alone the reduction goes through
    q1, q2 = _prime_pool(2)
    rows = [[2, 7, 1, 8], [q1, 2, 8, 1], [8, 2, 8, 4], [5, 9, 0, 4]]
    want = charpoly_leverrier(rows)
    assert _charpoly_mod(rows, q1 * q2) is None
    for q in (q1, q2):
        assert _charpoly_mod(rows, q) == [a % q for a in want]


def test_upper_f3_minors_are_determinants():
    rows = kbar_rows(13)
    for m in range(14):
        corner = [row[:m] for row in rows[:m]]
        det = (-1) ** m * charpoly_leverrier(corner)[-1]
        assert upper_minor_f3(rows, m) == det % 3


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3, 5, 13)), _small_matrices, st.integers(1, 12))
def test_charpoly_graded_at_grade_zero_is_charpoly_mod(p, rows, prec):
    # with unit pivots both reductions take the same steps, so the graded
    # residues are the plain ones modulo p^prec, none of them dropped
    plain = _charpoly_mod(rows, p ** prec)
    assume(plain is not None)
    n = len(rows)
    assert _charpoly_graded([0] * n, rows, p, prec, n) == (plain,
                                                           [prec] * (n + 1))
