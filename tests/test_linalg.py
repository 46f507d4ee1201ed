import math
import random

from upadic.linalg import _CHUNK, _mod_kernel, _prime_pool


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
