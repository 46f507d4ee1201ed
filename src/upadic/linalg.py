"""Exact linear algebra modulo word-size primes and their products: the one
prime pool of the package, its chunk size, and the kernel of an integer
system modulo any integer.
"""


def _is_probable_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):        # deterministic below 3.2e9
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_POOL = ()


def _prime_pool(count):
    """The first ``count`` primes above 2^30, in order.  One pool serves
    every call; it grows on demand and is never built at import.  A grown
    pool replaces the old one whole, so concurrent callers only repeat work.
    (_is_probable_prime is proven below 3.2e9, some 10^8 primes away.)"""
    global _POOL
    pool = _POOL
    if len(pool) < count:
        grown = list(pool)
        n = grown[-1] + 2 if grown else (1 << 30) + 1
        while len(grown) < count:
            if _is_probable_prime(n):
                grown.append(n)
            n += 2
        _POOL = pool = tuple(grown)
    return pool[:count]


# Pool primes per modulus.  One elimination modulo the product of 8 word
# primes (about 240 bits) costs little more than one modulo a single prime,
# so the interpreter overhead falls by about this factor; on the p = 3
# char-series matrices of sizes 30 to 50, 16 was level with 8 and 32 slower.
_CHUNK = 8


def _mod_kernel(rows, modulus):
    """A kernel vector of the integer matrix ``rows`` modulo ``modulus``,
    when the kernel there is one-dimensional; None when it is not, or when a
    pivot is not a unit.

    The modulus may be composite: echelon form and back-substitution use ring
    operations and inverses of units only, so without a None the result
    reduced mod each prime factor q is a kernel vector mod q, and the kernel
    mod q is one-dimensional too.
    """
    ncols = len(rows[0])
    mat = [[x % modulus for x in row] for row in rows]
    pivots = []
    free = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            free.append(col)
            if len(free) > 1:
                return None
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        try:
            inv = pow(mat[rank][col], -1, modulus)
        except ValueError:
            return None
        prow = mat[rank] = [x * inv % modulus for x in mat[rank]]
        tail = prow[col:]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            if f:
                mat[r][col:] = [(a - f * b) % modulus
                                for a, b in zip(mat[r][col:], tail)]
        pivots.append(col)
    if len(free) != 1:
        return None
    vec = [0] * ncols
    vec[free[0]] = 1
    # each pivot row is 1 at its pivot and 0 before it
    for row, col in reversed(list(zip(mat, pivots))):
        vec[col] = -sum(a * b for a, b in zip(row[col + 1:], vec[col + 1:])) % modulus
    return vec
