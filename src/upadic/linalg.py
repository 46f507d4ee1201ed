"""Exact linear algebra modulo word-size primes and their products: the one
prime pool of the package, its chunk size, the kernel of an integer system
and the characteristic polynomial of an integer matrix modulo any integer,
and the symmetric CRT lift back to the integers.  Every row reduction of the
package happens here.
"""

from operator import mul


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


def _charpoly_mod(a, p):
    """char poly coefficients c_0..c_n of det(tI - A) mod p, via similarity
    reduction to Hessenberg form; returns [1, c_1, ..., c_n].

    p may be composite: every step is a ring operation or the inverse of a
    unit, so the result reduced mod each prime factor of p is that prime's
    result.  Returns None when a pivot is not a unit mod p, which cannot
    happen for prime p.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for k in range(n - 2):
        piv = next((r for r in range(k + 1, n) if h[r][k]), None)
        if piv is None:
            continue
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        try:
            inv = pow(h[k + 1][k], -1, p)
        except ValueError:
            return None
        # H <- L H L^-1 for L = I - sum_i f_i e_i e_(k+1)^T.  The factors
        # commute, so every row i > k+1 loses f_i times the unchanged row
        # k+1, and then column k+1 gains sum_i f_i times column i.
        fs = [h[i][k] * inv % p for i in range(k + 2, n)]
        if not any(fs):
            continue
        hk1 = h[k + 1][k:]
        for i, f in enumerate(fs, k + 2):
            if f:
                h[i][k:] = [(x - f * y) % p for x, y in zip(h[i][k:], hk1)]
        for row in h:
            row[k + 1] = (row[k + 1] + sum(map(mul, fs, row[k + 2:]))) % p
    # p_m(t) = det(tI - H_m) = (t - h_mm) p_(m-1) - sum_i c_i p_(m-1-i), with
    # c_i = h_(m-i),m times the product of the i subdiagonal entries above
    # row m; coefficients ascend and are reduced once per m.
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[-1]
        hm = h[m - 1][m - 1]
        pm = [b - hm * a for a, b in zip(prev + [0], [0] + prev)]
        prod = 1
        for i in range(1, m):
            prod = prod * h[m - i][m - i - 1] % p
            if not prod:
                break
            coef = h[m - 1 - i][m - 1] * prod % p
            if coef:
                q = polys[m - 1 - i]
                pm[:len(q)] = [x - coef * y for x, y in zip(pm, q)]
        polys.append([x % p for x in pm])
    # c_k is the coefficient of t^(n-k)
    return polys[n][::-1]


def _sym_crt(residues, moduli):
    """The integer vector congruent to residues[i] modulo moduli[i] for
    every i, lifted into (-M/2, M/2] for M the product of the pairwise
    coprime moduli.  One coefficient at a time, so that only one of them is
    being built at full size."""
    out = []
    for rs in zip(*residues):
        x, mod = 0, 1
        for r, q in zip(rs, moduli):
            x += mod * ((r - x) * pow(mod % q, -1, q) % q)
            mod *= q
        out.append(x - mod if x > mod // 2 else x)
    return out
