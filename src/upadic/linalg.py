"""Exact linear algebra modulo word-size primes and their products: the one
prime pool of the package, its chunk size, the kernel of an integer system
modulo any integer, and the symmetric CRT lift back to the integers; and
the characteristic polynomial of a graded matrix diag(p^c) K from K modulo
a power of p, with the precision of each coefficient proven.  The
characteristic polynomial of an integer matrix modulo any integer is that
graded one at precision 1 with every grade 0, so one Hessenberg reduction
and one recurrence serve both.  Every row reduction of the package happens
here.
"""

from bisect import insort
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .scalars import vp_int


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


def _mod_kernel(columns, modulus):
    """A kernel vector of the integer matrix with these ``columns`` modulo
    ``modulus``, in the caller's column order, when the kernel there is
    one-dimensional; None when it is not, or when a pivot is not a unit.

    Each column holds the residues of its entries in [0, modulus), all
    columns of one length: a list of ints, for any modulus, or 64-bit words
    (``memoryview(bytearray(8 * nrows)).cast("Q")``), which need a modulus
    below 2^64.  The columns are eliminated in place, so the caller's
    columns come back changed.

    The modulus may be composite: echelon form and back-substitution use ring
    operations and inverses of units only, so without a None the result
    reduced mod each prime factor q is a kernel vector mod q, and the kernel
    mod q is one-dimensional too.

    The columns are eliminated in order of their first nonzero row (a stable
    sort, so ties keep the caller's order).  A pivot row is marked, not
    moved: it is the first unmarked row nonzero in its column, and it
    updates only the later columns nonzero in it, on the unmarked rows
    nonzero in its column.  In that order every row is zero in the columns
    that start below it, so on a staircase system such as the I_p fit's,
    whose columns start at distinct rows up to a few ties, a pivot updates a
    few columns instead of all of them.
    """
    nrows = len(columns[0])
    order = sorted(range(len(columns)), key=lambda c: next(
        (r for r, x in enumerate(columns[c]) if x), nrows))
    live = list(range(nrows))               # the unmarked rows, ascending
    pivots = []                             # (place in order, row, inverse)
    free = []
    for k, c in enumerate(order):
        col = columns[c]
        piv = next((r for r in live if col[r]), None)
        if piv is None:
            free.append(c)
            if len(free) > 1:
                return None
            continue
        try:
            inv = pow(col[piv], -1, modulus)
        except ValueError:
            return None
        live.remove(piv)
        rows = [(r, col[r]) for r in live if col[r]]
        for other in map(columns.__getitem__, order[k + 1:]):
            f = other[piv] * inv % modulus
            if f:
                for r, x in rows:
                    other[r] = (other[r] - f * x) % modulus
        pivots.append((k, piv, inv))
    if len(free) != 1:
        return None
    vec = [0] * len(columns)
    vec[free[0]] = 1
    # a pivot row keeps stale entries in earlier pivot columns: read the later
    for k, piv, inv in reversed(pivots):
        vec[order[k]] = -inv * sum(columns[c][piv] * vec[c]
                                   for c in order[k + 1:]) % modulus
    return vec


def _hessenberg_charpoly(h, grades, mod, pw, terms):
    """Coefficients 0..terms of det(1 - tH) for H = diag(p^grades) h upper
    Hessenberg, as (B, G): coefficient j is p^(G[j]) B[j] modulo
    p^(G[j]) mod, G[j] the sum of the j smallest grades, where pw[e] = p^e
    for e < len(pw) and mod = p^len(pw).  With every grade 0 and pw = [1],
    as _charpoly_mod runs it, this is the plain recurrence modulo any
    integer mod.

    p_m(t) = det(tI - H_m) = (t - h_mm) p_(m-1) - sum_i c_i p_(m-1-i), with
    c_i = h_(m-i),m times the product of the i subdiagonal entries above row
    m (Cohen, GTM 138, Alg. 2.2.9).  Coefficient j of p_m is that of t^(m-j);
    each update multiplies by p to a non-negative excess, and a term whose
    excess reaches len(pw) is 0 modulo mod.
    """
    n, prec = len(h), len(pw)
    polys, sums = [[1]], [[0]]
    srt = []
    for m in range(1, n + 1):
        insort(srt, grades[m - 1])
        top = min(m, terms)
        gm = list(accumulate(srt[:top], initial=0))
        prev, gp = polys[-1], sums[-1]
        hm, cm = h[m - 1][m - 1], grades[m - 1]
        pm = [0] * (top + 1)
        for j in range(top + 1):
            x = 0
            if j < len(prev):
                e = gp[j] - gm[j]
                if e < prec:
                    x = prev[j] * pw[e]
            if j and hm:
                e = cm + gp[j - 1] - gm[j]
                if e < prec:
                    x -= hm * prev[j - 1] * pw[e]
            pm[j] = x
        prod, cprod = 1, cm
        for i in range(1, m):
            prod = prod * h[m - i][m - i - 1] % mod
            if not prod:
                break
            cprod += grades[m - 1 - i]
            coef = h[m - 1 - i][m - 1] * prod % mod
            if coef:
                q, gq = polys[m - 1 - i], sums[m - 1 - i]
                for jq in range(min(len(q), top - i)):
                    e = cprod + gq[jq] - gm[jq + i + 1]
                    if e < prec:
                        pm[jq + i + 1] -= coef * q[jq] * pw[e]
        polys.append([x % mod for x in pm])
        sums.append(gm)
    return polys[n], sums[n]


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


def _charpoly_graded(grades, rows, p, prec, terms):
    """Coefficients a_0..a_terms of det(1 - tH) for H = diag(p^grades) K,
    K the integer matrix ``rows`` and p prime (any modulus at precision 1,
    below), each modulo a proven power of p.  Returns (residues, precisions) with v_p(a_m - residues[m]) >=
    precisions[m]; a residue is an integer unless its grade is negative.

    Only a matrix S = K mod p^prec is stored, under the invariant that row
    i of H is known modulo p^(c_i + prec) for its current grade c_i: the
    matrix reached from H by the similarities so far is diag(p^c) K' with
    K' integral and K' = S mod p^prec.  Every step of the Hessenberg
    reduction keeps it:

    - the pivot of column k is a row r > k minimising c_r + v_p(S_rk), ties
      going to the smaller v_p (fewer rows then drop: 42 trits in all
      against 72 on the weight-162 twist at size 30); with pv = v_p of the
      pivot entry, every multiplier f_i = H_ik / H_pk has valuation >= 0;
    - a row with w = v_p(S_ik) < pv first drops its grade by s = pv - w,
      H_i = p^(c_i - s) (p^s K'_i), so it is known modulo p^(c_i - s + prec)
      from then on;
    - the row update S_i -= g S_piv, with g = f_i p^(c_piv - c_i) of
      valuation w - pv >= 0, and the column update S_j,piv += f_i S_j,i
      apply one exact similarity with integral g and f_i to S and K' alike;
      the entry it clears is 0 modulo p^prec, which the invariant absorbs,
      so it is written as 0, and the rest runs over the pivot row's span;
    - swapping two rows and the same two columns permutes the grades too.

    Each term of an m-row minor of diag(p^c) K takes one entry from each of
    m rows, so a_m is known modulo p^(G_m + prec), G_m the sum of the m
    smallest final grades; _hessenberg_charpoly carries the grades through
    the recurrence.

    At precision 1 every nonzero entry of S has valuation 0, so no vp_int
    call is made, and a shift of 0 multiplies by nothing.  With every grade
    0 there, p may be any modulus m > 1: the pivot is the first nonzero row,
    no row drops its grade and every shift c_i - c_piv is 0, so each step
    is a ring operation or the inverse of a unit modulo m, and the result
    reduced modulo each prime factor of m is that prime's.  A pivot that is
    not a unit modulo a composite m makes pow raise ValueError.
    """
    n = len(rows)
    mod = p ** prec
    c = list(grades)
    h = [[x % mod for x in row] for row in rows]
    for k in range(n - 2):
        vals = {r: vp_int(h[r][k], p) if prec > 1 else 0
                for r in range(k + 1, n) if h[r][k]}
        if not vals:
            continue
        piv = min(vals, key=lambda r: (c[r] + vals[r], vals[r], r))
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            c[k + 1], c[piv] = c[piv], c[k + 1]
            vals[k + 1], vals[piv] = vals[piv], vals.get(k + 1)
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        pv, cp = vals[k + 1], c[k + 1]
        ppv = p ** pv
        inv = pow(h[k + 1][k] // ppv, -1, mod)
        end = max(j for j, x in enumerate(h[k + 1]) if x) + 1
        span = h[k + 1][k + 1:end]
        fs = []
        for i in range(k + 2, max(vals) + 1):
            w = vals.get(i)
            if w is None:
                fs.append(0)
                continue
            if w < pv:
                scale = p ** (pv - w)
                h[i][k:] = [x * scale % mod for x in h[i][k:]]
                c[i] -= pv - w
            g = h[i][k] // ppv * inv % mod
            h[i][k] = 0
            h[i][k + 1:end] = [(x - g * y) % mod
                               for x, y in zip(h[i][k + 1:end], span)]
            d = c[i] - cp
            fs.append(g if not d else g * p ** d % mod if d > 0
                      else g // p ** -d)
        if not any(fs):
            continue
        for row in h:
            row[k + 1] = (row[k + 1] + sum(map(mul, fs, row[k + 2:]))) % mod
    residues, precisions = [], []
    for b, g in zip(*_hessenberg_charpoly(h, c, mod,
                                          [p ** e for e in range(prec)], terms)):
        residues.append(b * p ** g if g >= 0 else Fraction(b, p ** -g))
        precisions.append(g + prec)
    return residues, precisions


def _charpoly_mod(a, m):
    """Coefficients [1, c_1, ..., c_n] of det(tI - A) modulo any integer m > 1,
    the graded reduction at precision 1 with every grade 0; None when a
    pivot is not a unit modulo m, which cannot happen for a prime m."""
    try:
        return _charpoly_graded([0] * len(a), a, m, 1, len(a))[0]
    except ValueError:
        return None
