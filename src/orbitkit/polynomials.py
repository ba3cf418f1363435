"""Univariate polynomial arithmetic over the rationals.

Polynomials are coefficient tuples in increasing degree, always with exact
Fraction entries and no trailing zeros.  This carries the characteristic
polynomial, gcd/squarefree machinery behind the exact Jordan splitting,
the factors with roots in Q(i) that the hyperbolic/elliptic split and the
grading need, and Sturm sequences for counting real roots of the
purely-imaginary-eigenvalue test.

`charpoly` reduces the matrix to upper Hessenberg form by similarity over Q
and reads the polynomial off the Hessenberg recurrence (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.2.9), with no matrix
product.  `qi_factors` finds the roots in Q(i) of a squarefree polynomial
p-adically: roots mod the least suitable prime p = 1 (mod 4), Hensel
lifting past 2 B^2 with B = 2 ceil(||f||_2) the Mignotte bound on the
coefficients of an integer factor of degree <= 2, rational reconstruction,
and exact division as the certificate.

`symmetric_signature` reads a symmetric matrix's signature off chi =
`charpoly`.  Its spectrum is real, so Descartes' rule of signs is exact: the
sign variations of chi(x) and of chi(-x) count the positive and the negative
eigenvalues with multiplicity, and (being diagonalizable) its rank is their sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import Matrix, ONE, ZERO, frac


def poly(coeffs: Sequence) -> tuple:
    """Normalize a coefficient sequence (lowest degree first)."""
    c = [frac(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def deg(p: tuple) -> int:
    return len(p) - 1  # deg(0) = -1 by convention


def is_zero(p: tuple) -> bool:
    return not p


def add(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO) for i in range(n)])


def sub(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else ZERO) - (q[i] if i < len(q) else ZERO) for i in range(n)])


def mul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def scale(c, p: tuple) -> tuple:
    c = frac(c)
    return poly([c * a for a in p])


def divmod_poly(p: tuple, q: tuple) -> tuple[tuple, tuple]:
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quot = [ZERO] * max(len(p) - len(q) + 1, 1)
    dq, lead = deg(q), q[-1]
    while len(r) - 1 >= dq and any(x != 0 for x in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dq:
            break
        shift = len(r) - 1 - dq
        f = r[-1] / lead
        quot[shift] = f
        for i, b in enumerate(q):
            r[shift + i] -= f * b
    return poly(quot), poly(r)


def monic(p: tuple) -> tuple:
    if is_zero(p):
        return p
    return scale(ONE / p[-1], p)


def gcd(p: tuple, q: tuple) -> tuple:
    """Monic greatest common divisor."""
    a, b = p, q
    while not is_zero(b):
        a, b = b, divmod_poly(a, b)[1]
    return monic(a)


def xgcd(p: tuple, q: tuple) -> tuple[tuple, tuple, tuple]:
    """(g, u, v) with u*p + v*q = g, g monic."""
    a, b = p, q
    ua, va = poly([1]), ()
    ub, vb = (), poly([1])
    while not is_zero(b):
        qq, r = divmod_poly(a, b)
        a, b = b, r
        ua, ub = ub, sub(ua, mul(qq, ub))
        va, vb = vb, sub(va, mul(qq, vb))
    if is_zero(a):
        return (), (), ()
    lead = a[-1]
    return monic(a), scale(ONE / lead, ua), scale(ONE / lead, va)


def derivative(p: tuple) -> tuple:
    return poly([i * a for i, a in enumerate(p)][1:])


def squarefree_part(p: tuple) -> tuple:
    """p / gcd(p, p'), monic: same roots without multiplicity."""
    if deg(p) <= 0:
        return monic(p)
    g = gcd(p, derivative(p))
    return monic(divmod_poly(p, g)[0])


def eval_at(p: tuple, x) -> Fraction:
    x = frac(x)
    acc = ZERO
    for a in reversed(p):
        acc = acc * x + a
    return acc


def eval_matrix(p: tuple, m: Matrix) -> Matrix:
    """Horner evaluation of p at a square matrix."""
    n = m.rows
    acc = Matrix.zeros(n, n)
    ident = Matrix.identity(n)
    for a in reversed(p):
        acc = acc * m + ident.scale(a)
    return acc


def compose_mod(p: tuple, q: tuple, modulus: tuple) -> tuple:
    """p(q) reduced modulo `modulus`."""
    acc = ()
    for a in reversed(p):
        acc = add(mul(acc, q), poly([a]))
        acc = divmod_poly(acc, modulus)[1]
    return acc


def invert_mod(p: tuple, modulus: tuple) -> tuple:
    g, u, _ = xgcd(p, modulus)
    if deg(g) != 0:
        raise ValueError("element is not invertible modulo the given polynomial")
    return divmod_poly(u, modulus)[1]


def to_string(p: tuple, var: str = "x") -> str:
    """Human-readable form, highest degree first."""
    if is_zero(p):
        return "0"
    parts = []
    for i in range(deg(p), -1, -1):
        a = p[i]
        if a == 0:
            continue
        if i == 0:
            term = str(abs(a))
        else:
            coeff = "" if abs(a) == 1 else f"{abs(a)}*"
            term = f"{coeff}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(term if a > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if a > 0 else f"- {term}")
    return " ".join(parts)


def charpoly(m: Matrix) -> tuple:
    """Monic characteristic polynomial by Hessenberg reduction (Cohen, Alg. 2.2.9).

    A copy of the entries is brought to upper Hessenberg form H by
    similarity over Q: for each column, the first nonzero entry at or below
    the subdiagonal is swapped onto it (rows and columns alike), the entries
    under it are cleared by row operations, and the inverse column operations
    keep the similarity.  The characteristic polynomial of H then follows from
    the recurrence p_0 = 1,

        p_j = (x - h_jj) p_{j-1} - sum_{i<j} h_ij (prod_{k=i+1..j} h_{k,k-1}) p_{i-1},

    and chi = p_n.  O(n^3) field operations and no matrix product.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    h = [list(row) for row in m.entries]
    for c in range(n - 2):
        piv = next((i for i in range(c + 1, n) if h[i][c] != 0), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for row in h:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        top = h[c + 1]
        inv = ONE / top[c]
        for i in range(c + 2, n):
            u = h[i][c] * inv
            if u == 0:
                continue
            ri = h[i]
            for j in range(c, n):          # row i -= u * row c+1 (zero left of c)
                ri[j] -= u * top[j]
            for row in h:                  # column c+1 += u * column i
                row[c + 1] += u * row[i]
    ps = [[ONE]]
    for j in range(n):
        prev = ps[j]
        p = [ZERO] + prev                  # x * p_{j-1}
        for k, a in enumerate(prev):
            p[k] -= h[j][j] * a
        t = ONE
        for i in range(j - 1, -1, -1):
            t *= h[i + 1][i]
            if t == 0:
                break
            c = h[i][j] * t
            if c != 0:
                for k, a in enumerate(ps[i]):
                    p[k] -= c * a
        ps.append(p)
    return poly(ps[n])


# -- linear and Gaussian quadratic factors, p-adically ------------------------


def _trim_mod(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_is_one_mod(f: list[int], g: list[int], p: int) -> bool:
    """Whether gcd(f, g) is a nonzero constant in F_p[x]."""
    a = _trim_mod([x % p for x in f])
    b = _trim_mod([x % p for x in g])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for k, y in enumerate(b):
                a[shift + k] = (a[shift + k] - q * y) % p
            _trim_mod(a)
        a, b = b, a
    return len(a) == 1


def _eval_mod(f: list[int], x: int, m: int) -> int:
    acc = 0
    for a in reversed(f):
        acc = (acc * x + a) % m
    return acc


def _primes_one_mod_four():
    p = 5
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 4


def _reconstruct(r: int, m: int, bound: int) -> Optional[Fraction]:
    """The u/v with u = v r (mod m), |u| <= bound, 0 < v <= bound, if any.

    Unique when 2 bound^2 < m (Wang's rational reconstruction).
    """
    r0, r1, s0, s1 = m, r % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def qi_factors(mu: tuple) -> list[tuple]:
    """The monic factors of a squarefree rational mu with roots in Q(i).

    Returns every linear factor x - a of mu and every monic quadratic
    x^2 - s x + t dividing mu whose roots a +- b i have b a nonzero
    rational.  The product of the result is mu (up to its leading
    coefficient) exactly when the whole spectrum lies in Q(i).

    mu is made a primitive integer polynomial f, a root at 0 is stripped,
    and p is the least prime p = 1 (mod 4) not dividing lc(f) with
    gcd(f, f') = 1 mod p.  As i lies in Z_p, every root in Q(i) is p-adic
    and reduces to a simple root of f mod p.  The roots mod p are
    found by evaluating f at every residue and Hensel-lifted to a modulus
    M > 2 B^2, where B = 2 ceil(||f||_2) bounds the coefficients of any
    integer factor of f of degree <= 2 (Mignotte).  A lifted root is
    rationally reconstructed as a linear candidate; a pair of lifted roots
    rho, sigma gives s = rho + sigma and t = rho sigma, kept when s^2 < 4t
    and 4t - s^2 is a rational square.  Each candidate is accepted only
    after exact division of the remaining cofactor by it, so a wrong
    reconstruction is never returned (Loos, SIAM J. Comput. 12, 1983).
    """
    rest = monic(poly(mu))
    if not rest:
        raise ValueError("factors of the zero polynomial")
    if deg(gcd(rest, derivative(rest))) > 0:
        raise ValueError("qi_factors needs a squarefree polynomial")  # no good prime exists
    found = []
    if rest[0] == 0:
        found.append(poly([0, 1]))
        rest = rest[1:]
    if deg(rest) <= 0:
        return found
    den = math.lcm(*(a.denominator for a in rest))
    f = [int(a * den) for a in rest]                       # lc(f) = den > 0
    content = math.gcd(*f)
    f = [a // content for a in f]
    df = [k * a for k, a in enumerate(f)][1:]
    for p in _primes_one_mod_four():
        if f[-1] % p and _gcd_is_one_mod(f, df, p):
            break
    bound = 2 * (math.isqrt(sum(a * a for a in f) - 1) + 1)     # 2 ceil(||f||_2)
    roots = [r for r in range(p) if _eval_mod(f, r, p) == 0]
    m = p
    while m <= 2 * bound * bound:
        m *= m
        roots = [(r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
                 for r in roots]

    def candidates():
        for r in roots:
            a = _reconstruct(r, m, bound)
            if a is not None:
                yield {r}, poly([-a, 1])
        for i, rho in enumerate(roots):
            for sigma in roots[i + 1:]:
                s = _reconstruct(rho + sigma, m, bound)
                t = _reconstruct(rho * sigma, m, bound)
                if (s is not None and t is not None and s * s < 4 * t
                        and is_rational_square(4 * t - s * s) is not None):
                    yield {rho, sigma}, poly([t, -s, 1])

    used = set()
    for lifted, g in candidates():
        if used.isdisjoint(lifted):
            quot, rem = divmod_poly(rest, g)
            if not rem:
                found.append(g)
                rest = quot
                used |= lifted
    return found


def strip_zero_roots(p: tuple) -> tuple[int, tuple]:
    """Write p = x^k * q with q(0) != 0; return (k, q)."""
    k = 0
    q = list(p)
    while q and q[0] == 0:
        q.pop(0)
        k += 1
    return k, poly(q)


def even_part(p: tuple) -> Optional[tuple]:
    """D with p(x) = D(x^2), or None if p has an odd-degree term."""
    if any(a != 0 for i, a in enumerate(p) if i % 2 == 1):
        return None
    return poly([p[i] for i in range(0, len(p), 2)])


def sturm_sequence(p: tuple) -> list[tuple]:
    chain = [poly(p), derivative(p)]
    while not is_zero(chain[-1]) and deg(chain[-1]) > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if is_zero(rem):
            break
        chain.append(scale(-1, rem))
    return [c for c in chain if not is_zero(c)]


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_at_minus_inf(p: tuple) -> Fraction:
    s = p[-1] * (ONE if deg(p) % 2 == 0 else -ONE)
    return s


def count_negative_roots(p: tuple) -> int:
    """Number of distinct real roots of p in (-inf, 0).

    Requires p(0) != 0 so the Sturm count over (-inf, 0] equals the open
    interval count.
    """
    if is_zero(p):
        raise ValueError("zero polynomial")
    if eval_at(p, 0) == 0:
        raise ValueError("polynomial vanishes at 0; strip zero roots first")
    if deg(p) == 0:
        return 0
    chain = sturm_sequence(p)
    at_minus_inf = [_sign_at_minus_inf(c) for c in chain]
    at_zero = [eval_at(c, 0) for c in chain]
    return _sign_variations(at_minus_inf) - _sign_variations(at_zero)


def symmetric_signature(m: Matrix) -> tuple[int, int, int]:
    """(positives, negatives, rank) of a symmetric rational matrix; see the module docstring."""
    if m.rows != m.cols:
        raise ValueError("signature of non-square matrix")
    a = m.entries
    if any(a[i][j] != a[j][i] for i in range(m.rows) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    chi = charpoly(m)
    pos = _sign_variations(chi)
    neg = _sign_variations([-c if k % 2 else c for k, c in enumerate(chi)])  # chi(-x)
    return pos, neg, pos + neg


def is_rational_square(r: Fraction) -> Optional[Fraction]:
    """The exact nonnegative square root of r if one exists, else None."""
    r = frac(r)
    if r < 0:
        return None
    sn = math.isqrt(r.numerator)
    sd = math.isqrt(r.denominator)
    if sn * sn == r.numerator and sd * sd == r.denominator:
        return Fraction(sn, sd)
    return None
