"""Univariate polynomial arithmetic over the rationals.

Polynomials are coefficient tuples in increasing degree, always with exact
Fraction entries and no trailing zeros.  This carries the characteristic
polynomial and the gcd/squarefree/modular-inverse machinery behind the
exact hyperbolic part of `reductive.hyperbolic_part`, and `real_root_count`,
the number of distinct real roots by Sturm's theorem, which the exponential
precheck's imaginary-eigenvalue test reads.  The factors with roots in Q(i)
that the hyperbolic part needs are in `qi_roots`.  Only `parabolic` and
`polarize` load this module: `classify` reads the Killing signature by
congruence (`mackey.symmetric_signature`), not off a characteristic
polynomial.

`charpoly` reduces the matrix to upper Hessenberg form by similarity over Q
and reads the polynomial off the Hessenberg recurrence (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.2.9), with no matrix
product.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import zip_longest

from .linalg import ONE, ZERO, combine, frac, vec


def poly(coeffs: Sequence) -> tuple:
    """Normalize a coefficient sequence (lowest degree first)."""
    c = list(vec(coeffs))
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def deg(p: tuple) -> int:
    return len(p) - 1  # deg(0) = -1 by convention


def is_zero(p: tuple) -> bool:
    return not p


def add(p: tuple, q: tuple) -> tuple:
    return poly([a + b for a, b in zip_longest(p, q, fillvalue=ZERO)])


def sub(p: tuple, q: tuple) -> tuple:
    return poly([a - b for a, b in zip_longest(p, q, fillvalue=ZERO)])


def mul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
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
    while len(r) - 1 >= dq and any(r):
        while r and not r[-1]:
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


def eval_matrix(p: tuple, m: Sequence[Sequence]) -> tuple:
    """Horner evaluation of p at a square matrix, given by its rows: acc <- acc m + a,
    row by row, row i of acc m being `combine` of m's rows with acc's row i as
    coefficients.  The package's one matrix product."""
    n = len(m)
    acc = [(ZERO,) * n] * n
    for a in reversed(p):
        acc = [combine(row, m, n) for row in acc]
        if a:
            acc = [row[:i] + (row[i] + a,) + row[i + 1:] for i, row in enumerate(acc)]
    return tuple(acc)


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
        if not a:
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


def charpoly(m: Sequence[Sequence]) -> tuple:
    """Monic characteristic polynomial by Hessenberg reduction (Cohen, Alg. 2.2.9).

    A copy of the entries is brought to upper Hessenberg form H by
    similarity over Q: for each column, the first nonzero entry at or below
    the subdiagonal is swapped onto it (rows and columns alike), the entries
    under it are cleared by row operations, and the inverse column operations
    keep the similarity.  The characteristic polynomial of H then follows from
    the recurrence p_0 = 1,

        p_j = (x - h_jj) p_{j-1} - sum_{i<j} h_ij (prod_{k=i+1..j} h_{k,k-1}) p_{i-1},

    and chi = p_n.  O(n^3) field operations and no matrix product; as in
    `linalg`, a zero is found by truthiness and no term with a zero factor
    is formed.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("characteristic polynomial of non-square matrix")
    h = [list(row) for row in m]
    for c in range(n - 2):
        piv = next((i for i in range(c + 1, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for row in h:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        top = h[c + 1]
        inv = ONE / top[c]
        for i in range(c + 2, n):
            ri = h[i]
            if not ri[c]:
                continue
            u = ri[c] * inv
            for j in range(c, n):          # row i -= u * row c+1 (zero left of c)
                if top[j]:
                    ri[j] -= u * top[j]
            for row in h:                  # column c+1 += u * column i
                if row[i]:
                    row[c + 1] += u * row[i]
    ps = [[ONE]]
    for j in range(n):
        prev = ps[j]
        p = [ZERO] + prev                  # x * p_{j-1}
        d = h[j][j]
        if d:
            for k, a in enumerate(prev):
                if a:
                    p[k] -= d * a
        t = ONE
        for i in range(j - 1, -1, -1):
            t *= h[i + 1][i]
            if not t:
                break
            if h[i][j]:
                c = h[i][j] * t
                for k, a in enumerate(ps[i]):
                    if a:
                        p[k] -= c * a
        ps.append(p)
    return poly(ps[n])


def sign_variations(values) -> int:
    """Sign changes along a sequence of rationals, its zeros skipped."""
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_sequence(p: tuple) -> list[tuple]:
    """p, p', then the negated remainders -rem(p_{k-1}, p_k) up to the last nonzero one."""
    chain = [p, derivative(p)]
    while not is_zero(chain[-1]):
        chain.append(scale(-1, divmod_poly(chain[-2], chain[-1])[1]))
    return chain[:-1]


def real_root_count(p: tuple) -> int:
    """Number of distinct real roots of a nonzero p, by Sturm's theorem.

    It is V(-inf) - V(+inf), V the sign variations along `sturm_sequence(p)`,
    whose signs at +-inf are those of the leading coefficients, times
    (-1)^deg at -inf (Basu-Pollack-Roy, *Algorithms in Real Algebraic
    Geometry*, 2006, ch. 2).
    """
    if is_zero(p):
        raise ValueError("the zero polynomial has no finite real root count")
    chain = sturm_sequence(p)
    return (sign_variations([-c[-1] if deg(c) % 2 else c[-1] for c in chain])
            - sign_variations([c[-1] for c in chain]))


def is_rational_square(r: Fraction) -> Fraction | None:
    """The exact nonnegative square root of r if one exists, else None."""
    r = frac(r)
    if r < 0:
        return None
    sn = math.isqrt(r.numerator)
    sd = math.isqrt(r.denominator)
    if sn * sn == r.numerator and sd * sd == r.denominator:
        return Fraction(sn, sd)
    return None
