"""Univariate polynomial arithmetic over the rationals.

Polynomials are coefficient tuples in increasing degree, always with exact
Fraction entries and no trailing zeros.  This carries the characteristic
polynomial, gcd/squarefree machinery behind the exact Jordan splitting, and
Sturm sequences for counting real roots of the purely-imaginary-eigenvalue
test.
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
    """Monic characteristic polynomial via the Faddeev-LeVerrier recurrence."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        c = -mk.trace() / k
        coeffs[n - k] = c
        mk = mk + Matrix.identity(n).scale(c)
    return poly(coeffs)


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
