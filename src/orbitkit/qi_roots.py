"""The factors with roots in Q(i) of a rational polynomial, found p-adically.

`qi_factors` finds the roots in Q(i) of a squarefree polynomial: roots mod
the least suitable prime p = 1 (mod 4), Hensel lifting past 2 B^2 with
B = 2 ceil(||f||_2) the Mignotte bound on the coefficients of an integer
factor of degree <= 2, rational reconstruction, and exact division as the
certificate.  `hyperbolic_part` and the grading of `reductive` are its only
callers, so no other subcommand compiles this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import deg, derivative, divmod_poly, gcd, is_rational_square, monic, poly


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


def _reconstruct(r: int, m: int, bound: int) -> Fraction | None:
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
