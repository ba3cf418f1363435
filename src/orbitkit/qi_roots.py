"""The factors with roots in Q(i) of a rational polynomial, found p-adically.

`qi_factors` splits the squarefree part of a polynomial into its factors
with roots in Q(i) and the monic cofactor they leave: roots mod the least
suitable prime p = 1 (mod 4), Hensel lifting past 2 B^2 with
B = 2 ceil(||f||_2) the Mignotte bound on the coefficients of an integer
factor of degree <= 2, rational reconstruction, and exact division as the
certificate.  `reductive.hyperbolic_part` is its only caller, so no other
subcommand compiles this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import divmod_poly, poly, squarefree_part


def is_rational_square(r: Fraction) -> Fraction | None:
    """The exact nonnegative square root of r if one exists, else None."""
    if r < 0:
        return None
    sn = math.isqrt(r.numerator)
    sd = math.isqrt(r.denominator)
    if sn * sn == r.numerator and sd * sd == r.denominator:
        return Fraction(sn, sd)
    return None


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


def qi_factors(chi: tuple) -> tuple[list[tuple], tuple]:
    """The monic factors with roots in Q(i) of a nonzero rational chi, and the
    monic cofactor they leave in its squarefree part.

    The factors are every linear factor x - a of chi and every monic quadratic
    x^2 - s x + t dividing chi whose roots a +- b i have b a nonzero rational,
    each once.  Their product times the cofactor is the squarefree part mu
    of chi, so the cofactor has no root in Q(i), and it is (1,) exactly when
    the whole spectrum lies in Q(i).

    mu is made a primitive integer polynomial f, and p is the least prime
    p = 1 (mod 4) not dividing lc(f) at which every root r of f mod p is
    simple, f'(r) != 0 mod p.  Such a p finds every root in Q(i): as i lies
    in Z_p and lc(f) is a unit there, a root in Q(i) is a p-adic integer and
    reduces to a root of f mod p, and two roots that reduced to the same r
    would make r a multiple root of f mod p.  So the roots in Q(i) reduce to
    distinct simple roots mod p, each the start of one Hensel lift.  Only the
    primes dividing disc(f) lc(f) give f mod p a multiple root, and
    disc(f) != 0 as f is squarefree, so the search ends.
    The roots mod p are found by evaluating f at every residue and
    Hensel-lifted to a modulus M > 2 B^2, where B = 2 ceil(||f||_2) bounds
    the coefficients of any integer factor of f of degree <= 2 (Mignotte).
    A lifted root is rationally reconstructed as a linear candidate; a pair
    of lifted roots rho, sigma gives s = rho + sigma and t = rho sigma, kept
    when s^2 < 4t and 4t - s^2 is a rational square.  Each candidate is
    accepted only after exact division of the remaining cofactor by it, so a
    wrong reconstruction is never returned (Loos, SIAM J. Comput. 12, 1983).
    """
    rest = squarefree_part(poly(chi))
    if not rest:
        raise ValueError("factors of the zero polynomial")
    den = math.lcm(*(a.denominator for a in rest))
    f = [int(a * den) for a in rest]                       # lc(f) = den > 0
    content = math.gcd(*f)
    f = [a // content for a in f]
    df = [k * a for k, a in enumerate(f)][1:]
    for p in _primes_one_mod_four():
        if f[-1] % p:
            roots = [r for r in range(p) if _eval_mod(f, r, p) == 0]
            if all(_eval_mod(df, r, p) for r in roots):
                break
    bound = 2 * (math.isqrt(sum(a * a for a in f) - 1) + 1)     # 2 ceil(||f||_2)
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

    found, used = [], set()
    for lifted, g in candidates():
        if used.isdisjoint(lifted):
            quot, rem = divmod_poly(rest, g)
            if not rem:
                found.append(g)
                rest = quot
                used |= lifted
    return found, rest
