"""The exponential precheck, and the `polarize` handler that runs it first.

A simply connected solvable Lie group is exponential exactly when no ad(z)
has a nonzero purely imaginary eigenvalue (Fujiwara-Ludwig, *Harmonic
Analysis on Exponential Solvable Lie Groups*, 2015, ch. 1).  The precheck
is sampled and therefore necessary-only: it certifies solvability exactly
and looks for such an eigenvalue on the basis plus PRECHECK_SAMPLES random
elements drawn from the fixed PRECHECK_SEED, so a report depends on the
algebra alone.  Each element z is tested exactly: with the characteristic
polynomial of ad z at iy written A(y) + i B(y), the eigenvalues on iR* are
the iy for the nonzero real roots y of gcd(A, B), which
`polynomials.real_root_count` counts.

On a nilpotent algebra the block is known without a characteristic
polynomial.  ad(z) maps each term C^k of the lower central series into
C^{k+1}, so ad(z)^m = 0 once C^m = 0: every ad-eigenvalue of every element
is 0 (the easy half of Engel's theorem), no sampled element is a witness,
and the algebra is solvable.  `exponential_precheck` returns that block
(`liealg.is_nilpotent` decides, cached) with neither `polynomials` nor
`random` imported; the block is the one the sampling loop gives.

`polarize_command` is the `polarize` handler.  It reads its points and its
`--strategy`, and runs the precheck before it imports `polarization`, so a
precheck that fails (and is not overridden) compiles no search, no
`conditions` and no `structure`, unless a `chain:FILE` strategy named a file
for `polarization.parse_chain` to read.  ROADMAP item 1's exact decision along a
composition series is to live here too.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .catalog import CatalogEntry, InputError, encode, parse_points, read_json
from .liealg import LieAlgebra, ad_matrix, is_nilpotent, is_solvable
from .linalg import basis_vector

# The sampled elements are fixed, so a precheck report depends on the algebra alone.
PRECHECK_SEED = 0
PRECHECK_SAMPLES = 12


def _precheck_elements(alg: LieAlgebra) -> list:
    """The elements the precheck tests: the basis, then the seeded samples."""
    import random

    rng = random.Random(PRECHECK_SEED)
    elements = [basis_vector(alg.dim, i) for i in range(alg.dim)]
    for _ in range(PRECHECK_SAMPLES):
        elements.append(tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(alg.dim)
        ))
    return elements


def _has_imaginary_eigenvalue(alg: LieAlgebra, z) -> bool:
    """True when ad(z) has a nonzero purely imaginary eigenvalue.

    With p = sum_k c_k x^k the characteristic polynomial, p(iy) = A(y) + i B(y)
    for the real polynomials A(y) = sum_k c_2k (-1)^k y^2k and
    B(y) = sum_k c_2k+1 (-1)^k y^2k+1, so for real y, iy is an eigenvalue
    exactly when y is a root of g = gcd(A, B).  With g's factor y^m (the
    eigenvalue 0) dropped, the answer is whether the rest has a real root:
    one Sturm count, `polynomials.real_root_count`.
    """
    from .polynomials import charpoly, gcd, poly, real_root_count

    p = charpoly(ad_matrix(alg, z))
    g = gcd(*(poly([(-1) ** (k // 2) * c if k % 2 == odd else 0 for k, c in enumerate(p)])
              for odd in (0, 1)))  # A, then B
    return real_root_count(g[next(k for k, c in enumerate(g) if c):]) > 0


def exponential_precheck(alg: LieAlgebra) -> dict:
    """The `precheck` block: solvability plus a sampled no-imaginary-ad-eigenvalue check.

    `eigenvalue_witness` is the first sampled element whose ad has an
    eigenvalue on iR* (else null), and `passed` is whether the algebra is
    solvable and no element is a witness.  A nilpotent algebra takes the
    Engel shortcut of the module docstring.
    """
    nilpotent = is_nilpotent(alg)
    solvable = nilpotent or is_solvable(alg)
    witness = None if nilpotent else next(
        (z for z in _precheck_elements(alg) if _has_imaginary_eigenvalue(alg, z)), None)
    return {
        "is_solvable": solvable,
        "eigenvalue_witness": witness,
        "elements_checked": alg.dim + PRECHECK_SAMPLES,
        "passed": solvable and witness is None,
        "mode": "sampled",
    }


def polarize_command(entry: CatalogEntry, args) -> dict:
    """The `polarize` payload: the precheck block and a polarization per `--point`."""
    alg = entry.algebra
    points = parse_points(alg, args.point)
    chain = None
    if args.strategy not in (None, "auto"):
        if not args.strategy.startswith("chain:"):
            raise InputError("strategy must be `auto` or `chain:<file>`")
        path = args.strategy.split(":", 1)[1]
        what = f"bad chain file {path}"
        from .polarization import parse_chain
        chain = parse_chain(alg, read_json(path, what), what)

    pre = exponential_precheck(alg)
    if not pre["passed"] and not args.override_precheck:
        raise InputError(
            "exponential precheck failed; rerun with --override-precheck to force: "
            + json.dumps(pre, sort_keys=True, default=encode)
        )
    from .polarization import pukanszky_polarization

    return {"precheck": pre,
            "results": [{"point": cov, **pukanszky_polarization(alg, cov, chain=chain)}
                        for cov in points]}
