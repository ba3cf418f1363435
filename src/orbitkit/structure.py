"""Constructions from subspaces of a Lie algebra, and its derived series.

The coadjoint questions about a subspace h and a covector f have one home
each here: h(f) is `coadjoint_image` and its f-orthogonal h^f = ann(h(f))
is `orth`, both under the one coadjoint kernel `liealg.pairing`, which the
flow `exp_coadjoint` walks too.  Orbit dimensions, stabilizers and ad(Z)
are in `liealg` (`orbit_dim`, `stabilizer`, `ad_matrix`), next to that
kernel.

Every algebra built from a subspace comes from one routine, `subquotient`:
a subalgebra h, or h / n for an ideal n of h, with structure constants in
the basis of canonical lifts (the rows of h at pivots that are not pivots of
n), read off in ambient coordinates; `restrict` takes a covector to a
subalgebra through it, the reference route that the tests compare
`liealg.orbit_dim` on a subalgebra against, and `check_subalgebra` runs its
closure check alone.  `derived_series` and `is_solvable` are computed on
demand; `liealg.is_nilpotent` is the one structure fact that `orbit` reads.

A function that one module alone uses is defined in that module: the
Killing form, its signature and the ideal test in `mackey`, and the orbit
annihilator, centralizers and the ascending central series in
`polarization`.  What stays here serves two or more modules, apart from
`exp_coadjoint` and `restrict`, which no module calls: the flow that
witness checks are to walk and the tests' reference route.  `orbit`,
`validate` and `parabolic` never import this module, so an invocation of
any of them compiles none of it.  The conventions are those of `liealg`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .liealg import (
    Covector,
    LieAlgebra,
    bracket_span,
    kks_pairing,
    pairing,
    stable_series,
)
from .linalg import Record, Subspace, ZERO, annihilator, combine, is_zero_vec


class NotClosedError(ValueError):
    """A subspace expected to be a subalgebra or ideal is not closed."""


def coadjoint_image(alg: LieAlgebra, cov: Covector, sub: Subspace) -> Subspace:
    """The subspace sub(cov) = {W(cov) : W in sub} of the dual.

    W(cov) = B W = -W^T B, so the row combinations W^T B span it.
    """
    if sub.ambient_dim != alg.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    rows = kks_pairing(alg, cov).entries
    return Subspace(alg.dim, [combine(w, rows, alg.dim) for w in sub.rows])


def exp_coadjoint(alg: LieAlgebra, z: Sequence, cov: Covector) -> Covector:
    """Coadjoint flow exp(Z) applied to a covector, as an exact finite sum.

    exp(Z)(cov) = sum_k (-1)^k/k! t_k with t_0 = cov, t_{k+1} = t_k . ad(Z) =
    `combine(z, pairing(alg, t_k))`, up to the first t_k = 0.  The t_k span
    cov's Krylov space under ad(Z), of dimension d <= dim, and the series ends
    (at t_d) iff ad(Z) is nilpotent there; dim + 1 nonzero terms are refused.
    """
    n, z = alg.dim, alg.coords(z)
    total, term, coeff = (ZERO,) * n, cov.coords, Fraction(1)  # coeff = (-1)^k / k!
    for k in range(1, n + 2):
        if not any(term):
            return Covector(alg, total)
        total = combine((1, coeff), (total, term), n)
        term, coeff = combine(z, pairing(alg, term), n), -coeff / k
    raise ValueError("the series of exp(Z) at cov never ends; exact exponential refused")


def orth(alg: LieAlgebra, h: Subspace, cov: Covector) -> Subspace:
    """h^cov = {Z : <cov, [W, Z]> = 0 for all W in h} = ann(h(cov)).

    orth(full, cov) is the stabilizer of cov; orth(0, cov) is everything.
    """
    return annihilator(coadjoint_image(alg, cov, h))


class Subquotient(Record):
    """h / n for an ideal n of a subalgebra h, kept in the algebra's coordinates.

    Class k is represented by lifts[k], the canonical row of h at the k-th
    pivot of h that is not a pivot of n; a vector v of h lies in the class
    whose coordinates are the entries of n.reduce(v) at those pivots.
    """
    algebra: LieAlgebra  # structure constants of h / n in the basis of classes
    lifts: tuple


def _closed_brackets(alg: LieAlgebra, rows: Sequence, space: Subspace):
    """Yield ((a, b), [rows[a], rows[b]]) for a < b.

    Raises NotClosedError at the first bracket that leaves space.
    """
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            br = alg.bracket_exact(rows[a], rows[b])
            if not space.contains(br):
                raise NotClosedError(
                    f"subspace is not a subalgebra: bracket of basis rows {a},{b} escapes"
                )
            yield (a, b), br


def check_subalgebra(alg: LieAlgebra, sub: Subspace) -> None:
    """Raise NotClosedError unless sub is closed under the bracket; builds no algebra."""
    for _ in _closed_brackets(alg, sub.rows, sub):
        pass


def subquotient(alg: LieAlgebra, h: Subspace, n: Subspace | None = None) -> Subquotient:
    """The subalgebra h, or its quotient h / n by an ideal n of h (n = 0 by default).

    The pivots of n are pivots of h, and the rows of h at the other pivots,
    the lifts, span a complement of n in h: they are 0 at n's pivots and
    independent at their own.  So the lifts followed by n's rows are a basis
    of h, and one bracket per pair of them checks that h is a subalgebra
    (NotClosedError naming the first escaping pair; with n = 0 the basis is
    h's canonical rows) and that [h, n] lies in n.  The brackets of lift
    pairs, projected, are the table.  n not inside h is a ValueError.
    """
    n = Subspace.zero(alg.dim) if n is None else n
    if h.missing_row(n) is not None:
        raise ValueError("the ideal does not lie inside the subalgebra")
    kept = [(row, p) for row, p in zip(h.rows, h.pivots) if p not in n.pivots]
    lifts, columns = tuple(r for r, _ in kept), tuple(p for _, p in kept)
    m = len(lifts)
    brackets = {}
    for (a, b), br in _closed_brackets(alg, lifts + n.rows, h):
        rep = n.reduce(br)
        if b < m:
            brackets[(a, b)] = {k: rep[j] for k, j in enumerate(columns)}
        elif not is_zero_vec(rep):
            raise NotClosedError("subspace is not an ideal of the subalgebra")
    inner = LieAlgebra.from_brackets([f"s{k}" for k in range(m)], brackets, f"{alg.name}-sub")
    return Subquotient(inner, lifts)


def restrict(alg: LieAlgebra, cov: Covector, sub: Subspace) -> Covector:
    """cov restricted to the subalgebra sub, a covector of sub in its canonical basis.

    No report builds it: `liealg.orbit_dim(alg, cov, sub)` reads the same rank in g."""
    return Covector(subquotient(alg, sub).algebra, tuple(cov.pair(row) for row in sub.rows))


@lru_cache(maxsize=None)
def derived_series(alg: LieAlgebra) -> tuple:
    """g = D^0 > D^1 = [g, g] > ... > D^{k+1} = [D^k, D^k], until a term is 0 or repeats."""
    return stable_series(Subspace.full(alg.dim), lambda d: bracket_span(alg, d, d))


def is_solvable(alg: LieAlgebra) -> bool:
    return derived_series(alg)[-1].dim == 0
