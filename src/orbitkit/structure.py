"""Constructions from subspaces of a Lie algebra.

The coadjoint questions about a subspace h and a covector f have one home
each here: h(f) is `coadjoint_image` and its f-orthogonal h^f = ann(h(f))
is `orth`, both under the one coadjoint contraction
`liealg.coadjoint_rows` of the KKS pairing.  Orbit dimensions and
stabilizers are in `liealg` (`orbit_dim`, `stabilizer`), next to that
kernel, and so are the structure facts (`is_nilpotent`, `derived_series`,
`is_solvable`).  No construction here forms an ad(Z) matrix.

Every algebra built from a subspace comes from one routine, `subquotient`:
a subalgebra h, or h / n for an ideal n of h, with structure constants in
the basis of canonical lifts (the rows of h at pivots that are not pivots of
n), read off in ambient coordinates; `check_subalgebra` runs its closure
check alone.

A function that one module alone uses is defined in that module: the
Killing form, its signature and the ideal check in `mackey`, and the orbit
annihilator, centralizers and the ascending central series in
`polarization`.  What stays here serves two or more modules.  The coadjoint
flow exp(Z) and the restriction of a covector to a subalgebra have no caller
in the package, so they live in the tests' support (`tests/conftest.py`)
and come back with their first caller.  `orbit`, `validate`, `parabolic`
and a `polarize` whose precheck fails never import this module, so an
invocation of any of them compiles none of it.  The conventions are those
of `liealg`.
"""

from __future__ import annotations

from collections.abc import Sequence

from .liealg import Covector, LieAlgebra, coadjoint_rows, kks_pairing
from .linalg import Record, Subspace, annihilator, is_zero_vec


class NotClosedError(ValueError):
    """A subspace expected to be a subalgebra or ideal is not closed."""


def coadjoint_image(alg: LieAlgebra, cov: Covector, sub: Subspace) -> Subspace:
    """The subspace sub(cov) = {W(cov) : W in sub} of the dual.

    W(cov) = B W = -W^T B, so the row combinations W^T B, the
    `coadjoint_rows` of the pairing B, span it.
    """
    if sub.ambient_dim != alg.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    return Subspace(alg.dim, coadjoint_rows(kks_pairing(alg, cov), sub))


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


def subquotient(alg: LieAlgebra, h: Subspace, n: Subspace) -> Subquotient:
    """The quotient h / n of the subalgebra h by an ideal n of h (h itself when n = 0).

    The pivots of n are pivots of h, and the rows of h at the other pivots,
    the lifts, span a complement of n in h: they are 0 at n's pivots and
    independent at their own.  So the lifts followed by n's rows are a basis
    of h, and one bracket per pair of them checks that h is a subalgebra
    (NotClosedError naming the first escaping pair; with n = 0 the basis is
    h's canonical rows) and that [h, n] lies in n.  The brackets of lift
    pairs, projected, are the table.  n not inside h is a ValueError.
    """
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
