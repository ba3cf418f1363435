"""Constructions from subspaces of a Lie algebra, and its structure series.

The coadjoint questions about a subspace h and a covector f have one home
each here: h(f) is `coadjoint_image`, its f-orthogonal h^f = ann(h(f)) is
`orth`, every orbit dimension (of f, or of f restricted to h) is
`orbit_dim`, the rank of the pairing restricted to h's canonical rows, and
the largest ideal of a subalgebra h inside ker f is `orbit_annihilator`, in
g.  It and the ideal generated by a subspace are `linalg.invariant_closure`
worklists, the former in g* under the one coadjoint kernel `liealg.pairing`,
which the flow `exp_coadjoint` walks too; `ad_matrix` is built only for its
spectrum or its eigenspaces.

Every algebra built from a subspace comes from one routine, `subquotient`:
a subalgebra h, or h / n for an ideal n of h, with structure constants in
the basis of canonical lifts (the rows of h at pivots that are not pivots of
n), read off in ambient coordinates; `restrict` takes a covector to a
subalgebra through it, the reference route that the tests compare
`orbit_dim` on a subalgebra against, and `check_subalgebra` runs its
closure check alone.

Structure facts are computed on demand, one function each: `derived_series`,
`is_solvable`, `killing_form` and `ascending_central_series` (one
`centralizer` per term); `liealg.is_nilpotent` is the one that `orbit` reads.

`orbit` and `validate` never import this module, so an invocation of either
compiles none of it.  The conventions are those of `liealg`.
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
    validate,
)
from .linalg import (
    Matrix,
    Record,
    Subspace,
    ZERO,
    annihilator,
    combine,
    invariant_closure,
    is_zero_vec,
    rank_kernel,
    vec_dot,
)


class NotClosedError(ValueError):
    """A subspace expected to be a subalgebra or ideal is not closed."""


def ad_matrix(alg: LieAlgebra, z: Sequence) -> Matrix:
    """Matrix of ad(Z); column j holds the coordinates of [Z, e_j].

    Built only to read its eigenspaces, in `reductive.grade`, and its
    spectrum, in `polarization._has_imaginary_eigenvalue`."""
    n = alg.dim
    m = [[ZERO] * n for _ in range(n)]
    for a, plane in zip(alg.coords(z), alg.nonzeros):
        if not a:
            continue
        for j, entries in enumerate(plane):
            for k, c in entries:
                m[k][j] += a * c
    return Matrix._of(tuple(map(tuple, m)), n)


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


def orbit_dim(alg: LieAlgebra, cov: Covector, sub: Subspace | None = None) -> int:
    """Dimension of the orbit of cov, or of cov restricted to the subalgebra sub.

    The rank of W B W^T over the canonical rows W of sub (all of g when sub
    is None), B the pairing of cov.  W B W^T is the pairing of the restricted
    covector in sub's RREF basis, so no subalgebra is built.  An algebra that
    fails validation is refused.
    """
    if not validate(alg)["ok"]:
        raise ValueError("algebra fails validation; see validate()")
    b = kks_pairing(alg, cov)
    if sub is not None:
        if sub.ambient_dim != alg.dim:
            raise ValueError("subspace ambient dimension does not match algebra")
        wb = [combine(w, b.entries, alg.dim) for w in sub.rows]
        b = Matrix._of(tuple(tuple(vec_dot(r, w) for w in sub.rows) for r in wb), sub.dim)
    return len(b.rref()[1])


def stabilizer(alg: LieAlgebra, cov: Covector) -> Subspace:
    return rank_kernel(kks_pairing(alg, cov))[1]


def orbit_annihilator(alg: LieAlgebra, cov: Covector, sub: Subspace | None = None) -> Subspace:
    """The largest ideal of the subalgebra sub (g when None) inside ker cov: ann(V), V
    the `invariant_closure` of ann(sub) and cov under xi -> xi . ad(W), W a row of sub.

    ann(V) lies in sub and ker cov, and xi([W, Z]) = (xi . ad(W))(Z) = 0 for xi in
    V makes it an ideal; an ideal of sub inside ker cov is killed by ann(sub) and
    every cov . ad(W_1) ... ad(W_k), so by V.  For sub = g, V is the orbit's span.
    """
    n = alg.dim
    sub = Subspace.full(n) if sub is None else sub

    def images(xi):
        rows = pairing(alg, xi)  # row i is xi . ad(e_i)
        return filter(any, rows if sub.dim == n else (combine(w, rows, n) for w in sub.rows))

    return annihilator(invariant_closure(n, annihilator(sub).rows + (cov.coords,), images))


class Subquotient(Record):
    """h / n for an ideal n of a subalgebra h, kept in the algebra's coordinates.

    Class k is represented by lifts[k], the canonical row of h at columns[k],
    a pivot of h that is not a pivot of n; the class of a vector v of h has
    the entries of n.reduce(v) at those columns as its coordinates.
    """
    algebra: LieAlgebra  # structure constants of h / n in the basis of classes
    n: Subspace
    lifts: tuple
    columns: tuple

    def project(self, v: Sequence) -> tuple:
        """Class coordinates of a vector v of h."""
        rep = self.n.reduce(v)
        return tuple(rep[j] for j in self.columns)


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
    return Subquotient(inner, n, lifts, columns)


def restrict(alg: LieAlgebra, cov: Covector, sub: Subspace) -> Covector:
    """cov restricted to the subalgebra sub, a covector of sub in its canonical basis.

    No report builds it: `orbit_dim(alg, cov, sub)` reads the same rank in g."""
    return Covector(subquotient(alg, sub).algebra, tuple(cov.pair(row) for row in sub.rows))


def is_ideal(alg: LieAlgebra, sub: Subspace) -> bool:
    return sub.contains_subspace(bracket_span(alg, Subspace.full(alg.dim), sub))


def ideal_closure(alg: LieAlgebra, sub: Subspace) -> Subspace:
    """Smallest ideal containing sub: its closure under every ad(e_i)."""
    basis = Subspace.full(alg.dim).rows
    return invariant_closure(alg.dim, sub.rows,
                             lambda v: (alg.bracket_exact(e, v) for e in basis))


def center(alg: LieAlgebra) -> Subspace:
    return centralizer(alg, Subspace.full(alg.dim))


def centralizer(alg: LieAlgebra, sub: Subspace, modulo: Subspace | None = None) -> Subspace:
    """All Z with [Z, sub] inside modulo (0 by default, so [Z, sub] = 0)."""
    n = alg.dim
    # its own block form, not `pairing`: block is sparse in k, each row P_a . w is dense
    # [Z, w]_k = sum_i Z_i (sum_j c[i][j][k] w_j) is the row block[k], kept where
    # it can be nonzero.  [Z, w] lies in modulo iff a . [Z, w] = 0 for each row a
    # of ann(modulo): one row a . block per (w, a), dropped when identically zero
    ann = annihilator(modulo if modulo is not None else Subspace.zero(n)).rows
    rows = []
    for w in sub.rows:
        block = {}
        for i, plane in enumerate(alg.nonzeros):
            for wj, entries in zip(w, plane):
                if wj:
                    for k, c in entries:
                        block.setdefault(k, [ZERO] * n)[i] += c * wj
        rows += [combine([a[k] for k in block], block.values(), n) for a in ann]
    return rank_kernel(Matrix._of(tuple(r for r in rows if not is_zero_vec(r)), n))[1]


@lru_cache(maxsize=None)
def ascending_central_series(alg: LieAlgebra) -> tuple:
    """0 = Z_0 < Z_1 < ... until it stabilizes: Z_{k+1} is the centralizer of g modulo Z_k."""
    full = Subspace.full(alg.dim)
    return stable_series(Subspace.zero(alg.dim), lambda z: centralizer(alg, full, modulo=z))


@lru_cache(maxsize=None)
def derived_series(alg: LieAlgebra) -> tuple:
    """g = D^0 > D^1 = [g, g] > ... > D^{k+1} = [D^k, D^k], until a term is 0 or repeats."""
    return stable_series(Subspace.full(alg.dim), lambda d: bracket_span(alg, d, d))


def is_solvable(alg: LieAlgebra) -> bool:
    return derived_series(alg)[-1].dim == 0


def killing_form(alg: LieAlgebra) -> Matrix:
    """B(e_i, e_j) = tr(ad e_i ad e_j) = sum_{a,b} c[i][b][a] c[j][a][b]."""
    n = alg.dim
    # by_ab[a][b] lists (j, c[j][a][b]) over the nonzeros, so only
    # products of two nonzeros are formed
    by_ab = [[[] for _ in range(n)] for _ in range(n)]
    for j, plane in enumerate(alg.nonzeros):
        for a, entries in enumerate(plane):
            for b, c in entries:
                by_ab[a][b].append((j, c))
    k = [[ZERO] * n for _ in range(n)]
    for i, plane in enumerate(alg.nonzeros):
        for b, entries in enumerate(plane):
            for a, c in entries:
                for j, d in by_ab[a][b]:
                    k[i][j] += c * d
    return Matrix._of(tuple(map(tuple, k)), n)
