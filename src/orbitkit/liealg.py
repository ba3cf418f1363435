"""Lie algebras presented by structure constants, and the orbit of a covector.

An algebra is its bracket table: [e_i, e_j] = sum_k c[i][j][k] e_k is
stored as nonzeros[i][j] = ((k, c[i][j][k]), ...) over the k with
c[i][j][k] != 0, in increasing k.  The table is the defining field:
equality, hashing and the repr read it, and so do the kernels (brackets,
the coadjoint `pairing`, every check of `validate`, ad, the Killing form
in `mackey` and centralizers in `polarization`).  Structure constants are
mostly zero (0-9 % nonzero in the catalog), so no dim^3 grid is ever made:
a definition file gives its table as a list of brackets, one per i < j pair.
`bracket` coerces its arguments with `vec`, as it does any outside input;
the package's own brackets, of vectors it made itself, take
`bracket_exact`, which coerces nothing.

The coadjoint action has one kernel: row i of P = `pairing(alg, xi)` is
xi . ad(e_i), so xi . ad(w) is `combine(w, P)`.  At a covector P is the KKS
pairing B, which `kks_pairing` returns as these rows (a matrix is the tuple
of its rows, as everywhere in the package, and so is `ad_matrix`'s), and
whose exact kernels and ranks answer the coadjoint questions; the Krylov
hull and `polarization.orbit_annihilator` run on it, and so does the
coadjoint flow exp(Z) that the tests' witness checks walk.

This module holds what `validate`, `orbit` and `parabolic` run: the
algebra and covector types, `validate` (which returns the `validation`
block the CLI prints; it checks a matrix representation's brackets over
each matrix's nonzero entries, one flattened size x size accumulator per
pair, and forms no Jacobi sum that a faithful representation proves), the
pairing kernel, the KKS pairing and what it answers at a covector
(`stabilizer`, `orbit_dim` of g or of a subalgebra), `ad_matrix`, the
Krylov hull (a `linalg.invariant_closure` worklist), `orbit_record`, and
the structure facts: `is_nilpotent` (one generator closure; the lemma is
stated there), `derived_series` and `is_solvable`, which the exponential
precheck reads without compiling `structure`, and which build [g, g] once
per algebra between them.  The constructions from
subspaces (orthogonals, subquotients) are in `structure`, which only the
subcommands that use them import.

Conventions, fixed once for the whole package:
  * covectors are coordinate tuples in the dual basis;
  * the infinitesimal coadjoint action is Z(m) = <m, [., Z]>, so in
    coordinates W(cov) = B_cov . W = -W^T B_cov (B_cov is antisymmetric):
    h(f) is spanned by the row combinations W^T B_cov, and the generator
    matrix of Z on the dual space is -ad(Z)^T;
  * subalgebras are handed around as canonical Subspace values, and their
    own structure constants are taken in the RREF basis (the lifts of
    `structure.subquotient` with n = 0).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .linalg import (
    Record,
    Subspace,
    ZERO,
    basis_vector,
    combine,
    frac,
    invariant_closure,
    is_zero_vec,
    rank_kernel,
    rref,
    vec,
    vec_dot,
)


class LieAlgebra(Record):
    dim: int
    labels: tuple[str, ...]
    nonzeros: tuple  # nonzeros[i][j] = ((k, c[i][j][k]), ...), k increasing, c != 0
    matrix_rep: tuple[tuple, ...] | None = None  # one n x n matrix per element, as its rows
    name: str = ""
    # __post_init__ caches the hash as _hash, which is not a field, so
    # equality and the repr skip it

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise ValueError("label count does not match dimension")
        if len(self.nonzeros) != self.dim or any(len(p) != self.dim for p in self.nonzeros):
            raise ValueError("bracket table must be dim x dim")
        rep = self.matrix_rep
        if rep is not None and (len(rep) != self.dim or len(
                {len(m) for m in rep} | {len(row) for m in rep for row in m}) > 1):
            raise ValueError("matrix_rep must list one n x n matrix per element")
        object.__setattr__(self, "_hash", hash(self._values()))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_brackets(cls, labels: Sequence[str], brackets: dict, name: str = "",
                      matrix_rep=None) -> "LieAlgebra":
        """Build from a {(i, j): {k: coeff}} dict given for i < j only; each row
        of a `matrix_rep` matrix is read by `vec`, so its entries may be ints or
        "p/q" strings."""
        n = len(labels)
        table = [[()] * n for _ in range(n)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 0 <= i < j < dim")
            if any(not 0 <= k < n for k in coeffs):
                raise ValueError(f"coefficient index out of range in pair ({i},{j})")
            row = sorted((k, frac(v)) for k, v in coeffs.items())
            table[i][j] = tuple((k, c) for k, c in row if c)
            table[j][i] = tuple((k, -c) for k, c in table[i][j])
        rep = None if matrix_rep is None else tuple(tuple(map(vec, m)) for m in matrix_rep)
        return cls(n, tuple(labels), tuple(map(tuple, table)), rep, name)

    def coords(self, v: Sequence) -> tuple:
        """v as a coordinate vector of this algebra (`vec`), refused unless of length dim."""
        v = vec(v)
        if len(v) != self.dim:
            raise ValueError(f"coordinate vector of length {len(v)} "
                             f"for an algebra of dimension {self.dim}")
        return v

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        """[u, v] of two coordinate vectors of length dim, coerced to Fractions first."""
        return self.bracket_exact(self.coords(u), self.coords(v))

    def bracket_exact(self, u: Sequence, v: Sequence) -> tuple:
        """[u, v] of the package's own vectors (Fraction or integer entries),
        taken as they are; the result's entries are Fractions."""
        out = [ZERO] * self.dim
        for a, plane in zip(u, self.nonzeros):
            if not a:
                continue
            for b, entries in zip(v, plane):
                if not b or not entries:
                    continue
                coeff = a * b
                for k, c in entries:
                    out[k] += coeff * c
        return tuple(out)

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown basis label {label!r}") from None


class Covector(Record):
    algebra: LieAlgebra
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", vec(self.coords))
        if len(self.coords) != self.algebra.dim:
            raise ValueError("covector length does not match algebra dimension")

    def pair(self, v: Sequence) -> Fraction:
        return vec_dot(self.coords, v)


def flat(m: Sequence[Sequence]) -> tuple:
    """Row-major entries of m: its coordinates in the basis of unit matrices."""
    return tuple(x for row in m for x in row)


@lru_cache(maxsize=None)
def validate(alg: LieAlgebra) -> dict:
    """The `validation` block: "ok", the (i, j, k) where antisymmetry fails, a
    {"triple": (i, j, k), "defect": the Jacobi sum} per Jacobi failure and the
    (i, j) where a matrix rep breaks the bracket.  Cached and shared: no
    caller may change it.

    The Jacobi sums are not formed when an antisymmetric table passes the rep
    check with independent matrices R_k: then R, linear and injective, has
    R[x, y] = [R x, R y] for all x, y (for i < j by the check, for i >= j by
    antisymmetry), so it takes each Jacobi sum of g to that of the matrix
    commutator, which is 0, and every sum of g is 0."""
    n, nz = alg.dim, alg.nonzeros
    anti = []
    for i in range(n):
        for j in range(i, n):
            # c[i][j][k] = -c[j][i][k] for every k, read off the two entries of the table
            up, down = dict(nz[i][j]), dict(nz[j][i])
            anti += [(i, j, k) for k in sorted(up.keys() | down.keys())
                     if up.get(k, ZERO) != -down.get(k, ZERO)]
    rep, faithful = [], False
    if alg.matrix_rep is not None:
        # R_i R_j - R_j R_i - sum_k c[i][j][k] R_k, over the nonzero entries only:
        # cells[i] lists (r * size, c, R_i[r][c]) and rows[i][r] lists (c, R_i[r][c])
        size = len(alg.matrix_rep[0]) if n else 0
        rows = [[[(c, x) for c, x in enumerate(row) if x] for row in m]
                for m in alg.matrix_rep]
        cells = [[(r * size, c, x) for r, row in enumerate(m) for c, x in row] for m in rows]
        for i in range(n):
            for j in range(i + 1, n):
                acc = [ZERO] * (size * size)
                for base, k, a in cells[i]:
                    for c, b in rows[j][k]:
                        acc[base + c] += a * b
                for base, k, a in cells[j]:
                    for c, b in rows[i][k]:
                        acc[base + c] -= a * b
                for k, coeff in nz[i][j]:
                    for base, c, x in cells[k]:
                        acc[base + c] -= coeff * x
                if any(acc):
                    rep.append((i, j))
        faithful = not (anti or rep) and len(rref(map(flat, alg.matrix_rep), size * size)[1]) == n
    jac = () if faithful else _jacobi_failures(n, nz)
    return {"ok": not (anti or jac or rep), "antisymmetry_failures": tuple(anti),
            "jacobi_failures": tuple(jac), "rep_failures": tuple(rep)}


def _jacobi_failures(n: int, nz: tuple) -> list:
    """{"triple": (i, j, k), "defect": the Jacobi sum} for each i < j < k whose sum is not 0."""
    jac = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if not (nz[j][k] or nz[k][i] or nz[i][j]):
                    continue  # every term brackets with one of these, so the sum is 0
                # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
                s = [ZERO] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in nz[b][c]:
                        for l, y in nz[a][m]:
                            s[l] += x * y
                if not is_zero_vec(s):
                    jac.append({"triple": (i, j, k), "defect": tuple(s)})
    return jac


def pairing(alg: LieAlgebra, xi: Sequence) -> tuple:
    """Rows P[i][j] = xi([e_i, e_j]) of a dual vector xi; row i is xi . ad(e_i)."""
    return tuple(tuple(sum([xi[k] * c for k, c in entries if xi[k]], ZERO) if entries else ZERO
                       for entries in plane) for plane in alg.nonzeros)


def kks_pairing(alg: LieAlgebra, cov: Covector) -> tuple:
    """The rows of the antisymmetric matrix B[i][j] = <cov, [e_i, e_j]>, the
    `pairing` of cov.

    It is built once per covector and kept on it as `_pairing`, which is not a
    field, so equality and the repr skip it; a covector of another algebra is refused.
    """
    if cov.algebra is not alg and cov.algebra != alg:
        raise ValueError("covector of another algebra")
    b = getattr(cov, "_pairing", None)
    if b is None:
        b = pairing(alg, cov.coords)
        object.__setattr__(cov, "_pairing", b)
    return b


def stabilizer(alg: LieAlgebra, cov: Covector) -> Subspace:
    return rank_kernel(kks_pairing(alg, cov), alg.dim)[1]


def orbit_dim(alg: LieAlgebra, cov: Covector, sub: Subspace | None = None) -> int:
    """Dimension of the orbit of cov, or of cov restricted to the subalgebra sub.

    The rank of W B W^T over the canonical rows W of sub (all of g when sub
    is None), B the pairing of cov.  W B W^T is the pairing of the restricted
    covector in sub's RREF basis, so no subalgebra is built.  An algebra that
    fails validation is refused.
    """
    if not validate(alg)["ok"]:
        raise ValueError("algebra fails validation; see validate()")
    b, cols = kks_pairing(alg, cov), alg.dim
    if sub is not None:
        if sub.ambient_dim != alg.dim:
            raise ValueError("subspace ambient dimension does not match algebra")
        wb = [combine(w, b, alg.dim) for w in sub.rows]
        b, cols = [[vec_dot(r, w) for w in sub.rows] for r in wb], sub.dim
    return len(rref(b, cols)[1])


def ad_matrix(alg: LieAlgebra, z: Sequence) -> tuple:
    """The rows of the matrix of ad(Z); column j holds the coordinates of [Z, e_j].

    Built only to read its eigenspaces, in `reductive.grade`, and its
    spectrum, in `exponential._has_imaginary_eigenvalue`."""
    n = alg.dim
    m = [[ZERO] * n for _ in range(n)]
    for a, plane in zip(alg.coords(z), alg.nonzeros):
        if not a:
            continue
        for j, entries in enumerate(plane):
            for k, c in entries:
                m[k][j] += a * c
    return tuple(map(tuple, m))


def krylov_hull(alg: LieAlgebra, cov: Covector) -> Subspace:
    """Smallest coadjoint-invariant subspace of the dual containing g(cov).

    The identity-component orbit of cov lies in cov + hull; for nilpotent
    algebras the hull is exactly the direction space of the orbit's affine
    hull.  It closes the rows of the pairing B, which span g(cov), under
    xi -> the nonzero rows of `pairing(alg, xi)`.
    """
    return invariant_closure(alg.dim, kks_pairing(alg, cov),
                             lambda xi: filter(any, pairing(alg, xi)))


def orbit_record(alg: LieAlgebra, cov: Covector) -> dict:
    """The `orbit` result of cov: {"orbit": its dimension, stabilizer and affine hull}.

    The hull is exact (`hull_exact`) when the algebra is nilpotent.
    """
    if not validate(alg)["ok"]:
        raise ValueError("algebra fails validation; see validate()")
    rank, ker = rank_kernel(kks_pairing(alg, cov), alg.dim)
    hull = krylov_hull(alg, cov)
    return {"orbit": {
        "covector": cov,
        "orbit_dim": rank,
        "stabilizer_dim": ker.dim,
        "stabilizer_basis": ker,
        "affine_hull_dim": hull.dim,
        "affine_hull_basis": hull,
        "hull_exact": is_nilpotent(alg),
    }}


def bracket_span(alg: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """span [a, b]; [a, a] takes one bracket per pair of rows u < v, as [u, u] = 0
    and [v, u] = -[u, v] in an antisymmetric table."""
    if a == b:
        rows = a.rows
        brackets = [alg.bracket_exact(u, v) for i, u in enumerate(rows) for v in rows[i + 1:]]
    else:
        brackets = [alg.bracket_exact(u, v) for u in a.rows for v in b.rows]
    return Subspace(alg.dim, brackets)


def stable_series(first: Subspace, step) -> tuple:
    """first, step(first), step(step(first)), ... up to the first term that repeats."""
    series = [first]
    while (nxt := step(series[-1])) != series[-1]:
        series.append(nxt)
    return tuple(series)


@lru_cache(maxsize=None)
def _derived_algebra(alg: LieAlgebra) -> Subspace:
    """[g, g], built once per algebra: `is_nilpotent` and `derived_series` both read it."""
    full = Subspace.full(alg.dim)
    return bracket_span(alg, full, full)


@lru_cache(maxsize=None)
def is_nilpotent(alg: LieAlgebra) -> bool:
    """Whether the lower central series C^1 = [g, g], C^{k+1} = [g, C^k] reaches 0.

    The unit vectors V at the non-pivot columns of C^1 span a complement of it.
    A complement of [g, g] generates a nilpotent g (Bourbaki, Lie Groups and Lie
    Algebras, Ch. I, sec. 4; if h + C^1 = g, each C^k lies in h + C^{k+1}), so g
    is not nilpotent if the ad(V)-closure of span V, the subalgebra V generates,
    is smaller; a perfect g has no V at all.  Else each ad x is a sum of products
    of the ad v, as ad[u, w] = [ad u, ad w], so C^{k+1} is the ad(V)-closure of
    [V, C^k]: g is nilpotent iff that series reaches 0 before it stalls.
    """
    n = alg.dim
    derived = _derived_algebra(alg)
    gens = [basis_vector(n, j) for j in range(n) if j not in derived.pivots]

    def images(v):
        return (alg.bracket_exact(u, v) for u in gens)

    if invariant_closure(n, gens, images).dim < n:
        return False
    lower = stable_series(derived, lambda c: invariant_closure(
        n, [alg.bracket_exact(u, v) for u in gens for v in c.rows], images))
    return lower[-1].dim == 0


@lru_cache(maxsize=None)
def derived_series(alg: LieAlgebra) -> tuple:
    """g = D^0 > D^1 = [g, g] > ... > D^{k+1} = [D^k, D^k], until a term is 0 or repeats."""
    full = Subspace.full(alg.dim)
    return stable_series(full, lambda d: _derived_algebra(alg) if d is full
                         else bracket_span(alg, d, d))


def is_solvable(alg: LieAlgebra) -> bool:
    return derived_series(alg)[-1].dim == 0
