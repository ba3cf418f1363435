"""Lie algebras presented by structure constants, and their coadjoint data.

An algebra is its bracket table: [e_i, e_j] = sum_k c[i][j][k] e_k is
stored as nonzeros[i][j] = ((k, c[i][j][k]), ...) over the k with
c[i][j][k] != 0, in increasing k.  The table is the defining field:
equality, hashing and the repr read it, and so do the kernels below
(brackets, ad, the KKS pairing, the Killing form, the Krylov hull,
centralizers and every check of `validate`).  Structure constants are
mostly zero (0-9 % nonzero in the catalog), so no dim^3 grid is ever kept;
one exists only while the catalog reads a file's dense "structure" tensor.
Everything downstream (stabilizers, orbit dimensions, affine hulls,
annihilator conditions) reduces here to exact kernels and ranks of the
pairing matrix B[i][j] = <cov, [e_i, e_j]> attached to a covector.

A matrix representation is handled on flattened matrices (`flat`): `validate`
checks its brackets there, and `rep_coords` reads coordinates in its span.

The coadjoint questions about a subspace h and a covector f have one home
each here: h(f) is `coadjoint_image`, its f-orthogonal h^f = ann(h(f)) is
`orth`, every orbit dimension (of f, or of f restricted to h) is
`orbit_dim`, the rank of the pairing restricted to h's canonical rows, and
the Krylov hull and the ideal generated by a subspace are
`linalg.invariant_closure` worklists.

Every algebra built from a subspace comes from one routine, `subquotient`:
a subalgebra h, or h / n for an ideal n of h, with structure constants in
the basis of canonical lifts (the rows of h at pivots that are not pivots of
n), read off in ambient coordinates; `restrict` takes a covector to a
subalgebra through it, and `check_subalgebra` runs its closure check alone.

Structure facts are computed on demand, one function each: `derived_series`,
`is_solvable`, `killing_form`, `ascending_central_series` (one `centralizer`
per term) and `is_nilpotent` (one generator closure; the lemma is stated there).

Conventions, fixed once for the whole package:
  * covectors are coordinate tuples in the dual basis;
  * the infinitesimal coadjoint action is Z(m) = <m, [., Z]>, so in
    coordinates W(cov) = B_cov . W = -W^T B_cov (B_cov is antisymmetric):
    h(f) is spanned by the row combinations W^T B_cov, and the generator
    matrix of Z on the dual space is -ad(Z)^T;
  * subalgebras are handed around as canonical Subspace values, and their
    own structure constants are taken in the RREF basis (the lifts of
    `subquotient` with n = 0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .linalg import (
    Matrix,
    Record,
    Subspace,
    ZERO,
    annihilator,
    basis_vector,
    combine,
    frac,
    invariant_closure,
    is_zero_vec,
    rank_kernel,
    vec,
    vec_add,
    vec_dot,
)


class NotClosedError(ValueError):
    """A subspace expected to be a subalgebra or ideal is not closed."""


class LieAlgebra(Record):
    dim: int
    labels: tuple[str, ...]
    nonzeros: tuple  # nonzeros[i][j] = ((k, c[i][j][k]), ...), k increasing, c != 0
    matrix_rep: Optional[tuple[Matrix, ...]] = None
    name: str = ""
    # __post_init__ caches the hash as _hash, which is not a field, so
    # equality and the repr skip it

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise ValueError("label count does not match dimension")
        if len(self.nonzeros) != self.dim or any(len(p) != self.dim for p in self.nonzeros):
            raise ValueError("bracket table must be dim x dim")
        rep = self.matrix_rep
        if rep is not None and (len(rep) != self.dim
                                or len({m.rows for m in rep} | {m.cols for m in rep}) > 1):
            raise ValueError("matrix_rep must list one n x n matrix per element")
        object.__setattr__(self, "_hash", hash(self._values()))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_brackets(cls, labels: Sequence[str], brackets: dict, name: str = "",
                      matrix_rep=None) -> "LieAlgebra":
        """Build from a {(i, j): {k: coeff}} dict given for i < j only."""
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
        rep = tuple(matrix_rep) if matrix_rep is not None else None
        return cls(n, tuple(labels), tuple(map(tuple, table)), rep, name)

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        u, v = vec(u), vec(v)
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

    def is_zero(self) -> bool:
        return is_zero_vec(self.coords)


class ValidationReport(Record):
    ok: bool
    antisymmetry_failures: tuple  # (i, j, k) triples
    jacobi_failures: tuple        # (i, j, k, defect vector)
    rep_failures: tuple           # (i, j) pairs where the matrix rep breaks the bracket

    def to_json_dict(self):
        return {
            "ok": self.ok,
            "antisymmetry_failures": [list(t[:3]) for t in self.antisymmetry_failures],
            "jacobi_failures": [
                {"triple": [i, j, k], "defect": d} for (i, j, k, d) in self.jacobi_failures
            ],
            "rep_failures": [list(p) for p in self.rep_failures],
        }


def flat(m: Matrix) -> tuple:
    """Row-major entries of m: its coordinates in the basis of unit matrices."""
    return tuple(x for row in m.entries for x in row)


def rep_coords(rep: Sequence[Matrix], targets: Sequence[Matrix]) -> list:
    """Coordinates of each target in the span of the matrices rep, or None.

    Reducing (flat M | 0) against the echelon rows (flat R_k | e_k) leaves
    (flat M - sum_k x_k flat R_k | -x): zero in the first block iff M = sum_k x_k R_k.
    """
    size, n = len(flat(rep[0])), len(rep)
    echelon = Subspace(size + n, [flat(r) + basis_vector(n, k) for k, r in enumerate(rep)])
    reduced = [echelon.reduce(flat(m) + (ZERO,) * n) for m in targets]
    return [None if any(v[:size]) else tuple(-x for x in v[size:]) for v in reduced]


@lru_cache(maxsize=None)
def validate(alg: LieAlgebra) -> ValidationReport:
    """Check antisymmetry, the Jacobi identity and the brackets of any matrix rep."""
    n, nz = alg.dim, alg.nonzeros
    anti = []
    for i in range(n):
        for j in range(i, n):
            # c[i][j][k] = -c[j][i][k] for every k, read off the two entries of the table
            up, down = dict(nz[i][j]), dict(nz[j][i])
            anti += [(i, j, k) for k in sorted(up.keys() | down.keys())
                     if up.get(k, ZERO) != -down.get(k, ZERO)]
    jac = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
                s = [ZERO] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in nz[b][c]:
                        for l, y in nz[a][m]:
                            s[l] += x * y
                if not is_zero_vec(s):
                    jac.append((i, j, k, tuple(s)))
    rep = []
    if alg.matrix_rep is not None:
        reps = alg.matrix_rep
        flats = [flat(r) for r in reps]
        for i in range(n):
            for j in range(i + 1, n):
                # R_i R_j = R_j R_i + sum_k c[i][j][k] R_k
                expected = combine([c for _, c in nz[i][j]], [flats[k] for k, _ in nz[i][j]],
                                   len(flats[i]))
                if flat(reps[i] * reps[j]) != vec_add(flat(reps[j] * reps[i]), expected):
                    rep.append((i, j))
    return ValidationReport(not (anti or jac or rep), tuple(anti), tuple(jac), tuple(rep))


def ad_matrix(alg: LieAlgebra, z: Sequence) -> Matrix:
    """Matrix of ad(Z); column j holds the coordinates of [Z, e_j]."""
    n = alg.dim
    m = [[ZERO] * n for _ in range(n)]
    for a, plane in zip(vec(z), alg.nonzeros):
        if not a:
            continue
        for j, entries in enumerate(plane):
            for k, c in entries:
                m[k][j] += a * c
    return Matrix._of(tuple(map(tuple, m)), n)


def kks_pairing(alg: LieAlgebra, cov: Covector) -> Matrix:
    """Antisymmetric matrix B[i][j] = <cov, [e_i, e_j]> = sum_k x_k c[i][j][k]."""
    x = cov.coords
    return Matrix._of(
        tuple(tuple(sum((x[k] * c for k, c in entries), ZERO) for entries in plane)
              for plane in alg.nonzeros),
        alg.dim,
    )


def coadjoint_image(alg: LieAlgebra, cov: Covector, sub: Subspace) -> Subspace:
    """The subspace sub(cov) = {W(cov) : W in sub} of the dual.

    W(cov) = B W = -W^T B, so the row combinations W^T B span it.
    """
    if sub.ambient_dim != alg.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    rows = kks_pairing(alg, cov).entries
    return Subspace(alg.dim, [combine(w, rows, alg.dim) for w in sub.basis_rows()])


def exp_coadjoint(alg: LieAlgebra, z: Sequence, cov: Covector) -> Covector:
    """Coadjoint flow exp(Z) applied to a covector, as an exact finite sum.

    Requires ad(Z) nilpotent so that the series
    <exp(Z)(cov), Z'> = sum_k (-1)^k/k! <cov, ad(Z)^k Z'> terminates.
    """
    m = ad_matrix(alg, z)
    n = alg.dim
    coeffs, terms = [], []  # (-1)^k / k! and the covector cov . ad(Z)^k
    power, fact = Matrix.identity(n), 1
    for k in range(n + 1):
        if power.is_zero():
            return Covector(alg, combine(coeffs, terms, n))
        coeffs.append(Fraction((-1) ** k, fact))
        terms.append(combine(cov.coords, power.entries, n))
        power, fact = power * m, fact * (k + 1)
    raise ValueError("ad(Z) is not nilpotent; exact exponential refused")


def orth(alg: LieAlgebra, h: Subspace, cov: Covector) -> Subspace:
    """h^cov = {Z : <cov, [W, Z]> = 0 for all W in h} = ann(h(cov)).

    orth(full, cov) is the stabilizer of cov; orth(0, cov) is everything.
    """
    return annihilator(coadjoint_image(alg, cov, h))


def orbit_dim(alg: LieAlgebra, cov: Covector, sub: Optional[Subspace] = None) -> int:
    """Dimension of the orbit of cov, or of cov restricted to the subalgebra sub.

    The rank of W B W^T over the canonical rows W of sub (all of g when sub
    is None), B the pairing of cov.  W B W^T is the pairing of the restricted
    covector in sub's RREF basis, so no subalgebra is built.  An algebra that
    fails validation is refused.
    """
    if not validate(alg).ok:
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


def krylov_hull(alg: LieAlgebra, cov: Covector) -> Subspace:
    """Smallest coadjoint-invariant subspace of the dual containing g(cov).

    The identity-component orbit of cov lies in cov + hull; for nilpotent
    algebras the hull is exactly the direction space of the orbit's affine
    hull.

    The hull is the `invariant_closure` of the columns e_i(cov) of the
    pairing under the maps xi -> -ad(e_i)^T xi, whose entries are
    (-ad(e_i)^T xi)_j = -sum_a c[i][j][a] xi_a.
    """
    def images(xi):
        for plane in alg.nonzeros:
            yield [-sum((c * xi[a] for a, c in entries if xi[a]), ZERO)
                   for entries in plane]

    return invariant_closure(alg.dim, zip(*kks_pairing(alg, cov).entries), images)


class OrbitRecord(Record):
    covector: Covector
    orbit_dim: int
    stabilizer: Subspace
    affine_hull_dirs: Subspace
    hull_exact: bool  # True when the algebra is nilpotent

    def to_json_dict(self):
        return {
            "covector": self.covector,
            "orbit_dim": self.orbit_dim,
            "stabilizer_dim": self.stabilizer.dim,
            "stabilizer_basis": self.stabilizer,
            "affine_hull_dim": self.affine_hull_dirs.dim,
            "affine_hull_basis": self.affine_hull_dirs,
            "hull_exact": self.hull_exact,
        }


def orbit_record(alg: LieAlgebra, cov: Covector) -> OrbitRecord:
    """Orbit dimension, stabilizer and affine hull data at a covector."""
    if not validate(alg).ok:
        raise ValueError("algebra fails validation; see validate()")
    rank, ker = rank_kernel(kks_pairing(alg, cov))
    hull = krylov_hull(alg, cov)
    return OrbitRecord(cov, rank, ker, hull, is_nilpotent(alg))


def orbit_annihilator(alg: LieAlgebra, cov: Covector) -> Subspace:
    """Elements pairing to zero with every point of cov + hull.

    This is the extraneous ideal of the identity-component orbit: the
    kernel of Z -> <., Z> as a function on the orbit's affine hull.
    """
    rows = [cov.coords] + list(krylov_hull(alg, cov).basis_rows())
    return rank_kernel(Matrix(rows))[1]


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
            br = alg.bracket(rows[a], rows[b])
            if not space.contains(br):
                raise NotClosedError(
                    f"subspace is not a subalgebra: bracket of basis rows {a},{b} escapes"
                )
            yield (a, b), br


def check_subalgebra(alg: LieAlgebra, sub: Subspace) -> None:
    """Raise NotClosedError unless sub is closed under the bracket; builds no algebra."""
    for _ in _closed_brackets(alg, sub.rows, sub):
        pass


def subquotient(alg: LieAlgebra, h: Subspace, n: Optional[Subspace] = None) -> Subquotient:
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
    """cov restricted to the subalgebra sub, a covector of sub in its canonical basis."""
    return Covector(subquotient(alg, sub).algebra, tuple(cov.pair(row) for row in sub.rows))


def is_ideal(alg: LieAlgebra, sub: Subspace) -> bool:
    return sub.contains_subspace(bracket_span(alg, Subspace.full(alg.dim), sub))


def bracket_span(alg: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """span [a, b]; [a, a] takes one bracket per pair of rows u < v, as [u, u] = 0
    and [v, u] = -[u, v] in an antisymmetric table."""
    if a == b:
        rows = a.rows
        brackets = [alg.bracket(u, v) for i, u in enumerate(rows) for v in rows[i + 1:]]
    else:
        brackets = [alg.bracket(u, v) for u in a.rows for v in b.rows]
    return Subspace(alg.dim, brackets)


def ideal_closure(alg: LieAlgebra, sub: Subspace) -> Subspace:
    """Smallest ideal containing sub: its closure under every ad(e_i)."""
    basis = Subspace.full(alg.dim).basis_rows()
    return invariant_closure(alg.dim, sub.basis_rows(),
                             lambda v: (alg.bracket(e, v) for e in basis))


def center(alg: LieAlgebra) -> Subspace:
    return centralizer(alg, Subspace.full(alg.dim))


def centralizer(alg: LieAlgebra, sub: Subspace, modulo: Optional[Subspace] = None) -> Subspace:
    """All Z with [Z, sub] inside modulo (0 by default, so [Z, sub] = 0)."""
    n = alg.dim
    # [Z, w]_k = sum_i Z_i (sum_j c[i][j][k] w_j) is the row block[k], kept where
    # it can be nonzero.  [Z, w] lies in modulo iff a . [Z, w] = 0 for each row a
    # of ann(modulo): one row a . block per (w, a), dropped when identically zero
    ann = annihilator(modulo if modulo is not None else Subspace.zero(n)).rows
    rows = []
    for w in sub.basis_rows():
        block = {}
        for i, plane in enumerate(alg.nonzeros):
            for wj, entries in zip(w, plane):
                if wj:
                    for k, c in entries:
                        block.setdefault(k, [ZERO] * n)[i] += c * wj
        rows += [combine([a[k] for k in block], block.values(), n) for a in ann]
    return rank_kernel(Matrix._of(tuple(r for r in rows if not is_zero_vec(r)), n))[1]


def _stable_series(first: Subspace, step) -> tuple:
    """first, step(first), step(step(first)), ... up to the first term that repeats."""
    series = [first]
    while (nxt := step(series[-1])) != series[-1]:
        series.append(nxt)
    return tuple(series)


@lru_cache(maxsize=None)
def ascending_central_series(alg: LieAlgebra) -> tuple:
    """0 = Z_0 < Z_1 < ... until it stabilizes: Z_{k+1} is the centralizer of g modulo Z_k."""
    full = Subspace.full(alg.dim)
    return _stable_series(Subspace.zero(alg.dim), lambda z: centralizer(alg, full, modulo=z))


@lru_cache(maxsize=None)
def derived_series(alg: LieAlgebra) -> tuple:
    """g = D^0 > D^1 = [g, g] > ... > D^{k+1} = [D^k, D^k], until a term is 0 or repeats."""
    return _stable_series(Subspace.full(alg.dim), lambda d: bracket_span(alg, d, d))


def is_solvable(alg: LieAlgebra) -> bool:
    return derived_series(alg)[-1].dim == 0


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
    derived = bracket_span(alg, Subspace.full(n), Subspace.full(n))
    gens = [basis_vector(n, j) for j in range(n) if j not in derived.pivots]

    def images(v):
        return (alg.bracket(u, v) for u in gens)

    if invariant_closure(n, gens, images).dim < n:
        return False
    lower = _stable_series(derived, lambda c: invariant_closure(
        n, [alg.bracket(u, v) for u in gens for v in c.rows], images))
    return lower[-1].dim == 0


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
