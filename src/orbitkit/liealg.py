"""Lie algebras presented by structure constants, and their coadjoint data.

An algebra is a tensor c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k.
Everything downstream (stabilizers, orbit dimensions, affine hulls,
annihilator conditions) reduces here to exact kernels and ranks of the
pairing matrix B[i][j] = <cov, [e_i, e_j]> attached to a covector.

The dense tensor `structure` is the defining field: equality, hashing, the
catalog format and every report read it.  Structure tensors are mostly
zero (0-9 % nonzero in the catalog), so each algebra also derives, once,
the table `nonzeros[i][j]` of the (k, c[i][j][k]) pairs with c[i][j][k] != 0,
and the kernels below (brackets, ad, the KKS pairing, the Killing form,
the Krylov hull, centralizers and the Jacobi check) loop over it.

A matrix representation is handled on flattened matrices (`flat`): `validate`
checks its brackets there, and `rep_coords` reads coordinates in its span.

Conventions, fixed once for the whole package:
  * covectors are coordinate tuples in the dual basis;
  * the infinitesimal coadjoint action is Z(m) = <m, [., Z]>, so in
    coordinates Z(cov) = B_cov . Z and the generator matrix of Z on the
    dual space is -ad(Z)^T;
  * subalgebras are handed around as canonical Subspace values, and their
    own structure constants are taken in the RREF basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .linalg import (
    Matrix,
    Subspace,
    ONE,
    ZERO,
    basis_vector,
    combine,
    frac,
    is_zero_vec,
    rank_kernel,
    symmetric_signature,
    vec,
    vec_add,
    vec_dot,
)


class NotClosedError(ValueError):
    """A subspace expected to be a subalgebra or ideal is not closed."""


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    labels: tuple[str, ...]
    structure: tuple  # c[i][j][k] grid of Fraction
    matrix_rep: Optional[tuple[Matrix, ...]] = None
    name: str = ""
    # derived from structure: nonzeros[i][j] = ((k, c[i][j][k]), ...) for c != 0
    nonzeros: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) != self.dim:
            raise ValueError("label count does not match dimension")
        if len(self.structure) != self.dim or any(
            len(plane) != self.dim or any(len(row) != self.dim for row in plane)
            for plane in self.structure
        ):
            raise ValueError("structure tensor must be dim x dim x dim")
        if self.matrix_rep is not None and len(self.matrix_rep) != self.dim:
            raise ValueError("matrix representation must give one matrix per basis element")
        object.__setattr__(self, "nonzeros", tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if c != 0) for row in plane)
            for plane in self.structure
        ))
        object.__setattr__(self, "_hash", hash(
            (self.dim, self.labels, self.structure, self.matrix_rep, self.name)))

    def __hash__(self):
        return self._hash

    @classmethod
    def from_brackets(cls, labels: Sequence[str], brackets: dict, name: str = "",
                      matrix_rep=None) -> "LieAlgebra":
        """Build from a {(i, j): {k: coeff}} dict given for i < j only."""
        n = len(labels)
        c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 0 <= i < j < dim")
            for k, val in coeffs.items():
                v = frac(val)
                c[i][j][k] = v
                c[j][i][k] = -v
        tensor = tuple(tuple(tuple(row) for row in plane) for plane in c)
        rep = tuple(matrix_rep) if matrix_rep is not None else None
        return cls(n, tuple(labels), tensor, rep, name)

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        u, v = vec(u), vec(v)
        out = [ZERO] * self.dim
        for a, plane in zip(u, self.nonzeros):
            if a == 0:
                continue
            for b, entries in zip(v, plane):
                if b == 0 or not entries:
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


@dataclass(frozen=True)
class Covector:
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


@dataclass(frozen=True)
class ValidationReport:
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
    anti = []
    n = alg.dim
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if alg.structure[i][j][k] != -alg.structure[j][i][k]:
                    anti.append((i, j, k))
    nz = alg.nonzeros
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
                expected = combine(alg.structure[i][j], flats, len(flats[i]))
                if flat(reps[i] * reps[j]) != vec_add(flat(reps[j] * reps[i]), expected):
                    rep.append((i, j))
    return ValidationReport(not (anti or jac or rep), tuple(anti), tuple(jac), tuple(rep))


def ad_matrix(alg: LieAlgebra, z: Sequence) -> Matrix:
    """Matrix of ad(Z); column j holds the coordinates of [Z, e_j]."""
    n = alg.dim
    m = [[ZERO] * n for _ in range(n)]
    for a, plane in zip(vec(z), alg.nonzeros):
        if a == 0:
            continue
        for j, entries in enumerate(plane):
            for k, c in entries:
                m[k][j] += a * c
    return Matrix(m, n)


def kks_pairing(alg: LieAlgebra, cov: Covector) -> Matrix:
    """Antisymmetric matrix B[i][j] = <cov, [e_i, e_j]> = sum_k x_k c[i][j][k]."""
    x = cov.coords
    return Matrix(
        [[sum((x[k] * c for k, c in entries), ZERO) for entries in plane]
         for plane in alg.nonzeros],
        alg.dim,
    )


def coadjoint_image(alg: LieAlgebra, cov: Covector, sub: Subspace) -> Subspace:
    """The subspace {W(cov) : W in sub} of the dual."""
    b = kks_pairing(alg, cov)
    return Subspace(alg.dim, [b.apply(row) for row in sub.basis_rows()])


def stabilizer(alg: LieAlgebra, cov: Covector) -> Subspace:
    return rank_kernel(kks_pairing(alg, cov))[1]


def krylov_hull(alg: LieAlgebra, cov: Covector) -> Subspace:
    """Smallest coadjoint-invariant subspace of the dual containing g(cov).

    The identity-component orbit of cov lies in cov + hull; for nilpotent
    algebras the hull is exactly the direction space of the orbit's affine
    hull.

    Worklist: the hull starts as the span of the columns e_i(cov) of the
    pairing, and each direction xi that enlarges it is queued once; its
    images (-ad(e_i)^T xi)_j = -sum_a c[i][j][a] xi_a are then tried
    against the echelon rows kept so far.  The search stops as soon as
    the hull is the whole dual.
    """
    n = alg.dim
    rows = []     # (pivot, row): row[pivot] == 1, row is 0 at the earlier rows' pivots
    work = []

    def extend(v):
        v = list(v)
        for p, row in rows:
            f = v[p]
            if f != 0:
                v = [a - f * b if b != 0 else a for a, b in zip(v, row)]
        p = next((j for j, a in enumerate(v) if a != 0), None)
        if p is not None:
            inv = ONE / v[p]
            v = [inv * a for a in v]
            rows.append((p, v))
            work.append(v)

    for col in zip(*kks_pairing(alg, cov).entries):
        extend(col)
    while work and len(rows) < n:
        xi = work.pop()
        for plane in alg.nonzeros:
            extend([-sum((c * xi[a] for a, c in entries if xi[a] != 0), ZERO)
                    for entries in plane])
            if len(rows) == n:
                break
    return Subspace(n, [row for _, row in rows])


@dataclass(frozen=True)
class OrbitRecord:
    covector: Covector
    pairing: Matrix
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
    report = validate(alg)
    if not report.ok:
        raise ValueError("algebra fails validation; see validate()")
    b = kks_pairing(alg, cov)
    rank, ker = rank_kernel(b)
    hull = krylov_hull(alg, cov)
    return OrbitRecord(cov, b, rank, ker, hull, structure_probe(alg).is_nilpotent)


def orbit_annihilator(alg: LieAlgebra, cov: Covector) -> Subspace:
    """Elements pairing to zero with every point of cov + hull.

    This is the extraneous ideal of the identity-component orbit: the
    kernel of Z -> <., Z> as a function on the orbit's affine hull.
    """
    rows = [cov.coords] + list(krylov_hull(alg, cov).basis_rows())
    return rank_kernel(Matrix(rows))[1]


@dataclass(frozen=True)
class EmbeddedSubalgebra:
    parent: LieAlgebra
    space: Subspace
    algebra: LieAlgebra

    def to_parent(self, coords: Sequence) -> tuple:
        return combine(vec(coords), self.space.basis_rows(), self.parent.dim)

    def from_parent(self, v: Sequence) -> tuple:
        coords = self.space.coords_of(v)
        if coords is None:
            raise ValueError("vector does not lie in the subalgebra")
        return coords


def subalgebra(alg: LieAlgebra, sub: Subspace) -> EmbeddedSubalgebra:
    """Structure constants of a bracket-closed subspace in its RREF basis."""
    rows = sub.basis_rows()
    m = sub.dim
    brackets = {}
    for a in range(m):
        for b in range(a + 1, m):
            coords = sub.coords_of(alg.bracket(rows[a], rows[b]))
            if coords is None:
                raise NotClosedError(
                    f"subspace is not a subalgebra: bracket of basis rows {a},{b} escapes"
                )
            brackets[(a, b)] = dict(enumerate(coords))
    inner = LieAlgebra.from_brackets([f"s{a}" for a in range(m)], brackets,
                                     f"{alg.name}-sub")
    return EmbeddedSubalgebra(alg, sub, inner)


def restrict(alg: LieAlgebra, cov: Covector, sub: Subspace) -> tuple[Covector, EmbeddedSubalgebra]:
    """Restrict a covector to a subalgebra, in the canonical RREF basis."""
    emb = subalgebra(alg, sub)
    coords = tuple(cov.pair(row) for row in sub.basis_rows())
    return Covector(emb.algebra, coords), emb


@dataclass(frozen=True)
class QuotientAlgebra:
    """parent / ideal; class k is represented by the unit vector at columns[k].

    columns are the non-pivot columns of the ideal's RREF basis, so the
    representative of v + ideal that is 0 at the pivots is ideal.reduce(v),
    and the class coordinates are its entries at those columns.
    """
    parent: LieAlgebra
    ideal: Subspace
    columns: tuple
    algebra: LieAlgebra

    def project(self, v: Sequence) -> tuple:
        """Coordinates of v + ideal in the representative basis."""
        rep = self.ideal.reduce(v)
        return tuple(rep[j] for j in self.columns)

    def lift(self, coords: Sequence) -> tuple:
        out = [ZERO] * self.parent.dim
        for j, c in zip(self.columns, vec(coords)):
            out[j] = c
        return tuple(out)


def is_ideal(alg: LieAlgebra, sub: Subspace) -> bool:
    n = alg.dim
    for i in range(n):
        for row in sub.basis_rows():
            if not sub.contains(alg.bracket(basis_vector(n, i), row)):
                return False
    return True


def quotient(alg: LieAlgebra, ideal: Subspace) -> QuotientAlgebra:
    """Quotient algebra by an ideal, with canonical coset representatives.

    Representatives are the standard basis vectors at non-pivot columns of
    the ideal's RREF basis.
    """
    if not is_ideal(alg, ideal):
        raise NotClosedError("subspace is not an ideal")
    n = alg.dim
    columns = tuple(j for j in range(n) if j not in ideal.pivots)
    reps = [basis_vector(n, j) for j in columns]
    brackets = {}
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            rep = ideal.reduce(alg.bracket(reps[a], reps[b]))
            brackets[(a, b)] = {k: rep[j] for k, j in enumerate(columns)}
    inner = LieAlgebra.from_brackets([f"q{a}" for a in range(len(reps))], brackets,
                                     f"{alg.name}-quot")
    return QuotientAlgebra(alg, ideal, columns, inner)


def subquotient(alg: LieAlgebra, h: Subspace,
                ideal: Subspace) -> tuple[EmbeddedSubalgebra, QuotientAlgebra]:
    """The subalgebra h and its quotient h / ideal.

    The ideal of h is given in the coordinates of alg and is pulled into
    the RREF basis of h before the quotient is taken.
    """
    emb = subalgebra(alg, h)
    inner = Subspace(h.dim, [emb.from_parent(r) for r in ideal.basis_rows()])
    return emb, quotient(emb.algebra, inner)


def bracket_span(alg: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    rows = [
        alg.bracket(u, v)
        for u in a.basis_rows()
        for v in b.basis_rows()
    ]
    return Subspace(alg.dim, rows)


def ideal_closure(alg: LieAlgebra, sub: Subspace) -> Subspace:
    """Smallest ideal containing sub."""
    full = Subspace.full(alg.dim)
    cur = sub
    while True:
        nxt = cur.add(bracket_span(alg, full, cur))
        if nxt == cur:
            return cur
        cur = nxt


def center(alg: LieAlgebra) -> Subspace:
    return centralizer(alg, Subspace.full(alg.dim))


def centralizer(alg: LieAlgebra, sub: Subspace) -> Subspace:
    """All Z with [Z, sub] = 0."""
    n = alg.dim
    # [Z, w]_k = sum_i Z_i (sum_j c[i][j][k] w_j): one linear row per (w, k);
    # rows that are identically zero constrain nothing and are dropped
    rows = []
    for w in sub.basis_rows():
        block = [[ZERO] * n for _ in range(n)]
        for i, plane in enumerate(alg.nonzeros):
            for wj, entries in zip(w, plane):
                if wj != 0:
                    for k, c in entries:
                        block[k][i] += c * wj
        rows.extend(r for r in block if not is_zero_vec(r))
    return rank_kernel(Matrix(rows, n))[1]


@lru_cache(maxsize=None)
def _ascending_central_series_cached(alg: LieAlgebra) -> tuple:
    return tuple(_ascending_central_series(alg))


def ascending_central_series(alg: LieAlgebra) -> list[Subspace]:
    return list(_ascending_central_series_cached(alg))


def _ascending_central_series(alg: LieAlgebra) -> list[Subspace]:
    """0 = Z_0 < Z_1 <= Z_2 <= ... until stabilization (Z_1 = center)."""
    n = alg.dim
    series = [Subspace.zero(n)]
    while True:
        prev = series[-1]
        if prev.dim == n:
            return series
        q = quotient(alg, prev)
        z_bar = center(q.algebra)
        lifted = prev.add(Subspace(n, [q.lift(r) for r in z_bar.basis_rows()]))
        if lifted == prev:
            return series
        series.append(lifted)


@dataclass(frozen=True)
class StructureProbe:
    center: Subspace
    derived_series: tuple
    lower_central_series: tuple
    is_solvable: bool
    is_nilpotent: bool
    killing_form: Matrix

    def killing_signature(self) -> tuple[int, int, int]:
        return symmetric_signature(self.killing_form)


@lru_cache(maxsize=None)
def structure_probe(alg: LieAlgebra) -> StructureProbe:
    """Center, derived/lower-central series, solvability, Killing form."""
    n = alg.dim
    full = Subspace.full(n)
    derived = [full]
    while derived[-1].dim > 0:
        nxt = bracket_span(alg, derived[-1], derived[-1])
        if nxt == derived[-1]:
            break
        derived.append(nxt)
    lower = [full]
    while lower[-1].dim > 0:
        nxt = bracket_span(alg, full, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
    return StructureProbe(
        center=center(alg),
        derived_series=tuple(derived),
        lower_central_series=tuple(lower),
        is_solvable=derived[-1].dim == 0,
        is_nilpotent=lower[-1].dim == 0,
        killing_form=_killing_form(alg),
    )


def _killing_form(alg: LieAlgebra) -> Matrix:
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
    return Matrix(k, n)
