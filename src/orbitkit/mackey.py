"""The three-step normal subgroup analysis at the Lie-algebra level.

Step 1 (little group): restrict a covector to an ideal n and collect the
stabilizer data g_c, n_c, h = n + g_c.  Step 2 (induction): certify the
three relations that make the orbit induced from h -- stabilizer
containment, the annihilator identity n_c(cov) = ann(h), and exact
exp-linearity of the n_c flows.  Step 3 (obstruction): build the central
extension 0 -> n_c/j -> h_c/j -> h_c/n_c with j = ker(c on n_c), compute
its 2-cocycle through a linear section, and decide triviality by an exact
coboundary solve.

Only infinitesimal data is computed: group components, coverings and the
group-level cocycle need global input that structure constants cannot
supply, and the reports say so where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .liealg import (
    Covector,
    LieAlgebra,
    NotClosedError,
    ad_matrix,
    bracket_span,
    coadjoint_image,
    is_ideal,
    kks_pairing,
    orbit_annihilator,
    orth,
    restrict,
    stabilizer,
    structure_probe,
    subalgebra,
    subquotient,
    validate,
)
from .linalg import (
    Matrix,
    Subspace,
    ZERO,
    annihilator,
    basis_vector,
    combine,
    is_zero_vec,
    rank_kernel,
    solve,
    vec,
    vec_scale,
    vec_sub,
)


@dataclass(frozen=True)
class LittleGroupData:
    algebra: LieAlgebra
    ideal: Subspace
    covector: Covector
    c_on_ideal: tuple        # restriction coordinates in the ideal's RREF basis
    g_c: Subspace            # stabilizer of the restriction in the full algebra
    n_c: Subspace            # stabilizer inside the ideal
    h: Subspace              # n + g_c

    def to_json_dict(self):
        return {
            "ideal_dim": self.ideal.dim,
            "c_on_ideal": self.c_on_ideal,
            "g_c_dim": self.g_c.dim,
            "n_c_dim": self.n_c.dim,
            "h_dim": self.h.dim,
            "h_basis": self.h,
        }


def little_group_step(alg: LieAlgebra, n: Subspace, cov: Covector) -> LittleGroupData:
    """Stabilizer data of cov restricted to an ideal n."""
    if not is_ideal(alg, n):
        raise NotClosedError("the given subspace is not an ideal")
    g_c = orth(alg, n, cov)
    n_c = n.intersect(g_c)
    h = n.add(g_c)
    c_coords = tuple(cov.pair(row) for row in n.basis_rows())
    return LittleGroupData(alg, n, cov, c_coords, g_c, n_c, h)


@dataclass(frozen=True)
class StepRelations:
    stabilizer_in_h: bool          # (a) infinitesimal form
    annihilator_identity: bool     # (b) n_c(cov) = ann(h)
    exp_linear: bool               # (c) certified exactly
    theorem_violated: bool         # (b) failing on valid input means a bug
    witnesses: dict

    def all_hold(self) -> bool:
        return self.stabilizer_in_h and self.annihilator_identity and self.exp_linear

    def to_json_dict(self):
        return {
            "stabilizer_in_h": self.stabilizer_in_h,
            "annihilator_identity": self.annihilator_identity,
            "exp_linear": self.exp_linear,
            "theorem_violated": self.theorem_violated,
            "witnesses": self.witnesses,
        }


def verify_step_relations(data: LittleGroupData) -> StepRelations:
    """Certify the induction-step relations for little-group data.

    The annihilator identity holds unconditionally for ideals, so a failure
    there is flagged as a bug rather than a property of the input.
    Exp-linearity is certified by <c, [n_c, n]> = 0 together with the
    vanishing of <cov, ad(Z)^k g> for every k >= 2, every g and every basis
    direction Z of n_c; this makes exp(Z)(cov) = cov + Z(cov) an exact
    identity.  Since cov . ad(Z)^k = (cov . ad(Z)^2) . ad(Z)^(k-2), all of
    those pairings vanish exactly when the covector t = cov . ad(Z)^2 is
    zero, so t is computed by two row combinations of ad(Z) and, when it is
    not zero, reported as the `higher_order_term` witness.
    """
    alg, cov = data.algebra, data.covector
    witnesses = {}

    stab = stabilizer(alg, cov)
    w = data.h.missing_row(stab)
    rel_a = w is None
    if w is not None:
        witnesses["stabilizer_outside_h"] = w

    moved = coadjoint_image(alg, cov, data.n_c)
    ann_h = annihilator(data.h)
    rel_b = moved == ann_h

    w = next((r for r in bracket_span(alg, data.n_c, data.ideal).basis_rows()
              if cov.pair(r) != 0), None)
    rel_c = w is None
    if w is not None:
        witnesses["c_pairs_with_nc_n_bracket"] = w
    if rel_c:
        for z in data.n_c.basis_rows():
            rows = ad_matrix(alg, z).entries
            t = combine(combine(cov.coords, rows, alg.dim), rows, alg.dim)
            if not is_zero_vec(t):
                rel_c = False
                witnesses["higher_order_term"] = t
                break

    return StepRelations(
        stabilizer_in_h=rel_a,
        annihilator_identity=rel_b,
        exp_linear=rel_c,
        theorem_violated=not rel_b,
        witnesses=witnesses,
    )


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


@dataclass(frozen=True)
class ObstructionReport:
    j: Subspace                     # ker(c restricted to n_c)
    h_c: Subspace
    n_c: Subspace
    quotient_algebra: LieAlgebra    # h_c / n_c
    section: Matrix                 # rows: lifts of the quotient basis, ambient coords
    cocycle: Matrix                 # antisymmetric form on h_c/n_c
    c_vanishes_on_n_c: bool
    trivial: bool
    primitive: Optional[tuple]      # beta with f = beta([.,.]) when trivial
    extension_dims: tuple           # (dim n_c/j, dim h_c/j, dim h_c/n_c)

    def to_json_dict(self):
        return {
            "j_dim": self.j.dim,
            "extension_dims": self.extension_dims,
            "c_vanishes_on_n_c": self.c_vanishes_on_n_c,
            "cocycle": self.cocycle,
            "trivial": self.trivial,
            "primitive": self.primitive,
            "level": "infinitesimal",
        }


def obstruction_step(
    data: LittleGroupData,
    section_rows: Optional[Sequence[Sequence]] = None,
) -> ObstructionReport:
    """Infinitesimal Mackey obstruction of the little-group data.

    Builds j = ker(c|n_c), a linear section of h_c -> h_c/n_c (canonical
    RREF-complement pivots unless section_rows is given), the 2-cocycle
    f(x, y) = <c, n_c-component of [sx, sy]>, and decides whether f is the
    coboundary of some linear form by an exact solve.
    """
    alg, cov = data.algebra, data.covector
    h_c = data.g_c  # stabilizer of c inside h equals g_c since g_c <= h
    n_c = data.n_c
    ker_cov = rank_kernel(Matrix([cov.coords]))[1]
    j = n_c.intersect(ker_cov)
    c_vanishes = all(cov.pair(row) == 0 for row in n_c.basis_rows())

    emb, quot = subquotient(alg, h_c, n_c)
    m = quot.algebra.dim

    if section_rows is None:
        sec = [emb.to_parent(quot.lift(basis_vector(m, k))) for k in range(m)]
    else:
        sec = [vec(r) for r in section_rows]
        if len(sec) != m:
            raise ValueError("section must provide one lift per quotient basis class")
        for k, row in enumerate(sec):
            inner = emb.from_parent(row)  # raises if outside h_c
            if quot.project(inner) != basis_vector(m, k):
                raise ValueError(f"section row {k} does not project to the basis class")
    section = Matrix(sec, alg.dim)

    # section row k projects to class k, so [sx, sy] less the section lift
    # of its class is its n_c-component
    f = [[ZERO] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            br = alg.bracket(sec[a], sec[b])
            coords = h_c.coords_of(br)
            if coords is None:
                raise AssertionError("bracket escaped h_c; stabilizer not closed?")
            n_part = vec_sub(br, combine(quot.project(coords), sec, alg.dim))
            val = cov.pair(n_part)
            f[a][b] = val
            f[b][a] = -val
    cocycle = Matrix(f, m)

    # triviality: find beta with f(x,y) = beta([x,y]) on the quotient
    pair_rows, rhs = [], []
    cq = quot.algebra.structure
    for a in range(m):
        for b in range(a + 1, m):
            pair_rows.append([cq[a][b][k] for k in range(m)])
            rhs.append(f[a][b])
    if pair_rows:  # else no bracket constrains beta, and the report prints []
        beta = solve(Matrix(pair_rows), rhs)
    else:
        beta = ()
    trivial = beta is not None

    dims = (n_c.dim - j.dim, h_c.dim - j.dim, m)
    return ObstructionReport(
        j=j,
        h_c=h_c,
        n_c=n_c,
        quotient_algebra=quot.algebra,
        section=section,
        cocycle=cocycle,
        c_vanishes_on_n_c=c_vanishes,
        trivial=trivial,
        primitive=tuple(beta) if trivial else None,
        extension_dims=dims,
    )


@dataclass(frozen=True)
class SemidirectReport:
    point_orbit: bool
    witness_name: Optional[str]
    witness: Optional[Subspace]
    cocycle_zero: Optional[bool]
    rejections: tuple  # (name, reason)

    def to_json_dict(self):
        return {
            "point_orbit": self.point_orbit,
            "witness": self.witness_name,
            "cocycle_zero": self.cocycle_zero,
            "rejections": [{"candidate": n, "reason": r} for n, r in self.rejections],
        }


def semidirect_witness(
    alg: LieAlgebra,
    n: Subspace,
    cov: Covector,
    candidates: Sequence[tuple[str, Subspace]],
) -> SemidirectReport:
    """Search declared complements s with g = s + n for one killing the cocycle.

    Requires the point-orbit hypothesis <cov, [g, n]> = 0.  A candidate is
    accepted when it is a subalgebra complementary to n and the obstruction
    cocycle computed with a section into it vanishes identically; failing
    candidates are reported with the reason.
    """
    if not is_ideal(alg, n):
        raise NotClosedError("the given subspace is not an ideal")
    nd = alg.dim
    if any(cov.pair(r) != 0 for r in bracket_span(alg, Subspace.full(nd), n).basis_rows()):
        raise ValueError("point-orbit hypothesis <cov, [g, n]> = 0 fails")

    data = little_group_step(alg, n, cov)
    assert data.g_c.dim == nd  # point orbit: everything stabilizes
    emb, quot = subquotient(alg, data.g_c, n)
    m = quot.algebra.dim
    rejections = []
    for name, s in candidates:
        if s.ambient_dim != nd:
            rejections.append((name, "wrong ambient dimension"))
            continue
        total, meet = s.add(n), s.intersect(n)
        if total.dim != nd or meet.dim != 0:
            rejections.append((name, "not a linear complement of the ideal"))
            continue
        try:
            subalgebra(alg, s)
        except NotClosedError:
            rejections.append((name, "declared complement is not a subalgebra"))
            continue
        # lift the canonical quotient classes into s: solve rep = sigma - correction
        # with sigma in s and the correction in n
        aug = Matrix(list(s.basis_rows()) + [vec_scale(-1, r) for r in n.basis_rows()]).transpose()
        sec = []
        ok = True
        for k in range(m):
            rep = emb.to_parent(quot.lift(basis_vector(m, k)))
            sol = solve(aug, rep)
            if sol is None:
                ok = False
                break
            sec.append(combine(sol[: s.dim], s.basis_rows(), nd))
        if not ok:
            rejections.append((name, "no section of the quotient lands in the candidate"))
            continue
        report = obstruction_step(data, section_rows=sec)
        if report.cocycle.is_zero():
            return SemidirectReport(True, name, s, True, tuple(rejections))
        rejections.append((name, "cocycle does not vanish on the candidate section"))
    return SemidirectReport(True, None, None, None, tuple(rejections))


def _orbit_dim(alg: LieAlgebra, cov: Covector) -> int:
    """dim of the orbit of cov, refusing an algebra that fails validation."""
    if not validate(alg).ok:
        raise ValueError("algebra fails validation; see validate()")
    return rank_kernel(kks_pairing(alg, cov))[0]


@dataclass(frozen=True)
class AbelianStepReport:
    h: Subspace
    dim_x: int
    dim_gh: int
    dim_y: int
    dims_match: bool            # both stated identities plus the induced count

    def to_json_dict(self):
        return {
            "h_dim": self.h.dim,
            "dim_x": self.dim_x,
            "dim_gh": self.dim_gh,
            "dim_y": self.dim_y,
            "identities_hold": self.dims_match,
        }


def abelian_step(alg: LieAlgebra, a: Subspace, cov: Covector) -> AbelianStepReport:
    """Single reduction step along an orbit-abelian ideal a.

    h is the stabilizer of the restriction of cov to a; the fiber Y is the
    orbit of cov restricted to h.  Verifies dim(G/H) = dim a(cov),
    dim Y = dim(h / orth(h)) and dim X = 2 dim(G/H) + dim Y exactly.
    """
    if not is_ideal(alg, a):
        raise NotClosedError("the given subspace is not an ideal")
    if not orbit_annihilator(alg, cov).contains_subspace(bracket_span(alg, a, a)):
        raise ValueError("ideal is not orbit-abelian: [a, a] leaves ann(X)")

    moved = coadjoint_image(alg, cov, a)
    h = annihilator(moved)  # orth(alg, a, cov)
    cov_h, emb = restrict(alg, cov, h)
    dim_y = _orbit_dim(emb.algebra, cov_h)
    dim_x = _orbit_dim(alg, cov)
    dim_gh = alg.dim - h.dim
    orth_h = orth(alg, h, cov)
    ok = (
        dim_gh == moved.dim
        and h.contains_subspace(orth_h)
        and dim_y == h.dim - orth_h.dim
        and dim_x == 2 * dim_gh + dim_y
    )
    return AbelianStepReport(h, dim_x, dim_gh, dim_y, ok)


@dataclass(frozen=True)
class LittleAlgebraType:
    dim: int
    is_solvable: bool
    is_nilpotent: bool
    killing_signature: tuple  # (positive, negative, rank)
    label: str

    def to_json_dict(self):
        pos, neg, rank = self.killing_signature
        return {
            "dim": self.dim,
            "is_solvable": self.is_solvable,
            "is_nilpotent": self.is_nilpotent,
            "killing_signature": {"positive": pos, "negative": neg, "rank": rank},
            "label": self.label,
        }


_TYPE_TABLE = {
    (3, False, False, (0, 3, 3)): "so(3)",
    (3, False, False, (2, 1, 3)): "sl(2,R)",
    (6, False, False, (3, 3, 6)): "so(3,1)",
}


def classify_little_algebra(alg: LieAlgebra, a: Subspace, cov: Covector) -> LittleAlgebraType:
    """Isomorphism-type descriptor of h/a for an abelian ideal a.

    Reports dimension, solvability, nilpotency and exact Killing signature
    of the quotient of the little algebra by the ideal -- enough to
    separate so(3), e(2), sl(2,R) and so(3,1).
    """
    if not is_ideal(alg, a):
        raise NotClosedError("the given subspace is not an ideal")
    if bracket_span(alg, a, a).dim != 0:
        raise ValueError("the given ideal is not abelian")
    _, quot = subquotient(alg, orth(alg, a, cov), a)
    probe = structure_probe(quot.algebra)
    sig = probe.killing_signature()
    key = (quot.algebra.dim, probe.is_solvable, probe.is_nilpotent, sig)
    label = _TYPE_TABLE.get(key)
    if label is None:
        if key[0] == 3 and probe.is_solvable and not probe.is_nilpotent and sig[2] == 1:
            label = "e(2)" if sig == (0, 1, 1) else "e(1,1)"
        else:
            kind = "nilpotent" if probe.is_nilpotent else (
                "solvable" if probe.is_solvable else "non-solvable")
            label = f"dim{key[0]}-{kind}-sig({sig[0]},{sig[1]})"
    return LittleAlgebraType(quot.algebra.dim, probe.is_solvable, probe.is_nilpotent, sig, label)


@dataclass(frozen=True)
class MackeyReport:
    little_group: LittleGroupData
    relations: StepRelations
    obstruction: ObstructionReport
    dim_x: int
    dim_u: int
    dim_gh: int
    dim_v: int
    fiber_rank: int        # rank of the pairing of cov restricted to g_c
    dims_consistent: bool

    def to_json_dict(self):
        return {
            "little_group": self.little_group.to_json_dict(),
            "relations": self.relations.to_json_dict(),
            "obstruction": self.obstruction.to_json_dict(),
            "dimensions": {
                "dim_x": self.dim_x,
                "dim_u": self.dim_u,
                "dim_g_mod_h": self.dim_gh,
                "dim_v": self.dim_v,
                "consistent": self.dims_consistent,
            },
        }

    def all_checks(self) -> bool:
        return self.relations.all_hold() and self.dims_consistent


def mackey_report(alg: LieAlgebra, n: Subspace, cov: Covector) -> MackeyReport:
    """Full three-step report with the synopsis dimension bookkeeping."""
    data = little_group_step(alg, n, cov)
    relations = verify_step_relations(data)
    obstruction = obstruction_step(data)
    dim_x = _orbit_dim(alg, cov)
    dim_u = n.dim - data.n_c.dim
    dim_gh = alg.dim - data.h.dim
    dim_v = dim_x - 2 * dim_gh - dim_u
    cov_gc, emb = restrict(alg, cov, data.g_c)
    fiber_rank = rank_kernel(kks_pairing(emb.algebra, cov_gc))[0]
    consistent = dim_v >= 0 and dim_v % 2 == 0 and dim_u >= 0 and dim_gh >= 0
    return MackeyReport(
        data, relations, obstruction, dim_x, dim_u, dim_gh, dim_v, fiber_rank, consistent
    )
