"""The three-step normal subgroup analysis at the Lie-algebra level.

The ideal depends on no point, so `check_ideal` refuses a subspace that is
not an ideal once per invocation, before any point's report, and the steps
assume a checked ideal.  Step 1 (little group): `little_group_step`
restricts a covector to the ideal n and collects the stabilizer data
g_c = orth(n), n_c = n & g_c and h = n + g_c, the last two from one
elimination.  Every later step takes its `LittleGroupData`, so a point that
runs several steps decides each once.  Step 2 (induction): certify the
three relations that make the orbit induced from h -- stabilizer
containment, the annihilator identity n_c(cov) = ann(h), and exact
exp-linearity of the n_c flows, whose witness cov . ad(Z)^2 comes from the
coadjoint kernel `liealg.pairing`.  Step 3
(obstruction): build the central extension 0 -> n_c/j -> h_c/j -> h_c/n_c
with j = ker(c on n_c), compute its 2-cocycle through a linear section, and
decide triviality by an exact coboundary solve.  `structure.subquotient`
gives h_c/n_c in ambient coordinates: its table, its canonical lifts and the
class projection, so the table of h_c itself is never built.  The section
lifts each class to its canonical lift.  At a point orbit (g_c = g) the
semidirect witness looks for a declared complement of n that is a
subalgebra; the section into one is a homomorphism, so the cocycle vanishes
on it and no obstruction is computed.  `dimensions` does the synopsis
bookkeeping of a point, for `mackey` and for `classify`'s abelian ideals.

Only infinitesimal data is computed: group components, coverings and the
group-level cocycle need global input that structure constants cannot
supply, and the reports say so where it matters.
"""

from __future__ import annotations

from collections.abc import Sequence

from .liealg import Covector, LieAlgebra, bracket_span, is_nilpotent, kks_pairing, pairing
from .linalg import (
    Matrix,
    Record,
    Subspace,
    ZERO,
    annihilator,
    combine,
    solve,
    sum_intersect,
    vec_sub,
)
from .structure import (
    NotClosedError,
    check_subalgebra,
    coadjoint_image,
    is_ideal,
    is_solvable,
    killing_form,
    orbit_dim,
    orth,
    stabilizer,
    subquotient,
)


class LittleGroupData(Record):
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


def check_ideal(alg: LieAlgebra, n: Subspace) -> None:
    """Raise NotClosedError unless n is an ideal of alg."""
    if not is_ideal(alg, n):
        raise NotClosedError("the given subspace is not an ideal")


def little_group_step(alg: LieAlgebra, n: Subspace, cov: Covector) -> LittleGroupData:
    """Stabilizer data of cov restricted to n, an ideal that `check_ideal` passed."""
    g_c = orth(alg, n, cov)
    h, n_c = sum_intersect(n, g_c)
    c_coords = tuple(cov.pair(row) for row in n.rows)
    return LittleGroupData(alg, n, cov, c_coords, g_c, n_c, h)


class StepRelations(Record):
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
    zero, so t is computed by the `pairing` kernel twice and, when it is not
    zero, reported as the `higher_order_term` witness.
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

    w = next((r for r in bracket_span(alg, data.n_c, data.ideal).rows
              if cov.pair(r) != 0), None)
    b, n = kks_pairing(alg, cov).entries, alg.dim
    higher = (combine(z, pairing(alg, combine(z, b, n)), n) for z in data.n_c.rows)
    rel_c = w is None
    if w is not None:
        witnesses["c_pairs_with_nc_n_bracket"] = w
    elif (t := next(filter(any, higher), None)) is not None:
        rel_c = False
        witnesses["higher_order_term"] = t

    return StepRelations(
        stabilizer_in_h=rel_a,
        annihilator_identity=rel_b,
        exp_linear=rel_c,
        theorem_violated=not rel_b,
        witnesses=witnesses,
    )


class ObstructionReport(Record):
    j_dim: int                      # dim ker(c restricted to n_c)
    n_c: Subspace
    quotient_algebra: LieAlgebra    # h_c / n_c
    section: Matrix                 # rows: lifts of the quotient basis, ambient coords
    cocycle: Matrix                 # antisymmetric form on h_c/n_c
    c_vanishes_on_n_c: bool
    trivial: bool
    primitive: tuple | None         # beta with f = beta([.,.]) when trivial
    extension_dims: tuple           # (dim n_c/j, dim h_c/j, dim h_c/n_c)

    def to_json_dict(self):
        return {
            "j_dim": self.j_dim,
            "extension_dims": self.extension_dims,
            "c_vanishes_on_n_c": self.c_vanishes_on_n_c,
            "cocycle": self.cocycle,
            "trivial": self.trivial,
            "primitive": self.primitive,
            "level": "infinitesimal",
        }


def obstruction_step(data: LittleGroupData) -> ObstructionReport:
    """Infinitesimal Mackey obstruction of the little-group data.

    j = ker(c|n_c) is all of n_c when c vanishes there and a hyperplane of it
    otherwise, so only its dimension is kept.  The section s of h_c -> h_c/n_c
    takes each class to its canonical lift, the 2-cocycle is f(x, y) = <c,
    n_c-component of [sx, sy]>, and an exact solve decides whether f is the
    coboundary of some linear form.
    """
    alg, cov = data.algebra, data.covector
    h_c = data.g_c  # stabilizer of c inside h equals g_c since g_c <= h
    n_c = data.n_c
    c_vanishes = all(cov.pair(row) == 0 for row in n_c.rows)
    j_dim = n_c.dim - (0 if c_vanishes else 1)

    quot = subquotient(alg, h_c, n_c)
    m, sec = quot.algebra.dim, quot.lifts

    # section row k projects to class k, so [sx, sy] (in h_c, which
    # subquotient found closed) less the section lift of its class is its
    # n_c-component
    f = [[ZERO] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            br = alg.bracket_exact(sec[a], sec[b])
            n_part = vec_sub(br, combine(quot.project(br), sec, alg.dim))
            val = cov.pair(n_part)
            f[a][b] = val
            f[b][a] = -val

    # triviality: find beta with f(x,y) = beta([x,y]) on the quotient
    pair_rows, rhs = [], []
    for a in range(m):
        for b in range(a + 1, m):
            coeffs = dict(quot.algebra.nonzeros[a][b])
            pair_rows.append([coeffs.get(k, ZERO) for k in range(m)])
            rhs.append(f[a][b])
    # with no pair row no bracket constrains beta, and the report prints []
    beta = solve(Matrix(pair_rows), rhs) if pair_rows else ()
    trivial = beta is not None

    dims = (n_c.dim - j_dim, h_c.dim - j_dim, m)
    return ObstructionReport(j_dim=j_dim, n_c=n_c, quotient_algebra=quot.algebra,
                             section=Matrix(sec, alg.dim), cocycle=Matrix(f, m),
                             c_vanishes_on_n_c=c_vanishes, trivial=trivial,
                             primitive=tuple(beta) if trivial else None, extension_dims=dims)


class SemidirectReport(Record):
    point_orbit: bool
    witness_name: str | None
    cocycle_zero: bool | None
    rejections: tuple  # (name, reason)

    def to_json_dict(self):
        return {
            "point_orbit": self.point_orbit,
            "witness": self.witness_name,
            "cocycle_zero": self.cocycle_zero,
            "rejections": [{"candidate": n, "reason": r} for n, r in self.rejections],
        }


def semidirect_witness(data: LittleGroupData,
                       candidates: Sequence[tuple[str, Subspace]]) -> SemidirectReport:
    """The first declared complement s of n that is a subalgebra, with the rejections.

    Requires the point-orbit hypothesis <cov, [g, n]> = 0, which holds
    exactly when g_c = orth(n) is all of g; then h_c = g and n_c = n.  A
    candidate is rejected for the wrong ambient dimension, then for not being
    a linear complement (dim s + dim n = dim g and s + n = g), then for not
    being a subalgebra.  Any other candidate is the witness, and its cocycle
    is zero by construction: the projection s -> g/n is a homomorphism (n is
    an ideal) and one-to-one onto, so its inverse, the section into s, is a
    homomorphism too.  Hence [sx, sy] = s[x, y] lies in s, its n-component is
    0, and so is <c, that component>.
    """
    alg, nd = data.algebra, data.algebra.dim
    if data.g_c.dim != nd:
        raise ValueError("point-orbit hypothesis <cov, [g, n]> = 0 fails")
    rejections = []
    for name, s in candidates:
        if s.ambient_dim != nd:
            rejections.append((name, "wrong ambient dimension"))
        elif s.dim + data.ideal.dim != nd or data.ideal.add(s).dim != nd:
            rejections.append((name, "not a linear complement of the ideal"))
        else:
            try:
                check_subalgebra(alg, s)
            except NotClosedError:
                rejections.append((name, "declared complement is not a subalgebra"))
            else:
                return SemidirectReport(True, name, True, tuple(rejections))
    return SemidirectReport(True, None, None, tuple(rejections))


class LittleAlgebraType(Record):
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


def classify_little_algebra(data: LittleGroupData) -> LittleAlgebraType:
    """Isomorphism-type descriptor of h/a for an abelian ideal a = data.ideal.

    Reports dimension, solvability, nilpotency and exact Killing signature
    of the quotient of the little algebra h = g_c by the ideal -- enough to
    separate so(3), e(2), sl(2,R) and so(3,1).
    """
    alg, a = data.algebra, data.ideal
    if bracket_span(alg, a, a).dim != 0:
        raise ValueError("the given ideal is not abelian")
    from .polynomials import symmetric_signature  # only `classify` reads a signature

    q = subquotient(alg, data.g_c, a).algebra
    solvable, nilpotent = is_solvable(q), is_nilpotent(q)
    sig = symmetric_signature(killing_form(q))
    label = _TYPE_TABLE.get((q.dim, solvable, nilpotent, sig))
    if label is None:
        if q.dim == 3 and solvable and not nilpotent and sig[2] == 1:
            label = "e(2)" if sig == (0, 1, 1) else "e(1,1)"
        else:
            kind = "nilpotent" if nilpotent else ("solvable" if solvable else "non-solvable")
            label = f"dim{q.dim}-{kind}-sig({sig[0]},{sig[1]})"
    return LittleAlgebraType(q.dim, solvable, nilpotent, sig, label)


class MackeyReport(Record):
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


def dimensions(data: LittleGroupData) -> tuple:
    """(dim_x, dim_u, dim_gh, dim_v, fiber_rank, consistent) of the synopsis.

    dim X = 2 dim(G/H) + dim U + dim V, and V is the orbit of cov restricted
    to g_c, so dim_v is consistent when it is the rank of that pairing.
    """
    alg, cov = data.algebra, data.covector
    dim_x = orbit_dim(alg, cov)
    dim_u = data.ideal.dim - data.n_c.dim
    dim_gh = alg.dim - data.h.dim
    dim_v = dim_x - 2 * dim_gh - dim_u
    fiber_rank = orbit_dim(alg, cov, data.g_c)
    return dim_x, dim_u, dim_gh, dim_v, fiber_rank, dim_v == fiber_rank


def mackey_report(alg: LieAlgebra, n: Subspace, cov: Covector) -> MackeyReport:
    """Full three-step report with the synopsis dimension bookkeeping."""
    data = little_group_step(alg, n, cov)
    return MackeyReport(data, verify_step_relations(data), obstruction_step(data),
                        *dimensions(data))
