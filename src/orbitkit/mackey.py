"""The three-step normal subgroup analysis at the Lie-algebra level.

The ideal depends on no point, so `check_ideal` refuses a subspace that is
not an ideal, and `check_abelian` one that is not abelian, once per
invocation, before any point's report, and the steps assume a checked
ideal.  Step 1 (little group): `little_group_step` restricts a covector to
the ideal n and collects the stabilizer data g_c = orth(n), n_c = n & g_c
and h = n + g_c, the last two from one elimination, and the covector's own
stabilizer g_f, one elimination of its KKS pairing.  Every later step
takes its `LittleGroupData`, so a point that runs several steps decides
each once.  Step 2 (induction): certify the three relations that make the
orbit induced from h -- stabilizer containment, the annihilator identity
n_c(cov) = ann(h), and exact exp-linearity of the n_c flows, which
<c, [n_c, n]> = 0 alone certifies, as n_c lies in the ideal n.  Step 3
(obstruction): build the central extension 0 -> n_c/j -> h_c/j -> h_c/n_c
with j = ker(c on n_c), compute its 2-cocycle through a linear section, and
decide triviality by an exact coboundary solve.  `structure.subquotient`
gives h_c/n_c in ambient coordinates, its table and its canonical lifts, so
the table of h_c itself is never built.  The section lifts each class to
its canonical lift, which n_c.reduce reads off any member of the class.
At a point orbit (g_c = g) the semidirect witness looks for a declared
complement of n that is a subalgebra; the section into one is a
homomorphism, so the cocycle vanishes on it and no obstruction is
computed.  `dimensions` does the synopsis bookkeeping of a point, for
`mackey` and for `classify`'s abelian ideals.  Each step returns the block
of the report that it prints, and `mackey_steps` the point's whole
`mackey` result.

`classify_little_algebra` names h/a by its dimension, solvability,
nilpotency and Killing signature.  `symmetric_signature` counts that
signature by a congruence elimination, so `classify` compiles no
polynomial code.  That routine, `killing_form` and `is_ideal` are defined
here because this module is their one user.

Only infinitesimal data is computed: group components, coverings and the
group-level cocycle need global input that structure constants cannot
supply, and the reports say so where it matters.
"""

from __future__ import annotations

from collections.abc import Sequence

from .liealg import (
    Covector,
    LieAlgebra,
    bracket_span,
    is_nilpotent,
    orbit_dim,
    stabilizer,
)
from .linalg import (
    Matrix,
    Record,
    Subspace,
    ZERO,
    annihilator,
    solve,
    sum_intersect,
    vec_sub,
)
from .structure import (
    NotClosedError,
    check_subalgebra,
    coadjoint_image,
    is_solvable,
    orth,
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
    g_f: Subspace            # stabilizer of cov itself


def is_ideal(alg: LieAlgebra, sub: Subspace) -> bool:
    return sub.contains_subspace(bracket_span(alg, Subspace.full(alg.dim), sub))


def check_ideal(alg: LieAlgebra, n: Subspace) -> None:
    """Raise NotClosedError unless n is an ideal of alg."""
    if not is_ideal(alg, n):
        raise NotClosedError("the given subspace is not an ideal")


def check_abelian(alg: LieAlgebra, a: Subspace) -> None:
    """Raise ValueError unless [a, a] = 0."""
    if bracket_span(alg, a, a).dim != 0:
        raise ValueError("the given ideal is not abelian")


def little_group_step(alg: LieAlgebra, n: Subspace, cov: Covector) -> LittleGroupData:
    """Stabilizer data of cov restricted to n, an ideal that `check_ideal` passed."""
    g_c = orth(alg, n, cov)
    h, n_c = sum_intersect(n, g_c)
    c_coords = tuple(cov.pair(row) for row in n.rows)
    return LittleGroupData(alg, n, cov, c_coords, g_c, n_c, h, stabilizer(alg, cov))


def verify_step_relations(data: LittleGroupData) -> dict:
    """The `relations` block: the induction-step relations for little-group data.

    It holds the three relations, `stabilizer_in_h` (infinitesimal),
    `annihilator_identity` (n_c(cov) = ann(h)) and `exp_linear` (certified
    exactly), `theorem_violated`, and a witness for each failed relation that
    has one.  The annihilator identity holds unconditionally for ideals, so a
    failure there is flagged as a bug (`theorem_violated`) rather than a
    property of the input.
    Exp-linearity, exp(Z)(cov) = cov + Z(cov) for every Z in n_c, holds when
    <cov, ad(Z)^2 g> = 0, and <c, [n_c, n]> = 0 gives that: Z lies in the ideal
    n, so [Z, [Z, g]] lies in [n_c, n].  Data whose n_c is not inside its
    ideal is refused with a ValueError.
    """
    alg, cov = data.algebra, data.covector
    if data.ideal.missing_row(data.n_c) is not None:
        raise ValueError("n_c does not lie inside the ideal")
    witnesses = {}

    w = data.h.missing_row(data.g_f)
    rel_a = w is None
    if w is not None:
        witnesses["stabilizer_outside_h"] = w

    moved = coadjoint_image(alg, cov, data.n_c)
    ann_h = annihilator(data.h)
    rel_b = moved == ann_h

    w = next((r for r in bracket_span(alg, data.n_c, data.ideal).rows
              if cov.pair(r) != 0), None)
    rel_c = w is None
    if w is not None:
        witnesses["c_pairs_with_nc_n_bracket"] = w

    return {
        "stabilizer_in_h": rel_a,
        "annihilator_identity": rel_b,
        "exp_linear": rel_c,
        "theorem_violated": not rel_b,
        "witnesses": witnesses,
    }


def obstruction_step(data: LittleGroupData) -> dict:
    """The `obstruction` block: the infinitesimal Mackey obstruction of little-group data.

    j = ker(c|n_c) is all of n_c when c vanishes there and a hyperplane of it
    otherwise, so only its dimension is kept.  The section s of h_c -> h_c/n_c
    takes each class to its canonical lift, the 2-cocycle is f(x, y) = <c,
    n_c-component of [sx, sy]>, and an exact solve decides whether f is the
    coboundary of some linear form: `trivial`, with `primitive` the beta with
    f = beta([., .]) when it is (else null).  `extension_dims` are
    (dim n_c/j, dim h_c/j, dim h_c/n_c).
    """
    alg, cov = data.algebra, data.covector
    h_c = data.g_c  # stabilizer of c inside h equals g_c since g_c <= h
    n_c = data.n_c
    c_vanishes = all(cov.pair(row) == 0 for row in n_c.rows)
    j_dim = n_c.dim - (0 if c_vanishes else 1)

    quot = subquotient(alg, h_c, n_c)
    m, sec = quot.algebra.dim, quot.lifts

    # [sx, sy] lies in h_c, which subquotient found closed, and n_c.reduce of
    # it is the combination of the lifts at its class coordinates, the
    # section lift of its class; the rest is its n_c-component.  Triviality:
    # beta with f(x,y) = beta([x,y]) on the quotient, one equation per pair
    f = [[ZERO] * m for _ in range(m)]
    pair_rows, rhs = [], []
    for a in range(m):
        for b in range(a + 1, m):
            br = alg.bracket_exact(sec[a], sec[b])
            val = cov.pair(vec_sub(br, n_c.reduce(br)))
            f[a][b], f[b][a] = val, -val
            coeffs = dict(quot.algebra.nonzeros[a][b])
            pair_rows.append([coeffs.get(k, ZERO) for k in range(m)])
            rhs.append(val)
    # with no pair row no bracket constrains beta, and the report prints []
    beta = solve(Matrix(pair_rows), rhs) if pair_rows else ()

    return {
        "j_dim": j_dim,
        "extension_dims": (n_c.dim - j_dim, h_c.dim - j_dim, m),
        "c_vanishes_on_n_c": c_vanishes,
        "cocycle": Matrix(f, m),
        "trivial": beta is not None,
        "primitive": None if beta is None else tuple(beta),
        "level": "infinitesimal",
    }


def semidirect_witness(data: LittleGroupData,
                       candidates: Sequence[tuple[str, Subspace]]) -> dict:
    """The `semidirect` block: the first declared complement s of n that is a
    subalgebra (`witness`, else null), with the rejections before it.

    Requires the point-orbit hypothesis <cov, [g, n]> = 0, which holds
    exactly when g_c = orth(n) is all of g; then h_c = g and n_c = n.  A
    candidate is rejected for the wrong ambient dimension, then for not being
    a linear complement (dim s + dim n = dim g and s + n = g), then for not
    being a subalgebra.  Any other candidate is the witness, and its cocycle
    is zero by construction (`cocycle_zero` is true, null with no witness):
    the projection s -> g/n is a homomorphism (n is an ideal) and one-to-one
    onto, so its inverse, the section into s, is a homomorphism too.  Hence
    [sx, sy] = s[x, y] lies in s, its n-component is 0, and so is <c, that
    component>.
    """
    alg, nd = data.algebra, data.algebra.dim
    if data.g_c.dim != nd:
        raise ValueError("point-orbit hypothesis <cov, [g, n]> = 0 fails")
    rejections = []
    witness = None
    for name, s in candidates:
        if s.ambient_dim != nd:
            reason = "wrong ambient dimension"
        elif s.dim + data.ideal.dim != nd or data.ideal.add(s).dim != nd:
            reason = "not a linear complement of the ideal"
        else:
            try:
                check_subalgebra(alg, s)
            except NotClosedError:
                reason = "declared complement is not a subalgebra"
            else:
                witness = name
                break
        rejections.append({"candidate": name, "reason": reason})
    return {"point_orbit": True, "witness": witness,
            "cocycle_zero": None if witness is None else True, "rejections": rejections}


def killing_form(alg: LieAlgebra) -> Matrix:
    """B(e_i, e_j) = tr(ad e_i ad e_j) = sum_{a,b} (ad e_i)_ab (ad e_j)_ba.

    by_ab[a, b] lists (i, (ad e_i)_ab) = (i, c[i][b][a]) over the nonzeros, so
    only products of two nonzeros are formed.
    """
    n, by_ab = alg.dim, {}
    for i, plane in enumerate(alg.nonzeros):
        for b, entries in enumerate(plane):
            for a, c in entries:
                by_ab.setdefault((a, b), []).append((i, c))
    k = [[ZERO] * n for _ in range(n)]
    for (a, b), column in by_ab.items():
        for j, d in by_ab.get((b, a), ()):
            for i, c in column:
                k[i][j] += c * d
    return Matrix._of(tuple(map(tuple, k)), n)


def symmetric_signature(m: Matrix) -> tuple[int, int, int]:
    """(positives, negatives, rank) of a symmetric rational matrix, by congruence.

    Symmetric Gaussian elimination over the indices still left: pivot on a
    nonzero diagonal entry d = a_pp, count its sign, and clear its row and
    column, a_ik -= a_ip a_pk / d, which is a congruence.  When every
    diagonal entry left is 0 but some a_pj is not, replacing e_p by e_p + e_j
    (row p += row j, then column p += column j) makes a_pp = 2 a_pj a pivot.
    A zero block ends the elimination.  By Sylvester's law of inertia (1852)
    the counts are the signature of m, whatever pivots are chosen.
    """
    if m.transpose() != m:
        raise ValueError("signature of a matrix that is non-square or not symmetric")
    a = [list(row) for row in m.entries]
    left, signs = list(range(m.rows)), []
    while left:
        p = next((i for i in left if a[i][i]), None)
        if p is None:
            p, j = next(((i, j) for i in left for j in left if a[i][j]), (None, None))
            if p is None:
                break
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        left.remove(p)
        top = a[p]
        signs.append(top[p] > 0)
        for i in left:
            if top[i]:
                row, f = a[i], top[i] / top[p]
                for k in left:
                    if top[k]:
                        row[k] -= f * top[k]
    pos = sum(signs)
    return pos, len(signs) - pos, len(signs)


_TYPE_TABLE = {
    (3, False, False, (0, 3, 3)): "so(3)",
    (3, False, False, (2, 1, 3)): "sl(2,R)",
    (6, False, False, (3, 3, 6)): "so(3,1)",
    (3, True, False, (0, 1, 1)): "e(2)",
    (3, True, False, (1, 0, 1)): "e(1,1)",
}


def classify_little_algebra(data: LittleGroupData) -> dict:
    """The `little_algebra` block: the isomorphism type of h/a, for an ideal
    a = data.ideal that `check_abelian` passed.

    It holds the dimension, solvability, nilpotency and exact Killing
    signature of the quotient of the little algebra h = g_c by a, and a
    label -- enough to separate so(3), e(2), sl(2,R) and so(3,1).
    """
    q = subquotient(data.algebra, data.g_c, data.ideal).algebra
    solvable, nilpotent = is_solvable(q), is_nilpotent(q)
    sig = symmetric_signature(killing_form(q))
    label = _TYPE_TABLE.get((q.dim, solvable, nilpotent, sig))
    if label is None:
        kind = "nilpotent" if nilpotent else ("solvable" if solvable else "non-solvable")
        label = f"dim{q.dim}-{kind}-sig({sig[0]},{sig[1]})"
    return {
        "dim": q.dim,
        "is_solvable": solvable,
        "is_nilpotent": nilpotent,
        "killing_signature": {"positive": sig[0], "negative": sig[1], "rank": sig[2]},
        "label": label,
    }


def dimensions(data: LittleGroupData) -> tuple:
    """(dim_x, dim_u, dim_gh, dim_v, fiber_rank, consistent) of the synopsis.

    dim X = 2 dim(G/H) + dim U + dim V, and V is the orbit of cov restricted
    to g_c, so dim_v is consistent when it is the rank of that pairing.
    dim X = dim g - dim g_f, read off the stabilizer `little_group_step` built.
    """
    alg, cov = data.algebra, data.covector
    dim_x = alg.dim - data.g_f.dim
    dim_u = data.ideal.dim - data.n_c.dim
    dim_gh = alg.dim - data.h.dim
    dim_v = dim_x - 2 * dim_gh - dim_u
    fiber_rank = orbit_dim(alg, cov, data.g_c)
    return dim_x, dim_u, dim_gh, dim_v, fiber_rank, dim_v == fiber_rank


def mackey_steps(data: LittleGroupData) -> dict:
    """The `mackey` result of little-group data: {"mackey": the three steps'
    blocks and the dimension bookkeeping, "ok": ...}.

    ok is whether the three induction relations hold and the dimensions are
    consistent.
    """
    relations = verify_step_relations(data)
    obstruction = obstruction_step(data)
    dim_x, dim_u, dim_gh, dim_v, _, consistent = dimensions(data)
    return {
        "mackey": {
            "little_group": {"ideal_dim": data.ideal.dim, "c_on_ideal": data.c_on_ideal,
                             "g_c_dim": data.g_c.dim, "n_c_dim": data.n_c.dim,
                             "h_dim": data.h.dim, "h_basis": data.h},
            "relations": relations,
            "obstruction": obstruction,
            "dimensions": {"dim_x": dim_x, "dim_u": dim_u, "dim_g_mod_h": dim_gh,
                           "dim_v": dim_v, "consistent": consistent},
        },
        "ok": (relations["stabilizer_in_h"] and relations["annihilator_identity"]
               and relations["exp_linear"] and consistent),
    }


def mackey_report(alg: LieAlgebra, n: Subspace, cov: Covector) -> dict:
    """`mackey_steps` of cov's little-group data for n, an ideal that `check_ideal` passed."""
    return mackey_steps(little_group_step(alg, n, cov))
