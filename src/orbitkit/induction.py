"""The `record` report: induced dimensions along a chain of subalgebras.

A chain g > h_1 > ... > h_m and a covector f of g induce, stage by stage, a
space of dimension 2 dim(h_{k-1}/h_k) plus that of the next stage, ending at
the orbit of p(f) = f|h_m.  Its dimension d is `liealg.orbit_dim(alg, f,
h_m)`, a rank in g's coordinates, so no subalgebra is built.  The stages
collapse to one, g > h_m, of induced dimension 2(dim g - dim h_m) + d, which
`ok` compares with the chain's.  The chain depends on no point, so
`check_chain` refuses a bad one once, before any point's report.

The verdict `frobenius_vs_full_orbit` is closed form.  It asks whether the
affine hull of G.f, restricted to h_m, meets that of the fiber orbit H_m.p(f),
and the hull test decides only when both Krylov hulls are exact, that is when
both algebras are nilpotent.  The fiber sits at p(f) itself, so the two hulls
share p(f): the difference of base points, p(f) - p(f) = 0, lies in every
span, and a decided answer is "yes".  h_m is nilpotent whenever g is, and f's
own hull is not exact when g is not, so the verdict is "yes" for nilpotent g
and "undecided" otherwise.  It checks nothing: ROADMAP item 3 replaces it with
a test that can say "no".

`record_command` is the `record` handler: it reads the chain and the points,
checks the chain once, and reports each point.
"""

from __future__ import annotations

from collections.abc import Sequence

from .catalog import CatalogEntry, InputError, parse_points, subspace_argument
from .liealg import Covector, LieAlgebra, is_nilpotent, orbit_dim
from .linalg import Subspace
from .structure import check_subalgebra


def _stages(alg: LieAlgebra, subs: Sequence[Subspace]) -> list:
    """(space, sub) for each stage of the chain g > subs[0] > ..., innermost first."""
    return list(zip([Subspace.full(alg.dim), *subs], subs))[::-1]


def check_chain(alg: LieAlgebra, subs: Sequence[Subspace]) -> None:
    """Refuse subs unless they are a chain of subalgebras below g, outermost first.

    Refused, in this order: an innermost sub that is not a subalgebra
    (NotClosedError), a sub outside the one before it, innermost first
    (InputError), and an outer sub that is not a subalgebra, outermost first.
    """
    check_subalgebra(alg, subs[-1])
    for space, sub in _stages(alg, subs):
        if not space.contains_subspace(sub):
            raise InputError("subalgebra not contained in ambient")
    for sub in subs[:-1]:
        check_subalgebra(alg, sub)


def record_report(alg: LieAlgebra, subs: Sequence[Subspace], cov: Covector) -> dict:
    """The `record` report of cov along subs, a chain that passed `check_chain`."""
    d = orbit_dim(alg, cov, subs[-1])
    record, induced = {"orbit_dim": d}, d
    for space, sub in _stages(alg, subs):
        induced += 2 * (space.dim - sub.dim)
        record = {"space_dim": space.dim, "sub_dim": sub.dim, "fiber": record,
                  "induced_dim": induced}
    flat = 2 * (alg.dim - subs[-1].dim) + d
    return {
        "record": record,
        "flattened": {"space_dim": alg.dim, "sub_dim": subs[-1].dim,
                      "fiber": {"orbit_dim": d}, "induced_dim": flat},
        "induced_dim": induced,
        "frobenius_vs_full_orbit": "yes" if is_nilpotent(alg) else "undecided",
        "ok": induced == flat,
    }


def record_command(entry: CatalogEntry, args) -> dict:
    """The `record` payload: a result per `--point` along the `--sub` chain."""
    subs = [subspace_argument(entry, s) for s in args.sub]
    if not subs:
        raise InputError("record needs at least one --sub")
    points = parse_points(entry.algebra, args.point)
    check_chain(entry.algebra, subs)
    return {"results": [{"point": cov, **record_report(entry.algebra, subs, cov)}
                        for cov in points]}
