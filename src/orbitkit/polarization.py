"""Iterative construction of Pukanszky polarizations for exponential algebras.

The driver descends g = g_0 > g_1 > ... by g_{i+1} = g_i ∩ I^f, with I an
orbit-abelian, non-orbit-central ideal of the window g_i, until the window
is self-orthogonal at the restricted covector: `orbit_dim(alg, cov, g_i)`,
a rank in g, is 0.  There is no window algebra: every window, ideal,
orthogonal and step is a subspace of g, I^f is the orthogonal in g, and
ann_x is `orbit_annihilator(alg, cov, g_i)`, the largest ideal of g_i
inside ker f.  Each g_{i+1} is a subalgebra, by the Jacobi identity.

Candidate ideals are drawn in a fixed deterministic order from the quotient
`subquotient(alg, g_i, ann_x)`, the one algebra an automatic step builds (a
user chain builds none), and pulled back through its lifts: the terminal nonzero
derived term, abelian terms of the ascending central series, the
centralizer of the derived subalgebra, and finally the classical refinement
center + single vector (which is what succeeds on Heisenberg-like steps).
The method does not claim to produce every Pukanszky polarization.  A step
with no admissible ideal gives the point's result {"error": "strategy
exhausted", "rejected_candidates": [...], "ok": false}, each rejection a
{"step", "candidate", "reason"} as in a trace.  `orbit_annihilator`,
`centralizer` and `ascending_central_series` are defined here, since no
other module uses them.  None reads the bracket table itself or forms an
ad(Z) matrix: the orbit annihilator and every centralizer read their rows
xi . ad(w) off the coadjoint kernel, `liealg.coadjoint_rows` of a
`liealg.pairing`.

A user chain (`--strategy chain:FILE`) supplies the ideals instead, one per
step; `parse_chain` reads its file, {"ideals": [subspace, ...]}.

The exponential precheck is not here: it is in `exponential`, whose
`polarize_command` runs it once per invocation and imports this module only
once it has passed (or been overridden), or to read a chain file, so a
refused algebra compiles no search.  This module compiles no polynomial
code.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .catalog import CatalogError, parse_subspace
from .conditions import check_conditions
from .liealg import (
    Covector,
    LieAlgebra,
    bracket_span,
    coadjoint_rows,
    derived_series,
    orbit_dim,
    pairing,
    stable_series,
)
from .linalg import (
    Subspace,
    annihilator,
    combine,
    invariant_closure,
    rank_kernel,
)
from .structure import check_subalgebra, orth, subquotient


def orbit_annihilator(alg: LieAlgebra, cov: Covector, sub: Subspace) -> Subspace:
    """The largest ideal of the subalgebra sub inside ker cov: ann(V), V the
    `invariant_closure` of ann(sub) and cov under xi -> xi . ad(W), W a row of sub.

    ann(V) lies in sub and ker cov, and xi([W, Z]) = (xi . ad(W))(Z) = 0 for xi in
    V makes it an ideal; an ideal of sub inside ker cov is killed by ann(sub) and
    every cov . ad(W_1) ... ad(W_k), so by V.  For sub = g, V is the orbit's span.
    """
    return annihilator(invariant_closure(alg.dim, annihilator(sub).rows + (cov.coords,),
                                         lambda xi: coadjoint_rows(pairing(alg, xi), sub)))


def centralizer(alg: LieAlgebra, sub: Subspace, modulo: Subspace | None = None) -> Subspace:
    """All Z with [Z, sub] inside modulo (0 by default, so [Z, sub] = 0).

    The kernel of the rows a . ad(w), the `coadjoint_rows` of `pairing(alg,
    a)` over the rows w of sub, for a a row of ann(modulo): (a . ad(w))(Z) =
    a([w, Z]), which is 0 for every a iff [Z, w] lies in modulo.  One
    `pairing` per row of ann(modulo).
    """
    n = alg.dim
    ann = annihilator(modulo if modulo is not None else Subspace.zero(n)).rows
    return rank_kernel([r for a in ann for r in coadjoint_rows(pairing(alg, a), sub)], n)[1]


@lru_cache(maxsize=None)
def ascending_central_series(alg: LieAlgebra) -> tuple:
    """0 = Z_0 < Z_1 < ... until it stabilizes: Z_{k+1} is the centralizer of g modulo Z_k."""
    full = Subspace.full(alg.dim)
    return stable_series(Subspace.zero(alg.dim), lambda z: centralizer(alg, full, modulo=z))


def _automatic_candidates(alg: LieAlgebra, g_i: Subspace, ann_x: Subspace):
    """Deterministic candidate ideals of the window g_i, yielded with a description.

    Everything is computed in the quotient g_i / ann_x by the orbit's
    extraneous ideal, where orbit-abelian means abelian and orbit-central
    means central, then pulled back through the quotient's ambient lifts.
    """
    quot = subquotient(alg, g_i, ann_x)
    qalg, n = quot.algebra, alg.dim

    def pull(sub: Subspace) -> Subspace:
        return ann_x.add(Subspace(n, [combine(r, quot.lifts, n) for r in sub.rows]))

    derived = [s for s in derived_series(qalg) if s.dim > 0]
    if len(derived) > 1:
        yield "terminal derived subalgebra", pull(derived[-1])
    series = ascending_central_series(qalg)
    for idx, term in enumerate(series[1:], start=1):
        if bracket_span(qalg, term, term).dim == 0:
            yield f"ascending central term {idx}", pull(term)
    if len(derived) > 1:
        yield "centralizer of derived subalgebra", pull(centralizer(qalg, derived[1]))
    if len(series) > 2:
        z1, z2 = series[1], series[2]
        for row in reversed(z2.rows):
            if not z1.contains(row):
                yield "center + vector refinement", pull(
                    z1.add(Subspace(qalg.dim, [row])))


def _admissible(alg: LieAlgebra, g_i: Subspace, ann_x: Subspace,
                ideal: Subspace) -> str | None:
    """None when the subspace `ideal` of g_i is admissible, otherwise the rejection reason.

    ann_x is the orbit annihilator of the covector restricted to g_i.
    """
    moved = bracket_span(alg, g_i, ideal)
    if not ideal.contains_subspace(moved):
        return "not an ideal"
    if not ann_x.contains_subspace(bracket_span(alg, ideal, ideal)):
        return "not orbit-abelian"
    if ann_x.contains_subspace(moved):
        return "orbit-central (no dimension drop)"
    return None


def parse_chain(alg: LieAlgebra, doc, what: str) -> list:
    """The subspaces of a chain file, in order; an error's text starts with `what`."""
    ideals = doc.get("ideals") if isinstance(doc, dict) else None
    if not isinstance(ideals, list):
        raise CatalogError(f"{what}: 'ideals' is missing or not a list")
    return [parse_subspace(alg, spec, f"{what}: ideals[{k}]") for k, spec in enumerate(ideals)]


def pukanszky_polarization(
    alg: LieAlgebra,
    cov: Covector,
    chain: Sequence[Subspace] | None = None,
) -> dict:
    """The `polarize` result at a covector: {"trace": the descent, "ok": ...}.

    Without a chain the ideals are drawn deterministically (see module
    docstring); a chain, even an empty one, supplies the ideals instead,
    given in ambient coordinates, one per step.  A step with no admissible
    ideal (a chain that runs out or whose ideal is rejected, a search that
    finds none) ends the descent with the exhausted-strategy result (see
    module docstring).  The result always sits between every chosen ideal
    and its orthogonal; the final subalgebra is checked closed and
    re-verified with the homogeneous-condition checker, whose block is the
    trace's `conditions`.  Each step lists its window's dimension, the
    ideal, its orthogonal, the next window and three certificates.  ok is
    whether every step's certificates and all four condition flags hold.
    The exponential precheck is the caller's: `exponential.polarize_command`
    runs it once per invocation.
    """
    n = alg.dim
    g_i = Subspace.full(n)
    steps = []
    rejected = []
    # the result of a step with no admissible ideal; `rejected` fills in as the descent runs
    exhausted = {"error": "strategy exhausted", "rejected_candidates": rejected, "ok": False}
    chain_iter = iter(chain or ())

    for step_index in range(n + 1):
        if orbit_dim(alg, cov, g_i) == 0:
            break  # self-orthogonal: done
        ann_x = orbit_annihilator(alg, cov, g_i)
        if chain is not None:
            ideal = next(chain_iter, None)
            if ideal is None:
                desc, reason = "user chain", "chain exhausted"
            elif not g_i.contains_subspace(ideal):
                raise ValueError(f"chain ideal at step {step_index} is not inside g_{step_index}")
            else:
                desc, reason = "user chain ideal", _admissible(alg, g_i, ann_x, ideal)
            if reason is not None:
                rejected.append({"step": step_index, "candidate": desc, "reason": reason})
                return exhausted
        else:
            for desc, ideal in _automatic_candidates(alg, g_i, ann_x):
                reason = _admissible(alg, g_i, ann_x, ideal)
                if reason is None:
                    break
                rejected.append({"step": step_index, "candidate": desc, "reason": reason})
            else:
                return exhausted

        ideal_orth = orth(alg, ideal, cov)
        g_next = g_i.intersect(ideal_orth)
        certificates = {
            "orbit_abelian": True,  # `_admissible` just checked ann_x >= [I, I]
            "ideal_in_orth": ideal_orth.contains_subspace(ideal),
            "orth_not_containing_g": g_next.dim < g_i.dim,
        }
        steps.append({"g_dim": g_i.dim, "ideal": ideal, "ideal_orth": ideal_orth,
                      "g_next": g_next, "certificates": certificates})
        if g_next.dim >= g_i.dim:
            raise AssertionError("no dimension drop despite non-central ideal")
        g_i = g_next

    check_subalgebra(alg, g_i)
    conditions = check_conditions(alg, g_i, cov)
    return {
        "trace": {
            "steps": steps,
            "result_dim": g_i.dim,
            "result_basis": g_i,
            "conditions": conditions["conditions"],
            "rejected_candidates": rejected,
        },
        "ok": all(all(s["certificates"].values()) for s in steps) and conditions["ok"],
    }
