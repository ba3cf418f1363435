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
{"step", "candidate", "reason"} as in a trace.

The exponential precheck is sampled and therefore necessary-only: it
certifies solvability exactly and looks for purely imaginary ad-eigenvalues
on the basis plus PRECHECK_SAMPLES random elements drawn from the fixed
PRECHECK_SEED.  Each element z is tested exactly: with the characteristic
polynomial of ad z at iy written A(y) + i B(y), the eigenvalues on iR* are
the iy for the nonzero real roots y of gcd(A, B), which
`polynomials.real_root_count` counts.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction

from .conditions import check_conditions
from .liealg import Covector, LieAlgebra, bracket_span
from .linalg import Subspace, basis_vector, combine
from .polynomials import charpoly, gcd, poly, real_root_count
from .structure import (
    ad_matrix,
    ascending_central_series,
    centralizer,
    check_subalgebra,
    derived_series,
    is_solvable,
    orbit_annihilator,
    orbit_dim,
    orth,
    subquotient,
)


def _has_imaginary_eigenvalue(alg: LieAlgebra, z) -> bool:
    """True when ad(z) has a nonzero purely imaginary eigenvalue.

    With p = sum_k c_k x^k the characteristic polynomial, p(iy) = A(y) + i B(y)
    for the real polynomials A(y) = sum_k c_2k (-1)^k y^2k and
    B(y) = sum_k c_2k+1 (-1)^k y^2k+1, so for real y, iy is an eigenvalue
    exactly when y is a root of g = gcd(A, B).  With g's factor y^m (the
    eigenvalue 0) dropped, the answer is whether the rest has a real root:
    one Sturm count, `polynomials.real_root_count`.
    """
    p = charpoly(ad_matrix(alg, z))
    a = poly([(-1) ** (k // 2) * c if k % 2 == 0 else 0 for k, c in enumerate(p)])
    b = poly([(-1) ** (k // 2) * c if k % 2 else 0 for k, c in enumerate(p)])
    g = gcd(a, b)
    return real_root_count(g[next(k for k, c in enumerate(g) if c):]) > 0


# The sampled elements are fixed, so a precheck report depends on the algebra alone.
PRECHECK_SEED = 0
PRECHECK_SAMPLES = 12


def exponential_precheck(alg: LieAlgebra) -> dict:
    """The `precheck` block: solvability plus a sampled no-imaginary-ad-eigenvalue check.

    `eigenvalue_witness` is the first sampled element whose ad has an
    eigenvalue on iR* (else null), and `passed` is whether the algebra is
    solvable and no element is a witness.
    """
    solvable = is_solvable(alg)
    rng = random.Random(PRECHECK_SEED)
    elements = [basis_vector(alg.dim, i) for i in range(alg.dim)]
    for _ in range(PRECHECK_SAMPLES):
        elements.append(tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(alg.dim)
        ))
    witness = next((z for z in elements if _has_imaginary_eigenvalue(alg, z)), None)
    return {
        "is_solvable": solvable,
        "eigenvalue_witness": witness,
        "elements_checked": len(elements),
        "passed": solvable and witness is None,
        "mode": "sampled",
    }


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
    The exponential precheck is the caller's: the CLI runs it once per
    invocation.
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
