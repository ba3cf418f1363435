"""Iterative construction of Pukanszky polarizations for exponential algebras.

The driver descends g_0 > g_1 > ... by intersecting with the orthogonal of
an orbit-abelian, non-orbit-central ideal until the current subalgebra is
self-orthogonal at the restricted covector.  Candidate ideals are drawn in
a fixed deterministic order from the quotient by the orbit's extraneous
ideal: the terminal nonzero derived term, abelian terms of the ascending
central series, the centralizer of the derived subalgebra, and finally the
classical refinement center + single vector (which is what succeeds on
Heisenberg-like steps).  The method does not claim to produce every
Pukanszky polarization.

The exponential precheck is sampled and therefore necessary-only: it
certifies solvability exactly and looks for purely imaginary ad-eigenvalues
on the basis plus PRECHECK_SAMPLES random elements drawn from the fixed
PRECHECK_SEED, via exact Sturm counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .conditions import ConditionReport, check_conditions
from .liealg import (
    Covector,
    LieAlgebra,
    ad_matrix,
    ascending_central_series,
    bracket_span,
    centralizer,
    is_ideal,
    kks_pairing,
    orbit_annihilator,
    orth,
    quotient,
    restrict,
    structure_probe,
    subalgebra,
)
from .linalg import (
    Subspace,
    annihilator,
    basis_vector,
    combine,
    rank_kernel,
    solve_in_subspace,
    vec_add,
    vec_sub,
)
from .mackey import exp_coadjoint
from .polynomials import (
    charpoly,
    count_negative_roots,
    even_part,
    gcd,
    poly,
    strip_zero_roots,
)


class StrategyExhausted(RuntimeError):
    """No admissible ideal was found; carries the rejected candidates."""

    def __init__(self, rejections):
        super().__init__("ideal selection strategy exhausted with no admissible ideal")
        self.rejections = tuple(rejections)


@dataclass(frozen=True)
class ExponentialReport:
    is_solvable: bool
    eigenvalue_witness: Optional[tuple]   # element whose ad has eigenvalues on iR*
    elements_checked: int
    passed: bool

    def to_json_dict(self):
        return {
            "is_solvable": self.is_solvable,
            "eigenvalue_witness": self.eigenvalue_witness,
            "elements_checked": self.elements_checked,
            "passed": self.passed,
            "mode": "sampled",
        }


def _has_imaginary_eigenvalue(alg: LieAlgebra, z) -> bool:
    """True when ad(z) has a nonzero purely imaginary eigenvalue.

    With p the characteristic polynomial, d = gcd(p(x), p(-x)) collects the
    eigenvalues symmetric under negation; writing d = x^k E(x^2), nonzero
    imaginary pairs correspond exactly to negative real roots of E, counted
    by an exact Sturm sequence.
    """
    p = charpoly(ad_matrix(alg, z))
    p_neg = poly([a if i % 2 == 0 else -a for i, a in enumerate(p)])
    d = gcd(p, p_neg)
    _, stripped = strip_zero_roots(d)
    e = even_part(stripped)
    if e is None:
        # d(-x) = +/- d(x), so after stripping x^k the rest is even
        raise AssertionError("even part extraction failed on a symmetric gcd")
    return count_negative_roots(e) > 0


# The sampled elements are fixed, so a precheck report depends on the algebra alone.
PRECHECK_SEED = 0
PRECHECK_SAMPLES = 12


def exponential_precheck(alg: LieAlgebra) -> ExponentialReport:
    """Solvability plus a sampled no-imaginary-ad-eigenvalue check."""
    probe = structure_probe(alg)
    rng = random.Random(PRECHECK_SEED)
    elements = [basis_vector(alg.dim, i) for i in range(alg.dim)]
    for _ in range(PRECHECK_SAMPLES):
        elements.append(tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(alg.dim)
        ))
    witness = None
    for z in elements:
        if _has_imaginary_eigenvalue(alg, z):
            witness = z
            break
    return ExponentialReport(
        is_solvable=probe.is_solvable,
        eigenvalue_witness=witness,
        elements_checked=len(elements),
        passed=probe.is_solvable and witness is None,
    )


@dataclass(frozen=True)
class PolarizationStep:
    g_i: Subspace
    ideal: Subspace
    ideal_orth: Subspace
    g_next: Subspace
    orbit_abelian: bool
    ideal_in_orth: bool
    orth_not_containing_g: bool

    def certificates_hold(self) -> bool:
        return self.orbit_abelian and self.ideal_in_orth and self.orth_not_containing_g

    def to_json_dict(self):
        return {
            "g_dim": self.g_i.dim,
            "ideal": self.ideal,
            "ideal_orth": self.ideal_orth,
            "g_next": self.g_next,
            "certificates": {
                "orbit_abelian": self.orbit_abelian,
                "ideal_in_orth": self.ideal_in_orth,
                "orth_not_containing_g": self.orth_not_containing_g,
            },
        }


@dataclass(frozen=True)
class PolarizationTrace:
    steps: tuple
    result: Subspace
    conditions: ConditionReport
    rejected: tuple  # (step_index, description, reason)

    def to_json_dict(self):
        return {
            "steps": [s.to_json_dict() for s in self.steps],
            "result_dim": self.result.dim,
            "result_basis": self.result,
            "conditions": self.conditions.to_json_dict(),
            "rejected_candidates": [
                {"step": i, "candidate": d, "reason": r} for i, d, r in self.rejected
            ],
        }


def _automatic_candidates(inner: LieAlgebra, ann_x: Subspace):
    """Deterministic candidate ideals, yielded with a description.

    Everything is computed in the quotient by the orbit's extraneous ideal
    ann_x, where orbit-abelian means abelian and orbit-central means
    central, then pulled back.
    """
    quot = quotient(inner, ann_x)
    qalg = quot.algebra

    def pull(sub: Subspace) -> Subspace:
        return ann_x.add(Subspace(inner.dim, [quot.lift(r) for r in sub.basis_rows()]))

    probe = structure_probe(qalg)
    nonzero_derived = [s for s in probe.derived_series if s.dim > 0]
    if len(nonzero_derived) > 1:
        yield "terminal derived subalgebra", pull(nonzero_derived[-1])
    series = ascending_central_series(qalg)
    for idx, term in enumerate(series[1:], start=1):
        if bracket_span(qalg, term, term).dim == 0:
            yield f"ascending central term {idx}", pull(term)
    if len(probe.derived_series) > 1 and probe.derived_series[1].dim > 0:
        yield "centralizer of derived subalgebra", pull(
            centralizer(qalg, probe.derived_series[1]))
    if len(series) > 2:
        z1, z2 = series[1], series[2]
        for row in reversed(z2.basis_rows()):
            if not z1.contains(row):
                yield "center + vector refinement", pull(
                    z1.add(Subspace(qalg.dim, [row])))


def _admissible(inner: LieAlgebra, ann_x: Subspace, cand: Subspace) -> Optional[str]:
    """None when admissible, otherwise the rejection reason.

    ann_x is the orbit annihilator of the current covector on inner.
    """
    if not is_ideal(inner, cand):
        return "not an ideal"
    if not ann_x.contains_subspace(bracket_span(inner, cand, cand)):
        return "not orbit-abelian"
    if ann_x.contains_subspace(bracket_span(inner, Subspace.full(inner.dim), cand)):
        return "orbit-central (no dimension drop)"
    return None


def pukanszky_polarization(
    alg: LieAlgebra,
    cov: Covector,
    chain: Optional[Sequence[Subspace]] = None,
    override_precheck: bool = False,
) -> PolarizationTrace:
    """Run the descending-orthogonal construction at a covector.

    Without a chain the ideals are drawn deterministically (see module
    docstring); a chain, even an empty one, supplies the ideals instead,
    given in ambient coordinates, one per step.  The result always sits
    between every chosen ideal and its orthogonal; the final subalgebra is
    re-verified with the homogeneous-condition checker.
    """
    if not override_precheck:
        pre = exponential_precheck(alg)
        if not pre.passed:
            raise ValueError(
                "exponential precheck failed (non-solvable or imaginary ad-eigenvalue); "
                "pass override_precheck=True to force"
            )

    # the current window g_i, in ambient coordinates; `inner` is g_i in the
    # RREF basis of g_here.  A product of RREF bases is again an RREF basis,
    # so each g_next = to_ambient(g_next_inner) keeps the basis that
    # `restrict` gives the next window.
    n = alg.dim
    inner = alg
    g_here = Subspace.full(n)
    cur_cov = cov
    steps = []
    rejected = []
    chain_iter = iter(chain or ())

    def to_ambient(sub: Subspace) -> Subspace:
        return Subspace(n, [combine(r, g_here.basis_rows(), n) for r in sub.basis_rows()])

    for step_index in range(n + 1):
        b = kks_pairing(inner, cur_cov)
        if b.is_zero():
            break  # self-orthogonal: done
        ann_x = orbit_annihilator(inner, cur_cov)
        chosen = None
        if chain is not None:
            try:
                ambient_ideal = next(chain_iter)
            except StopIteration:
                raise StrategyExhausted(rejected + [(step_index, "user chain", "chain exhausted")])
            rows = []
            for r in ambient_ideal.basis_rows():
                coords = g_here.coords_of(r)
                if coords is None:
                    raise ValueError(f"chain ideal at step {step_index} is not inside g_{step_index}")
                rows.append(coords)
            cand = Subspace(inner.dim, rows)
            reason = _admissible(inner, ann_x, cand)
            if reason is not None:
                raise StrategyExhausted(rejected + [(step_index, "user chain ideal", reason)])
            chosen = ("user chain ideal", cand)
        else:
            for desc, cand in _automatic_candidates(inner, ann_x):
                reason = _admissible(inner, ann_x, cand)
                if reason is None:
                    chosen = (desc, cand)
                    break
                rejected.append((step_index, desc, reason))
            if chosen is None:
                raise StrategyExhausted(rejected)

        desc, cand = chosen
        # orth inside g_i: inner coordinates make g_i the full space there
        g_next_inner = orth(inner, cand, cur_cov)
        orbit_abelian = ann_x.contains_subspace(bracket_span(inner, cand, cand))
        ideal_ambient = to_ambient(cand)
        orth_ambient = orth(alg, ideal_ambient, cov)
        g_next = to_ambient(g_next_inner)
        assert g_next == g_here.intersect(orth_ambient)
        steps.append(PolarizationStep(
            g_i=g_here,
            ideal=ideal_ambient,
            ideal_orth=orth_ambient,
            g_next=g_next,
            orbit_abelian=orbit_abelian,
            ideal_in_orth=orth_ambient.contains_subspace(ideal_ambient),
            orth_not_containing_g=g_next_inner.dim < inner.dim,
        ))
        if g_next_inner.dim >= inner.dim:
            raise AssertionError("no dimension drop despite non-central ideal")

        cur_cov, emb = restrict(inner, cur_cov, g_next_inner)
        inner = emb.algebra
        g_here = g_next

    conditions = check_conditions(alg, g_here, cov)
    return PolarizationTrace(tuple(steps), g_here, conditions, tuple(rejected))


@dataclass(frozen=True)
class MonomialReport:
    point_orbit: bool
    dim_identity: bool
    pukanszky_reachable: Optional[bool]  # None when not exactly decidable
    targets_total: int
    targets_reached: int

    def all_hold(self) -> bool:
        return self.point_orbit and self.dim_identity and self.pukanszky_reachable is not False


def _reach_target(alg: LieAlgebra, h: Subspace, cov: Covector, target: tuple,
                  max_rounds: int) -> bool:
    """Drive cov to target by exact coadjoint flows of elements of h."""
    current = cov
    for _ in range(max_rounds):
        residual = vec_sub(target, current.coords)
        if all(x == 0 for x in residual):
            return True
        b = kks_pairing(alg, current)
        z = solve_in_subspace(b, h, residual)
        if z is None:
            return False
        current = exp_coadjoint(alg, z, current)
    return all(x == 0 for x in vec_sub(target, current.coords))


def verify_monomial(alg: LieAlgebra, cov: Covector, h: Subspace) -> MonomialReport:
    """Certify that the orbit is induced from a point-orbit of h.

    Checks the point-orbit pairing <cov, [h, h]> = 0 and the dimension
    identity dim X = 2 dim(g/h).  For nilpotent algebras the Pukanszky
    condition is certified exactly by reaching cov + u for a basis of
    ann(h) through coadjoint exponential flows; otherwise it is left
    undecided.
    """
    subalgebra(alg, h)  # raises when h is not closed
    point_orbit = all(cov.pair(r) == 0 for r in bracket_span(alg, h, h).basis_rows())
    rank = rank_kernel(kks_pairing(alg, cov))[0]
    dim_identity = rank == 2 * (alg.dim - h.dim)

    if not structure_probe(alg).is_nilpotent:
        return MonomialReport(point_orbit, dim_identity, None, 0, 0)

    targets = [vec_add(cov.coords, u) for u in annihilator(h).basis_rows()]
    reached = 0
    for t in targets:
        if _reach_target(alg, h, cov, t, max_rounds=2 * alg.dim + 2):
            reached += 1
    reachable = reached == len(targets)
    return MonomialReport(point_orbit, dim_identity, reachable, len(targets), reached)
