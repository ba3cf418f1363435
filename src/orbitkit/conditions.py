"""Coisotropy, polarization, and tangent Pukanszky tests for a subalgebra.

Given a subalgebra h and a covector, the orthogonal of h is taken with
respect to the pairing <cov, [., .]>.  The three flags computed here are
the infinitesimal forms of the conditions singling out the subgroups whose
quotients base a system of imprimitivity on the orbit: stabilizer
containment, coisotropy ann(h(cov)) <= h, and the tangent Pukanszky
inclusion ann(h) <= h(cov).  Group-level components are out of reach of
structure-constant data, so the stabilizer and Pukanszky verdicts are
recorded as infinitesimal-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .liealg import (
    Covector,
    LieAlgebra,
    coadjoint_image,
    kks_pairing,
    stabilizer,
    subalgebra,
)
from .linalg import Matrix, Subspace, annihilator, rank_kernel


def orth(alg: LieAlgebra, h: Subspace, cov: Covector) -> Subspace:
    """{Z : <cov, [W, Z]> = 0 for all W in h}.

    orth(full, cov) is the stabilizer of cov; orth(0, cov) is everything.
    """
    if h.ambient_dim != alg.dim:
        raise ValueError("subspace ambient dimension does not match algebra")
    b = kks_pairing(alg, cov)
    # row_w[i] = <cov, [e_i, w]>: B is antisymmetric, so this is the
    # negative of <cov, [w, e_i]> and has the same kernel
    rows = [b.apply(w) for w in h.basis_rows()]
    return rank_kernel(Matrix(rows, alg.dim))[1]


@dataclass(frozen=True)
class ConditionReport:
    subalgebra: Subspace
    covector: Covector
    orth: Subspace
    contains_stabilizer: bool
    coisotropic: bool
    is_polarization: bool
    pukanszky_infinitesimal: bool
    dimension_identity: Optional[bool]  # 2 dim h = dim g + dim g_cov, when polarization
    witnesses: dict

    def to_json_dict(self):
        return {
            "subalgebra_dim": self.subalgebra.dim,
            "orth_dim": self.orth.dim,
            "flags": {
                "contains_stabilizer": self.contains_stabilizer,
                "coisotropic": self.coisotropic,
                "is_polarization": self.is_polarization,
                "pukanszky_infinitesimal": self.pukanszky_infinitesimal,
            },
            "dimension_identity": self.dimension_identity,
            "stabilizer_check_level": "infinitesimal",
            "pukanszky_check_level": "tangent",
            "witnesses": self.witnesses,
        }

    def all_flags(self) -> bool:
        return (
            self.contains_stabilizer
            and self.coisotropic
            and self.is_polarization
            and self.pukanszky_infinitesimal
        )


def _inclusion_witness(small: Subspace, big: Subspace):
    """First canonical basis vector of small outside big, else None."""
    for row in small.basis_rows():
        if not big.contains(row):
            return row
    return None


def check_conditions(alg: LieAlgebra, h: Subspace, cov: Covector) -> ConditionReport:
    """Flags for stabilizer containment, coisotropy, polarization, Pukanszky."""
    subalgebra(alg, h)  # raises NotClosedError when h is not a subalgebra
    stab = stabilizer(alg, cov)
    orth_h = orth(alg, h, cov)
    witnesses = {}

    w = _inclusion_witness(stab, h)
    contains_stab = w is None
    if w is not None:
        witnesses["stabilizer_outside"] = w

    w = _inclusion_witness(orth_h, h)
    coisotropic = w is None
    if w is not None:
        witnesses["orth_outside"] = w

    is_polarization = coisotropic and h.contains_subspace(orth_h) and orth_h.contains_subspace(h)

    ann_h = annihilator(h)
    moved = coadjoint_image(alg, cov, h)
    w = _inclusion_witness(ann_h, moved)
    pukanszky = w is None
    if w is not None:
        witnesses["annihilator_outside_image"] = w

    dim_identity = None
    if is_polarization and contains_stab:
        dim_identity = 2 * h.dim == alg.dim + stab.dim

    return ConditionReport(
        subalgebra=h,
        covector=cov,
        orth=orth_h,
        contains_stabilizer=contains_stab,
        coisotropic=coisotropic,
        is_polarization=is_polarization,
        pukanszky_infinitesimal=pukanszky,
        dimension_identity=dim_identity,
        witnesses=witnesses,
    )
