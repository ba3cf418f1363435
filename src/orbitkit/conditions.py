"""Coisotropy, polarization, and tangent Pukanszky tests for a subalgebra.

Given a subalgebra h and a covector, the orthogonal of h is taken with
respect to the pairing <cov, [., .]>.  The three flags computed here are
the infinitesimal forms of the conditions singling out the subgroups whose
quotients base a system of imprimitivity on the orbit: stabilizer
containment, coisotropy ann(h(cov)) <= h, and the tangent Pukanszky
inclusion ann(h) <= h(cov).  Group-level components are out of reach of
structure-constant data, so the stabilizer and Pukanszky verdicts are
recorded as infinitesimal-only.

The coadjoint objects come from `structure`: h(cov) is `coadjoint_image`
(W(cov) = B_cov . W = -W^T B_cov) and the orthogonal is its annihilator,
`structure.orth`, so the check builds h(cov) once and reads both off it.
The stabilizer is `liealg.stabilizer`, the kernel of B_cov.
"""

from __future__ import annotations

from .liealg import Covector, LieAlgebra, stabilizer
from .linalg import Subspace, annihilator
from .structure import coadjoint_image


def check_conditions(alg: LieAlgebra, h: Subspace, cov: Covector) -> dict:
    """The `conditions` result of h at cov: {"conditions": the block, "ok": ...}.

    h is a subalgebra the caller has checked closed
    (`structure.check_subalgebra`), as the `conditions` command does once.
    The block holds the four flags (stabilizer containment, coisotropy,
    polarization, tangent Pukanszky), the dimension identity 2 dim h = dim g +
    dim g_cov when h is a polarization containing the stabilizer (else null),
    and a witness for each failed flag that has one.  ok is whether all four
    flags hold.
    """
    stab = stabilizer(alg, cov)
    moved = coadjoint_image(alg, cov, h)
    orth_h = annihilator(moved)  # structure.orth(alg, h, cov)
    witnesses = {}

    w = h.missing_row(stab)
    contains_stab = w is None
    if w is not None:
        witnesses["stabilizer_outside"] = w

    w = h.missing_row(orth_h)
    coisotropic = w is None
    if w is not None:
        witnesses["orth_outside"] = w

    is_polarization = coisotropic and orth_h.contains_subspace(h)

    w = moved.missing_row(annihilator(h))
    pukanszky = w is None
    if w is not None:
        witnesses["annihilator_outside_image"] = w

    dim_identity = None
    if is_polarization and contains_stab:
        dim_identity = 2 * h.dim == alg.dim + stab.dim

    return {
        "conditions": {
            "subalgebra_dim": h.dim,
            "orth_dim": orth_h.dim,
            "flags": {
                "contains_stabilizer": contains_stab,
                "coisotropic": coisotropic,
                "is_polarization": is_polarization,
                "pukanszky_infinitesimal": pukanszky,
            },
            "dimension_identity": dim_identity,
            "stabilizer_check_level": "infinitesimal",
            "pukanszky_check_level": "tangent",
            "witnesses": witnesses,
        },
        "ok": contains_stab and coisotropic and is_polarization and pukanszky,
    }
