"""Dimension bookkeeping for induced hamiltonian data.

A record stores which subalgebra induces which fiber; the only numerics are
the count 2 dim(G/H) + dim(fiber), the stages collapse, and an exact
affine-hull intersection standing in for the reciprocity test.  All
subspaces live in the coordinates of the top ambient algebra so that
nested chains flatten by pure bookkeeping.
"""

from __future__ import annotations

from .liealg import Covector, LieAlgebra, OrbitRecord, orbit_record
from .linalg import Record, Subspace, vec_sub
from .structure import restrict


class ChainError(ValueError):
    """Nesting violates the required subalgebra chain."""


class InducedRecord(Record):
    algebra: LieAlgebra
    space: Subspace   # ambient window of this stage, top coordinates
    sub: Subspace     # inducing subalgebra, top coordinates
    fiber: InducedRecord | OrbitRecord

    def __post_init__(self):
        if not self.space.contains_subspace(self.sub):
            raise ChainError("subalgebra not contained in ambient")
        if isinstance(self.fiber, InducedRecord):
            if self.fiber.space != self.sub:
                raise ChainError("nested record must sit over the inducing subalgebra")

    def fiber_dim(self) -> int:
        if isinstance(self.fiber, InducedRecord):
            return induced_dim(self.fiber)
        return self.fiber.orbit_dim

    def to_json_dict(self):
        inner = (self.fiber.to_json_dict() if isinstance(self.fiber, InducedRecord)
                 else {"orbit_dim": self.fiber.orbit_dim})
        return {
            "space_dim": self.space.dim,
            "sub_dim": self.sub.dim,
            "fiber": inner,
            "induced_dim": induced_dim(self),
        }


def induced_dim(rec: InducedRecord) -> int:
    """2 dim(space/sub) + fiber dimension, recursively."""
    return 2 * (rec.space.dim - rec.sub.dim) + rec.fiber_dim()


def stages_flatten(rec: InducedRecord) -> InducedRecord:
    """Collapse a nested chain into a single stage over the innermost subalgebra."""
    if not isinstance(rec.fiber, InducedRecord):
        return rec
    inner = stages_flatten(rec.fiber)
    return InducedRecord(rec.algebra, rec.space, inner.sub, inner.fiber)


def point_fiber(alg: LieAlgebra, sub: Subspace, cov: Covector) -> OrbitRecord:
    """Orbit record of cov restricted to sub, in sub's canonical basis."""
    cov_sub = restrict(alg, cov, sub)
    return orbit_record(cov_sub.algebra, cov_sub)


def frobenius_check(rec: InducedRecord, m: OrbitRecord) -> str:
    """'yes'/'no' when the restricted affine hull of m meets the fiber hull.

    Decidable only when both hulls are exact (nilpotent certification on
    both records); everything else is 'undecided'.  The fiber record's
    coordinates must be taken in the canonical basis of rec.sub, as
    point_fiber produces them.
    """
    flat = stages_flatten(rec)
    fiber = flat.fiber
    if not isinstance(fiber, OrbitRecord):
        return "undecided"
    if not (fiber.hull_exact and m.hull_exact):
        return "undecided"
    h_rows = flat.sub.rows
    if fiber.covector.algebra.dim != len(h_rows):
        raise ChainError("fiber record does not match the inducing subalgebra")

    def restrict_to_h(coords):
        return tuple(sum(c * r for c, r in zip(coords, row)) for row in h_rows)

    target = vec_sub(restrict_to_h(m.covector.coords), fiber.covector.coords)
    directions = [restrict_to_h(u) for u in m.affine_hull_dirs.rows]
    directions += fiber.affine_hull_dirs.rows
    span = Subspace(len(h_rows), directions)
    return "yes" if span.contains(target) else "no"
