import pytest

from orbitkit.induction import (
    ChainError,
    InducedRecord,
    frobenius_check,
    induced_dim,
    point_fiber,
    stages_flatten,
)
from orbitkit.liealg import Covector, orbit_record
from orbitkit.linalg import Subspace


def _record(entry, sub_name, point):
    alg = entry.algebra
    sub = entry.ideals[sub_name]
    cov = Covector(alg, point)
    return InducedRecord(alg, Subspace.full(alg.dim), sub, point_fiber(alg, sub, cov)), cov


def test_sub_outside_its_space_is_a_chain_error(entries):
    f4 = entries["filiform4"]
    alg = f4.algebra
    fiber = point_fiber(alg, f4.ideals["big_abelian"], Covector(alg, (0, 0, 0, 1)))
    with pytest.raises(ChainError):
        InducedRecord(alg, f4.ideals["derived"], f4.ideals["big_abelian"], fiber)


def test_fiber_not_over_the_sub_is_a_chain_error(entries):
    f4 = entries["filiform4"]
    alg, ideals = f4.algebra, f4.ideals
    cov = Covector(alg, (0, 0, 0, 1))
    inner = InducedRecord(alg, ideals["derived"], ideals["center"],
                          point_fiber(alg, ideals["center"], cov))
    with pytest.raises(ChainError):
        InducedRecord(alg, Subspace.full(4), ideals["big_abelian"], inner)


def test_three_stage_chain_in_filiform4(entries):
    f4 = entries["filiform4"]
    alg, ideals = f4.algebra, f4.ideals
    cov = Covector(alg, (0, 0, 1, 1))
    fiber = point_fiber(alg, ideals["center"], cov)
    assert fiber.orbit_dim == 0 and fiber.covector.coords == (1,)
    inner = InducedRecord(alg, ideals["derived"], ideals["center"], fiber)
    middle = InducedRecord(alg, ideals["big_abelian"], ideals["derived"], inner)
    top = InducedRecord(alg, Subspace.full(4), ideals["big_abelian"], middle)
    # 2 (4 - 3) + 2 (3 - 2) + 2 (2 - 1) + 0
    assert [induced_dim(r) for r in (inner, middle, top)] == [2, 4, 6]
    flat = stages_flatten(top)
    assert (flat.space, flat.sub, flat.fiber) == (Subspace.full(4), ideals["center"], fiber)
    assert induced_dim(flat) == induced_dim(top) == 2 * (4 - 1)
    assert stages_flatten(inner) is inner
    assert top.to_json_dict()["fiber"]["fiber"]["induced_dim"] == 2


def test_frobenius_check_on_heisenberg3(entries):
    h3 = entries["heisenberg3"]
    rec, cov = _record(h3, "plane", (0, 0, 1))
    assert frobenius_check(rec, orbit_record(h3.algebra, cov)) == "yes"
    # the orbit of (0, 0, 2) restricts to the plane away from (0, 1)
    other = orbit_record(h3.algebra, Covector(h3.algebra, (0, 0, 2)))
    assert frobenius_check(rec, other) == "no"


def test_frobenius_check_is_undecided_off_nilpotent_algebras(entries):
    e2 = entries["euclid2"]
    rec, cov = _record(e2, "translations", (0, 1, 0))
    m = orbit_record(e2.algebra, cov)
    assert rec.fiber.hull_exact and not m.hull_exact
    assert frobenius_check(rec, m) == "undecided"
