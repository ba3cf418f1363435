import random

import pytest

from orbitkit import conditions, liealg, structure
from orbitkit.conditions import check_conditions
from orbitkit.liealg import Covector
from orbitkit.linalg import Subspace, basis_vector
from orbitkit.structure import NotClosedError, check_subalgebra, orth, stabilizer
from conftest import rand_covector


def _span(n, *idx):
    return Subspace(n, [basis_vector(n, i) for i in idx])


def test_orth_heisenberg_plane(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    assert orth(h3, _span(3, 1, 2), cov) == _span(3, 1, 2)  # self-orthogonal


def test_orth_extremes(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    assert orth(h3, Subspace.full(3), cov) == stabilizer(h3, cov)
    assert orth(h3, Subspace.zero(3), cov) == Subspace.full(3)


def test_check_conditions_heisenberg_polarization(entries):
    h3 = entries["heisenberg3"].algebra
    rep = check_conditions(h3, _span(3, 1, 2), Covector(h3, (0, 0, 1)))
    assert rep.contains_stabilizer and rep.coisotropic
    assert rep.is_polarization and rep.pukanszky_infinitesimal
    assert rep.dimension_identity is True
    assert rep.all_flags()


def test_check_conditions_full_algebra(entries):
    for name in ("heisenberg3", "sl2", "poincare"):
        alg = entries[name].algebra
        cov = Covector(alg, [1] * alg.dim)
        rep = check_conditions(alg, Subspace.full(alg.dim), cov)
        assert rep.coisotropic and rep.pukanszky_infinitesimal


def test_check_conditions_sl2_cartan(entries):
    sl2 = entries["sl2"].algebra
    rep = check_conditions(sl2, _span(3, 0), Covector(sl2, (2, 0, 0)))
    assert rep.contains_stabilizer
    assert not rep.coisotropic
    assert rep.orth == Subspace.full(3)
    assert "orth_outside" in rep.witnesses


def test_check_conditions_builds_the_pairing_twice(entries, monkeypatch):
    """Once for the stabilizer and once for h(cov); the orthogonal is read off h(cov)."""
    calls = []
    real = liealg.kks_pairing
    for mod in (liealg, structure, conditions):
        if hasattr(mod, "kks_pairing"):
            monkeypatch.setattr(mod, "kks_pairing", lambda *args: calls.append(args) or real(*args))
    h3 = entries["heisenberg3"].algebra
    assert check_conditions(h3, _span(3, 1, 2), Covector(h3, (0, 0, 1))).all_flags()
    assert len(calls) == 2


def test_check_conditions_rejects_non_subalgebra(entries):
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(NotClosedError):
        check_conditions(h3, _span(3, 0, 1), Covector(h3, (0, 0, 1)))


def _random_subalgebras(alg, rng, count):
    """Random bracket-closed subspaces obtained by closing random spans."""
    from conftest import rand_vec

    out = []
    for _ in range(count):
        seeds = [rand_vec(rng, alg.dim, lo=-2, hi=2, max_den=1)
                 for _ in range(rng.randint(1, 2))]
        space = Subspace(alg.dim, seeds)
        while True:
            grown = space
            for u in space.rows:
                for v in space.rows:
                    br = alg.bracket(u, v)
                    if not grown.contains(br):
                        grown = grown.add(Subspace(alg.dim, [br]))
            if grown == space:
                break
            space = grown
        out.append(space)
    return out


def test_orth_properties_fuzzed(entries, rng):
    for name in ("heisenberg3", "filiform4", "sl2", "euclid2"):
        alg = entries[name].algebra
        for _ in range(6):
            cov = rand_covector(alg, rng)
            stab = stabilizer(alg, cov)
            subs = _random_subalgebras(alg, rng, 2)
            for h in subs:
                o = orth(alg, h, cov)
                assert o.contains_subspace(stab)
            a, b = subs
            if b.contains_subspace(a):
                assert orth(alg, a, cov).contains_subspace(orth(alg, b, cov))


def test_symplectic_quotient_dimension(entries, rng):
    # dim h/g_cov + dim orth(h)/g_cov = dim g/g_cov whenever g_cov <= h
    for name in ("heisenberg3", "filiform4", "poincare"):
        alg = entries[name].algebra
        for _ in range(6):
            cov = rand_covector(alg, rng)
            stab = stabilizer(alg, cov)
            for h in _random_subalgebras(alg, rng, 2):
                h = h.add(stab)
                try:
                    check_subalgebra(alg, h)
                except NotClosedError:
                    continue
                o = orth(alg, h, cov)
                assert (h.dim - stab.dim) + (o.dim - stab.dim) == alg.dim - stab.dim


def test_polarization_dimension_formula(entries, rng):
    h3 = entries["heisenberg3"].algebra
    rep = check_conditions(h3, _span(3, 1, 2), Covector(h3, (0, 0, 1)))
    stab = stabilizer(h3, Covector(h3, (0, 0, 1)))
    assert rep.is_polarization
    assert 2 * rep.subalgebra.dim == h3.dim + stab.dim
