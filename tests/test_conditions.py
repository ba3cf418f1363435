import json

from orbitkit import cli, conditions, structure
from orbitkit.conditions import check_conditions
from orbitkit.liealg import Covector, stabilizer
from orbitkit.linalg import Subspace, basis_vector
from orbitkit.structure import NotClosedError, check_subalgebra, orth
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
    res = check_conditions(h3, _span(3, 1, 2), Covector(h3, (0, 0, 1)))
    flags = res["conditions"]["flags"]
    assert flags["contains_stabilizer"] and flags["coisotropic"]
    assert flags["is_polarization"] and flags["pukanszky_infinitesimal"]
    assert res["conditions"]["dimension_identity"] is True
    assert res["ok"]


def test_check_conditions_full_algebra(entries):
    for name in ("heisenberg3", "sl2", "poincare"):
        alg = entries[name].algebra
        cov = Covector(alg, [1] * alg.dim)
        flags = check_conditions(alg, Subspace.full(alg.dim), cov)["conditions"]["flags"]
        assert flags["coisotropic"] and flags["pukanszky_infinitesimal"]


def test_check_conditions_sl2_cartan(entries):
    sl2 = entries["sl2"].algebra
    cov = Covector(sl2, (2, 0, 0))
    rep = check_conditions(sl2, _span(3, 0), cov)["conditions"]
    assert rep["flags"]["contains_stabilizer"]
    assert not rep["flags"]["coisotropic"]
    assert orth(sl2, _span(3, 0), cov) == Subspace.full(3) and rep["orth_dim"] == 3
    assert "orth_outside" in rep["witnesses"]


def test_conditions_rejects_non_subalgebra(capsys):
    code = cli.main(["conditions", "catalog:heisenberg3", "--sub", "0,1", "--point=0,0,1"])
    assert code == 2 and json.loads(capsys.readouterr().out)["error"] \
        == "subspace is not a subalgebra: bracket of basis rows 0,1 escapes"


def test_conditions_checks_its_subalgebra_once(monkeypatch, capsys):
    """h depends on no point: a 3-point `conditions` makes one closure check, not
    one per point."""
    real, calls = structure.check_subalgebra, []
    monkeypatch.setattr(conditions, "check_subalgebra",
                        lambda alg, sub: calls.append(sub) or real(alg, sub))
    code = cli.main(["conditions", "catalog:heisenberg3", "--sub", "plane",
                     "--point=0,0,1", "--point=1,0,0", "--point=0,1,1"])
    capsys.readouterr()
    assert code == 1 and len(calls) == 1


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
    rep = check_conditions(h3, _span(3, 1, 2), Covector(h3, (0, 0, 1)))["conditions"]
    stab = stabilizer(h3, Covector(h3, (0, 0, 1)))
    assert rep["flags"]["is_polarization"]
    assert 2 * rep["subalgebra_dim"] == h3.dim + stab.dim


# -- printed flags that hold by theorem --------------------------------------------


def _descent_subalgebras(entry, cov, trace):
    """g, the stabilizer, each declared ideal and each window of the descent at cov,
    with its result: g, then each step's next window."""
    full = Subspace.full(entry.algebra.dim)
    subs = [full, stabilizer(entry.algebra, cov), *entry.ideals.values()]
    return subs + ([full] + [s["g_next"] for s in trace["steps"]] if trace else [])


def test_the_tangent_pukanszky_flag_is_coisotropy(descents):
    """h(f) = ann(h^f), so ann(h) <= h(f) iff h^f <= h."""
    for entry, cov, trace in descents:
        for h in _descent_subalgebras(entry, cov, trace):
            flags = check_conditions(entry.algebra, h, cov)["conditions"]["flags"]
            assert flags["pukanszky_infinitesimal"] == flags["coisotropic"], (entry.name, cov, h)


def test_the_dimension_identity_is_true_whenever_it_is_not_null(descents):
    """dim h^f = dim g - dim h + dim (h ∩ g_f), so h = h^f containing g_f has
    2 dim h = dim g + dim g_f."""
    decided = 0
    for entry, cov, trace in descents:
        for h in _descent_subalgebras(entry, cov, trace):
            identity = check_conditions(entry.algebra, h, cov)["conditions"]["dimension_identity"]
            assert identity in (None, True), (entry.name, cov, h)
            decided += identity is not None
    assert decided >= 20

