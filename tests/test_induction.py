import json
import random
import sys

import pytest

from conftest import rand_covector, restrict, seeded_family_entries
from orbitkit import cli, induction, liealg, structure
from orbitkit.catalog import InputError
from orbitkit.induction import check_chain, record_report
from orbitkit.liealg import Covector, orbit_record
from orbitkit.linalg import Subspace, basis_vector
from orbitkit.structure import NotClosedError


def _span(n, *indices):
    return Subspace(n, [basis_vector(n, i) for i in indices])


def test_three_stage_chain_in_filiform4(entries):
    f4 = entries["filiform4"]
    alg, ideals = f4.algebra, f4.ideals
    chain = [ideals["big_abelian"], ideals["derived"], ideals["center"]]
    rep = record_report(alg, chain, Covector(alg, (0, 0, 1, 1)))
    stages, rec = [], rep["record"]
    while "fiber" in rec:
        stages.append(rec)
        rec = rec["fiber"]
    assert rec == {"orbit_dim": 0}
    # 2 (4 - 3) + 2 (3 - 2) + 2 (2 - 1) + 0, innermost first
    assert [s["induced_dim"] for s in reversed(stages)] == [2, 4, 6]
    assert [(s["space_dim"], s["sub_dim"]) for s in stages] == [(4, 3), (3, 2), (2, 1)]
    assert rep["flattened"] == {"space_dim": 4, "sub_dim": 1, "fiber": {"orbit_dim": 0},
                                "induced_dim": 2 * (4 - 1) + 0}
    assert rep["induced_dim"] == 6 and rep["ok"] is True


@pytest.mark.parametrize("name, sub, point, verdict", [
    ("heisenberg3", "plane", (0, 0, 1), "yes"),
    ("filiform4", "big_abelian", (0, 0, 0, 1), "yes"),
    ("euclid2", "translations", (0, 1, 0), "undecided"),
    ("sl2", (0, 1), (2, 0, 0), "undecided"),
])
def test_the_verdict_is_yes_exactly_on_nilpotent_algebras(entries, name, sub, point, verdict):
    """The fiber sits at p(f) itself, so a decided verdict is "yes"; it is decided
    when the Krylov hulls are exact, that is when g is nilpotent."""
    alg = entries[name].algebra
    sub = entries[name].ideals[sub] if isinstance(sub, str) else _span(alg.dim, *sub)
    rep = record_report(alg, [sub], Covector(alg, point))
    assert rep["frobenius_vs_full_orbit"] == verdict
    assert (verdict == "yes") == liealg.is_nilpotent(alg)


def _declared_subalgebras(entry):
    for sub in [*entry.ideals.values(), *entry.complements.values()]:
        try:
            structure.check_subalgebra(entry.algebra, sub)
        except NotClosedError:
            continue
        yield sub


def test_the_fiber_orbit_dim_is_the_subalgebra_route(entries):
    """The fiber's orbit_dim, a rank in g, is the orbit dimension of cov restricted
    to the subalgebra that `restrict` builds."""
    rng = random.Random(37)
    cases = 0
    for entry in [*entries.values(), *seeded_family_entries()]:
        alg = entry.algebra
        for sub in _declared_subalgebras(entry):
            for cov in [*(Covector(alg, c) for c in entry.covectors.values()),
                        *(rand_covector(alg, rng) for _ in range(3))]:
                fiber = record_report(alg, [sub], cov)["record"]["fiber"]
                cov_sub = restrict(alg, cov, sub)
                orbit = orbit_record(cov_sub.algebra, cov_sub)["orbit"]
                assert fiber == {"orbit_dim": orbit["orbit_dim"]}
                cases += 1
    assert cases > 60


def test_sub_outside_its_space_is_a_chain_error(entries):
    f4 = entries["filiform4"]
    with pytest.raises(InputError, match="^subalgebra not contained in ambient$"):
        check_chain(f4.algebra, [f4.ideals["derived"], f4.ideals["big_abelian"]])


def test_the_errors_keep_their_order(entries):
    """The innermost sub's closure first, then the nesting, then the outer subs'
    closures, outermost first."""
    f4 = entries["filiform4"]
    alg, center = f4.algebra, f4.ideals["center"]
    not_closed = _span(4, 0, 1, 3)
    # innermost not a subalgebra, and outside the center before it
    with pytest.raises(NotClosedError, match="rows 0,1 escapes"):
        check_chain(alg, [center, not_closed])
    # the nesting fails, and the outermost is not a subalgebra
    with pytest.raises(InputError, match="^subalgebra not contained in ambient$"):
        check_chain(alg, [not_closed, center, f4.ideals["derived"]])
    # nested, and both outer subs are not subalgebras: the outermost is named
    outer, middle = _span(4, 0, 1, 2), _span(4, 0, 1)
    for sub, rows in ((outer, "0,2"), (middle, "0,1")):
        with pytest.raises(NotClosedError, match=f"rows {rows} escapes"):
            check_chain(alg, [sub, _span(4, 0)])
    with pytest.raises(NotClosedError, match="rows 0,2 escapes"):
        check_chain(alg, [outer, middle, _span(4, 0)])


def test_a_record_checks_its_chain_once(monkeypatch, capsys):
    """The chain depends on no point: a 3-point record along a 3-sub chain makes
    one closure check per sub, not one per sub and point."""
    real, calls = induction.check_subalgebra, []
    monkeypatch.setattr(induction, "check_subalgebra",
                        lambda alg, sub: calls.append(sub) or real(alg, sub))
    argv = ["record", "catalog:filiform4", "--sub", "big_abelian", "--sub", "derived",
            "--sub", "center", "--point=0,0,1,1", "--point=1,2,3,4", "--point=0,0,0,1"]
    code = cli.main(argv)
    capsys.readouterr()
    assert code == 0 and len(calls) == 3


def test_a_bad_point_is_named_before_a_bad_chain(capsys):
    code = cli.main(["record", "catalog:filiform4", "--sub", "derived", "--sub",
                     "big_abelian", "--point=0,0,1"])
    assert code == 2 and json.loads(capsys.readouterr().out)["error"] \
        == "point needs 4 coordinates, got 3"


def test_a_record_builds_no_subalgebra_hull_or_orbit_record(monkeypatch, capsys):
    """Every field comes from one restricted rank, the chain's dimensions and the
    cached nilpotency test: a seeded record runs with subquotient, krylov_hull
    and orbit_record refused at every binding."""
    rng = random.Random(0)
    argvs = []
    for name, dim, chain in (("heisenberg3", 3, ["plane", "center"]),
                             ("filiform4", 4, ["big_abelian", "derived", "center"]),
                             ("euclid2", 3, ["translations"])):
        points = [",".join(str(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(3)]
        argvs.append(["record", f"catalog:{name}", *(a for s in chain for a in ("--sub", s)),
                      *(f"--point={p}" for p in points)])

    def reports():
        return [(cli.main(argv), capsys.readouterr().out) for argv in argvs]

    want = reports()
    assert {code for code, _ in want} == {0}

    def refuse(*args):
        raise AssertionError("record built a subalgebra, a hull or an orbit record")

    originals = (structure.subquotient, liealg.krylov_hull, liealg.orbit_record)
    for mod in [m for name, m in sys.modules.items() if name.startswith("orbitkit")]:
        for attr, value in list(vars(mod).items()):
            if any(value is f for f in originals):
                monkeypatch.setattr(mod, attr, refuse)
    assert reports() == want
