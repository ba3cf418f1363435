import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import cli, mackey
from orbitkit.catalog import parse_algebra, parse_entry
from orbitkit.liealg import Covector, LieAlgebra, ad_matrix, bracket_span, kks_pairing, orbit_dim
from orbitkit.linalg import (
    Subspace,
    annihilator,
    basis_vector,
    combine,
    rref,
    solve,
    vec_dot,
    vec_sub,
)
from orbitkit.mackey import (
    check_abelian,
    check_ideal,
    classify_little_algebra,
    little_group_step,
    mackey_report,
    obstruction_step,
    semidirect_witness,
    verify_step_relations,
)
from orbitkit.structure import (
    NotClosedError,
    check_subalgebra,
    coadjoint_image,
    orth,
    subquotient,
)
from conftest import (
    complement_obstruction,
    coords_of,
    dense_apply,
    dense_structure,
    descartes_signature,
    exp_coadjoint,
    loop_ideal_closure,
    matmul,
    rand_covector,
    rand_vec,
    restrict,
    seeded_family_entries,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402


def _span(n, *idx):
    return Subspace(n, [basis_vector(n, i) for i in idx])


def _with_n_c(data, n_c):
    """The little-group record `data` with its n_c replaced."""
    return type(data)(**{**vars(data), "n_c": n_c})


def _relations_hold(rel):
    """Whether the three relations of a `relations` block hold."""
    return rel["stabilizer_in_h"] and rel["annihilator_identity"] and rel["exp_linear"]


def _signature(kind):
    """(positive, negative, rank) of a `little_algebra` block's Killing signature."""
    sig = kind["killing_signature"]
    return sig["positive"], sig["negative"], sig["rank"]


def _semidirect(witness, rejections):
    """The `semidirect` block of a witness (or None) and (name, reason) rejections."""
    return {"point_orbit": True, "witness": witness,
            "cocycle_zero": None if witness is None else True,
            "rejections": [{"candidate": n, "reason": r} for n, r in rejections]}


# -- little group step --------------------------------------------------------


def test_little_group_center(entries):
    h3 = entries["heisenberg3"].algebra
    data = little_group_step(h3, _span(3, 2), Covector(h3, (0, 0, 1)))
    assert data.g_c == Subspace.full(3)
    assert data.n_c == _span(3, 2)
    assert data.h == Subspace.full(3)


def test_little_group_zero_covector(entries):
    sl2 = entries["sl2"].algebra
    # sl2 is simple: only improper ideals; use the whole algebra
    data = little_group_step(sl2, Subspace.full(3), Covector(sl2, (0, 0, 0)))
    assert data.g_c == Subspace.full(3)
    assert data.h == Subspace.full(3)


def test_little_group_poincare(entries):
    poin = entries["poincare"]
    data = little_group_step(poin.algebra, poin.ideals["translations"],
                             Covector(poin.algebra, poin.covectors["timelike"]))
    assert data.g_c.dim == 7
    assert data.n_c == poin.ideals["translations"]
    assert data.h == data.g_c


def test_little_group_rejects_non_ideal(entries):
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(NotClosedError, match="the given subspace is not an ideal"):
        check_ideal(h3, _span(3, 0))
    check_ideal(h3, _span(3, 2))


# -- induction-step relations --------------------------------------------------


def test_relations_center_case(entries):
    h3 = entries["heisenberg3"].algebra
    data = little_group_step(h3, _span(3, 2), Covector(h3, (0, 0, 1)))
    rel = verify_step_relations(data)
    assert _relations_hold(rel) and not rel["theorem_violated"]


def test_relations_plane_case(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    data = little_group_step(h3, _span(3, 1, 2), cov)
    assert data.g_c == _span(3, 1, 2) == data.n_c
    assert data.h == _span(3, 1, 2)
    rel = verify_step_relations(data)
    assert _relations_hold(rel)
    # (13b) by hand: n_c moves cov along e1* only, which annihilates h
    from orbitkit.structure import coadjoint_image
    from orbitkit.linalg import annihilator
    assert coadjoint_image(h3, cov, data.n_c) == Subspace(3, [(1, 0, 0)])
    assert annihilator(data.h) == Subspace(3, [(1, 0, 0)])


def test_relations_poincare(entries):
    poin = entries["poincare"]
    cov = Covector(poin.algebra, poin.covectors["timelike"])
    data = little_group_step(poin.algebra, poin.ideals["translations"], cov)
    rel = verify_step_relations(data)
    assert _relations_hold(rel)
    from orbitkit.linalg import annihilator
    assert annihilator(data.h).dim == 3


# -- obstruction step ----------------------------------------------------------


def test_obstruction_heisenberg_nontrivial(entries):
    h3 = entries["heisenberg3"].algebra
    data = little_group_step(h3, _span(3, 2), Covector(h3, (0, 0, 1)))
    ob = obstruction_step(data)
    assert ob["j_dim"] == 0
    assert ob["extension_dims"] == (1, 3, 2)
    assert ob["cocycle"][0][1] == 1
    assert not ob["trivial"] and ob["primitive"] is None
    assert not ob["c_vanishes_on_n_c"]


def test_obstruction_vanishing_restriction(entries):
    # c restricted to n_c is zero: trivial with zero cocycle
    h3 = entries["heisenberg3"].algebra
    data = little_group_step(h3, _span(3, 1, 2), Covector(h3, (1, 0, 0)))
    ob = obstruction_step(data)
    assert ob["c_vanishes_on_n_c"]
    assert not any(map(any, ob["cocycle"]))
    assert ob["trivial"]


def test_obstruction_poincare_trivial(entries):
    poin = entries["poincare"]
    cov = Covector(poin.algebra, poin.covectors["timelike"])
    data = little_group_step(poin.algebra, poin.ideals["translations"], cov)
    ob = obstruction_step(data)
    assert ob["extension_dims"] == (1, 4, 3)
    assert not any(map(any, ob["cocycle"]))
    assert ob["trivial"] and ob["primitive"] == (F(0),) * 3


def _random_complements(data, rng, count):
    """Spans of the canonical section rows shifted by random elements of n_c."""
    base = subquotient(data.algebra, data.g_c, data.n_c).lifts
    out = []
    for _ in range(count):
        rows = []
        for row in base:
            shift = [F(0)] * len(row)
            for w in data.n_c.rows:
                c = F(rng.randint(-3, 3), rng.randint(1, 2))
                shift = [a + c * b for a, b in zip(shift, w)]
            rows.append(tuple(a + b for a, b in zip(row, shift)))
        out.append(Subspace(data.algebra.dim, rows))
    return out


def test_obstruction_section_independence(entries, rng):
    """The canonical section and the sections into random complements of n_c
    (`complement_obstruction`) agree on triviality, and their cocycles differ by
    an exact coboundary."""
    h3 = entries["heisenberg3"].algebra
    poin = entries["poincare"]
    cases = [
        (h3, _span(3, 2), Covector(h3, (0, 0, 1)), False),
        (poin.algebra, poin.ideals["translations"],
         Covector(poin.algebra, poin.covectors["timelike"]), True),
    ]
    for alg, ideal, cov, expected_trivial in cases:
        data = little_group_step(alg, ideal, cov)
        reference = obstruction_step(data)
        assert reference["trivial"] is expected_trivial
        quotient = subquotient(alg, data.g_c, data.n_c).algebra
        for complement in _random_complements(data, rng, 6):
            ob = complement_obstruction(data, complement)
            assert ob["trivial"] is reference["trivial"]
            # the two cocycles differ by an exact coboundary
            diff = tuple(map(vec_sub, reference["cocycle"], ob["cocycle"]))
            m = quotient.dim
            cq = dense_structure(quotient)
            pair_rows = [[cq[a][b][k] for k in range(m)]
                         for a in range(m) for b in range(a + 1, m)]
            rhs = [diff[a][b] for a in range(m) for b in range(a + 1, m)]
            if pair_rows:
                assert solve(pair_rows, rhs, m) is not None


def test_obstruction_step_builds_one_algebra(entries, monkeypatch):
    """h_c / n_c is built from ambient brackets; the table of h_c itself never is."""
    built = []
    post_init = LieAlgebra.__post_init__

    def counted(self):
        built.append(self.dim)
        post_init(self)

    poin = entries["poincare"]
    data = little_group_step(poin.algebra, poin.ideals["translations"],
                             Covector(poin.algebra, poin.covectors["timelike"]))
    assert (data.g_c.dim, data.n_c.dim) == (7, 4)
    monkeypatch.setattr(LieAlgebra, "__post_init__", counted)
    obstruction_step(data)
    assert built == [3]  # so(3)


def cocycle_identity_defect(quotient_algebra, cocycle):
    """Largest 2-cocycle identity defect over basis triples (0 = cocycle)."""
    m = quotient_algebra.dim
    cq = dense_structure(quotient_algebra)
    worst = F(0)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                total = F(0)
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    total += sum(
                        (cq[x][y][k] * cocycle[k][z] for k in range(m)), F(0)
                    )
                if abs(total) > abs(worst):
                    worst = total
    return worst


def test_cocycle_identity(entries, rng):
    for name in ("heisenberg3", "filiform4", "poincare", "euclid2"):
        entry = entries[name]
        alg = entry.algebra
        for ideal in entry.ideals.values():
            for _ in range(4):
                cov = rand_covector(alg, rng)
                data = little_group_step(alg, ideal, cov)
                ob = obstruction_step(data)
                quotient = subquotient(alg, data.g_c, data.n_c).algebra
                assert cocycle_identity_defect(quotient, ob["cocycle"]) == 0


def test_the_cocycle_is_the_pairing_less_its_quotient_part(entries, rng):
    """f(a, b) = cov([l_a, l_b]) - sum_k c_ab^k cov(l_k) for the lifts l and the
    quotient table c of h_c / n_c, with cov([l_a, l_b]) read off the KKS pairing
    rather than off the n_c-component of the bracket: over each catalog ideal at its
    declared covectors and four seeded ones, and over seeded h9, n5, L9, b4 and
    Poincare d=4, 5 at seeds 0-2, each ideal at four seeded covectors."""
    seeded = [(e, ()) for seed in range(3) for e in [
        *seeded_family_entries(seed),
        parse_entry(families.poincare(5, families.family_rng(seed, "poincare5")).doc)]]
    cases = nonzero = 0
    for entry, declared in [*((e, e.covectors.values()) for e in entries.values()), *seeded]:
        alg = entry.algebra
        for ideal in entry.ideals.values():
            check_ideal(alg, ideal)
            covs = [Covector(alg, c) for c in declared]
            for cov in covs + [rand_covector(alg, rng) for _ in range(4)]:
                data = little_group_step(alg, ideal, cov)
                quot = subquotient(alg, data.g_c, data.n_c)
                lifts, c, m = quot.lifts, dense_structure(quot.algebra), quot.algebra.dim
                pairing = kks_pairing(alg, cov)
                expected = [[vec_dot(combine(lifts[a], pairing, alg.dim), lifts[b])
                             - sum((c[a][b][k] * cov.pair(lifts[k]) for k in range(m)), F(0))
                             for b in range(m)] for a in range(m)]
                cocycle = obstruction_step(data)["cocycle"]
                assert [list(row) for row in cocycle] == expected, (alg.name, cov)
                cases, nonzero = cases + 1, nonzero + any(map(any, cocycle))
    assert cases == 122 and nonzero > 5


# -- semidirect witness --------------------------------------------------------


def test_semidirect_witness_poincare_little_group(entries):
    poin = entries["poincare"]
    cov = Covector(poin.algebra, poin.covectors["timelike"])
    data = little_group_step(poin.algebra, poin.ideals["translations"], cov)
    cov_inner = restrict(poin.algebra, cov, data.g_c)
    n_inner = Subspace(7, [coords_of(data.g_c, r)
                           for r in poin.ideals["translations"].rows])
    rot = poin.complements["lorentz"].intersect(data.g_c)
    rot_inner = Subspace(7, [coords_of(data.g_c, r) for r in rot.rows])
    rep = semidirect_witness(little_group_step(cov_inner.algebra, n_inner, cov_inner),
                             [("rotations", rot_inner)])
    assert rep["witness"] == "rotations"
    assert rep["cocycle_zero"]


def test_semidirect_witness_heisenberg_fails(entries):
    h3e = entries["heisenberg3"]
    data = little_group_step(h3e.algebra, h3e.ideals["center"], Covector(h3e.algebra, (0, 0, 1)))
    rep = semidirect_witness(data, [("xy_plane", h3e.complements["xy_plane"])])
    assert rep["witness"] is None
    assert rep == _semidirect(None, [("xy_plane", "declared complement is not a subalgebra")])


def test_semidirect_witness_abelian(entries):
    ab = entries["abelian3"].algebra
    rep = semidirect_witness(little_group_step(ab, _span(3, 1, 2), Covector(ab, (1, 2, 3))),
                             [("meets", _span(3, 0, 1)), ("inside", _span(3, 1)),
                              ("plane", Subspace.full(2)), ("line", _span(3, 0))])
    assert rep["witness"] == "line" and rep["cocycle_zero"]
    assert rep == _semidirect("line", [("meets", "not a linear complement of the ideal"),
                                       ("inside", "not a linear complement of the ideal"),
                                       ("plane", "wrong ambient dimension")])


def test_semidirect_witness_requires_point_orbit(entries):
    poin = entries["poincare"]
    data = little_group_step(poin.algebra, poin.ideals["translations"],
                             Covector(poin.algebra, poin.covectors["timelike"]))
    with pytest.raises(ValueError, match="point-orbit hypothesis"):
        semidirect_witness(data, [("lorentz", poin.complements["lorentz"])])


def complement_section_witness(data, candidates):
    """The witness search `semidirect_witness` replaced: the obstruction through the
    section into each candidate, whose refusal marks a non-complement, and a
    subalgebra is accepted when that cocycle vanishes."""
    rejections = []
    for name, s in candidates:
        if s.ambient_dim != data.algebra.dim:
            rejections.append((name, "wrong ambient dimension"))
            continue
        try:
            report = complement_obstruction(data, s)
        except ValueError:
            rejections.append((name, "not a linear complement of the ideal"))
            continue
        try:
            check_subalgebra(data.algebra, s)
        except NotClosedError:
            rejections.append((name, "declared complement is not a subalgebra"))
            continue
        if not any(map(any, report["cocycle"])):
            return _semidirect(name, rejections)
        rejections.append((name, "cocycle does not vanish on the candidate section"))
    return _semidirect(None, rejections)


def _point_orbit_candidates(entries):
    """(data, candidates) over the catalog and seeded h9, n5, L9, b4 and Poincare d=4
    at seeds 0-2: each declared ideal n at four covectors drawn from ann([g, n]), so
    g_c = g.  The candidates are the declared complements, each also moved by a
    random element x of n: by exp(ad x) = 1 + ad x when n is abelian (an
    automorphism, so a subalgebra stays one) and row by row; random subspaces of
    dimension k - 1, k and k + 1 (k = dim g - dim n, entries in -1..1); and one
    subspace of the wrong ambient dimension."""
    rng = random.Random(27)
    seeded = [e for seed in range(3) for e in seeded_family_entries(seed)]
    for entry in [*entries.values(), *seeded]:
        alg, nd = entry.algebra, entry.algebra.dim
        for ideal in entry.ideals.values():
            fixed = annihilator(bracket_span(alg, Subspace.full(nd), ideal)).rows
            k, abelian = nd - ideal.dim, bracket_span(alg, ideal, ideal).dim == 0
            for _ in range(4):
                cov = Covector(alg, combine(rand_vec(rng, len(fixed)), fixed, nd))
                candidates = []
                for name, s in entry.complements.items():
                    candidates.append((name, s))
                    if abelian:
                        x = combine(rand_vec(rng, ideal.dim, -2, 2, 2), ideal.rows, nd)
                        candidates.append((f"{name}_conjugate", Subspace(nd, [
                            tuple(map(add, y, alg.bracket_exact(x, y))) for y in s.rows])))
                    shifts = (combine(rand_vec(rng, ideal.dim, -1, 1, 1), ideal.rows, nd)
                              for _ in s.rows)
                    candidates.append((f"{name}_shifted", Subspace(nd, [
                        tuple(map(add, y, shift)) for y, shift in zip(s.rows, shifts)])))
                candidates += [(f"random{d}", Subspace(nd, [rand_vec(rng, nd, -1, 1, 1)
                                                            for _ in range(d)]))
                               for d in (k - 1, k, k + 1) if 0 <= d <= nd]
                candidates.append(("wide", Subspace.full(nd + 1)))
                yield little_group_step(alg, ideal, cov), candidates


def test_the_witness_matches_the_complement_section_route(entries):
    """At a point orbit a subalgebra complement s of n makes the section into s a
    homomorphism, so the cocycle the old route computed on it is zero: deciding each
    candidate by its definition gives the old route's witness and rejections, one
    candidate at a time and for the whole list."""
    outcomes = Counter()
    for data, candidates in _point_orbit_candidates(entries):
        assert semidirect_witness(data, candidates) == complement_section_witness(
            data, candidates)
        for name, s in candidates:
            rep = semidirect_witness(data, [(name, s)])
            assert rep == complement_section_witness(data, [(name, s)]), name
            if rep["witness"] is not None:
                assert not any(map(any, complement_obstruction(data, s)["cocycle"]))
            outcomes[rep["rejections"][0]["reason"] if rep["rejections"] else "witness"] += 1
    assert outcomes["witness"] > 40 and outcomes["wrong ambient dimension"] > 80
    assert outcomes["not a linear complement of the ideal"] > 150
    assert outcomes["declared complement is not a subalgebra"] > 50


def test_the_witness_runs_no_obstruction(entries, monkeypatch):
    """Every verdict of `semidirect_witness` is read off the candidate: no obstruction
    step, subquotient or coboundary solve runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the semidirect witness ran an obstruction")

    for name in ("obstruction_step", "subquotient", "solve"):
        monkeypatch.setattr(mackey, name, refuse)
    poin = entries["poincare"]
    alg, lorentz = poin.algebra, poin.complements["lorentz"]
    data = little_group_step(alg, poin.ideals["translations"],
                             Covector(alg, poin.covectors["zero_momentum"]))
    boost = tuple(map(add, lorentz.rows[-1], basis_vector(10, 6)))
    boosted = Subspace(10, [*lorentz.rows[:-1], boost])
    rep = semidirect_witness(data, [("wide", Subspace.full(11)), ("all", Subspace.full(10)),
                                    ("boosted", boosted), ("lorentz", lorentz)])
    assert rep == _semidirect("lorentz", [
        ("wide", "wrong ambient dimension"),
        ("all", "not a linear complement of the ideal"),
        ("boosted", "declared complement is not a subalgebra")])


# -- abelian step and classification -------------------------------------------


def _classify_blocks(argv, capsys):
    assert cli.main(["classify", *argv]) == 0
    return [r["abelian_step"] for r in json.loads(capsys.readouterr().out)["results"]]


def test_abelian_step_poincare_dims(entries, capsys):
    poin = entries["poincare"]
    points = [f"--point={','.join(map(str, poin.covectors[name]))}"
              for name in ("timelike", "timelike_spinning")]
    spin0, spinning = _classify_blocks(["catalog:poincare", "--ideal", "translations",
                                        *points], capsys)
    assert (spin0["dim_x"], spin0["dim_gh"], spin0["dim_y"]) == (6, 3, 0)
    assert (spinning["dim_x"], spinning["dim_gh"], spinning["dim_y"]) == (8, 3, 2)
    assert spin0["identities_hold"] and spinning["identities_hold"]


def test_abelian_step_heisenberg(capsys):
    step, = _classify_blocks(["catalog:heisenberg3", "--ideal", "1,2", "--point=0,0,1"],
                             capsys)
    assert step == {"h_dim": 2, "dim_x": 2, "dim_gh": 1, "dim_y": 0, "identities_hold": True}


def test_classify_runs_orth_once_per_point_on_abelian_ideals(entries, tmp_path, monkeypatch,
                                                             capsys):
    """On every abelian declared catalog ideal and on the family_orbit
    invocations, `classify` builds one orthogonal per point, g_c = orth(a): the
    dimensions are read from `mackey`'s bookkeeping, which builds none."""
    rng = random.Random(5)
    argvs = []
    for name, entry in entries.items():
        alg = entry.algebra
        points = [f"--point={','.join(map(str, c))}" for c in entry.covectors.values()]
        points.append("--point=" + ",".join(str(rng.randint(-3, 3)) for _ in range(alg.dim)))
        argvs += [["classify", f"catalog:{name}", "--ideal", ideal, *points]
                  for ideal, a in entry.ideals.items() if bracket_span(alg, a, a).dim == 0]
    wl = workloads.build("family_orbit", 0)
    workloads.write_files(wl, tmp_path)
    monkeypatch.chdir(tmp_path)
    argvs += [inv.args for inv in wl.round if inv.args[0] == "classify"]
    assert len(argvs) == 13

    def reports():
        out = []
        for argv in argvs:
            code = cli.main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    want = reports()
    assert {code for code, _ in want} == {0}
    calls = []

    def counted(*args):
        calls.append(args)
        return orth(*args)

    monkeypatch.setattr(mackey, "orth", counted)
    assert reports() == want
    points = sum(len(json.loads(out)["results"]) for _, out in want)
    assert len(calls) == points > 13


def test_classification_poincare_cases(entries):
    poin = entries["poincare"]
    trans = poin.ideals["translations"]
    expected = {
        "timelike": ("so(3)", 3, False, (0, 3, 3)),
        "lightlike": ("e(2)", 3, True, (0, 1, 1)),
        "spacelike": ("sl(2,R)", 3, False, (2, 1, 3)),
        "zero_momentum": ("so(3,1)", 6, False, (3, 3, 6)),
    }
    for name, (label, dim, solv, sig) in expected.items():
        kind = classify_little_algebra(little_group_step(
            poin.algebra, trans, Covector(poin.algebra, poin.covectors[name])))
        assert kind["label"] == label
        assert kind["dim"] == dim
        assert kind["is_solvable"] is solv
        assert _signature(kind) == sig


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_wigner_little_groups_in_closed_form(d, seed):
    """On the translations of seeded Poincare algebras in d dimensions the little
    algebra of a timelike momentum is so(d-1), of a spacelike one so(1, d-2) and
    of zero momentum so(1, d-1), with m = (d-1)(d-2)/2 rotations: Killing
    signatures (0, m, m), (d-2, (d-2)(d-3)/2, m) and (d-1, m, d(d-1)/2).  At
    d = 3 the first two are so(2) and so(1, 1), abelian, with zero Killing form."""
    entry = parse_entry(families.poincare(d, families.family_rng(seed, f"poincare{d}")).doc)
    alg, trans = entry.algebra, entry.ideals["translations"]
    m, full = (d - 1) * (d - 2) // 2, d * (d - 1) // 2
    want = {"p0": (m, (0, m, m)), "p1": (m, (d - 2, (d - 2) * (d - 3) // 2, m)),
            None: (full, (d - 1, m, full))}
    if d == 3:
        want["p0"] = want["p1"] = (1, (0, 0, 0))
    for label, (dim, sig) in want.items():
        coords = basis_vector(alg.dim, alg.labels.index(label)) if label else (0,) * alg.dim
        kind = classify_little_algebra(little_group_step(alg, trans, Covector(alg, coords)))
        assert (kind["dim"], _signature(kind)) == (dim, sig), label


def test_little_algebra_signatures_at_the_family_orbit_golden_points_match_the_reference(
        tmp_path, monkeypatch, capsys):
    """At every `classify` point of the family_orbit goldens, the congruence
    signature of the little algebra's Killing form is the one that charpoly and
    Descartes' rule of signs read; the golden replay pins the printed bytes."""
    wl = workloads.build("family_orbit", 0, full=True)
    workloads.write_files(wl, tmp_path)
    monkeypatch.chdir(tmp_path)
    real, forms = mackey.symmetric_signature, []
    monkeypatch.setattr(mackey, "symmetric_signature", lambda m: forms.append(m) or real(m))
    points = 0
    for inv in wl.setup + wl.round:
        if inv.args[0] == "classify":
            assert cli.main(inv.args) == 0
            points += len(json.loads(capsys.readouterr().out)["results"])
    assert len(forms) == points > 0
    assert [real(m) for m in forms] == [descartes_signature(m) for m in forms]


def test_classification_rejects_nonabelian_ideal(entries):
    poin = entries["poincare"]
    check_ideal(poin.algebra, Subspace.full(10))
    with pytest.raises(ValueError, match="not abelian"):
        check_abelian(poin.algebra, Subspace.full(10))


# -- identities that hold by construction, so no step checks them ----------------

SEEDED_ENTRIES = [parse_entry(make(size, families.family_rng(seed, stem)).doc)
                  for seed in (1, 2)
                  for make, size, stem in ((families.heisenberg, 4, "h9"),
                                           (families.nilradical, 5, "n5"),
                                           (families.filiform, 9, "L9"),
                                           (families.poincare, 4, "poincare4"))]


def _identity_cases(entries, rng):
    """(algebra, ideal, covector) over the catalog and seeded h9, n5, L9 and
    Poincare d=4: each declared ideal and one seeded ideal closure, at two
    seeded covectors and at two seeded covectors vanishing on [g, n]."""
    for entry in [*entries.values(), *SEEDED_ENTRIES]:
        alg = entry.algebra
        for ideal in [*entry.ideals.values(), *random_ideals(alg, rng, 1)]:
            fixed = annihilator(bracket_span(alg, Subspace.full(alg.dim), ideal)).rows
            covs = [rand_covector(alg, rng) for _ in range(2)]
            covs += [Covector(alg, combine(rand_vec(rng, len(fixed)), fixed, alg.dim))
                     for _ in range(2)]
            for cov in covs:
                yield alg, ideal, cov


def test_g_c_is_g_exactly_when_the_point_orbit_hypothesis_holds(entries, rng):
    """`semidirect_witness` reads <cov, [g, n]> = 0 as g_c = g; the bracket span
    of g and n paired with cov is the oracle."""
    verdicts = []
    for alg, ideal, cov in _identity_cases(entries, rng):
        oracle = all(cov.pair(r) == 0
                     for r in bracket_span(alg, Subspace.full(alg.dim), ideal).rows)
        assert (little_group_step(alg, ideal, cov).g_c.dim == alg.dim) == oracle
        verdicts.append(oracle)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_the_abelian_step_identities_hold_by_construction(entries, rng):
    """For an abelian ideal a, with h = g_c: h^cov <= h, which `classify` no
    longer checks, and dim g - dim h = dim a(cov); the fiber dimension is
    dim h - dim h^cov whenever h^cov <= h."""
    abelian = contained = 0
    for alg, a, cov in _identity_cases(entries, rng):
        data = little_group_step(alg, a, cov)
        h, h_f = data.g_c, orth(alg, data.g_c, cov)
        if h.contains_subspace(h_f):
            assert orbit_dim(alg, cov, h) == h.dim - h_f.dim
            contained += 1
        if bracket_span(alg, a, a).dim == 0:
            dim_x, dim_u, dim_gh, _, dim_y, consistent = mackey.dimensions(data)
            assert h.contains_subspace(h_f) and data.h == h and dim_u == 0
            assert dim_gh == alg.dim - h.dim == coadjoint_image(alg, cov, a).dim
            assert consistent == (dim_x == 2 * dim_gh + dim_y)
            abelian += 1
    assert abelian > 60 and contained > 100


def test_one_ideal_check_and_one_little_group_per_point(monkeypatch, capsys):
    """On two points each of `classify` and `mackey --complement`; the ideal's
    orthogonal g_c = ann(n(cov)) is built once per `classify` point too."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            at = {"orth": 1, "coadjoint_image": 2}.get(name)  # the subspace argument
            calls.append(name if at is None else (name, args[at]))
            return fn(*args)
        return wrapper

    for name in ("is_ideal", "little_group_step", "orth", "coadjoint_image"):
        monkeypatch.setattr(mackey, name, counted(name, getattr(mackey, name)))
    poincare = "catalog:poincare"
    translations = Subspace(10, [basis_vector(10, i) for i in range(6, 10)])
    assert cli.main(["classify", poincare, "--ideal", "translations",
                     "--point=0,0,0,0,0,0,1,0,0,0", "--point=0,0,0,0,0,0,1,1,0,0"]) == 0
    assert calls.count("is_ideal") == 1 and calls.count("little_group_step") == 2
    assert calls.count(("orth", translations)) + calls.count(
        ("coadjoint_image", translations)) == 2
    calls.clear()
    assert cli.main(["mackey", poincare, "--ideal", "translations", "--complement", "lorentz",
                     "--point=0,0,0,1,0,0,0,0,0,0", "--point=0,0,0,0,0,0,0,0,0,0"]) == 0
    assert '"witness": "lorentz"' in capsys.readouterr().out
    assert calls.count("is_ideal") == 1 and calls.count("little_group_step") == 2


def test_classify_checks_that_its_ideal_is_abelian_once_per_invocation(monkeypatch, capsys):
    """[a, a] = 0 depends on no point: a 2-point `classify` brackets the ideal with
    itself once, and a non-abelian ideal is still refused with exit 2."""
    real, checks = mackey.bracket_span, []

    def counted(alg, a, b):
        checks.append(a == b)
        return real(alg, a, b)

    monkeypatch.setattr(mackey, "bracket_span", counted)
    assert cli.main(["classify", "catalog:poincare", "--ideal", "translations",
                     "--point=0,0,0,0,0,0,1,0,0,0", "--point=0,0,0,0,0,0,1,1,0,0"]) == 0
    assert checks.count(True) == 1
    capsys.readouterr()
    assert cli.main(["classify", "catalog:sl2", "--ideal", "0,1,2",
                     "--point=1,0,0", "--point=0,1,0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "the given ideal is not abelian"


def test_mackey_eliminates_each_points_pairing_once(entries, monkeypatch):
    """The stabilizer g_f that step 2 reads also gives dim_x = dim g - dim g_f, so the
    KKS pairing of the point is row-reduced once per report."""
    poin = entries["poincare"]
    alg = poin.algebra
    cov = Covector(alg, poin.covectors["timelike_spinning"])
    pairing = kks_pairing(alg, cov)
    reduced = []

    def counted(rows, cols):
        reduced.append(rows is pairing)
        return rref(rows, cols)

    bindings = [mod for name, mod in sys.modules.items()
                if name.startswith("orbitkit.") and getattr(mod, "rref", None) is rref]
    assert len(bindings) >= 2  # linalg's own, for the kernels, and liealg's, for ranks
    for mod in bindings:
        monkeypatch.setattr(mod, "rref", counted)
    rep = mackey_report(alg, poin.ideals["translations"], cov)
    assert reduced.count(True) == 1
    assert rep["mackey"]["dimensions"]["dim_x"] == orbit_dim(alg, cov) == 8


# -- exact coadjoint exponential ------------------------------------------------


def test_exp_coadjoint_central(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (1, 2, 3))
    assert exp_coadjoint(h3, (0, 0, 5), cov).coords == cov.coords


def test_exp_coadjoint_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    out = exp_coadjoint(h3, (0, 1, 0), Covector(h3, (0, 0, 1)))
    assert out.coords == (F(1), F(0), F(1))  # cov + e1*


def test_exp_coadjoint_refuses_a_vector_of_the_wrong_length(entries):
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(ValueError, match="length 2 for an algebra of dimension 3"):
        exp_coadjoint(h3, (0, 1), Covector(h3, (0, 0, 1)))


def _matrix_exp_nilpotent(m):
    n = len(m)
    total = term = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    k = 1
    while True:
        term = matmul(term, m)
        if not any(map(any, term)):
            return total
        total = [[t + x / _factorial(k) for t, x in zip(top, row)]
                 for top, row in zip(total, term)]
        k += 1


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


FLOW_FAMILIES = {stem: parse_algebra(make(size, families.family_rng(0, stem)).doc)
                 for make, size, stem in ((families.heisenberg, 4, "h9"),
                                          (families.nilradical, 5, "n5"),
                                          (families.filiform, 9, "L9"),
                                          (families.heisenberg, 16, "h33"))}


@pytest.mark.parametrize("name", ["filiform4", *FLOW_FAMILIES])
def test_exp_coadjoint_matches_matrix_exponential(entries, rng, name):
    """The catalog's filiform4 and seeded h9, n5, L9 and h33: the series on
    `pairing` against the dense exp(-ad(Z)^T) applied to f."""
    alg = FLOW_FAMILIES[name] if name in FLOW_FAMILIES else entries[name].algebra
    for _ in range(12):
        z = rand_vec(rng, alg.dim, lo=-3, hi=3, max_den=2)
        cov = rand_covector(alg, rng)
        flow = exp_coadjoint(alg, z, cov)
        gen = [[-x for x in col] for col in zip(*ad_matrix(alg, z))]
        oracle = dense_apply(_matrix_exp_nilpotent(gen), cov.coords)
        assert flow.coords == oracle


def test_exp_coadjoint_inverse(entries, rng):
    h3 = entries["heisenberg3"].algebra
    for _ in range(10):
        z = rand_vec(rng, 3, lo=-4, hi=4, max_den=2)
        cov = rand_covector(h3, rng)
        back = exp_coadjoint(h3, tuple(-a for a in z), exp_coadjoint(h3, z, cov))
        assert back.coords == cov.coords


GROUP_LAW_ALGEBRAS = [parse_algebra(make(size, families.family_rng(0, f"group{size}")).doc)
                      for make, size in ((families.heisenberg, 3), (families.nilradical, 5),
                                         (families.filiform, 8))]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.sampled_from(GROUP_LAW_ALGEBRAS), st.randoms(use_true_random=False),
       st.fractions(-3, 3, max_denominator=3), st.fractions(-3, 3, max_denominator=3))
def test_exp_coadjoint_is_a_group_action_property(alg, rnd, s, t):
    """On h7, n5 and L8: exp(sZ) exp(tZ) f = exp((s+t)Z) f, exp(-Z) exp(Z) f = f,
    and the flow keeps f on its orbit, so the orbit dimension stays put."""
    z = rand_vec(rnd, alg.dim, lo=-3, hi=3, max_den=2)
    cov = rand_covector(alg, rnd)

    def flow(c, f):
        return exp_coadjoint(alg, tuple(c * a for a in z), f)

    assert flow(s, flow(t, cov)) == flow(s + t, cov)
    moved = flow(1, cov)
    assert flow(-1, moved) == cov
    assert orbit_dim(alg, moved) == orbit_dim(alg, cov)


def test_exp_coadjoint_at_a_fixed_point_of_a_non_nilpotent_flow(entries):
    """ad(h) on sl2 is not nilpotent, but h* . ad(h) = 0, so exp(h) fixes 2h*."""
    sl2 = entries["sl2"].algebra
    f = Covector(sl2, (2, 0, 0))
    assert exp_coadjoint(sl2, (1, 0, 0), f) == f


@pytest.mark.parametrize("coords", [(0, 1, 0), (0, 0, 1)], ids=["e*", "f*"])
def test_exp_coadjoint_refuses_non_nilpotent(entries, coords):
    """e* . ad(h) = 2e* and f* . ad(h) = -2f* on sl2: the series never ends."""
    sl2 = entries["sl2"].algebra
    with pytest.raises(ValueError, match="never ends"):
        exp_coadjoint(sl2, (1, 0, 0), Covector(sl2, coords))


# -- full report and fuzzed theorem guard ---------------------------------------


def test_mackey_report_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    rep = mackey_report(h3, _span(3, 2), cov)
    dims = rep["mackey"]["dimensions"]
    assert (dims["dim_x"], dims["dim_u"], dims["dim_g_mod_h"], dims["dim_v"]) == (2, 0, 0, 2)
    assert dims["consistent"] and rep["ok"]
    assert mackey.dimensions(little_group_step(h3, _span(3, 2), cov))[4] == dims["dim_v"]


def test_mackey_report_poincare(entries):
    poin = entries["poincare"]
    cov = Covector(poin.algebra, poin.covectors["timelike_spinning"])
    rep = mackey_report(poin.algebra, poin.ideals["translations"], cov)
    dims = rep["mackey"]["dimensions"]
    assert (dims["dim_x"], dims["dim_u"], dims["dim_g_mod_h"], dims["dim_v"]) == (8, 0, 3, 2)
    assert mackey.dimensions(little_group_step(poin.algebra, poin.ideals["translations"],
                                               cov))[4] == 2


def random_ideals(alg, rng, count):
    out = []
    for _ in range(count):
        seed = Subspace(alg.dim, [rand_vec(rng, alg.dim, lo=-2, hi=2, max_den=1)
                                  for _ in range(rng.randint(1, 2))])
        out.append(loop_ideal_closure(alg, seed))
    return out


def test_annihilator_identity_guard_fuzzed(entries, rng):
    # theorem guard: a failure here is an implementation bug
    cases = 0
    for entry in entries.values():
        alg = entry.algebra
        ideals = list(entry.ideals.values()) + random_ideals(alg, rng, 4)
        for ideal in ideals:
            cov = rand_covector(alg, rng)
            data = little_group_step(alg, ideal, cov)
            rel = verify_step_relations(data)
            assert rel["annihilator_identity"], (entry.name, ideal.rows, cov.coords)
            assert not rel["theorem_violated"]
            cases += 1
    assert cases >= 40


def test_dim_v_even_and_fiber_rank(entries, rng):
    for name in ("heisenberg3", "filiform4", "poincare", "euclid2"):
        entry = entries[name]
        alg = entry.algebra
        for ideal in entry.ideals.values():
            for _ in range(4):
                cov = rand_covector(alg, rng)
                dim_v = mackey_report(alg, ideal, cov)["mackey"]["dimensions"]["dim_v"]
                assert dim_v % 2 == 0 and dim_v >= 0
                assert dim_v == mackey.dimensions(little_group_step(alg, ideal, cov))[4]


# -- exp-linearity: one covector cov . ad(Z)^2 per direction --------------------


def image_chain_exp_linear(data):
    """Reference verdict: <c, [n_c, n]> = 0, and cov vanishes on the image of
    ad(Z)^k for k = 2, 3, ... along each basis direction Z of n_c, each image
    chain iterated until it stabilizes."""
    alg, cov = data.algebra, data.covector
    if any(cov.pair(alg.bracket(w, v)) != 0
           for w in data.n_c.rows for v in data.ideal.rows):
        return False
    for z in data.n_c.rows:
        m = ad_matrix(alg, z)
        power, prev_image = matmul(m, m), None
        while True:
            img = Subspace(len(power), list(zip(*power)))  # the column space
            if any(cov.pair(direction) != 0 for direction in img.rows):
                return False
            if img == prev_image or img.dim == 0:
                break
            prev_image, power = img, matmul(power, m)
    return True


def test_the_step_two_relations_and_the_dimension_count_hold_property(descents):
    """For an ideal n and c = f|n: f([X, g]) = 0 gives f([X, n]) = 0, so g_f <= g_c <= h;
    n_c(f) = ann(h) holds for every ideal (`verify_step_relations`); Z in n_c has
    f([Z, n]) = 0 and [Z, g] <= n, so f([n_c, n]) = 0 and f . ad(Z)^2 = 0; and in the
    symplectic g/g_f, with N the image of n and N^f that of g_c, both restricted ranks
    are the dimension less dim(N ∩ N^f), which is codim(N + N^f), so
    dim_x = 2 dim g/h + dim_u + dim_v."""
    checked = 0
    for entry, cov, _ in descents:
        for n in entry.ideals.values():
            rep = mackey_report(entry.algebra, n, cov)["mackey"]
            rel = rep["relations"]
            assert rel["stabilizer_in_h"] and rel["annihilator_identity"] and rel["exp_linear"], (
                entry.name, cov, n)
            assert not rel["theorem_violated"] and rep["dimensions"]["consistent"], (
                entry.name, cov, n)
            checked += 1
    assert checked >= 30


def test_exp_linear_matches_the_image_chain_reference(entries, rng):
    # On true little-group data exp-linearity always holds: for Z in n_c,
    # ad(Z)^2 g lies in [Z, n], where cov vanishes.  Directions taken from
    # all of the ideal n can fail the <c, [Z, n]> = 0 test.
    verdicts = []
    for entry in entries.values():
        alg = entry.algebra
        for ideal in list(entry.ideals.values()) + random_ideals(alg, rng, 3):
            data = little_group_step(alg, ideal, rand_covector(alg, rng))
            for case in (data, _with_n_c(data, data.ideal)):
                verdict = verify_step_relations(case)["exp_linear"]
                assert verdict == image_chain_exp_linear(case)
                verdicts.append(verdict)
    assert len(verdicts) >= 60 and verdicts.count(False) >= 2


def test_exp_linear_fails_with_the_bracket_pairing_witness(entries):
    # heisenberg3 at cov = e3* over the ideal g: with n_c replaced by e1,
    # [n_c, n] = [e1, g] = <e3>, and its first echelon row pairs to 1 with cov
    h3 = entries["heisenberg3"].algebra
    data = little_group_step(h3, Subspace.full(3), Covector(h3, (0, 0, 1)))
    rel = verify_step_relations(_with_n_c(data, _span(3, 0)))
    assert not rel["exp_linear"]
    assert rel["witnesses"]["c_pairs_with_nc_n_bracket"] == (0, 0, 1)


def test_step_relations_refuse_an_n_c_outside_the_ideal(entries):
    # filiform4: [e1, e2] = e3, [e1, e3] = e4.  With Z = e1 outside the center and
    # cov = e4*, cov . ad(Z)^2 = e2* is not 0, and only the refusal keeps the
    # bracket-pairing check from calling those flows exp-linear.
    fil = entries["filiform4"]
    data = little_group_step(fil.algebra, fil.ideals["center"], Covector(fil.algebra, (0, 0, 0, 1)))
    data = _with_n_c(data, _span(4, 0))
    assert not image_chain_exp_linear(data)
    with pytest.raises(ValueError, match="^n_c does not lie inside the ideal$"):
        verify_step_relations(data)


# -- step 2 against closed forms ------------------------------------------------


def _mackey_dims(rep):
    dims = rep["mackey"]["dimensions"]
    return dims["dim_x"], dims["dim_g_mod_h"], dims["dim_u"], dims["dim_v"]


@pytest.mark.parametrize("k", range(1, 9))
def test_mackey_step_two_on_heisenberg_matches_the_closed_form(k):
    """h_{2k+1} over its Lagrangian ideal n = span(y_i, z) at f(z) != 0: the x_i
    move f on n, so g_c = n, and X = G/N is the whole 2k-dimensional orbit."""
    rng = families.family_rng(0, f"mackey-h{k}")
    entry = parse_entry(families.heisenberg(k, rng).doc)
    alg, n = entry.algebra, entry.ideals["lagrangian"]
    coords = list(rand_vec(rng, alg.dim))
    coords[alg.label_index("z")] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    cov = Covector(alg, coords)
    rep = mackey_report(alg, n, cov)
    assert _mackey_dims(rep) == (2 * k, k, 0, 0)
    assert little_group_step(alg, n, cov).g_c == n and rep["ok"]


@pytest.mark.parametrize("size", range(4, 21))
def test_mackey_step_two_on_filiform_matches_the_closed_form(size):
    """L_n over its abelian ideal span(e2, ..., en) at a generic point: the orbit
    has dimension 2 and e1 alone moves f on the ideal."""
    family = families.filiform(size, families.family_rng(0, f"mackey-L{size}"))
    entry = parse_entry(family.doc)
    point = workloads._generic_point(random.Random(size), family)
    rep = mackey_report(entry.algebra, entry.ideals["abelian"], Covector(entry.algebra, point))
    assert _mackey_dims(rep) == (2, 1, 0, 0)
    assert rep["ok"]
