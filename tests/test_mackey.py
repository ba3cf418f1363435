import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import cli, mackey
from orbitkit.catalog import parse_algebra, parse_entry
from orbitkit.liealg import Covector, LieAlgebra, bracket_span, kks_pairing, orbit_record, validate
from orbitkit.linalg import Matrix, Subspace, annihilator, basis_vector, combine, rank_kernel
from orbitkit.mackey import (
    abelian_step,
    classify_little_algebra,
    little_group_step,
    mackey_report,
    obstruction_step,
    semidirect_witness,
    verify_step_relations,
)
from orbitkit.structure import (
    NotClosedError,
    ad_matrix,
    coadjoint_image,
    exp_coadjoint,
    ideal_closure,
    orbit_annihilator,
    orbit_dim,
    orth,
    restrict,
    stabilizer,
)
from conftest import coords_of, dense_apply, dense_structure, rand_covector, rand_vec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402


def _span(n, *idx):
    return Subspace(n, [basis_vector(n, i) for i in idx])


def _with_n_c(data, n_c):
    """The little-group record `data` with its n_c replaced."""
    return type(data)(**{**vars(data), "n_c": n_c})


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
    with pytest.raises(NotClosedError):
        little_group_step(h3, _span(3, 0), Covector(h3, (0, 0, 1)))


# -- induction-step relations --------------------------------------------------


def test_relations_center_case(entries):
    h3 = entries["heisenberg3"].algebra
    data = little_group_step(h3, _span(3, 2), Covector(h3, (0, 0, 1)))
    rel = verify_step_relations(data)
    assert rel.all_hold() and not rel.theorem_violated


def test_relations_plane_case(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    data = little_group_step(h3, _span(3, 1, 2), cov)
    assert data.g_c == _span(3, 1, 2) == data.n_c
    assert data.h == _span(3, 1, 2)
    rel = verify_step_relations(data)
    assert rel.all_hold()
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
    assert rel.all_hold()
    from orbitkit.linalg import annihilator
    assert annihilator(data.h).dim == 3


# -- obstruction step ----------------------------------------------------------


def test_obstruction_heisenberg_nontrivial(entries):
    h3 = entries["heisenberg3"].algebra
    data = little_group_step(h3, _span(3, 2), Covector(h3, (0, 0, 1)))
    ob = obstruction_step(data)
    assert ob.j.dim == 0
    assert ob.extension_dims == (1, 3, 2)
    assert ob.cocycle.entries[0][1] == 1
    assert not ob.trivial and ob.primitive is None
    assert not ob.c_vanishes_on_n_c


def test_obstruction_vanishing_restriction(entries):
    # c restricted to n_c is zero: trivial with zero cocycle
    h3 = entries["heisenberg3"].algebra
    data = little_group_step(h3, _span(3, 1, 2), Covector(h3, (1, 0, 0)))
    ob = obstruction_step(data)
    assert ob.c_vanishes_on_n_c
    assert ob.cocycle.is_zero()
    assert ob.trivial


def test_obstruction_poincare_trivial(entries):
    poin = entries["poincare"]
    cov = Covector(poin.algebra, poin.covectors["timelike"])
    data = little_group_step(poin.algebra, poin.ideals["translations"], cov)
    ob = obstruction_step(data)
    assert ob.extension_dims == (1, 4, 3)
    assert ob.cocycle.is_zero()
    assert ob.trivial and ob.primitive == (F(0),) * 3


def _random_complements(data, rng, count):
    """Spans of the canonical section rows shifted by random elements of n_c."""
    base = obstruction_step(data).section.entries
    out = []
    for _ in range(count):
        rows = []
        for row in base:
            shift = [F(0)] * len(row)
            for w in data.n_c.basis_rows():
                c = F(rng.randint(-3, 3), rng.randint(1, 2))
                shift = [a + c * b for a, b in zip(shift, w)]
            rows.append(tuple(a + b for a, b in zip(row, shift)))
        out.append(Subspace(data.algebra.dim, rows))
    return out


def test_obstruction_section_independence(entries, rng):
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
        assert reference.trivial is expected_trivial
        for complement in _random_complements(data, rng, 6):
            ob = obstruction_step(data, complement=complement)
            assert ob.trivial is expected_trivial
            # the two cocycles differ by an exact coboundary
            diff = reference.cocycle - ob.cocycle
            m = ob.quotient_algebra.dim
            cq = dense_structure(ob.quotient_algebra)
            pair_rows = [[cq[a][b][k] for k in range(m)]
                         for a in range(m) for b in range(a + 1, m)]
            rhs = [diff.entries[a][b] for a in range(m) for b in range(a + 1, m)]
            from orbitkit.linalg import solve
            if pair_rows:
                assert solve(Matrix(pair_rows), rhs) is not None


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
    obstruction_step(data, complement=poin.complements["lorentz"].intersect(data.g_c))
    assert built == [3, 3]


def _little_group_cases(entries, rng):
    """Little-group data of every declared ideal at declared and seeded covectors."""
    for entry in entries.values():
        alg = entry.algebra
        covs = [Covector(alg, c) for c in entry.covectors.values()]
        covs += [rand_covector(alg, rng) for _ in range(2)]
        for ideal in entry.ideals.values():
            for cov in covs:
                yield little_group_step(alg, ideal, cov)


def test_obstruction_with_the_canonical_complement_is_the_default(entries, rng):
    for data in _little_group_cases(entries, rng):
        reference = obstruction_step(data)
        lifts = Subspace(data.algebra.dim, reference.section.entries)
        ob = obstruction_step(data, complement=lifts)
        assert ob.section == reference.section
        assert (ob.cocycle, ob.primitive, ob.trivial) == (
            reference.cocycle, reference.primitive, reference.trivial)


def test_obstruction_refuses_a_non_complement(entries, rng):
    refused = 0
    for data in _little_group_cases(entries, rng):
        lifts = obstruction_step(data).section.entries
        n = data.algebra.dim
        bad = [Subspace(n, lifts[1:])]                   # misses a class
        if data.n_c.dim:
            bad.append(data.g_c)                         # h_c = g_c meets n_c
        if data.g_c.dim < n:
            bad.append(Subspace.full(n))                 # leaves h_c
        for s in bad:
            if s == Subspace(n, lifts):
                continue
            with pytest.raises(ValueError):
                obstruction_step(data, complement=s)
            refused += 1
    assert refused > 20


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
                        (cq[x][y][k] * cocycle.entries[k][z] for k in range(m)), F(0)
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
                assert cocycle_identity_defect(ob.quotient_algebra, ob.cocycle) == 0


# -- semidirect witness --------------------------------------------------------


def test_semidirect_witness_poincare_little_group(entries):
    poin = entries["poincare"]
    cov = Covector(poin.algebra, poin.covectors["timelike"])
    data = little_group_step(poin.algebra, poin.ideals["translations"], cov)
    cov_inner = restrict(poin.algebra, cov, data.g_c)
    n_inner = Subspace(7, [coords_of(data.g_c, r)
                           for r in poin.ideals["translations"].basis_rows()])
    rot = poin.complements["lorentz"].intersect(data.g_c)
    rot_inner = Subspace(7, [coords_of(data.g_c, r) for r in rot.basis_rows()])
    rep = semidirect_witness(little_group_step(cov_inner.algebra, n_inner, cov_inner),
                             [("rotations", rot_inner)])
    assert rep.witness_name == "rotations"
    assert rep.cocycle_zero


def test_semidirect_witness_heisenberg_fails(entries):
    h3e = entries["heisenberg3"]
    data = little_group_step(h3e.algebra, h3e.ideals["center"], Covector(h3e.algebra, (0, 0, 1)))
    rep = semidirect_witness(data, [("xy_plane", h3e.complements["xy_plane"])])
    assert rep.witness_name is None
    assert rep.rejections == (("xy_plane", "declared complement is not a subalgebra"),)


def test_semidirect_witness_abelian(entries):
    ab = entries["abelian3"].algebra
    rep = semidirect_witness(little_group_step(ab, _span(3, 1, 2), Covector(ab, (1, 2, 3))),
                             [("meets", _span(3, 0, 1)), ("inside", _span(3, 1)),
                              ("plane", Subspace.full(2)), ("line", _span(3, 0))])
    assert rep.witness_name == "line" and rep.cocycle_zero
    assert rep.rejections == (("meets", "not a linear complement of the ideal"),
                              ("inside", "not a linear complement of the ideal"),
                              ("plane", "wrong ambient dimension"))


def test_semidirect_witness_requires_point_orbit(entries):
    poin = entries["poincare"]
    data = little_group_step(poin.algebra, poin.ideals["translations"],
                             Covector(poin.algebra, poin.covectors["timelike"]))
    with pytest.raises(ValueError, match="point-orbit hypothesis"):
        semidirect_witness(data, [("lorentz", poin.complements["lorentz"])])


# -- abelian step and classification -------------------------------------------


def test_abelian_step_poincare_dims(entries):
    poin = entries["poincare"]
    trans = poin.ideals["translations"]
    spin0 = abelian_step(little_group_step(poin.algebra, trans,
                                           Covector(poin.algebra, poin.covectors["timelike"])))
    assert (spin0.dim_x, spin0.dim_gh, spin0.dim_y) == (6, 3, 0)
    assert spin0.dims_match
    spinning = abelian_step(little_group_step(
        poin.algebra, trans, Covector(poin.algebra, poin.covectors["timelike_spinning"])))
    assert (spinning.dim_x, spinning.dim_gh, spinning.dim_y) == (8, 3, 2)
    assert spinning.dims_match


def test_abelian_step_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    step = abelian_step(little_group_step(h3, _span(3, 1, 2), Covector(h3, (0, 0, 1))))
    assert step.h == _span(3, 1, 2)
    assert (step.dim_x, step.dim_gh, step.dim_y) == (2, 1, 0)
    assert step.dims_match


def test_abelian_step_rejects_non_orbit_abelian(entries):
    sl2 = entries["sl2"].algebra
    data = little_group_step(sl2, Subspace.full(3), Covector(sl2, (2, 0, 0)))
    with pytest.raises(ValueError, match="not orbit-abelian"):
        abelian_step(data)


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
        assert kind.label == label
        assert kind.dim == dim
        assert kind.is_solvable is solv
        assert kind.killing_signature == sig


def test_classification_rejects_nonabelian_ideal(entries):
    poin = entries["poincare"]
    data = little_group_step(poin.algebra, Subspace.full(10),
                             Covector(poin.algebra, poin.covectors["timelike"]))
    with pytest.raises(ValueError, match="not abelian"):
        classify_little_algebra(data)


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
            fixed = annihilator(bracket_span(alg, Subspace.full(alg.dim), ideal)).basis_rows()
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
                     for r in bracket_span(alg, Subspace.full(alg.dim), ideal).basis_rows())
        assert (little_group_step(alg, ideal, cov).g_c.dim == alg.dim) == oracle
        verdicts.append(oracle)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_the_abelian_step_identities_hold_by_construction(entries, rng):
    """For orbit-abelian a, with h = g_c: dim g - dim h = dim a(cov), and the
    fiber dimension is dim h - dim h^cov whenever h^cov <= h."""
    orbit_abelian = contained = 0
    for alg, a, cov in _identity_cases(entries, rng):
        data = little_group_step(alg, a, cov)
        h, h_f = data.g_c, orth(alg, data.g_c, cov)
        if h.contains_subspace(h_f):
            assert orbit_dim(alg, cov, h) == h.dim - h_f.dim
            contained += 1
        if orbit_annihilator(alg, cov).contains_subspace(bracket_span(alg, a, a)):
            step = abelian_step(data)
            assert step.dim_gh == alg.dim - h.dim == coadjoint_image(alg, cov, a).dim
            assert step.dims_match == (h.contains_subspace(h_f)
                                       and step.dim_x == 2 * step.dim_gh + step.dim_y)
            orbit_abelian += 1
    assert orbit_abelian > 100 and contained > 100


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
    assert calls.count("is_ideal") == calls.count("little_group_step") == 2
    assert calls.count(("orth", translations)) + calls.count(
        ("coadjoint_image", translations)) == 2
    calls.clear()
    assert cli.main(["mackey", poincare, "--ideal", "translations", "--complement", "lorentz",
                     "--point=0,0,0,1,0,0,0,0,0,0", "--point=0,0,0,0,0,0,0,0,0,0"]) == 0
    assert '"witness": "lorentz"' in capsys.readouterr().out
    assert calls.count("is_ideal") == calls.count("little_group_step") == 2


# -- exact coadjoint exponential ------------------------------------------------


def test_exp_coadjoint_central(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (1, 2, 3))
    assert exp_coadjoint(h3, (0, 0, 5), cov).coords == cov.coords


def test_exp_coadjoint_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    out = exp_coadjoint(h3, (0, 1, 0), Covector(h3, (0, 0, 1)))
    assert out.coords == (F(1), F(0), F(1))  # cov + e1*


def _matrix_exp_nilpotent(m):
    n = m.rows
    total = Matrix.identity(n)
    term = Matrix.identity(n)
    k = 1
    while True:
        term = term * m
        if term.is_zero():
            return total
        total = total + term.scale(F(1, _factorial(k)))
        k += 1


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_exp_coadjoint_matches_matrix_exponential(entries, rng):
    n4 = entries["filiform4"].algebra
    for _ in range(12):
        z = rand_vec(rng, 4, lo=-3, hi=3, max_den=2)
        cov = rand_covector(n4, rng)
        flow = exp_coadjoint(n4, z, cov)
        gen = ad_matrix(n4, z).transpose().scale(-1)
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


def test_exp_coadjoint_refuses_non_nilpotent(entries):
    sl2 = entries["sl2"].algebra
    with pytest.raises(ValueError):
        exp_coadjoint(sl2, (1, 0, 0), Covector(sl2, (2, 0, 0)))


# -- full report and fuzzed theorem guard ---------------------------------------


def test_mackey_report_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    rep = mackey_report(h3, _span(3, 2), Covector(h3, (0, 0, 1)))
    assert (rep.dim_x, rep.dim_u, rep.dim_gh, rep.dim_v) == (2, 0, 0, 2)
    assert rep.dims_consistent and rep.all_checks()
    assert rep.fiber_rank == rep.dim_v


def test_mackey_report_poincare(entries):
    poin = entries["poincare"]
    rep = mackey_report(poin.algebra, poin.ideals["translations"],
                        Covector(poin.algebra, poin.covectors["timelike_spinning"]))
    assert (rep.dim_x, rep.dim_u, rep.dim_gh, rep.dim_v) == (8, 0, 3, 2)
    assert rep.fiber_rank == 2


def random_ideals(alg, rng, count):
    out = []
    for _ in range(count):
        seed = Subspace(alg.dim, [rand_vec(rng, alg.dim, lo=-2, hi=2, max_den=1)
                                  for _ in range(rng.randint(1, 2))])
        out.append(ideal_closure(alg, seed))
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
            assert rel.annihilator_identity, (entry.name, ideal.basis_rows(), cov.coords)
            assert not rel.theorem_violated
            cases += 1
    assert cases >= 40


def test_dim_v_even_and_fiber_rank(entries, rng):
    for name in ("heisenberg3", "filiform4", "poincare", "euclid2"):
        entry = entries[name]
        alg = entry.algebra
        for ideal in entry.ideals.values():
            for _ in range(4):
                cov = rand_covector(alg, rng)
                rep = mackey_report(alg, ideal, cov)
                assert rep.dim_v % 2 == 0 and rep.dim_v >= 0
                assert rep.dim_v == rep.fiber_rank


# -- exp-linearity: one covector cov . ad(Z)^2 per direction --------------------


def image_chain_exp_linear(data):
    """Reference verdict: <c, [n_c, n]> = 0, and cov vanishes on the image of
    ad(Z)^k for k = 2, 3, ... along each basis direction Z of n_c, each image
    chain iterated until it stabilizes."""
    alg, cov = data.algebra, data.covector
    if any(cov.pair(alg.bracket(w, v)) != 0
           for w in data.n_c.basis_rows() for v in data.ideal.basis_rows()):
        return False
    for z in data.n_c.basis_rows():
        m = ad_matrix(alg, z)
        power, prev_image = m * m, None
        while True:
            img = Subspace(power.rows, power.transpose().entries)
            if any(cov.pair(direction) != 0 for direction in img.basis_rows()):
                return False
            if img == prev_image or img.dim == 0:
                break
            prev_image, power = img, power * m
    return True


def test_exp_linear_matches_the_image_chain_reference(entries, rng):
    # On true little-group data exp-linearity always holds: for Z in n_c,
    # ad(Z)^2 g lies in [Z, n], where cov vanishes.  Directions taken from
    # all of g_c pass the <c, [Z, n]> = 0 test too but can fail the k >= 2 one.
    verdicts = []
    for entry in entries.values():
        alg = entry.algebra
        for ideal in list(entry.ideals.values()) + random_ideals(alg, rng, 3):
            data = little_group_step(alg, ideal, rand_covector(alg, rng))
            for case in (data, _with_n_c(data, data.g_c)):
                verdict = verify_step_relations(case).exp_linear
                assert verdict == image_chain_exp_linear(case)
                verdicts.append(verdict)
    assert len(verdicts) >= 60 and verdicts.count(False) >= 2


def test_exp_linear_fails_with_the_bracket_pairing_witness(entries):
    # heisenberg3 at cov = e3*: with n_c replaced by e1, [n_c, n] = [e1, <e2, e3>] = <e3>,
    # and its first echelon row pairs to 1 with cov
    h3 = entries["heisenberg3"]
    data = little_group_step(h3.algebra, h3.ideals["plane"], Covector(h3.algebra, (0, 0, 1)))
    rel = verify_step_relations(_with_n_c(data, _span(3, 0)))
    assert not rel.exp_linear
    assert rel.witnesses["c_pairs_with_nc_n_bracket"] == (0, 0, 1)


def test_exp_linear_fails_with_the_higher_order_witness(entries):
    # filiform4: [e1, e2] = e3, [e1, e3] = e4.  With Z = e1 and cov = e4*,
    # cov . ad(Z) = e3* and cov . ad(Z)^2 = e2*, so <cov, ad(e1)^2 e2> = 1.
    fil = entries["filiform4"]
    data = little_group_step(fil.algebra, fil.ideals["center"], Covector(fil.algebra, (0, 0, 0, 1)))
    data = _with_n_c(data, _span(4, 0))
    rel = verify_step_relations(data)
    assert not rel.exp_linear and not image_chain_exp_linear(data)
    assert rel.witnesses["higher_order_term"] == (0, 1, 0, 0)


# -- step 2 against closed forms ------------------------------------------------


def _mackey_dims(rep):
    return rep.dim_x, rep.dim_gh, rep.dim_u, rep.dim_v


@pytest.mark.parametrize("k", range(1, 9))
def test_mackey_step_two_on_heisenberg_matches_the_closed_form(k):
    """h_{2k+1} over its Lagrangian ideal n = span(y_i, z) at f(z) != 0: the x_i
    move f on n, so g_c = n, and X = G/N is the whole 2k-dimensional orbit."""
    rng = families.family_rng(0, f"mackey-h{k}")
    entry = parse_entry(families.heisenberg(k, rng).doc)
    alg, n = entry.algebra, entry.ideals["lagrangian"]
    coords = list(rand_vec(rng, alg.dim))
    coords[alg.label_index("z")] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    rep = mackey_report(alg, n, Covector(alg, coords))
    assert _mackey_dims(rep) == (2 * k, k, 0, 0)
    assert rep.little_group.g_c == n and rep.all_checks()


@pytest.mark.parametrize("size", range(4, 21))
def test_mackey_step_two_on_filiform_matches_the_closed_form(size):
    """L_n over its abelian ideal span(e2, ..., en) at a generic point: the orbit
    has dimension 2 and e1 alone moves f on the ideal."""
    family = families.filiform(size, families.family_rng(0, f"mackey-L{size}"))
    entry = parse_entry(family.doc)
    point = workloads._generic_point(random.Random(size), family)
    rep = mackey_report(entry.algebra, entry.ideals["abelian"], Covector(entry.algebra, point))
    assert _mackey_dims(rep) == (2, 1, 0, 0)
    assert rep.all_checks()
