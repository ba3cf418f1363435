import json
import random
import sys
from fractions import Fraction as F
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.catalog import BUILTIN_DIR, builtin_catalog, parse_algebra, parse_entry
from orbitkit.liealg import (
    Covector,
    LieAlgebra,
    ad_matrix,
    bracket_span,
    coadjoint_rows,
    derived_series,
    is_nilpotent,
    is_solvable,
    kks_pairing,
    krylov_hull,
    orbit_dim,
    orbit_record,
    pairing,
    stabilizer,
    validate,
)
from orbitkit.structure import (
    NotClosedError,
    check_subalgebra,
    coadjoint_image,
    orth,
    subquotient,
)
from orbitkit import conditions, liealg, linalg, mackey, polarization, structure
from orbitkit.conditions import check_conditions
from orbitkit.mackey import (
    LittleGroupData,
    check_ideal,
    killing_form,
    little_group_step,
    mackey_steps,
    semidirect_witness,
    symmetric_signature,
    verify_step_relations,
)
from orbitkit.polarization import ascending_central_series, centralizer, orbit_annihilator
from orbitkit.linalg import (
    Subspace,
    annihilator,
    basis_vector,
    combine,
    rank_kernel,
    solve,
    vec,
    vec_dot,
    vec_sub,
)
from conftest import (
    dense_antisymmetry_failures,
    dense_apply,
    dense_from_brackets,
    dense_structure,
    exp_coadjoint,
    loop_ideal_closure,
    matmul,
    n5_three_steps,
    rand_covector,
    rand_vec,
    restrict,
    seeded_family_entries,
    strictly_upper,
    subalgebra_orbit_dim,
    table_of,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402


def test_validate_heisenberg(entries):
    assert validate(entries["heisenberg3"].algebra)["ok"]


def test_validate_abelian(entries):
    assert validate(entries["abelian3"].algebra)["ok"]


def test_validate_antisymmetry_failure():
    # raw tensor with c[0][1] = e3 but c[1][0] = 0
    z = F(0)
    one = F(1)
    c = [[[z, z, z] for _ in range(3)] for _ in range(3)]
    c[0][1][2] = one
    tensor = tuple(tuple(tuple(r) for r in p) for p in c)
    alg = LieAlgebra(3, ("e1", "e2", "e3"), table_of(tensor))
    rep = validate(alg)
    assert not rep["ok"]
    assert (0, 1, 2) in rep["antisymmetry_failures"]


def test_validate_jacobi_failure():
    # [e1,e2]=e3, [e1,e3]=e1 breaks Jacobi on (e1,e2,e3)
    alg = LieAlgebra.from_brackets(
        ("e1", "e2", "e3"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
    rep = validate(alg)
    assert not rep["ok"]
    assert rep["jacobi_failures"] and rep["jacobi_failures"][0]["triple"] == (0, 1, 2)
    assert rep["jacobi_failures"][0]["defect"] == (0, 0, 1)  # [e2, [e3, e1]] = [e1, e2] = e3


def test_validate_skips_the_triples_whose_three_brackets_are_zero(entries, monkeypatch):
    calls = []
    real = liealg.is_zero_vec
    monkeypatch.setattr(liealg, "is_zero_vec", lambda v: calls.append(v) or real(v))
    abelian = LieAlgebra.from_brackets(tuple(f"e{k}" for k in range(40)), {})
    # not one call per triple, C(40, 3) = 9880
    assert validate.__wrapped__(abelian)["ok"] and calls == []
    h3 = entries["heisenberg3"].algebra
    table = LieAlgebra(h3.dim, h3.labels, h3.nonzeros, None, h3.name)
    assert validate.__wrapped__(table)["ok"] and len(calls) == 1
    # with its faithful matrix_rep, which carries every bracket, no sum is formed
    assert validate.__wrapped__(h3)["ok"] and len(calls) == 1


def test_ad_matrix_central_and_generic(entries):
    h3 = entries["heisenberg3"].algebra
    assert not any(map(any, ad_matrix(h3, (0, 0, 1))))
    ad1 = ad_matrix(h3, (1, 0, 0))
    # e1 sends e2 to e3 and kills the rest
    assert dense_apply(ad1, (0, 1, 0)) == (F(0), F(0), F(1))
    assert dense_apply(ad1, (1, 0, 0)) == (F(0), F(0), F(0))


@pytest.mark.parametrize("u,v", [((1,), (0, 1, 0)), ((1, 0, 0), (0, 1, 0, 0))])
def test_bracket_refuses_a_vector_of_the_wrong_length(entries, u, v):
    h3 = entries["heisenberg3"].algebra
    bad = u if len(u) != 3 else v
    with pytest.raises(ValueError, match=f"length {len(bad)} for an algebra of dimension 3"):
        h3.bracket(u, v)


def test_bracket_refuses_strings(entries):
    """Read per character, "100" was e1, and [e1, e2] = e3 came back."""
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(TypeError, match="a string is not a coordinate sequence"):
        h3.bracket("100", "010")


def test_covector_refuses_a_string(entries):
    """Read per character, "001" was e3*."""
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(TypeError, match="a string is not a coordinate sequence"):
        Covector(h3, "001")


def test_covector_refuses_a_length_other_than_the_dimension(entries):
    h3 = entries["heisenberg3"].algebra
    for coords in ((0, 1), (0, 0, 1, 0)):
        with pytest.raises(ValueError, match="covector length does not match algebra dimension"):
            Covector(h3, coords)


def test_lie_algebra_refuses_a_label_count_or_table_of_another_size(entries):
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(ValueError, match="label count does not match dimension"):
        LieAlgebra(h3.dim, h3.labels[:2], h3.nonzeros)
    for table in (h3.nonzeros[:2], h3.nonzeros[:2] + (h3.nonzeros[2][:2],)):
        with pytest.raises(ValueError, match="bracket table must be dim x dim"):
            LieAlgebra(h3.dim, h3.labels, table)


def test_orbit_record_refuses_an_algebra_that_fails_validation():
    broken = LieAlgebra(2, ("a", "b"), (((), ((0, F(1)),)), ((), ())))  # not antisymmetric
    assert not validate(broken)["ok"]
    with pytest.raises(ValueError, match="algebra fails validation; see validate()"):
        orbit_record(broken, Covector(broken, (1, 0)))


def test_ad_matrix_sl2(entries):
    sl2 = entries["sl2"].algebra
    assert ad_matrix(sl2, (1, 0, 0)) == ((0, 0, 0), (0, 2, 0), (0, 0, -2))


def test_kks_pairing_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    b = kks_pairing(h3, Covector(h3, (0, 0, 1)))
    assert b == ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    assert not any(map(any, kks_pairing(h3, Covector(h3, (0, 0, 0)))))


def test_kks_pairing_sl2_trace_dual(entries):
    sl2 = entries["sl2"].algebra
    b = kks_pairing(sl2, Covector(sl2, (2, 0, 0)))  # trace dual of h
    assert b[1][2] == 2 and b[2][1] == -2
    assert rank_kernel(b, 3)[0] == 2


def test_kks_pairing_refuses_a_covector_of_another_algebra(entries):
    h3, sl2 = entries["heisenberg3"].algebra, entries["sl2"].algebra
    with pytest.raises(ValueError, match="another algebra"):
        kks_pairing(sl2, Covector(h3, (0, 0, 1)))
    twin = LieAlgebra(h3.dim, h3.labels, h3.nonzeros, h3.matrix_rep, h3.name)
    assert kks_pairing(twin, Covector(h3, (0, 0, 1))) == kks_pairing(h3, Covector(twin, (0, 0, 1)))


ONE_POINT = ["mackey_steps", "classify", "check_conditions", "orbit_record",
             "polarize_filiform4", "n5_three_steps"]


def _analyse_one_point(name, entries):
    """Run one per-point analysis and return the covector it ran at.  The parent
    built the pairing 5, 4, 2, 2, 5 and 9 times in these."""
    if name == "n5_three_steps":
        alg, cov = n5_three_steps()
        polarization.pukanszky_polarization(alg, cov)
        return cov
    if name == "polarize_filiform4":
        alg = entries["filiform4"].algebra
        cov = Covector(alg, (0, 0, 1, 1))
        polarization.pukanszky_polarization(alg, cov)
        return cov
    entry = entries["poincare"]
    alg, n = entry.algebra, entry.ideals["translations"]
    cov = Covector(alg, entry.covectors["timelike_spinning"])
    if name == "mackey_steps":
        mackey_steps(little_group_step(alg, n, cov))
    elif name == "classify":
        data = little_group_step(alg, n, cov)
        mackey.classify_little_algebra(data)
        mackey.dimensions(data)
    elif name == "check_conditions":
        check_conditions(alg, Subspace.full(alg.dim), cov)
    else:
        orbit_record(alg, cov)
    return cov


@pytest.mark.parametrize("name", ONE_POINT)
def test_each_point_builds_its_pairing_once(entries, monkeypatch, name):
    """Every read of a covector's pairing returns the one matrix built for it."""
    real, built = liealg.kks_pairing, []

    def counted(alg, cov):
        built.append(real(alg, cov))
        return built[-1]

    for mod in (liealg, structure):
        monkeypatch.setattr(mod, "kks_pairing", counted)
    cov = _analyse_one_point(name, entries)
    assert len(built) >= 2 and len({id(b) for b in built}) == 1
    assert built[0] == real(cov.algebra, Covector(cov.algebra, cov.coords))


def test_orbit_record_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    rec = orbit_record(h3, Covector(h3, (0, 0, 1)))["orbit"]
    assert rec["orbit_dim"] == 2
    assert rec["stabilizer_basis"] == Subspace(3, [(0, 0, 1)])
    assert rec["affine_hull_basis"] == Subspace(3, [(1, 0, 0), (0, 1, 0)])
    assert rec["hull_exact"]


def test_orbit_record_abelian(entries):
    ab = entries["abelian3"].algebra
    rec = orbit_record(ab, Covector(ab, (1, 2, 3)))["orbit"]
    assert rec["orbit_dim"] == 0
    assert rec["stabilizer_basis"] == Subspace.full(3)
    assert rec["affine_hull_basis"].dim == 0 == rec["affine_hull_dim"]


def test_orbit_record_poincare_timelike(entries):
    poin = entries["poincare"]
    rec = orbit_record(poin.algebra, Covector(poin.algebra, poin.covectors["timelike"]))
    assert rec["orbit"]["orbit_dim"] == 6
    assert rec["orbit"]["stabilizer_basis"].dim == 4 == rec["orbit"]["stabilizer_dim"]


@st.composite
def catalog_points(draw):
    """A catalog algebra and a rational covector on it, about half its coordinates 0."""
    alg = draw(st.sampled_from([e.algebra for e in builtin_catalog().values()]))
    coord = st.one_of(st.just(0), st.fractions(-9, 9, max_denominator=4))
    return alg, Covector(alg, [draw(coord) for _ in range(alg.dim)])


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(catalog_points())
def test_orbit_dim_is_the_even_rank_of_the_pairing_property(case):
    alg, cov = case
    rec = orbit_record(alg, cov)["orbit"]
    stab = rec["stabilizer_basis"]
    assert rec["orbit_dim"] % 2 == 0
    assert rec["orbit_dim"] == rank_kernel(kks_pairing(alg, cov), alg.dim)[0] == alg.dim - stab.dim


def test_orbit_dim_matches_the_subalgebra_route(entries, rng):
    """Whole algebra, declared ideals and the g_c of each, at declared and seeded covectors."""
    for entry in entries.values():
        alg = entry.algebra
        covs = [Covector(alg, c) for c in entry.covectors.values()]
        covs += [rand_covector(alg, rng) for _ in range(3)]
        for cov in covs:
            full = Subspace.full(alg.dim)
            assert orbit_dim(alg, cov, full) == rank_kernel(kks_pairing(alg, cov), alg.dim)[0]
            for ideal in entry.ideals.values():
                for sub in (ideal, orth(alg, ideal, cov)):
                    assert orbit_dim(alg, cov, sub) == subalgebra_orbit_dim(alg, cov, sub), (
                        entry.name, cov.coords, sub)


def test_orbit_dim_refuses_bad_input(entries):
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(ValueError, match="ambient dimension"):
        orbit_dim(h3, Covector(h3, (0, 0, 1)), Subspace.full(2))
    broken = LieAlgebra(2, ("a", "b"), (((), ((0, F(1)),)), ((), ())))  # not antisymmetric
    with pytest.raises(ValueError, match="fails validation"):
        orbit_dim(broken, Covector(broken, (1, 0)), Subspace.full(2))
    assert orbit_dim(h3, Covector(h3, (0, 0, 1)), Subspace.zero(3)) == 0


def test_restrict_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    sub = Subspace(3, [basis_vector(3, 1), basis_vector(3, 2)])
    c = restrict(h3, cov, sub)
    assert c.coords == (F(0), F(1)) and c.algebra.dim == 2
    full = restrict(h3, cov, Subspace.full(3))
    assert full.coords == cov.coords and full.algebra.nonzeros == h3.nonzeros
    center_restricted = restrict(h3, Covector(h3, (1, 0, 0)), Subspace(3, [basis_vector(3, 2)]))
    assert not any(center_restricted.coords)


def test_restrict_rejects_non_subalgebra(entries):
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(NotClosedError):
        restrict(h3, Covector(h3, (0, 0, 1)), Subspace(3, [(1, 0, 0), (0, 1, 0)]))


def test_structure_facts_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    assert is_nilpotent(h3) and is_solvable(h3)
    assert centralizer(h3, Subspace.full(3)) == Subspace(3, [(0, 0, 1)])
    assert [s.dim for s in derived_series(h3)] == [3, 1, 0]


def test_structure_facts_sl2(entries):
    sl2 = entries["sl2"].algebra
    assert not is_solvable(sl2)
    assert symmetric_signature(killing_form(sl2)) == (2, 1, 3)
    # Killing form is 4x the trace form on sl2
    assert killing_form(sl2) == ((8, 0, 0), (0, 0, 4), (0, 4, 0))


def test_structure_facts_abelian(entries):
    assert is_nilpotent(entries["abelian3"].algebra)
    assert centralizer(entries["abelian3"].algebra, Subspace.full(3)) == Subspace.full(3)


def test_subalgebra_and_quotient(entries):
    h3 = entries["heisenberg3"].algebra
    sub = Subspace(3, [basis_vector(3, 1), basis_vector(3, 2)])
    plane = subquotient(h3, sub, Subspace.zero(3)).algebra
    assert validate(plane)["ok"]
    assert centralizer(plane, Subspace.full(2)).dim == 2  # abelian plane
    q = subquotient(h3, Subspace.full(3), Subspace(3, [basis_vector(3, 2)]))
    assert q.algebra.dim == 2
    assert centralizer(q.algebra, Subspace.full(2)).dim == 2  # h3 / center is abelian


def test_ideal_tools(entries):
    h3 = entries["heisenberg3"].algebra
    check_ideal(h3, Subspace(3, [basis_vector(3, 2)]))
    with pytest.raises(NotClosedError, match="^the given subspace is not an ideal$"):
        check_ideal(h3, Subspace(3, [basis_vector(3, 0)]))
    closed = loop_ideal_closure(h3, Subspace(3, [basis_vector(3, 0)]))
    assert closed == Subspace(3, [(1, 0, 0), (0, 0, 1)])
    check_ideal(h3, closed)
    assert centralizer(h3, Subspace(3, [basis_vector(3, 0)])) == Subspace(3, [(1, 0, 0), (0, 0, 1)])


def test_ascending_central_series(entries):
    n4 = entries["filiform4"].algebra
    series = ascending_central_series(n4)
    assert [s.dim for s in series] == [0, 1, 2, 4]


# -- fuzzed invariants --------------------------------------------------------


def test_even_rank_and_dim_split(entries, rng):
    for entry in entries.values():
        alg = entry.algebra
        for _ in range(30):
            cov = rand_covector(alg, rng)
            rank, ker = rank_kernel(kks_pairing(alg, cov), alg.dim)
            assert rank % 2 == 0
            assert rank + ker.dim == alg.dim


def test_stabilizer_is_subalgebra(entries, rng):
    for entry in entries.values():
        alg = entry.algebra
        for _ in range(8):
            cov = rand_covector(alg, rng)
            stab = stabilizer(alg, cov)
            subquotient(alg, stab, Subspace.zero(alg.dim))  # raises when not closed


def test_ad_is_morphism(entries, rng):
    for entry in entries.values():
        alg = entry.algebra
        for _ in range(8):
            z, w = rand_vec(rng, alg.dim), rand_vec(rng, alg.dim)
            lhs = ad_matrix(alg, alg.bracket(z, w))
            az, aw = ad_matrix(alg, z), ad_matrix(alg, w)
            assert lhs == tuple(map(vec_sub, matmul(az, aw), matmul(aw, az)))


def test_flows_stay_in_affine_hull(entries, rng):
    for name in ("heisenberg3", "filiform4", "abelian3"):
        alg = entries[name].algebra
        for _ in range(10):
            cov = rand_covector(alg, rng)
            hull = krylov_hull(alg, cov)
            z = rand_vec(rng, alg.dim, lo=-3, hi=3, max_den=2)
            moved = exp_coadjoint(alg, z, cov)
            diff = tuple(a - b for a, b in zip(moved.coords, cov.coords))
            assert hull.contains(diff)


# -- dense reference kernels --------------------------------------------------
# The dense algorithms the sparse kernels replaced, read off the dense tensor alone.


def dense_ad(alg, z):
    """ad(z)[k][j] = sum_i z_i c[i][j][k]."""
    n, c = alg.dim, dense_structure(alg)
    return tuple(tuple(sum((z[i] * c[i][j][k] for i in range(n)), F(0))
                       for j in range(n)) for k in range(n))


def dense_killing_form(alg):
    n = alg.dim
    ads = [dense_ad(alg, basis_vector(n, i)) for i in range(n)]
    return tuple(tuple(sum(row[k] for k, row in enumerate(matmul(ads[i], ads[j])))
                       for j in range(n)) for i in range(n))


def dense_kks_pairing(alg, cov):
    n, c = alg.dim, dense_structure(alg)
    return tuple(tuple(cov.pair(c[i][j]) for j in range(n)) for i in range(n))


def dense_krylov_hull(alg, cov):
    """Fixed point of u -> u + sum_i -ad(e_i)^T u, from the image of the pairing."""
    n = alg.dim
    b = dense_kks_pairing(alg, cov)
    u = Subspace(n, [dense_apply(b, basis_vector(n, i)) for i in range(n)])
    gens = [[[-x for x in col] for col in zip(*dense_ad(alg, basis_vector(n, i)))]
            for i in range(n)]
    while True:
        nxt = u
        for g in gens:
            nxt = nxt.add(Subspace(n, [dense_apply(g, row) for row in u.rows]))
        if nxt == u:
            return u
        u = nxt


def dense_centralizer(alg, sub, modulo=None):
    """{Z : [Z, sub] in modulo}: each [e_i, w] reduced modulo it, read where it has no pivot."""
    n, c = alg.dim, dense_structure(alg)
    m = modulo if modulo is not None else Subspace.zero(n)
    if sub.dim == 0 or m.dim == n:
        return Subspace.full(n)
    free = [f for f in range(n) if f not in m.pivots]
    rows = []
    for w in sub.rows:
        images = [m.reduce([vec_dot([c[i][j][k] for j in range(n)], w) for k in range(n)])
                  for i in range(n)]
        rows += [[image[f] for image in images] for f in free]
    return rank_kernel(rows, n)[1]


def family_orbit_entries(seed=0):
    """The definition files of the `family_orbit` workload at the seed, as entries:
    h9, n5, L9, b4 and Poincare d=4, 5, the sizes `polarize` meets there."""
    return [parse_entry(f.doc) for f in workloads.build("family_orbit", seed).families.values()]


def test_sparse_kernels_match_dense_references(entries, rng):
    seeded = family_orbit_entries()
    assert sorted(e.algebra.dim for e in seeded) == [9, 9, 9, 10, 10, 15]
    for entry in [*entries.values(), *seeded]:
        alg = entry.algebra
        n = alg.dim
        assert killing_form(alg) == dense_killing_form(alg)
        assert centralizer(alg, Subspace.full(n)) == dense_centralizer(alg, Subspace.full(n))
        covs = [Covector(alg, c) for c in entry.covectors.values()]
        covs += [Covector(alg, (0,) * n)] + [rand_covector(alg, rng) for _ in range(4)]
        for cov in covs:
            assert kks_pairing(alg, cov) == dense_kks_pairing(alg, cov)
            assert krylov_hull(alg, cov) == dense_krylov_hull(alg, cov)
        for _ in range(3):
            z = rand_vec(rng, n)
            assert ad_matrix(alg, z) == dense_ad(alg, z)
            sub, modulo = (Subspace(n, [rand_vec(rng, n, lo=-2, hi=2, max_den=1)
                                        for _ in range(rng.randint(1, 2))]) for _ in range(2))
            assert centralizer(alg, sub) == dense_centralizer(alg, sub)
            assert centralizer(alg, sub, modulo) == dense_centralizer(alg, sub, modulo)
        full = Subspace.full(n)
        for modulo in (centralizer(alg, full), bracket_span(alg, full, full)):
            assert centralizer(alg, full, modulo) == dense_centralizer(alg, full, modulo)
        half = Subspace(n, [rand_vec(rng, n, lo=-2, hi=2, max_den=1) for _ in range(n // 2)])
        for modulo in derived_series(alg):
            assert centralizer(alg, half, modulo) == dense_centralizer(alg, half, modulo)


def test_centralizer_contracts_one_pairing_per_row_of_the_annihilator(entries, monkeypatch,
                                                                       rng):
    """One `pairing` per row of ann(modulo), no `ad_matrix`, and no read of the
    bracket table by `centralizer` itself: the algebra it is handed hides its table."""
    real, calls, reads = liealg.pairing, [], []

    class Watched:
        def __init__(self, alg):
            self.alg = alg

        def __getattr__(self, name):
            reads.append(name)
            return getattr(self.alg, name)

    def counted(watched, xi):
        calls.append(tuple(xi))
        return real(watched.alg, xi)

    def refuse(*args):
        raise AssertionError("dense ad(Z)")

    monkeypatch.setattr(polarization, "pairing", counted)
    monkeypatch.setattr(liealg, "ad_matrix", refuse)
    checked = 0
    for entry in [*entries.values(), *family_orbit_entries()]:
        alg = entry.algebra
        n, full = alg.dim, Subspace.full(alg.dim)
        drawn = Subspace(n, [rand_vec(rng, n, lo=-2, hi=2, max_den=1) for _ in range(2)])
        for sub, modulo in ((full, None), (full, bracket_span(alg, full, full)), (drawn, None)):
            calls.clear()
            got = centralizer(Watched(alg), sub, modulo)
            ann = annihilator(modulo if modulo is not None else Subspace.zero(n))
            assert calls == list(ann.rows), entry.name
            assert got == dense_centralizer(alg, sub, modulo), entry.name
            checked += 1
    assert checked == 45 and reads and "nonzeros" not in reads


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.sampled_from(sorted(builtin_catalog())), st.randoms(use_true_random=False))
def test_coadjoint_rows_are_the_rows_xi_ad_w_property(name, rnd):
    """`coadjoint_rows(pairing(alg, xi), sub)` against the oracle xi . ad(w) =
    `combine(xi, ad_matrix(alg, w))` over the rows w of sub: the same nonzero
    rows in the same order, so the same span, for sub = g, 0 and a drawn one."""
    alg = builtin_catalog()[name].algebra
    n = alg.dim
    xi = rand_vec(rnd, n)
    drawn = Subspace(n, [rand_vec(rnd, n, lo=-2, hi=2, max_den=1)
                         for _ in range(rnd.randint(1, n))])
    p = pairing(alg, xi)
    for sub in (Subspace.full(n), Subspace.zero(n), drawn):
        oracle = [r for r in (combine(xi, ad_matrix(alg, w), n) for w in sub.rows) if any(r)]
        assert list(coadjoint_rows(p, sub)) == oracle
    assert list(coadjoint_rows(p)) == list(coadjoint_rows(p, Subspace.full(n)))


# -- generated families past the catalog --------------------------------------
# Closed forms (Kirillov, Lectures on the Orbit Method, 2004): at a generic
# covector orbit_dim = dim - ind, with ind h_{2k+1} = 1 and ind n_n = floor(n/2).


def heisenberg(k):
    """h_{2k+1}: [x_i, y_i] = z."""
    labels = [f"x{i}" for i in range(k)] + [f"y{i}" for i in range(k)] + ["z"]
    return LieAlgebra.from_brackets(labels, {(i, k + i): {2 * k: 1} for i in range(k)},
                                    name=f"h{2 * k + 1}")


@pytest.fixture(scope="module")
def h21():
    return heisenberg(10)


@pytest.fixture(scope="module")
def n7():
    alg, index = strictly_upper(7)
    cascade = [0] * alg.dim
    for a, b in ((0, 6), (1, 5), (2, 4)):  # dual to E17 + E26 + E35
        cascade[index[(a, b)]] = 1
    return alg, Covector(alg, cascade)


def test_orbit_dims_of_dim_21_families(h21, n7):
    cov = Covector(h21, basis_vector(21, 20))
    assert orbit_record(h21, cov)["orbit"]["orbit_dim"] == 21 - 1
    alg, cascade = n7
    assert alg.dim == 21
    assert orbit_record(alg, cascade)["orbit"]["orbit_dim"] == 21 - 7 // 2
    for alg in (h21, alg):
        assert is_nilpotent(alg)
        assert not any(map(any, killing_form(alg)))


# The benchmark's generated families at dim 28-60, read from their definition
# files; at a covector whose sympy rank is the generic one, orbitkit's orbit
# dimension must be the closed form dim - ind too.
LADDER = [(families.heisenberg, 14), (families.heisenberg, 18), (families.nilradical, 8),
          (families.nilradical, 10), (families.filiform, 30), (families.filiform, 45),
          (families.filiform, 60)]


@pytest.mark.parametrize("make,size", LADDER, ids=[f"{m.__name__}{s}" for m, s in LADDER])
def test_orbit_dim_at_a_generic_covector_is_dim_minus_index(make, size):
    family = make(size, families.family_rng(0, f"ladder{size}"))
    assert 28 <= family.dim <= 60
    alg = parse_algebra(family.doc)
    point = workloads._generic_point(random.Random(size), family)
    record = orbit_record(alg, Covector(alg, point))["orbit"]
    assert record["orbit_dim"] == family.dim - family.index
    assert record["stabilizer_basis"].dim == family.index


# Closed-form indices past the ladder, at dim 2-35; a seeded covector has the
# generic orbit dimension dim - ind.
#   * sl_n: ind = rank = n - 1, a regular semisimple stabilizer being a Cartan subalgebra.
#   * b_n, the Borel subalgebra of sl_n: ind b = rk g - |K|, K Kostant's cascade of
#     strongly orthogonal roots (A. Joseph, J. Algebra 48, 1977).  In type A_(n-1) the
#     cascade is e_1 - e_n, e_2 - e_(n-1), ..., floor(n/2) roots, so
#     ind b_n = n - 1 - floor(n/2) = floor((n-1)/2).
#   * Poincare so(1, d-1) |x R^d: ind = floor((d+1)/2) (M. Rais, C. R. Acad. Sci. Paris
#     Ser. A 287, 1978).
CLOSED_FORM = ([(families.sl, n, n - 1) for n in range(2, 7)]
               + [(families.borel, n, (n - 1) // 2) for n in range(2, 9)]
               + [(families.poincare, d, (d + 1) // 2) for d in range(3, 7)])


@pytest.mark.parametrize("make,size,index", CLOSED_FORM,
                         ids=[f"{m.__name__}{s}" for m, s, _ in CLOSED_FORM])
def test_orbit_dim_at_a_seeded_covector_is_dim_minus_the_closed_form_index(make, size, index):
    alg = parse_algebra(make(size, families.family_rng(0, f"closed{size}")).doc)
    cov = Covector(alg, rand_vec(random.Random(size), alg.dim, lo=-5, hi=5, max_den=3))
    assert orbit_dim(alg, cov, Subspace.full(alg.dim)) == alg.dim - index


def test_kernels_multiply_no_matrices(entries, n7, monkeypatch):
    """The sparse kernels never fall back to dense matrix products: the package's
    one product, `polynomials.eval_matrix`, is refused at every binding."""
    def refuse(*args):
        raise AssertionError("dense matrix product")

    bindings = [mod for name, mod in sys.modules.items()
                if name.startswith("orbitkit.") and hasattr(mod, "eval_matrix")]
    assert bindings
    for mod in bindings:
        monkeypatch.setattr(mod, "eval_matrix", refuse)
    poincare = entries["poincare"]
    timelike = Covector(poincare.algebra, poincare.covectors["timelike"])
    for alg, cov in ((poincare.algebra, timelike), n7):
        for fact in (is_nilpotent, derived_series, ascending_central_series):
            fact.__wrapped__(alg)  # past the cache
        killing_form(alg)
        kks_pairing(alg, cov)
        krylov_hull(alg, cov)


def test_orbit_record_builds_no_killing_form_and_no_derived_series(entries, monkeypatch):
    def refuse(*args):
        raise AssertionError("structure fact that orbit_record does not read")

    monkeypatch.setattr(mackey, "killing_form", refuse)
    monkeypatch.setattr(liealg, "derived_series", refuse)
    monkeypatch.setattr(liealg, "is_nilpotent", is_nilpotent.__wrapped__)  # past the cache
    for entry in entries.values():
        for coords in entry.covectors.values():
            orbit_record(entry.algebra, Covector(entry.algebra, coords))


def test_is_nilpotent_on_L45_makes_few_brackets(monkeypatch):
    family = families.filiform(45, families.family_rng(0, "ladder45"))
    alg = parse_algebra(family.doc)
    bracket, calls = LieAlgebra.bracket_exact, []

    def counted(self, u, v):
        calls.append(None)
        return bracket(self, u, v)

    monkeypatch.setattr(LieAlgebra, "bracket_exact", counted)
    assert is_nilpotent.__wrapped__(alg)
    # the lower central series by `bracket_span` makes 48,469 here
    assert len(calls) <= 10_000


def test_an_orbit_run_coerces_no_vector_it_made_itself(monkeypatch, rng):
    """The package's own brackets take `bracket_exact`, so a seeded `orbit_record`
    (its nilpotency check included) calls `vec` on nothing: every vector is
    already Fractions.  Through the coercing `bracket`, twice per bracket,
    these three runs on L9 call it 882 times."""
    family = families.filiform(9, families.family_rng(0, "vec_count"))
    alg = parse_algebra(family.doc)
    covs = [Covector(alg, rand_vec(rng, alg.dim)) for _ in range(3)]
    calls = []

    def counted(entries):
        calls.append(None)
        return vec(entries)

    monkeypatch.setattr(liealg, "vec", counted)
    monkeypatch.setattr(liealg, "is_nilpotent", is_nilpotent.__wrapped__)  # past the cache
    for cov in covs:
        assert orbit_record(alg, cov)["orbit"]["orbit_dim"] > 0
    assert calls == []
    assert alg.bracket((1,) + (0,) * 8, (0, 1) + (0,) * 7) == alg.bracket_exact(
        basis_vector(9, 0), basis_vector(9, 1))
    assert len(calls) == 2  # outside input is still coerced
    with pytest.raises(TypeError, match="floating point"):
        alg.bracket((0.5,) + (0,) * 8, basis_vector(9, 1))


# -- structure facts against the series they replaced ---------------------------


def bracket_span_lower_central_series(alg):
    """Reference: C^0 = g and C^{k+1} = [g, C^k] by `bracket_span`, until 0 or a repeat."""
    full = Subspace.full(alg.dim)
    lower = [full]
    while lower[-1].dim > 0:
        nxt = bracket_span(alg, full, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
    return tuple(lower)


def quotient_ascending_central_series(alg):
    """Reference: Z_{k+1} is Z_k plus the lifted center of the quotient algebra g / Z_k."""
    n = alg.dim
    series = [Subspace.zero(n)]
    while series[-1].dim < n:
        q = subquotient(alg, Subspace.full(n), series[-1])
        center = centralizer(q.algebra, Subspace.full(q.algebra.dim))
        lifted = series[-1].add(Subspace(n, [combine(r, q.lifts, n) for r in center.rows]))
        if lifted == series[-1]:
            break
        series.append(lifted)
    return tuple(series)


def assert_structure_facts_match_the_references(alg):
    nilpotent = is_nilpotent.__wrapped__(alg)
    assert nilpotent == (bracket_span_lower_central_series(alg)[-1].dim == 0)
    upper = ascending_central_series.__wrapped__(alg)
    assert upper == quotient_ascending_central_series(alg)
    assert nilpotent == (upper[-1].dim == alg.dim)
    assert is_solvable(alg) == (derived_series(alg)[-1].dim == 0)
    return nilpotent


def test_structure_facts_of_the_catalog_match_the_references(entries):
    for entry in entries.values():
        assert_structure_facts_match_the_references(entry.algebra)


SEEDED = [(families.heisenberg, 4, True), (families.nilradical, 5, True),
          (families.filiform, 9, True), (families.borel, 4, False), (families.borel, 5, False),
          (families.poincare, 4, False), (families.poincare, 5, False), (families.sl, 3, False),
          (families.sl, 4, False)]


@pytest.mark.parametrize("seed", [0, 1])
def test_structure_facts_of_seeded_families_match_the_references(seed):
    for make, size, nilpotent in SEEDED:
        family = make(size, families.family_rng(seed, f"facts{size}"))
        assert assert_structure_facts_match_the_references(parse_algebra(family.doc)) is nilpotent


def test_perfect_algebras_are_not_nilpotent(entries):
    # [g, g] = g leaves no complement V to generate g from
    for name in ("sl2", "sl3", "so31", "poincare"):
        alg = entries[name].algebra
        full = Subspace.full(alg.dim)
        assert bracket_span(alg, full, full) == full
        assert not is_nilpotent(alg), name


def test_a_generating_complement_whose_series_stalls_is_not_nilpotent():
    # aff(1) + R: V = {x1, x2} generates g, yet C^k = span(y) for every k >= 1
    alg = LieAlgebra.from_brackets(["x1", "x2", "y"], {(0, 1): {2: 1}, (0, 2): {2: 1}})
    assert validate(alg)["ok"]
    assert [s.dim for s in bracket_span_lower_central_series(alg)] == [3, 1]
    assert not is_nilpotent(alg) and is_solvable(alg)


# -- subalgebras and quotients read coordinates at the pivots ------------------


def stacked_quotient(alg, ideal):
    """Reference quotient: representatives and brackets by a stacked solve.

    Returns the representative rows and the structure tensor of alg / ideal.
    """
    n = alg.dim
    pivots = {next(j for j, x in enumerate(row) if x != 0) for row in ideal.rows}
    reps = [basis_vector(n, j) for j in range(n) if j not in pivots]
    stacked = tuple(zip(*ideal.rows, *reps))

    def project(v):
        return solve(stacked, v, n)[ideal.dim:]

    m = len(reps)
    tensor = tuple(tuple(project(alg.bracket(reps[a], reps[b])) for b in range(m))
                   for a in range(m))
    return reps, tensor


def _catalog_ideals(entry):
    yield from entry.ideals.values()
    yield centralizer(entry.algebra, Subspace.full(entry.algebra.dim))
    yield from derived_series(entry.algebra)
    yield from bracket_span_lower_central_series(entry.algebra)


def test_quotient_matches_the_stacked_solve_reference(entries):
    for entry in entries.values():
        alg = entry.algebra
        for ideal in _catalog_ideals(entry):
            q = subquotient(alg, Subspace.full(alg.dim), ideal)
            reps, tensor = stacked_quotient(alg, ideal)
            assert dense_structure(q.algebra) == tensor
            assert list(q.lifts) == reps


def test_subalgebra_matches_the_solved_reference(entries, rng):
    for entry in entries.values():
        alg = entry.algebra
        subs = list(_catalog_ideals(entry))
        subs += [stabilizer(alg, rand_covector(alg, rng)) for _ in range(3)]
        for sub in subs:
            sq = subquotient(alg, sub, Subspace.zero(alg.dim))
            rows = sub.rows
            m = sub.dim
            basis_t = tuple(zip(*rows))
            assert dense_structure(sq.algebra) == tuple(
                tuple(solve(basis_t, alg.bracket(rows[a], rows[b]), m) for b in range(m))
                for a in range(m))
            assert sq.lifts == rows


def two_stage_subquotient(alg, h, n):
    """The route `subquotient` replaced: h's structure constants by a solve in
    h's RREF basis, then the stacked-solve quotient by n's coordinates there.

    Returns the lifts in ambient coordinates and the structure tensor of h / n.
    """
    rows, d = h.rows, h.dim
    basis_t = tuple(zip(*rows))

    def coords(v):
        return solve(basis_t, v, d)

    inner = LieAlgebra.from_brackets(
        [f"s{a}" for a in range(d)],
        {(a, b): dict(enumerate(coords(alg.bracket(rows[a], rows[b]))))
         for a in range(d) for b in range(a + 1, d)})
    reps, tensor = stacked_quotient(inner, Subspace(d, [coords(r) for r in n.rows]))
    return [combine(r, rows, alg.dim) for r in reps], tensor


def test_subquotient_matches_the_two_stage_reference(entries, rng):
    """h_c / n_c, h / n and h_c itself for the little-group data of every catalog
    ideal at declared and seeded covectors."""
    cases = 0
    for entry in entries.values():
        alg = entry.algebra
        covs = [Covector(alg, c) for c in entry.covectors.values()]
        covs += [rand_covector(alg, rng) for _ in range(2)]
        for ideal in _catalog_ideals(entry):
            for cov in covs:
                data = little_group_step(alg, ideal, cov)
                for h, n in ((data.g_c, data.n_c), (data.h, ideal),
                             (data.g_c, Subspace.zero(alg.dim))):
                    sq = subquotient(alg, h, n)
                    lifts, tensor = two_stage_subquotient(alg, h, n)
                    assert dense_structure(sq.algebra) == tensor
                    assert list(sq.lifts) == lifts
                    cases += 1
    assert cases > 300


def test_subquotient_pulls_the_ideal_inside(entries):
    poincare = entries["poincare"]
    alg, n = poincare.algebra, poincare.ideals["translations"]
    g_c = orth(alg, n, Covector(alg, poincare.covectors["timelike"]))
    quot = subquotient(alg, g_c, n)
    assert quot.algebra.dim == g_c.dim - n.dim == 3
    # the lifts are the rows of g_c at the pivots that n lacks, in the order of g_c
    assert quot.lifts == tuple(r for r, p in zip(g_c.rows, g_c.pivots) if p not in n.pivots)
    assert symmetric_signature(killing_form(quot.algebra)) == (0, 3, 3)  # so(3)
    with pytest.raises(ValueError, match="does not lie inside"):
        subquotient(alg, n, g_c)  # g_c does not lie inside n
    with pytest.raises(NotClosedError, match="not an ideal"):
        subquotient(alg, Subspace.full(10), poincare.complements["lorentz"])


def test_coordinate_changes_solve_no_linear_system(entries, monkeypatch):
    """subquotient and restrict read coordinates at pivots."""
    poincare = entries["poincare"]
    alg, n = poincare.algebra, poincare.ideals["translations"]
    cov = Covector(alg, poincare.covectors["timelike"])
    g_c = orth(alg, n, cov)

    def refuse(*args):
        raise AssertionError("linear solve")

    for mod in (linalg, liealg, structure):
        if hasattr(mod, "solve"):
            monkeypatch.setattr(mod, "solve", refuse)
    subquotient(alg, poincare.complements["lorentz"], Subspace.zero(10))
    subquotient(alg, Subspace.full(10), n)
    restrict(alg, cov, g_c)
    subquotient(alg, g_c, n)


# -- one coadjoint-action path: h(cov), its orthogonal and the ideal closure ----


def dense_image_rows(alg, cov, sub):
    """Reference rows W(cov) = B W, one entrywise dot per row of the dense pairing."""
    b = dense_kks_pairing(alg, cov)
    return [dense_apply(b, w) for w in sub.rows]


def passes_check_ideal(alg, sub):
    """The verdict of `check_ideal`: True when it passes, False when it raises."""
    try:
        check_ideal(alg, sub)
    except NotClosedError:
        return False
    return True


def loop_is_ideal(alg, sub):
    n = alg.dim
    return all(sub.contains(alg.bracket(basis_vector(n, i), row))
               for i in range(n) for row in sub.rows)


def seeded_subspaces(alg, rng):
    """The zero and full subspaces, then spans of 1, 1, 2, 2 and dim - 1 small vectors."""
    n = alg.dim
    yield Subspace.zero(n)
    yield Subspace.full(n)
    for k in (1, 1, 2, 2, n - 1):
        yield Subspace(n, [rand_vec(rng, n, lo=-2, hi=2, max_den=1) for _ in range(k)])


def test_coadjoint_image_and_orth_match_the_dense_rows(entries, rng):
    assert len(entries) == 9
    for entry in entries.values():
        alg = entry.algebra
        n = alg.dim
        covs = [Covector(alg, c) for c in entry.covectors.values()]
        covs += [rand_covector(alg, rng) for _ in range(3)]
        for cov in covs:
            for sub in seeded_subspaces(alg, rng):
                rows = dense_image_rows(alg, cov, sub)
                assert coadjoint_image(alg, cov, sub) == Subspace(n, rows)
                assert orth(alg, sub, cov) == rank_kernel(rows, n)[1]


def test_a_subspace_of_another_dimension_is_refused(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    for sub in (Subspace.full(2), Subspace.full(4)):
        with pytest.raises(ValueError, match="ambient dimension"):
            coadjoint_image(h3, cov, sub)
        with pytest.raises(ValueError, match="ambient dimension"):
            orth(h3, sub, cov)


def test_check_ideal_and_ideal_closure_match_the_loops(entries, rng):
    verdicts = []
    for entry in entries.values():
        alg = entry.algebra
        for sub in seeded_subspaces(alg, rng):
            verdicts.append(passes_check_ideal(alg, sub))
            assert verdicts[-1] == loop_is_ideal(alg, sub)
            check_ideal(alg, loop_ideal_closure(alg, sub))
        for ideal in _catalog_ideals(entry):
            check_ideal(alg, ideal)
    assert verdicts.count(False) > verdicts.count(True)


# -- the bracket table against the dense references ----------------------------
# The table is the only form of an algebra; the dense construction and the
# dense checks it replaced are the references.

TABLE_PROPERTIES = settings(derandomize=True, max_examples=150, deadline=None, database=None)
sparse_rationals = st.one_of(st.just(0), st.just(0), st.fractions(-5, 5, max_denominator=3))


@st.composite
def bracket_dicts(draw):
    """n in 1..5 and a {(i, j): {k: coeff}} dict over some i < j, zero coefficients included."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, {p: draw(st.dictionaries(st.integers(0, n - 1), sparse_rationals, max_size=n))
               for p in chosen}


@st.composite
def seeded_tensors(draw):
    """A dense tensor: an antisymmetric one from brackets, then a few entries overwritten."""
    n, brackets = draw(bracket_dicts())
    c = [[list(row) for row in plane] for plane in dense_from_brackets(n, brackets)]
    index = st.integers(0, n - 1)
    for i, j, k, x in draw(st.lists(st.tuples(index, index, index, sparse_rationals),
                                    max_size=3)):
        c[i][j][k] = F(x)
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def dense_rep_failures(alg):
    """The old matrix_rep check: c[i][j] read as a dense row of coefficients."""
    c, reps = dense_structure(alg), alg.matrix_rep
    flats = [liealg.flat(r) for r in reps]
    return tuple(
        (i, j) for i in range(alg.dim) for j in range(i + 1, alg.dim)
        if liealg.flat(matmul(reps[i], reps[j]))
        != tuple(map(add, liealg.flat(matmul(reps[j], reps[i])),
                     combine(c[i][j], flats, len(flats[0])))))


def assert_canonical(alg):
    """Every entry of the table lists k increasing with c != 0."""
    for plane in alg.nonzeros:
        for entries in plane:
            assert [k for k, _ in entries] == sorted({k for k, _ in entries})
            assert all(c != 0 and isinstance(c, F) for _, c in entries)


@TABLE_PROPERTIES
@given(bracket_dicts())
def test_from_brackets_matches_the_dense_construction_property(case):
    n, brackets = case
    alg = LieAlgebra.from_brackets([f"e{k}" for k in range(n)], brackets)
    assert_canonical(alg)
    assert dense_structure(alg) == dense_from_brackets(n, brackets)
    assert alg.nonzeros == table_of(dense_from_brackets(n, brackets))
    assert validate(alg)["antisymmetry_failures"] == ()


@TABLE_PROPERTIES
@given(seeded_tensors())
def test_a_raw_table_keeps_its_tensor_and_its_failures_property(tensor):
    """A table built with the raw constructor is taken as given, and `validate`
    names each (i, j, k) where it is not antisymmetric, as the dense check does."""
    n = len(tensor)
    alg = LieAlgebra(n, tuple(f"e{k}" for k in range(n)), table_of(tensor))
    assert_canonical(alg)
    assert dense_structure(alg) == tensor
    assert validate(alg)["antisymmetry_failures"] == dense_antisymmetry_failures(tensor)


@TABLE_PROPERTIES
@given(st.sampled_from(sorted(builtin_catalog())), st.randoms(use_true_random=False))
def test_catalog_tables_and_rep_checks_match_the_dense_references_property(name, rnd):
    alg = builtin_catalog()[name].algebra
    assert_canonical(alg)
    assert alg.nonzeros == table_of(dense_structure(alg))
    assert validate(alg)["antisymmetry_failures"] == dense_antisymmetry_failures(
        dense_structure(alg)) == ()
    if alg.matrix_rep is None:
        return
    # one constant moved: the table check and the dense one name the same pairs
    brackets = {(i, j): dict(alg.nonzeros[i][j])
                for i in range(alg.dim) for j in range(i + 1, alg.dim)}
    pair, k = rnd.choice(sorted(brackets)), rnd.randrange(alg.dim)
    brackets[pair][k] = brackets[pair].get(k, 0) + rnd.choice([-1, 1, F(1, 2)])
    broken = LieAlgebra.from_brackets(alg.labels, brackets, matrix_rep=alg.matrix_rep)
    assert validate(broken)["rep_failures"] == dense_rep_failures(broken) == (pair,)
    assert dense_rep_failures(alg) == validate(alg)["rep_failures"] == ()


def with_one_entry_moved(doc, rng):
    """A copy of a definition document with one entry of one matrix_rep matrix moved."""
    reps = [[list(row) for row in m] for m in doc["matrix_rep"]]
    m = rng.randrange(len(reps))
    r, c = rng.randrange(len(reps[m])), rng.randrange(len(reps[m]))
    reps[m][r][c] = str(F(reps[m][r][c]) + rng.choice([-1, 1, F(1, 2)]))
    return dict(doc, matrix_rep=reps)


@pytest.mark.parametrize("seed", range(4))
def test_the_sparse_rep_check_matches_the_dense_products(seed):
    """`validate` checks a matrix_rep over each matrix's nonzero entries; the pairs
    it names are those of the dense products, on every catalog entry with a
    matrix_rep, on sl3-sl5 of the benchmark's families and on each of them with
    one matrix entry moved."""
    rng = random.Random(seed)
    docs = [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(Path(BUILTIN_DIR).glob("*.json"))]
    docs = [doc for doc in docs if "matrix_rep" in doc]
    docs += [families.sl(n, families.family_rng(seed, f"sl{n}")).doc for n in (3, 4, 5)]
    assert len(docs) >= 6
    broken = 0
    for doc in docs:
        alg = parse_algebra(doc)
        assert validate(alg)["rep_failures"] == dense_rep_failures(alg) == ()
        bent = parse_algebra(with_one_entry_moved(doc, rng))
        failures = validate(bent)["rep_failures"]
        assert failures == dense_rep_failures(bent), doc["name"]
        broken += bool(failures)
    assert broken >= len(docs) - 2


def dense_jacobi_failures(alg):
    """Every Jacobi sum over i < j < k, read off the dense tensor."""
    n, c = alg.dim, dense_structure(alg)
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = [(c[b][d][m], c[a][m]) for a, b, d in ((i, j, k), (j, k, i), (k, i, j))
                         for m in range(n) if c[b][d][m]]
                s = tuple(sum((x * row[l] for x, row in terms), F(0)) for l in range(n))
                if any(s):
                    failures.append({"triple": (i, j, k), "defect": s})
    return tuple(failures)


@pytest.mark.parametrize("seed", range(2))
def test_a_faithful_rep_stands_in_for_the_jacobi_sums(seed):
    """`validate` forms no Jacobi sum for an antisymmetric table that a faithful
    rep carries; its failures match every sum of the dense tensor on each
    algebra that has a matrix_rep, on each with one constant moved, on a table
    that breaks Jacobi under a rep that carries it but is not faithful (zero
    matrices), and on sl2's rep under a tensor that breaks antisymmetry."""
    rng = random.Random(seed)
    algebras = [entry.algebra for _, entry in sorted(builtin_catalog().items())
                if entry.algebra.matrix_rep is not None]
    algebras += [parse_algebra(families.sl(n, families.family_rng(seed, f"sl{n}")).doc)
                 for n in (3, 4)]
    cases = []
    for alg in algebras:
        brackets = {(i, j): dict(alg.nonzeros[i][j])
                    for i in range(alg.dim) for j in range(i + 1, alg.dim)}
        pair, k = rng.choice(sorted(brackets)), rng.randrange(alg.dim)
        brackets[pair][k] = brackets[pair].get(k, 0) + rng.choice([-1, 1, F(1, 2)])
        cases += [alg, LieAlgebra.from_brackets(alg.labels, brackets, matrix_rep=alg.matrix_rep)]
    zero = (((0,),),) * 3
    cases.append(LieAlgebra.from_brackets(("e1", "e2", "e3"), {(0, 1): {2: 1}, (0, 2): {0: 1}},
                                          matrix_rep=zero))
    sl2 = builtin_catalog()["sl2"].algebra
    tensor = [[list(row) for row in plane] for plane in dense_structure(sl2)]
    tensor[2][1][0] += 1  # c[2][1] only: the rep check reads c[i][j] at i < j
    cases.append(LieAlgebra(3, sl2.labels, table_of(tensor), sl2.matrix_rep))
    broken = 0
    for alg in cases:
        report = validate(alg)
        assert report["jacobi_failures"] == dense_jacobi_failures(alg), alg.name
        broken += bool(report["jacobi_failures"])
    assert validate(cases[-1])["rep_failures"] == () and validate(cases[-2])["rep_failures"] == ()
    assert validate(cases[-1])["jacobi_failures"] and validate(cases[-2])["jacobi_failures"]
    assert broken > len(algebras) // 2


def test_from_brackets_refuses_a_pair_or_index_outside_the_basis():
    labels = ("a", "b")
    for brackets in ({(1, 0): {0: 1}}, {(0, 2): {0: 1}}, {(-1, 1): {0: 1}},
                     {(0, 1): {2: 1}}, {(0, 1): {-1: 1}}):
        with pytest.raises(ValueError, match="pair|index"):
            LieAlgebra.from_brackets(labels, brackets)


# -- closures on the benchmark's seeded families --------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_closures_on_seeded_families_match_the_fixed_points(seed):
    # the algebras of the `family_orbit` workload at the seed, read from their files
    rng = random.Random(seed)
    algebras = [parse_algebra(f.doc)
                for f in workloads.build("family_orbit", seed).families.values()]
    assert sorted(alg.dim for alg in algebras) == [9, 9, 9, 10, 10, 15]
    proper = 0
    for alg in algebras:
        for _ in range(2):
            cov = rand_covector(alg, rng)
            assert krylov_hull(alg, cov) == dense_krylov_hull(alg, cov)
        for sub in seeded_subspaces(alg, rng):
            closed = loop_ideal_closure(alg, sub)
            check_ideal(alg, closed)
            proper += 0 < closed.dim < alg.dim
    assert proper > 5


# -- closure checks that build nothing -------------------------------------------


def test_check_subalgebra_refuses_what_subquotient_refuses(entries, rng):
    verdicts = []
    for entry in entries.values():
        alg = entry.algebra
        for sub in seeded_subspaces(alg, rng):
            errors = []
            zero = Subspace.zero(alg.dim)
            for check in (lambda a, h: subquotient(a, h, zero), check_subalgebra):
                try:
                    check(alg, sub)
                    errors.append(None)
                except NotClosedError as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1]
            assert errors[0] is None or "bracket of basis rows" in errors[0]
            verdicts.append(errors[0] is None)
    assert verdicts.count(False) > 10 and verdicts.count(True) > 10


def test_closure_checks_build_no_algebra(entries, monkeypatch):
    for module in (conditions, mackey, polarization):
        assert not hasattr(module, "subalgebra")
    h3e = entries["heisenberg3"]
    h3, cov = h3e.algebra, Covector(h3e.algebra, (0, 0, 1))
    lagrangian = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    rep = semidirect_witness(little_group_step(h3, h3e.ideals["center"], cov),
                             "xy_plane", h3e.complements["xy_plane"])
    assert rep["rejections"] == [
        {"candidate": "xy_plane", "reason": "declared complement is not a subalgebra"}]

    def refuse(*args, **kwargs):
        raise AssertionError("algebra built")

    monkeypatch.setattr(LieAlgebra, "from_brackets", classmethod(refuse))
    assert check_conditions(h3, lagrangian, cov)["ok"]
    with pytest.raises(NotClosedError, match="bracket of basis rows 0,1 escapes"):
        check_subalgebra(h3, Subspace(3, [(1, 0, 0), (0, 1, 0)]))  # `conditions` runs it


# -- [a, a] takes one bracket per pair --------------------------------------------


def test_bracket_span_of_a_subspace_with_itself_brackets_each_pair_once(monkeypatch):
    family = families.filiform(45, families.family_rng(0, "ladder45"))
    alg = parse_algebra(family.doc)
    bracket, calls = LieAlgebra.bracket_exact, []

    def counted(self, u, v):
        calls.append(None)
        return bracket(self, u, v)

    monkeypatch.setattr(LieAlgebra, "bracket_exact", counted)
    full = Subspace.full(45)
    assert bracket_span(alg, full, Subspace.full(45)).dim == 43
    assert len(calls) == 45 * 44 // 2 == 990
    calls.clear()
    liealg._derived_algebra.cache_clear()  # [g, g] is built once per algebra and kept
    assert is_nilpotent.__wrapped__(alg)
    assert len(calls) == 4774  # 5,809 with all 2,025 ordered pairs in the [g, g] step


def test_bracket_span_of_a_subspace_with_itself_matches_every_ordered_pair(entries, rng):
    for entry in entries.values():
        alg = entry.algebra
        for sub in [*seeded_subspaces(alg, rng), *_catalog_ideals(entry)]:
            every_pair = Subspace(alg.dim, [alg.bracket(u, v) for u in sub.rows for v in sub.rows])
            assert bracket_span(alg, sub, sub) == every_pair, (entry.name, sub)


# -- one coadjoint kernel: the pairing rows of a dual vector ----------------------


def kernel_cases(entries, rng):
    """(entry, covector) over the catalog and `seeded_family_entries`: each declared
    covector, the zero covector and two seeded ones."""
    for entry in [*entries.values(), *seeded_family_entries()]:
        alg = entry.algebra
        for coords in [*entry.covectors.values(), (0,) * alg.dim,
                       rand_vec(rng, alg.dim, -5, 5, 3), rand_vec(rng, alg.dim, -5, 5, 3)]:
            yield entry, Covector(alg, coords)


def dense_orbit_annihilator(alg, cov, sub):
    """ann(V), V the fixed point of V -> V + V . dense_ad(W) over the rows W of sub,
    from ann(sub) and cov: the dense-ad route `polarization.orbit_annihilator` replaced."""
    n = alg.dim
    ads = [dense_ad(alg, w) for w in sub.rows]
    v = annihilator(sub).add(Subspace(n, [cov.coords]))
    while True:
        grown = v.add(Subspace(n, [combine(xi, ad, n) for ad in ads for xi in v.rows]))
        if grown == v:
            return annihilator(v)
        v = grown


def dense_higher_order_term(data):
    """The first nonzero cov . ad(Z)^2 over the rows Z of n_c, from `ad_matrix`, or None."""
    n, cov = data.algebra.dim, data.covector.coords
    for z in data.n_c.rows:
        ad = ad_matrix(data.algebra, z)
        t = combine(combine(cov, ad, n), ad, n)
        if any(t):
            return t
    return None


def test_pairing_rows_are_the_dual_vector_times_ad(entries, rng):
    for entry, cov in kernel_cases(entries, rng):
        alg, n = cov.algebra, cov.algebra.dim
        rows = pairing(alg, cov.coords)
        assert rows == tuple(combine(cov.coords, ad_matrix(alg, basis_vector(n, i)), n)
                             for i in range(n)), entry.name
        assert kks_pairing(alg, cov) == rows


def test_orbit_annihilator_matches_the_dense_ad_closure(entries, descents, rng):
    """For g, the declared ideals that are subalgebras and the windows of the descent."""
    cases = [(entry, cov, None) for entry, cov in kernel_cases(entries, rng)] + descents
    proper = 0
    for entry, cov, trace in cases:
        alg = entry.algebra
        subs = [Subspace.full(alg.dim)]
        for ideal in entry.ideals.values():
            try:
                check_subalgebra(alg, ideal)
                subs.append(ideal)
            except NotClosedError:
                pass
        if trace is not None:
            subs += [s["g_next"] for s in trace["steps"]]
        for sub in subs:
            assert orbit_annihilator(alg, cov, sub) == dense_orbit_annihilator(alg, cov, sub), \
                (entry.name, cov.coords, sub)
            proper += sub.dim < alg.dim
    assert proper > 100


def test_cov_times_ad_squared_vanishes_on_little_group_data(entries, rng):
    """On the little-group data of every ideal the dense cov . ad(Z)^2 is 0: for Z
    in n_c inside the ideal n, cov([Z, [Z, g]]) lies in <c, [n_c, n]>, which the
    first check finds 0, so exp-linearity holds.  Data whose ideal is 0 and whose
    n_c is g or a seeded subspace, where cov . ad(Z)^2 can be nonzero, is refused."""
    checked = refused = 0
    for entry, cov in kernel_cases(entries, rng):
        alg, n = entry.algebra, entry.algebra.dim
        for ideal in _catalog_ideals(entry):
            if passes_check_ideal(alg, ideal):
                d = little_group_step(alg, ideal, cov)
                assert verify_step_relations(d)["exp_linear"], (entry.name, d.n_c)
                assert dense_higher_order_term(d) is None, (entry.name, d.n_c)
                checked += d.n_c.dim > 0
        zero = Subspace.zero(n)
        for sub in seeded_subspaces(alg, rng):
            d = LittleGroupData(alg, zero, cov, (), sub, sub, sub, stabilizer(alg, cov))
            if sub.dim:
                with pytest.raises(ValueError, match="^n_c does not lie inside the ideal$"):
                    verify_step_relations(d)
                refused += 1
    assert checked > 100 and refused > 100


def test_the_coadjoint_closures_are_handed_no_zero_image(monkeypatch):
    """`krylov_hull` and `orbit_annihilator` insert only nonzero images, on seeded h33
    and L32 at g and at the declared ideal."""
    real, images_seen = linalg.invariant_closure, []

    def counted(n, start_rows, images):
        def recorded(v):
            for image in images(v):
                images_seen.append(any(image))
                yield image
        return real(n, start_rows, recorded)

    for mod in (liealg, polarization):
        monkeypatch.setattr(mod, "invariant_closure", counted)
    rng = random.Random(31)
    for family in (families.heisenberg(16, families.family_rng(0, "h33")),
                   families.filiform(32, families.family_rng(0, "L32"))):
        entry = parse_entry(family.doc)
        alg = entry.algebra
        cov = Covector(alg, rand_vec(rng, alg.dim, -5, 5, 3))
        krylov_hull(alg, cov)
        orbit_annihilator(alg, cov, Subspace.full(alg.dim))
        orbit_annihilator(alg, cov, entry.ideals[family.ideal])
    assert len(images_seen) > 500 and all(images_seen)


def test_the_coadjoint_kernel_builds_no_ad_matrix(entries, monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("dense ad(Z)")

    monkeypatch.setattr(liealg, "ad_matrix", refuse)
    assert not any(hasattr(mod, "ad_matrix") for mod in (mackey, polarization, structure))
    poincare = entries["poincare"]
    alg, ideal = poincare.algebra, poincare.ideals["translations"]
    full = Subspace.full(alg.dim)
    assert centralizer(alg, ideal) == dense_centralizer(alg, ideal)
    assert centralizer(alg, full, ideal) == dense_centralizer(alg, full, ideal)
    # uncached, so the series is built here; the Poincare algebra has no center
    assert ascending_central_series.__wrapped__(alg) == (Subspace.zero(alg.dim),)
    for coords in poincare.covectors.values():
        cov = Covector(alg, coords)
        krylov_hull(alg, cov)
        assert orbit_dim(alg, cov, ideal) == subalgebra_orbit_dim(alg, cov, ideal)
        orbit_annihilator(alg, cov, full)
        orbit_annihilator(alg, cov, ideal)
        verify_step_relations(little_group_step(alg, ideal, cov))
        exp_coadjoint(alg, ideal.rows[0], cov)  # ad of a translation is nilpotent
