import json
import random
import sys
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

from orbitkit import cli, polarization
from orbitkit.catalog import parse_algebra
from orbitkit.liealg import Covector, LieAlgebra, ad_matrix, bracket_span, kks_pairing, stabilizer
from orbitkit.polynomials import charpoly, deg, mul, poly
from orbitkit.structure import (
    NotClosedError,
    check_subalgebra,
    derived_series,
    orth,
    restrict,
    subquotient,
)
from orbitkit.linalg import Matrix, Subspace, basis_vector, combine, invariant_closure
from orbitkit.mackey import is_ideal
from orbitkit.polarization import (
    ascending_central_series,
    centralizer,
    exponential_precheck,
    orbit_annihilator,
    pukanszky_polarization,
)
from conftest import (
    coords_of,
    hull_orbit_annihilator,
    n5_three_steps,
    negation_gcd_has_imaginary_root,
    rand_covector,
    rand_frac,
    rand_vec,
    seeded_family_entries,
    strictly_upper,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402


def _span(n, *idx):
    return Subspace(n, [basis_vector(n, i) for i in idx])


def _trace(alg, cov, chain=None):
    """The `trace` block of the descent at cov."""
    return pukanszky_polarization(alg, cov, chain=chain)["trace"]


def _certified(step):
    """Whether a step's three certificates hold."""
    return all(step["certificates"].values())


def _all_flags(trace):
    """Whether the four condition flags of a trace's result hold."""
    return all(trace["conditions"]["flags"].values())


# -- exponential precheck --------------------------------------------------------


def test_precheck_nilpotent_passes(entries):
    rep = exponential_precheck(entries["heisenberg3"].algebra)
    assert rep["passed"] and rep["is_solvable"] and rep["eigenvalue_witness"] is None


def test_precheck_affine_passes(entries):
    # ad eigenvalues are 0 and 1: real, so exponential
    assert exponential_precheck(entries["affine_line"].algebra)["passed"]


def test_precheck_euclid_fails_with_rotation_witness(entries):
    rep = exponential_precheck(entries["euclid2"].algebra)
    assert rep["is_solvable"] and not rep["passed"]
    assert rep["eigenvalue_witness"] == (F(1), F(0), F(0))  # the rotation generator


def test_precheck_sl2_not_solvable(entries):
    rep = exponential_precheck(entries["sl2"].algebra)
    assert not rep["is_solvable"] and not rep["passed"]


def _companion_algebra(p):
    """R |x Q^d with ad(t) the companion matrix of the monic p of degree d on Q^d:
    [t, e_j] = e_(j+1) for j < d - 1 and [t, e_(d-1)] = -sum_k p_k e_k, so
    charpoly(ad t) = x p(x)."""
    d = deg(p)
    brackets = {(0, j + 1): {j + 2: 1} for j in range(d - 1)}
    brackets[(0, d)] = {k + 1: -p[k] for k in range(d)}
    return LieAlgebra.from_brackets(["t"] + [f"e{j}" for j in range(d)], brackets)


def _seeded_monic_polynomial(rng):
    """The charpoly of a random integer d x d matrix (d <= 7, about half its entries 0)
    or of a random antisymmetric one, or a product of x, x - r, x^2 + b and
    x^2 + a x + b factors."""
    kind, d = rng.randrange(3), rng.randint(1, 7)
    entry = lambda: rng.randint(-3, 3) if rng.random() < 0.5 else 0
    if kind == 0:
        return charpoly(Matrix([[entry() for _ in range(d)] for _ in range(d)], d))
    if kind == 1:
        upper = [[entry() for _ in range(d)] for _ in range(d)]
        return charpoly(Matrix([[upper[i][j] if i < j else -upper[j][i] if i > j else 0
                                 for j in range(d)] for i in range(d)], d))
    factors = [poly([0, 1]), poly([-rand_frac(rng, -5, 5, 3), 1]),
               poly([rand_frac(rng, -5, 5, 3), 0, 1]),
               poly([rand_frac(rng, -5, 5, 3), rand_frac(rng, -5, 5, 3), 1])]
    return reduce(mul, [rng.choice(factors) for _ in range(rng.randint(1, 4))])


def test_the_imaginary_eigenvalue_test_matches_the_negation_gcd_route_on_5000_polynomials():
    rng = random.Random(26)
    found = 0
    for _ in range(5000):
        p = _seeded_monic_polynomial(rng)
        alg = _companion_algebra(p)
        want = negation_gcd_has_imaginary_root(mul(poly([0, 1]), p))
        assert polarization._has_imaginary_eigenvalue(alg, basis_vector(alg.dim, 0)) == want, p
        found += want
    assert 1000 < found < 4000  # both answers are well represented


# the benchmark's `polarize` families (`workloads._POLARIZE`) and sl3, sl4, at seed 0
PRECHECK_FAMILIES = [(families.heisenberg, 2, "h5"), (families.heisenberg, 3, "h7"),
                     (families.filiform, 6, "L6"), (families.filiform, 7, "L7"),
                     (families.filiform, 8, "L8"), (families.nilradical, 4, "n4"),
                     (families.borel, 3, "b3"), (families.borel, 4, "b4"),
                     (families.sl, 3, "sl3"), (families.sl, 4, "sl4")]


def test_the_imaginary_eigenvalue_test_matches_the_reference_on_every_sampled_element(
        entries, monkeypatch):
    """The wrapper answers "no" after checking, so the precheck visits every element."""
    real, answers = polarization._has_imaginary_eigenvalue, []

    def checked(alg, z):
        got = real(alg, z)
        assert got == negation_gcd_has_imaginary_root(charpoly(ad_matrix(alg, z))), (alg.name, z)
        answers.append(got)
        return False

    monkeypatch.setattr(polarization, "_has_imaginary_eigenvalue", checked)
    algebras = [e.algebra for e in entries.values()] + [
        parse_algebra(make(size, families.family_rng(0, stem)).doc)
        for make, size, stem in PRECHECK_FAMILIES]
    for alg in algebras:
        before = len(answers)
        assert exponential_precheck(alg)["elements_checked"] == len(answers) - before
    assert any(answers) and not all(answers)


# -- the algorithm ----------------------------------------------------------------


def test_polarization_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    result = pukanszky_polarization(h3, cov)
    trace = result["trace"]
    assert trace["result_basis"] == _span(3, 1, 2)
    assert len(trace["steps"]) == 1
    step = trace["steps"][0]
    assert step["ideal"] == _span(3, 1, 2)
    assert _certified(step)
    # the derived subalgebra span(e3) was rejected as orbit-central
    assert any("orbit-central" in r["reason"] for r in trace["rejected_candidates"])
    assert _all_flags(trace) and result["ok"]
    assert trace["result_dim"] == 2 and 2 * 2 == 3 + 1


def test_polarization_abelian_zero_steps(entries):
    ab = entries["abelian3"].algebra
    trace = _trace(ab, Covector(ab, (1, 2, 3)))
    assert trace["steps"] == []
    assert trace["result_basis"] == Subspace.full(3)


def test_polarization_filiform(entries):
    n4 = entries["filiform4"].algebra
    cov = Covector(n4, (0, 0, 0, 1))
    trace = _trace(n4, cov)
    assert trace["result_basis"] == _span(4, 1, 2, 3)
    assert trace["result_dim"] == 3 and 2 * 3 == 4 + 2
    assert _all_flags(trace)


def test_polarization_affine(entries):
    aff = entries["affine_line"].algebra
    trace = _trace(aff, Covector(aff, (0, 1)))
    assert trace["result_basis"] == _span(2, 1)
    assert _all_flags(trace)


def test_polarization_user_chain(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    # the other polarization, unreachable by the automatic order
    trace = _trace(h3, cov, chain=[_span(3, 0, 2)])
    assert trace["result_basis"] == _span(3, 0, 2)
    assert _all_flags(trace)


def test_chain_is_read_in_each_window():
    """A chain ideal, given in g's coordinates, is read against the current window g_i.

    On n5 at this covector the descent takes three steps, so the windows
    after the first are proper subspaces of g.
    """
    alg, _ = strictly_upper(5)
    cov = Covector(alg, (F(-1, 3), 7, F(5, 2), -4, -2, 3, 3, F(9, 2), F(-9, 2), F(4, 3)))
    auto = _trace(alg, cov)
    assert [s["g_dim"] for s in auto["steps"]] == [10, 8, 7]
    replay = _trace(alg, cov, chain=[s["ideal"] for s in auto["steps"]])
    assert replay["steps"] == auto["steps"] and replay["result_basis"] == auto["result_basis"]
    assert _all_flags(replay)


def test_one_orbit_annihilator_per_descent_step(monkeypatch):
    """Candidate search and admissibility of a step share one orbit annihilator."""
    alg, _ = strictly_upper(5)
    cov = Covector(alg, (F(-1, 3), 7, F(5, 2), -4, -2, 3, 3, F(9, 2), F(-9, 2), F(4, 3)))
    real, calls = polarization.orbit_annihilator, []
    monkeypatch.setattr(polarization, "orbit_annihilator",
                        lambda *args: calls.append(args) or real(*args))
    trace = _trace(alg, cov)
    assert trace["rejected_candidates"] and len(calls) == len(trace["steps"]) == 3


def test_a_step_records_its_admission_verdict(tmp_path, monkeypatch, capsys):
    """Every seed-0 `polarize` invocation of the benchmark brackets only in the
    candidate search and the admission test: the descent reads the printed
    orbit-abelian certificate off the admission verdict, where it once made one
    more `bracket_span` per printed step."""
    callers = []
    real = polarization.bracket_span
    monkeypatch.setattr(polarization, "bracket_span", lambda *args: callers.append(
        sys._getframe(1).f_code.co_name) or real(*args))
    steps = 0
    for name in ("catalog_sweep", "parabolic_polarize"):
        wl = workloads.build(name, 0, full=True)
        workloads.write_files(wl, tmp_path)
        monkeypatch.chdir(tmp_path)
        for inv in wl.setup + wl.round:
            if inv.args[0] == "polarize":
                cli.main(inv.args)
                results = json.loads(capsys.readouterr().out).get("results", ())
                steps += sum(len(r["trace"]["steps"]) for r in results if "trace" in r)
    assert steps == 15  # printed by the goldens of these invocations
    assert set(callers) == {"_admissible", "_automatic_candidates"}


def test_an_automatic_step_builds_one_algebra_and_a_chain_step_none(monkeypatch):
    """No window algebra: the stop test and the orbit annihilator are read in g,
    so an automatic step builds only its candidate quotient, taken in alg, and a
    user chain builds no algebra.  The descent uses neither `restrict` nor
    `kks_pairing`."""
    assert not hasattr(polarization, "restrict") and not hasattr(polarization, "kks_pairing")
    alg, cov = n5_three_steps()
    built, quotients = [], []
    from_brackets = LieAlgebra.from_brackets.__func__
    monkeypatch.setattr(LieAlgebra, "from_brackets", classmethod(
        lambda cls, *args, **kw: built.append(args) or from_brackets(cls, *args, **kw)))
    real = polarization.subquotient
    monkeypatch.setattr(polarization, "subquotient",
                        lambda a, *rest: quotients.append(a) or real(a, *rest))
    auto = _trace(alg, cov)
    assert len(auto["steps"]) == 3 and len(quotients) == len(built) == 3
    assert all(a is alg for a in quotients)
    built.clear()
    replay = _trace(alg, cov, chain=[s["ideal"] for s in auto["steps"]])
    assert replay["steps"] == auto["steps"] and built == []


def test_a_chain_ideal_outside_its_window_is_refused():
    alg, cov = n5_three_steps()
    first = _trace(alg, cov)["steps"][0]
    assert not first["g_next"].contains_subspace(Subspace.full(alg.dim))
    with pytest.raises(ValueError, match="^chain ideal at step 1 is not inside g_1$"):
        pukanszky_polarization(alg, cov, chain=[first["ideal"], Subspace.full(alg.dim)])


def _rejections(*rejected):
    """The printed form of (step, candidate, reason) rejections."""
    return [{"step": i, "candidate": d, "reason": r} for i, d, r in rejected]


def _exhausted(*rejected):
    """The result of a descent whose strategy is exhausted after these rejections."""
    return {"error": "strategy exhausted", "ok": False,
            "rejected_candidates": _rejections(*rejected)}


def test_polarization_chain_rejects_bad_ideal(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    # central ideal: no dimension drop possible
    assert pukanszky_polarization(h3, cov, chain=[_span(3, 2)]) == _exhausted(
        (0, "user chain ideal", "orbit-central (no dimension drop)"))


def test_an_empty_chain_is_still_a_user_chain(entries):
    h3 = entries["heisenberg3"].algebra
    assert pukanszky_polarization(h3, Covector(h3, (0, 0, 1)), chain=[]) == _exhausted(
        (0, "user chain", "chain exhausted"))


def test_polarization_requires_precheck(capsys):
    # the CLI runs the precheck, once per invocation; the descent never does
    assert cli.main(["polarize", "catalog:euclid2", "--point=0,1,0"]) == 2
    assert "exponential precheck failed" in capsys.readouterr().out


def test_polarization_override_runs_euclid(entries):
    # past the failed precheck the descent still yields a coisotropic result here
    e2 = entries["euclid2"].algebra
    trace = _trace(e2, Covector(e2, (0, 1, 0)))
    assert trace["conditions"]["flags"]["coisotropic"]


def test_trace_sandwich_invariants(entries, rng):
    for name in ("heisenberg3", "filiform4", "abelian3"):
        alg = entries[name].algebra
        for _ in range(12):
            cov = rand_covector(alg, rng)
            trace = _trace(alg, cov)
            h, g_i = trace["result_basis"], Subspace.full(alg.dim)
            for step in trace["steps"]:
                assert _certified(step)
                assert h.contains_subspace(step["ideal"])
                assert step["ideal_orth"].contains_subspace(h)
                assert g_i.contains_subspace(h)
                assert h.contains_subspace(orth(alg, g_i, cov).intersect(g_i))
                assert step["g_next"].dim < g_i.dim == step["g_dim"]
                g_i = step["g_next"]


def test_polarization_result_invariant_under_input_presentation(entries, rng):
    # permuted/rescaled generator rows of the chain ideal give the same trace
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    base = _trace(h3, cov, chain=[_span(3, 1, 2)])
    for rows in ([(0, 0, 2), (0, 3, 0)], [(0, 1, 1), (0, 0, 5)], [(0, 2, 2), (0, 2, 3)]):
        alt = _trace(h3, cov, chain=[Subspace(3, rows)])
        assert alt["result_basis"] == base["result_basis"]


# -- the nested-window descent, kept as a reference -------------------------------
# The route the ambient descent replaced: each window's algebra is built from
# the previous window's algebra by `restrict`, candidates, admissibility and
# the orthogonal are taken in its coordinates, and each step is mapped back to
# g, where the orthogonal is taken a second time and must give the same g_{i+1}.


def _nested_candidates(inner, ann_x):
    quot = subquotient(inner, Subspace.full(inner.dim), ann_x)
    qalg = quot.algebra

    def pull(sub):
        return ann_x.add(Subspace(inner.dim, [combine(r, quot.lifts, inner.dim)
                                              for r in sub.rows]))

    derived = [s for s in derived_series(qalg) if s.dim > 0]
    if len(derived) > 1:
        yield "terminal derived subalgebra", pull(derived[-1])
    series = ascending_central_series(qalg)
    for idx, term in enumerate(series[1:], start=1):
        if bracket_span(qalg, term, term).dim == 0:
            yield f"ascending central term {idx}", pull(term)
    if len(derived) > 1:
        yield "centralizer of derived subalgebra", pull(centralizer(qalg, derived[1]))
    if len(series) > 2:
        z1, z2 = series[1], series[2]
        for row in reversed(z2.rows):
            if not z1.contains(row):
                yield "center + vector refinement", pull(z1.add(Subspace(qalg.dim, [row])))


def _nested_admissible(inner, ann_x, cand):
    if not is_ideal(inner, cand):
        return "not an ideal"
    if not ann_x.contains_subspace(bracket_span(inner, cand, cand)):
        return "not orbit-abelian"
    if ann_x.contains_subspace(bracket_span(inner, Subspace.full(inner.dim), cand)):
        return "orbit-central (no dimension drop)"
    return None


def nested_window_polarization(alg, cov, chain=None):
    """(steps, rejected, result) of the descent by nested window algebras, the
    steps and rejections as the trace prints them, or the exhausted-strategy
    result when a step has no admissible ideal."""
    n = alg.dim
    inner, g_here, cur_cov = alg, Subspace.full(n), cov
    steps, rejected = [], []
    chain_iter = iter(chain or ())

    def to_ambient(sub):
        return Subspace(n, [combine(r, g_here.rows, n) for r in sub.rows])

    for step_index in range(n + 1):
        if kks_pairing(inner, cur_cov).is_zero():
            break
        ann_x = hull_orbit_annihilator(inner, cur_cov)
        if chain is not None:
            ideal = next(chain_iter, None)
            if ideal is None:
                return _exhausted(*rejected, (step_index, "user chain", "chain exhausted"))
            coords = [coords_of(g_here, r) for r in ideal.rows]
            if None in coords:
                raise ValueError(f"chain ideal at step {step_index} is not inside g_{step_index}")
            cand = Subspace(inner.dim, coords)
            reason = _nested_admissible(inner, ann_x, cand)
            if reason is not None:
                return _exhausted(*rejected, (step_index, "user chain ideal", reason))
        else:
            for desc, cand in _nested_candidates(inner, ann_x):
                reason = _nested_admissible(inner, ann_x, cand)
                if reason is None:
                    break
                rejected.append((step_index, desc, reason))
            else:
                return _exhausted(*rejected)
        g_next_inner = orth(inner, cand, cur_cov)
        ideal_ambient = to_ambient(cand)
        orth_ambient = orth(alg, ideal_ambient, cov)
        g_next = to_ambient(g_next_inner)
        assert g_next == g_here.intersect(orth_ambient)
        steps.append({"g_dim": g_here.dim, "ideal": ideal_ambient, "ideal_orth": orth_ambient,
                      "g_next": g_next, "certificates": {
                          "orbit_abelian": ann_x.contains_subspace(
                              bracket_span(inner, cand, cand)),
                          "ideal_in_orth": orth_ambient.contains_subspace(ideal_ambient),
                          "orth_not_containing_g": g_next_inner.dim < inner.dim}})
        assert g_next_inner.dim < inner.dim
        cur_cov = restrict(inner, cur_cov, g_next_inner)
        inner, g_here = cur_cov.algebra, g_next
    return steps, _rejections(*rejected), g_here


def _ambient(alg, cov, chain=None):
    """(steps, rejected, result) of the descent at cov, or its exhausted-strategy result."""
    result = pukanszky_polarization(alg, cov, chain=chain)
    if "trace" not in result:
        return result
    trace = result["trace"]
    return trace["steps"], trace["rejected_candidates"], trace["result_basis"]


def _assert_routes_agree(alg, cov):
    auto = _ambient(alg, cov)
    assert auto == nested_window_polarization(alg, cov)
    if isinstance(auto, tuple):  # the strategy is not exhausted
        chain = [s["ideal"] for s in auto[0]]
        replay = _ambient(alg, cov, chain)
        assert replay == nested_window_polarization(alg, cov, chain)
        assert replay[0] == auto[0] and replay[2] == auto[2]


def test_ambient_descent_matches_the_nested_route_on_the_catalog(entries, rng):
    for entry in entries.values():
        alg = entry.algebra
        if not exponential_precheck(alg)["passed"]:
            continue
        covs = [Covector(alg, c) for c in entry.covectors.values()]
        for cov in covs + [rand_covector(alg, rng) for _ in range(4)]:
            _assert_routes_agree(alg, cov)


def test_ambient_descent_matches_the_nested_route_on_a_chain_that_is_not_nested():
    """On h5 = span(x0, x1, y0, y1, z) at z*, the second ideal leaves out the
    first, so its orthogonal is not inside g_1 and only g_1 ∩ I^f is g_2."""
    h5 = LieAlgebra.from_brackets(("x0", "x1", "y0", "y1", "z"),
                                  {(0, 2): {4: 1}, (1, 3): {4: 1}}, name="h5")
    cov = Covector(h5, (0, 0, 0, 0, 1))
    chain = [_span(5, 2, 4), _span(5, 1, 4)]
    steps, rejected, result = _ambient(h5, cov, chain)
    assert (steps, rejected, result) == nested_window_polarization(h5, cov, chain)
    assert not steps[0]["g_next"].contains_subspace(steps[1]["ideal_orth"])  # g_1
    assert result == _span(5, 1, 2, 4)


def _sparse_vec(rng, n):
    """About half the entries 0: such covectors reach early stops and exhaustion."""
    return tuple(F(0) if rng.random() < 0.5 else rand_frac(rng, -5, 5, 3) for _ in range(n))


# seeded families at seeds 0-1, and the benchmark's `polarize` families
# (`workloads._POLARIZE`: h5, h7, L6-L8, n4, b3, b4) at seeds 1-3
SEEDED = [(families.heisenberg, 4, "h9", (0, 1)), (families.nilradical, 5, "n5", (0, 1)),
          (families.filiform, 9, "L9", (0, 1)), (families.borel, 3, "b3", (0, 1, 2, 3)),
          (families.borel, 4, "b4", (0, 1, 2, 3)), (families.borel, 5, "b5", (0, 1)),
          (families.heisenberg, 2, "h5", (1, 2, 3)), (families.heisenberg, 3, "h7", (1, 2, 3)),
          (families.filiform, 6, "L6", (1, 2, 3)), (families.filiform, 7, "L7", (1, 2, 3)),
          (families.filiform, 8, "L8", (1, 2, 3)), (families.nilradical, 4, "n4", (1, 2, 3))]


@pytest.mark.parametrize("make,size,stem,seeds", SEEDED, ids=[s for _, _, s, _ in SEEDED])
def test_ambient_descent_matches_the_nested_route_on_seeded_families(make, size, stem, seeds):
    for seed in seeds:
        alg = parse_algebra(make(size, families.family_rng(seed, stem)).doc)
        rng = random.Random(f"{stem}:{seed}")
        for _ in range(3):
            _assert_routes_agree(alg, Covector(alg, rand_vec(rng, alg.dim, lo=-5, hi=5,
                                                             max_den=3)))
        _assert_routes_agree(alg, Covector(alg, _sparse_vec(rng, alg.dim)))


# -- the orbit annihilator of a subalgebra, computed in g -------------------------


def _window_orbit_annihilator(alg, cov, sub):
    """The window route: restrict cov to the subalgebra sub, take the reference
    annihilator in sub's own algebra and lift it back to g."""
    inner = restrict(alg, cov, sub)
    return Subspace(alg.dim, [combine(r, sub.rows, alg.dim)
                              for r in hull_orbit_annihilator(inner.algebra, inner).rows])


def _subalgebras(alg, cov, ideals):
    """g, the stabilizer, each declared ideal that is a subalgebra and each window
    of the descent at cov (with its result), when the descent gets through."""
    subs = [Subspace.full(alg.dim), stabilizer(alg, cov)]
    for ideal in ideals:
        try:
            check_subalgebra(alg, ideal)
            subs.append(ideal)
        except NotClosedError:
            pass
    result = pukanszky_polarization(alg, cov)
    if "trace" in result:
        subs += [s["g_next"] for s in result["trace"]["steps"]]
    else:
        assert result["error"] == "strategy exhausted"
    return subs


def test_orbit_annihilator_is_the_largest_ideal_of_the_subalgebra_inside_ker_f(entries, rng):
    for entry in [*entries.values(), *seeded_family_entries()]:
        alg = entry.algebra
        for cov in (rand_covector(alg, rng), Covector(alg, _sparse_vec(rng, alg.dim))):
            assert orbit_annihilator(alg, cov) == hull_orbit_annihilator(alg, cov)
            for sub in _subalgebras(alg, cov, entry.ideals.values()):
                ann = orbit_annihilator(alg, cov, sub)
                assert ann == _window_orbit_annihilator(alg, cov, sub), (entry.name, sub)
                assert sub.contains_subspace(ann)
                assert ann.contains_subspace(bracket_span(alg, sub, ann))
                assert all(cov.pair(r) == 0 for r in ann.rows)
                for row in sub.rows:
                    if not ann.contains(row):
                        grown = invariant_closure(
                            alg.dim, ann.rows + (row,),
                            lambda v: (alg.bracket_exact(w, v) for w in sub.rows))
                        assert any(cov.pair(r) != 0 for r in grown.rows), (entry.name, row)


def test_every_returned_step_has_three_true_certificates(descents):
    """An accepted ideal I passed `_admissible`, so [I, I] <= ann_x <= ker f: I is
    orbit-abelian and inside I^f; and a step with no dimension drop raises."""
    steps = [step for _, _, trace in descents if trace for step in trace["steps"]]
    assert len(steps) >= 20
    assert all(_certified(step) for step in steps)


def test_random_covectors_full_pipeline(entries, rng):
    # nilpotent catalog algebras: the algorithm succeeds, with a polarization
    # whose codimension is half the orbit's dimension, for every random covector
    for name in ("heisenberg3", "filiform4", "abelian3"):
        alg = entries[name].algebra
        for _ in range(20):
            cov = rand_covector(alg, rng)
            trace = _trace(alg, cov)
            assert _all_flags(trace)
            stab = stabilizer(alg, cov)
            assert 2 * trace["result_dim"] == alg.dim + stab.dim
