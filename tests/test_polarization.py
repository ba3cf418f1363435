import random
from fractions import Fraction as F

import pytest

from orbitkit import polarization
from orbitkit.conditions import check_conditions
from orbitkit.liealg import Covector, orth, stabilizer
from orbitkit.linalg import Subspace, basis_vector
from orbitkit.polarization import (
    StrategyExhausted,
    exponential_precheck,
    pukanszky_polarization,
    verify_monomial,
)
from conftest import rand_covector, strictly_upper


def _span(n, *idx):
    return Subspace(n, [basis_vector(n, i) for i in idx])


# -- exponential precheck --------------------------------------------------------


def test_precheck_nilpotent_passes(entries):
    rep = exponential_precheck(entries["heisenberg3"].algebra)
    assert rep.passed and rep.is_solvable and rep.eigenvalue_witness is None


def test_precheck_affine_passes(entries):
    # ad eigenvalues are 0 and 1: real, so exponential
    assert exponential_precheck(entries["affine_line"].algebra).passed


def test_precheck_euclid_fails_with_rotation_witness(entries):
    rep = exponential_precheck(entries["euclid2"].algebra)
    assert rep.is_solvable and not rep.passed
    assert rep.eigenvalue_witness == (F(1), F(0), F(0))  # the rotation generator


def test_precheck_sl2_not_solvable(entries):
    rep = exponential_precheck(entries["sl2"].algebra)
    assert not rep.is_solvable and not rep.passed


# -- the algorithm ----------------------------------------------------------------


def test_polarization_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    trace = pukanszky_polarization(h3, cov)
    assert trace.result == _span(3, 1, 2)
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.ideal == _span(3, 1, 2)
    assert step.certificates_hold()
    # the derived subalgebra span(e3) was rejected as orbit-central
    assert any("orbit-central" in reason for (_, _, reason) in trace.rejected)
    assert trace.conditions.all_flags()
    assert trace.result.dim == 2 and 2 * 2 == 3 + 1


def test_polarization_abelian_zero_steps(entries):
    ab = entries["abelian3"].algebra
    trace = pukanszky_polarization(ab, Covector(ab, (1, 2, 3)))
    assert trace.steps == ()
    assert trace.result == Subspace.full(3)


def test_polarization_filiform(entries):
    n4 = entries["filiform4"].algebra
    cov = Covector(n4, (0, 0, 0, 1))
    trace = pukanszky_polarization(n4, cov)
    assert trace.result == _span(4, 1, 2, 3)
    assert trace.result.dim == 3 and 2 * 3 == 4 + 2
    assert trace.conditions.all_flags()


def test_polarization_affine(entries):
    aff = entries["affine_line"].algebra
    trace = pukanszky_polarization(aff, Covector(aff, (0, 1)))
    assert trace.result == _span(2, 1)
    assert trace.conditions.all_flags()


def test_polarization_user_chain(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    # the other polarization, unreachable by the automatic order
    trace = pukanszky_polarization(h3, cov, chain=[_span(3, 0, 2)])
    assert trace.result == _span(3, 0, 2)
    assert trace.conditions.all_flags()


def test_chain_is_read_in_each_window():
    """A chain ideal is taken in the coordinates of the current window g_i.

    On n5 at this covector the descent takes three steps, so the windows
    after the first have a basis other than the standard one.
    """
    alg, _ = strictly_upper(5)
    cov = Covector(alg, (F(-1, 3), 7, F(5, 2), -4, -2, 3, 3, F(9, 2), F(-9, 2), F(4, 3)))
    auto = pukanszky_polarization(alg, cov, override_precheck=True)
    assert [s.g_i.dim for s in auto.steps] == [10, 8, 7]
    replay = pukanszky_polarization(alg, cov, override_precheck=True,
                                    chain=[s.ideal for s in auto.steps])
    assert replay.steps == auto.steps and replay.result == auto.result
    assert replay.conditions.all_flags()


def test_one_orbit_annihilator_per_descent_step(monkeypatch):
    """Candidate search, admissibility and the printed orbit-abelian
    certificate of a step share one orbit annihilator."""
    alg, _ = strictly_upper(5)
    cov = Covector(alg, (F(-1, 3), 7, F(5, 2), -4, -2, 3, 3, F(9, 2), F(-9, 2), F(4, 3)))
    real, calls = polarization.orbit_annihilator, []
    monkeypatch.setattr(polarization, "orbit_annihilator",
                        lambda *args: calls.append(args) or real(*args))
    trace = pukanszky_polarization(alg, cov, override_precheck=True)
    assert trace.rejected and len(calls) == len(trace.steps) == 3


def test_polarization_chain_rejects_bad_ideal(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    with pytest.raises(StrategyExhausted):
        # central ideal: no dimension drop possible
        pukanszky_polarization(h3, cov, chain=[_span(3, 2)])


def test_an_empty_chain_is_still_a_user_chain(entries):
    h3 = entries["heisenberg3"].algebra
    with pytest.raises(StrategyExhausted) as exc:
        pukanszky_polarization(h3, Covector(h3, (0, 0, 1)), chain=[])
    assert exc.value.rejections == ((0, "user chain", "chain exhausted"),)


def test_polarization_requires_precheck(entries):
    e2 = entries["euclid2"].algebra
    with pytest.raises(ValueError):
        pukanszky_polarization(e2, Covector(e2, (0, 1, 0)))


def test_polarization_override_runs_euclid(entries):
    # overriding the precheck still yields a coisotropic result here
    e2 = entries["euclid2"].algebra
    trace = pukanszky_polarization(e2, Covector(e2, (0, 1, 0)),
                                   override_precheck=True)
    assert trace.conditions.coisotropic


def test_trace_sandwich_invariants(entries, rng):
    for name in ("heisenberg3", "filiform4", "abelian3"):
        alg = entries[name].algebra
        for _ in range(12):
            cov = rand_covector(alg, rng)
            trace = pukanszky_polarization(alg, cov)
            h = trace.result
            for step in trace.steps:
                assert step.certificates_hold()
                assert h.contains_subspace(step.ideal)
                assert step.ideal_orth.contains_subspace(h)
                assert step.g_i.contains_subspace(h)
                assert h.contains_subspace(orth(alg, step.g_i, cov).intersect(step.g_i))
                assert step.g_next.dim < step.g_i.dim


def test_polarization_result_invariant_under_input_presentation(entries, rng):
    # permuted/rescaled generator rows of the chain ideal give the same trace
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    base = pukanszky_polarization(h3, cov, chain=[_span(3, 1, 2)])
    for rows in ([(0, 0, 2), (0, 3, 0)], [(0, 1, 1), (0, 0, 5)], [(0, 2, 2), (0, 2, 3)]):
        alt = pukanszky_polarization(h3, cov, chain=[Subspace(3, rows)])
        assert alt.result == base.result


# -- monomial verification ---------------------------------------------------------


def test_verify_monomial_heisenberg(entries):
    h3 = entries["heisenberg3"].algebra
    cov = Covector(h3, (0, 0, 1))
    rep = verify_monomial(h3, cov, _span(3, 1, 2))
    assert rep.point_orbit and rep.dim_identity
    assert rep.pukanszky_reachable is True
    assert rep.targets_reached == rep.targets_total == 1


def test_verify_monomial_point_orbit_failure(entries):
    h3 = entries["heisenberg3"].algebra
    rep = verify_monomial(h3, Covector(h3, (0, 0, 1)), Subspace.full(3))
    assert not rep.point_orbit  # <cov, [e1, e2]> = 1


def test_verify_monomial_filiform(entries):
    n4 = entries["filiform4"].algebra
    rep = verify_monomial(n4, Covector(n4, (0, 0, 0, 1)), _span(4, 1, 2, 3))
    assert rep.point_orbit and rep.dim_identity and rep.pukanszky_reachable is True


def test_verify_monomial_undecided_for_non_nilpotent(entries):
    aff = entries["affine_line"].algebra
    rep = verify_monomial(aff, Covector(aff, (0, 1)), _span(2, 1))
    assert rep.pukanszky_reachable is None


def test_random_covectors_full_pipeline(entries, rng):
    # nilpotent catalog algebras: the algorithm succeeds and the monomial
    # certificate passes in full, for every random rational covector
    for name in ("heisenberg3", "filiform4", "abelian3"):
        alg = entries[name].algebra
        for _ in range(20):
            cov = rand_covector(alg, rng)
            trace = pukanszky_polarization(alg, cov)
            assert trace.conditions.all_flags()
            stab = stabilizer(alg, cov)
            assert 2 * trace.result.dim == alg.dim + stab.dim
            rep = verify_monomial(alg, cov, trace.result)
            assert rep.point_orbit and rep.dim_identity
            assert rep.pukanszky_reachable is True
