from fractions import Fraction as F

import pytest

from orbitkit import reductive
from orbitkit.liealg import Covector, validate
from orbitkit.linalg import Matrix
from orbitkit.mackey import little_group_step, verify_step_relations
from orbitkit.reductive import (
    UnsupportedSpectrumError,
    covector_to_element,
    element_matrix,
    element_to_covector,
    grade,
    matrix_lie_algebra,
    parabolic_report,
)
from conftest import rand_vec


@pytest.fixture(scope="module")
def sl3(entries):
    return matrix_lie_algebra(entries["sl3"].algebra)


def _diag(values):
    return Matrix([[v if i == j else 0 for j in range(3)] for i, v in enumerate(values)])


def test_grade_at_a_large_diagonal_element(sl3):
    a = (F(10**6), F(3, 7), -F(10**6) - F(3, 7))
    grading = grade(sl3, _diag(a))
    want = sorted({ai - aj for ai in a for aj in a})
    assert list(grading.eigenvalues) == want
    assert grading.space(0).dim == 2                  # the Cartan subalgebra
    assert all(grading.space(e).dim == 1 for e in want if e != 0)


def test_grade_refuses_a_nondiagonalizable_ad(sl3):
    e12 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(UnsupportedSpectrumError):
        grade(sl3, e12)


# -- trace pairings read off the Gram matrix ----------------------------------


@pytest.mark.parametrize("name", ["sl2", "sl3", "so31"])
def test_trace_pairings_match_the_product_forms(entries, rng, name):
    malg = matrix_lie_algebra(entries[name].algebra)
    rep = malg.rep
    assert malg.trace_gram == Matrix([[(ri * rj).trace() for rj in rep] for ri in rep])
    for _ in range(6):
        x = rand_vec(rng, malg.dim)
        cov = element_to_covector(malg, x)
        xmat = element_matrix(malg, x)
        assert cov.coords == tuple((xmat * r).trace() for r in rep)
        assert covector_to_element(malg, cov) == x


def test_trace_pairings_multiply_no_matrices(entries, sl3, monkeypatch):
    """The trace pairings and the step-2 relations read the Gram matrix and
    the covector; only the Jordan decomposition and the grading that
    `parabolic_report` calls still multiply matrices."""
    real_mul = Matrix.__mul__
    permitted = []

    def guarded(a, b):
        if not permitted:
            raise AssertionError("dense matrix product")
        return real_mul(a, b)

    def permit(fn):
        def run(*args):
            permitted.append(fn)
            try:
                return fn(*args)
            finally:
                permitted.pop()
        return run

    poin = entries["poincare"]
    data = little_group_step(poin.algebra, poin.ideals["translations"],
                             Covector(poin.algebra, poin.covectors["timelike"]))
    validate(sl3.algebra)  # cached; its representation check forms commutators
    monkeypatch.setattr(Matrix, "__mul__", guarded)
    monkeypatch.setattr(reductive, "jordan_triple", permit(reductive.jordan_triple))
    monkeypatch.setattr(reductive, "grade", permit(reductive.grade))

    assert matrix_lie_algebra(sl3.algebra).trace_gram == sl3.trace_gram
    element_to_covector(sl3, range(1, 9))
    assert verify_step_relations(data).exp_linear
    rep = parabolic_report(sl3, Matrix([[1, 1, 0], [0, 0, 0], [0, 0, -1]]))
    assert rep.u.dim > 0 and rep.trace_blocks_ok and rep.levi_pairing_zero
