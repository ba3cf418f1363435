from fractions import Fraction as F

import pytest

from orbitkit.linalg import Matrix
from orbitkit.reductive import UnsupportedSpectrumError, grade, matrix_lie_algebra


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
