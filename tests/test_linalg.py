import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitkit.liealg import center, stabilizer, structure_probe
from orbitkit.linalg import (
    Matrix,
    Subspace,
    annihilator,
    combine,
    frac,
    rank_kernel,
    solve,
    solve_in_subspace,
    sum_intersect,
    symmetric_signature,
)
from conftest import dense_apply, rand_covector, rand_vec


def test_rank_kernel_identity():
    rank, ker = rank_kernel(Matrix.identity(3))
    assert rank == 3 and ker.dim == 0


def test_rank_kernel_zero():
    rank, ker = rank_kernel(Matrix.zeros(2, 4))
    assert rank == 0 and ker == Subspace.full(4)


def test_rank_kernel_antisymmetric():
    # hand row-reduction: rows (0,1,0), (-1,0,0) pivot on columns 0,1
    m = Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    rank, ker = rank_kernel(m)
    assert rank == 2
    assert ker == Subspace(3, [(0, 0, 1)])
    for row in ker.basis_rows():
        assert all(x == 0 for x in dense_apply(m, row))


def test_sum_intersect_disjoint_lines():
    a = Subspace(3, [(1, 0, 0)])
    b = Subspace(3, [(0, 1, 0)])
    s, m = sum_intersect(a, b)
    assert s == Subspace(3, [(1, 0, 0), (0, 1, 0)])
    assert m.dim == 0


def test_sum_intersect_idempotent():
    v = Subspace(3, [(1, 2, 3), (0, 1, 1)])
    s, m = sum_intersect(v, v)
    assert s == v and m == v


def test_sum_intersect_transversal():
    # Gaussian elimination by hand: (e1+e2) + (e2, e3) spans everything
    a = Subspace(3, [(1, 1, 0)])
    b = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    s, m = sum_intersect(a, b)
    assert s == Subspace.full(3)
    assert m.dim == 0


def test_sum_intersect_dim_mismatch():
    with pytest.raises(ValueError):
        sum_intersect(Subspace.full(2), Subspace.full(3))


def test_annihilator_extremes():
    assert annihilator(Subspace.full(4)).dim == 0
    assert annihilator(Subspace.zero(4)) == Subspace.full(4)


def test_annihilator_pairing():
    s = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    ann = annihilator(s)
    assert ann == Subspace(3, [(1, 0, 0)])
    for u in ann.basis_rows():
        for v in s.basis_rows():
            assert sum(a * b for a, b in zip(u, v)) == 0


def test_frac_refuses_a_zero_denominator():
    assert frac("-6/8") == F(-3, 4)
    with pytest.raises(ValueError, match=r"Fraction\(1, 0\)"):
        frac("1/0")
    with pytest.raises(TypeError):
        frac(0.5)


def test_solve_identity():
    assert solve(Matrix.identity(3), (1, 2, 3)) == (F(1), F(2), F(3))


def test_solve_inconsistent():
    assert solve(Matrix.zeros(2, 2), (1, 0)) is None


def test_solve_back_substitution():
    assert solve(Matrix([[1, 1], [0, 1]]), (3, 1)) == (F(2), F(1))


# -- a matrix keeps its width -------------------------------------------------


def test_a_matrix_with_no_rows_keeps_its_width():
    empty = Matrix.zeros(0, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert rank_kernel(empty) == (0, Subspace.full(3))
    tall = empty.transpose()
    assert (tall.rows, tall.cols) == (3, 0)
    assert tall.transpose() == empty
    assert Matrix([], 3) == empty


def test_a_matrix_with_no_rows_and_no_width_is_refused():
    with pytest.raises(ValueError, match="width"):
        Matrix([])
    with pytest.raises(ValueError, match="ragged"):
        Matrix([[1, 2]], 3)


def test_solve_in_subspace_on_the_zero_subspace():
    m = Matrix([[1, 2, 3], [0, 1, 1]])
    zero = Subspace.zero(3)
    assert solve_in_subspace(m, zero, (0, 0)) == (F(0),) * 3
    assert solve_in_subspace(m, zero, (1, 0)) is None


def test_rref_canonical_under_generator_shuffle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        rows = [rand_vec(rng, n) for _ in range(rng.randint(1, n))]
        s = Subspace(n, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        factors = [F(rng.randint(1, 5)) for _ in shuffled]
        scaled = [tuple(c * x for x in row) for c, row in zip(factors, shuffled)]
        assert Subspace(n, scaled) == s


def test_annihilator_involution_and_inclusion_reversal():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 6)
        a = Subspace(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        b = a.add(Subspace(n, [rand_vec(rng, n)]))
        assert annihilator(annihilator(a)) == a
        assert annihilator(b).dim <= annihilator(a).dim
        assert annihilator(a).contains_subspace(annihilator(b))
        assert annihilator(a).dim == n - a.dim


def test_grassmann_identity():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 7)
        a = Subspace(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        b = Subspace(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        s, m = sum_intersect(a, b)
        assert s.dim + m.dim == a.dim + b.dim
        assert s.contains_subspace(a) and s.contains_subspace(b)
        assert a.contains_subspace(m) and b.contains_subspace(m)


def test_symmetric_signature_examples():
    assert symmetric_signature(Matrix.identity(3)) == (3, 0, 3)
    assert symmetric_signature(Matrix([[0, 1], [1, 0]])) == (1, 1, 2)
    assert symmetric_signature(Matrix([[-2, 0], [0, 0]])) == (0, 1, 1)


def test_symmetric_signature_congruence_invariance():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        entries = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        sym = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
        m = Matrix(sym)
        # congruence by a random invertible triangular matrix preserves signature
        t = [[F(1) if i == j else (F(rng.randint(-3, 3)) if j > i else F(0))
              for j in range(n)] for i in range(n)]
        tm = Matrix(t)
        assert symmetric_signature(tm * m * tm.transpose()) == symmetric_signature(m)


# -- coordinates read at the pivots -------------------------------------------


def solved_coords_of(s, v):
    """Reference: coordinates of v in the canonical basis by a transposed solve."""
    if s.dim == 0:
        return () if all(x == 0 for x in v) else None
    return solve(s.basis.transpose(), v)


def _catalog_subspaces(entries, rng):
    """Declared ideals, centers, derived ideals and stabilizers of the catalog."""
    for entry in entries.values():
        alg = entry.algebra
        probe = structure_probe(alg)
        yield from entry.ideals.values()
        yield center(alg)
        yield from probe.derived_series[1:]
        for _ in range(3):
            yield stabilizer(alg, rand_covector(alg, rng))


def test_coords_of_matches_the_solved_reference(entries, rng):
    outside_checked = 0
    for s in _catalog_subspaces(entries, rng):
        n, rows = s.ambient_dim, s.basis_rows()
        assert len(s.pivots) == s.dim
        for p, row in zip(s.pivots, rows):
            assert row[p] == 1 and all(x == 0 for x in row[:p])
        for _ in range(3):
            coeffs = rand_vec(rng, s.dim)
            v = combine(coeffs, rows, n)
            assert s.coords_of(v) == solved_coords_of(s, v) == coeffs
            assert combine(s.coords_of(v), rows, n) == v
            assert s.reduce(v) == (0,) * n
            free = [j for j in range(n) if j not in s.pivots]
            if free:
                # a nonzero entry at a non-pivot column moves v off the span
                off = v[:free[0]] + (v[free[0]] + rng.randint(1, 5),) + v[free[0] + 1:]
                assert s.coords_of(off) is None and solved_coords_of(s, off) is None
                assert not s.contains(off)
                outside_checked += 1
            w = rand_vec(rng, n)
            assert s.coords_of(w) == solved_coords_of(s, w)
    assert outside_checked > 100


def test_combine():
    assert combine((), (), 3) == (0, 0, 0)
    assert combine((2, F(1, 2)), ((1, 0), (0, 4)), 2) == (F(2), F(2))
    assert combine((0, 1), ((1, 1), (0, 1)), 2) == (F(0), F(1))


def test_reduce_gives_the_coset_representative_zero_at_the_pivots():
    s = Subspace(3, [(1, 2, 0), (0, 0, 1)])
    assert s.pivots == (0, 2)
    assert s.reduce((3, 1, 5)) == (F(0), F(-5), F(0))
    assert s.coords_of((3, 6, 5)) == (F(3), F(5))
    assert s.coords_of((3, 1, 5)) is None
    with pytest.raises(ValueError):
        s.reduce((1, 2))


# -- properties over random rational subspaces --------------------------------

PROPERTIES = settings(derandomize=True, max_examples=150, deadline=None, database=None)
rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def subspace_pairs(draw):
    """(A, B) in Q^n, n <= 6; B reuses some of A's generators, so A∩B is often nonzero."""
    n = draw(st.integers(1, 6))
    vectors = st.lists(st.tuples(*[rationals] * n), max_size=n)
    a_rows = draw(vectors)
    shared = draw(st.lists(st.sampled_from(a_rows), max_size=len(a_rows))) if a_rows else []
    return Subspace(n, a_rows), Subspace(n, shared + draw(vectors))


def rref_annihilator(s):
    """Reference: the annihilator by a fresh `rank_kernel` of the basis."""
    return rank_kernel(s.basis)[1]


@PROPERTIES
@given(subspace_pairs())
def test_grassmann_identity_property(pair):
    a, b = pair
    s, m = sum_intersect(a, b)
    assert s.dim + m.dim == a.dim + b.dim
    assert s == a.add(b) and m == a.intersect(b)


@PROPERTIES
@given(subspace_pairs())
def test_annihilator_property(pair):
    for s in pair:
        ann = annihilator(s)
        assert ann == rref_annihilator(s)
        assert ann.dim == s.ambient_dim - s.dim
        assert annihilator(ann) == s


@st.composite
def product_pairs(draw):
    """A (r x k) and B (k x c) with r, k, c in 0..4, more than half of the entries 0."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.just(F(0)), rationals)
    a = [[draw(entry) for _ in range(k)] for _ in range(r)]
    b = [[draw(entry) for _ in range(c)] for _ in range(k)]
    return Matrix(a, k), Matrix(b, c)


@PROPERTIES
@given(product_pairs())
def test_product_is_the_sum_over_the_inner_index_property(pair):
    a, b = pair
    p = a * b
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert p.entries == tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), F(0))
              for j in range(b.cols))
        for i in range(a.rows))


@st.composite
def matrices_and_row_operations(draw):
    """A rational matrix with 0-5 rows and 1-5 columns, and an elementary
    invertible matrix E acting on its rows: E scales row i by c != 0 when
    i == j, and adds c times row j to row i otherwise."""
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[rationals] * cols), max_size=5))
    e = [[F(int(i == j)) for j in range(len(rows))] for i in range(len(rows))]
    if rows:
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        e[i][j] = draw(rationals.filter(lambda c: c != 0))
    return Matrix(rows, cols), Matrix(e, len(rows))


@PROPERTIES
@given(matrices_and_row_operations())
def test_rank_nullity_and_rref_invariance_property(case):
    m, e = case
    rank, ker = rank_kernel(m)
    assert rank + ker.dim == m.cols
    assert all(not any(dense_apply(m, v)) for v in ker.basis_rows())
    assert (e * m).rref() == m.rref()


def gauss_jordan(m):
    """Reference: column-by-column Gauss-Jordan elimination with row swaps."""
    rows = [list(row) for row in m.entries]
    pivots, r = [], 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(rows, m.cols), tuple(pivots)


@st.composite
def rref_cases(draw):
    """A matrix with 0-7 rows and 1-4 columns, so often taller than wide, whose
    rows combine at most `cols` drawn generators with coefficients that are
    often 0, so its rank is often below both of its sides."""
    cols = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[rationals] * cols), min_size=1, max_size=cols))
    coeff = st.one_of(st.just(F(0)), rationals)
    rows = draw(st.lists(st.tuples(*[coeff] * len(gens)), max_size=7))
    return Matrix([combine(c, gens, cols) for c in rows], cols)


@PROPERTIES
@given(rref_cases())
@example(Matrix([], 3))
@example(Matrix([[1, 2], [3, 4], [5, 6]]))
@example(Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 0], [1, 0, 1]]))
def test_rref_matches_gauss_jordan_property(m):
    assert m.rref() == gauss_jordan(m)
