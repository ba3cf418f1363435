import random
import sys
import time
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

from orbitkit import liealg, polarization, polynomials, qi_roots, reductive, structure
from orbitkit.liealg import Covector, LieAlgebra, bracket_span, orbit_dim, validate
from orbitkit.catalog import InputError, parse_algebra
from orbitkit.linalg import (
    Subspace,
    annihilator,
    basis_vector,
    combine,
    invariant_closure,
    rank_kernel,
    solve,
    vec_dot,
    vec_sub,
)
from orbitkit.mackey import little_group_step, verify_step_relations
from orbitkit.polynomials import charpoly, deg, derivative, mul, poly, to_string
from orbitkit.qi_roots import qi_factors
from orbitkit.reductive import (
    covector_to_element,
    element_coords,
    element_matrix,
    element_to_covector,
    grade,
    hyperbolic_part,
    matrix_lie_algebra,
    parabolic_report,
)
from conftest import (
    algebra_from_rep,
    matmul,
    rand_vec,
    reference_grading,
    sl_rep,
    subalgebra_orbit_dim,
    sympy_supported,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)


@pytest.fixture(scope="module")
def sl3(entries):
    return matrix_lie_algebra(entries["sl3"].algebra)


def _diag(values):
    n = len(values)
    return tuple(tuple(v if i == j else 0 for j in range(n)) for i, v in enumerate(values))


def _trace_of_product(a, b):
    return sum(row[i] for i, row in enumerate(matmul(a, b)))


# two diagonal elements of sl3 and a non-semisimple one
SL3_MATRICES = (_diag((1, 0, -1)), _diag((2, -1, -1)), ((1, 1, 0), (0, 0, 0), (0, 0, -1)))


def hyperbolic(malg, x):
    """x_h's coordinates and eigenvalues, as `parabolic_report` passes them to `grade`."""
    xh, eigenvalues = hyperbolic_part(element_matrix(malg, x))
    return element_coords(malg, xh), eigenvalues


def rational_eigenvalues(m):
    """The rational roots of charpoly(m), by the linear factors `qi_factors` finds."""
    return [-f[0] for f in qi_factors(charpoly(m))[0] if deg(f) == 1]


def _u(block):
    """u, the sum of the positive eigenspaces of a `parabolic` block's grading."""
    n = block["q_basis"].ambient_dim
    return Subspace(n, [r for a, space in block["grading"].items() if F(a) > 0
                        for r in space.rows])


def test_grade_at_a_large_diagonal_element(sl3):
    a = (F(10**6), F(3, 7), -F(10**6) - F(3, 7))
    grading = grade(sl3, element_coords(sl3, _diag(a)), a)
    want = sorted({ai - aj for ai in a for aj in a})
    assert list(grading) == want
    assert grading.get(F(0)).dim == 2                  # the Cartan subalgebra
    assert all(grading.get(F(e)).dim == 1 for e in want if e != 0)


def test_grade_refuses_coordinates_of_the_wrong_length(sl3):
    with pytest.raises(ValueError, match="length 1 for an algebra of dimension 8"):
        grade(sl3, (1,), ())


def test_parabolic_report_refuses_coordinates_of_the_wrong_length(sl3):
    with pytest.raises(ValueError, match="length 2 for an algebra of dimension 8"):
        parabolic_report(sl3, (1, 0))


def test_grade_refuses_a_nondiagonalizable_ad(sl3):
    """e12 is nilpotent, so it is no x_h: at its one eigenvalue, 0, ad(e12) has a
    kernel short of g, and `grade` refuses with a plain ValueError, not a spectrum's."""
    e12 = element_coords(sl3, ((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError) as got:
        grade(sl3, e12, (0,))
    assert (got.type, str(got.value)) == (ValueError, (
        "the eigenspaces of ad(x_h) at the differences of its given eigenvalues do not sum "
        "to the algebra"))
    assert reference_grading(sl3, e12) is None


def test_grade_keeps_0_when_x_h_has_no_rational_eigenvalue():
    """A central element with eigenvalues +-i, none rational: with no eigenvalue
    given, 0 is still a candidate."""
    malg = matrix_lie_algebra(algebra_from_rep("so2", ("j",), [[[0, -1], [1, 0]]]))
    grading = grade(malg, (1,), ())
    assert tuple(grading) == (0,) and grading.get(F(0)).dim == 1
    assert grading == reference_grading(malg, (1,))


def test_grade_matches_the_reference_route_on_the_catalog(entries):
    """On the hyperbolic parts of seeded elements of every catalog entry with a
    matrix representation.  `grade` reads no trace form, so a degenerate one is
    taken as it is."""
    rng = random.Random(35)
    with_rep = {name for name, entry in entries.items() if entry.algebra.matrix_rep}
    graded = set()
    for name in sorted(with_rep):
        alg = entries[name].algebra
        rep = alg.matrix_rep
        malg = reductive.MatrixLieAlgebra(alg, tuple(tuple(_trace_of_product(a, b) for b in rep)
                                                     for a in rep))
        elements = [basis_vector(alg.dim, i) for i in range(alg.dim)]
        elements += [rand_vec(rng, alg.dim, lo=-3, hi=3, max_den=2) for _ in range(10)]
        for x in elements:
            try:
                xh, eigenvalues = hyperbolic(malg, x)
            except InputError:
                continue
            assert grade(malg, xh, eigenvalues) == reference_grading(malg, xh), (name, x)
            graded.add(name)
    assert graded == with_rep and len(with_rep) == 7


# -- trace pairings read off the Gram matrix ----------------------------------


@pytest.mark.parametrize("name", ["sl2", "sl3", "so31"])
def test_trace_pairings_match_the_product_forms(entries, rng, name):
    malg = matrix_lie_algebra(entries[name].algebra)
    rep = malg.rep
    assert malg.trace_gram == tuple(tuple(_trace_of_product(ri, rj) for rj in rep) for ri in rep)
    for _ in range(6):
        x = rand_vec(rng, malg.dim)
        cov = element_to_covector(malg, x)
        xmat = element_matrix(malg, x)
        assert cov.coords == tuple(_trace_of_product(xmat, r) for r in rep)
        assert covector_to_element(malg, cov) == x
        assert element_coords(malg, xmat) == x


def test_element_to_covector_refuses_coordinates_of_the_wrong_length(sl3):
    for coords in ((1, 2), tuple(range(11))):
        with pytest.raises(ValueError,
                           match=f"length {len(coords)} for an algebra of dimension 8"):
            element_to_covector(sl3, coords)


def test_element_coords_refuses_a_matrix_outside_the_algebra(sl3):
    with pytest.raises(ValueError, match="does not lie in the algebra"):
        element_coords(sl3, _diag((1, 1, 1)))


def test_trace_pairings_multiply_no_matrices(entries, sl3, monkeypatch):
    """The trace pairings and the step-2 relations read the Gram matrix and
    the covector; only the hyperbolic part that `parabolic_report` calls still
    multiplies matrices, in `polynomials.eval_matrix`, the package's one product
    (the grading shifts the diagonal of ad(x_h))."""
    real_eval = polynomials.eval_matrix
    permitted, products = [], []

    def guarded(p, m):
        if not permitted:
            raise AssertionError("dense matrix product")
        products.append(permitted[-1])
        return real_eval(p, m)

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
    x = element_coords(sl3, ((1, 1, 0), (0, 0, 0), (0, 0, -1)))
    for mod in (polynomials, reductive):
        monkeypatch.setattr(mod, "eval_matrix", guarded)
    monkeypatch.setattr(reductive, "hyperbolic_part", permit(reductive.hyperbolic_part))

    assert matrix_lie_algebra(sl3.algebra).trace_gram == sl3.trace_gram
    element_to_covector(sl3, range(1, 9))
    assert verify_step_relations(data)["exp_linear"]
    rep = parabolic_report(sl3, x)["parabolic"]
    assert rep["u_dim"] > 0
    assert rep["relations"]["trace_blocks"] and rep["relations"]["levi_pairing_zero"]
    assert products and set(products) == {hyperbolic_part}


def fixed_point_hull(alg, start, u):
    """Reference: add [z, hull] for every basis row z of u until nothing changes."""
    hull = start
    while True:
        grown = hull
        for z in u.rows:
            grown = grown.add(Subspace(alg.dim, [alg.bracket(z, w) for w in hull.rows]))
        if grown == hull:
            return hull
        hull = grown


def trace_annihilator(malg, q):
    """ann(q) under the trace form, read off the products: the Y with
    tr(M(Y) M(z)) = 0 for every row z of q."""
    mats = [element_matrix(malg, basis_vector(malg.dim, i)) for i in range(malg.dim)]
    return annihilator(Subspace(malg.dim, [[_trace_of_product(m, element_matrix(malg, z))
                                            for m in mats] for z in q.rows]))


def ad_closure(alg, start, u):
    """The ad(u)-closure of start, by the worklist `parabolic_report` runs."""
    return invariant_closure(alg.dim, start.rows,
                             lambda w: (alg.bracket_exact(z, w) for z in u.rows))


def test_parabolic_hull_matches_the_fixed_point(entries, sl3):
    """The ad(u)-closure of the report's [x, u] rows is the fixed point, and it is
    ann(q), as the report's `hull_matches_annihilator` says."""
    sl2 = matrix_lie_algebra(entries["sl2"].algebra)
    cases = [(sl2, (1, 0, 0)), (sl2, (0, 1, 0))]
    cases += [(sl3, element_coords(sl3, m)) for m in SL3_MATRICES]
    for malg, x in cases:
        rep = parabolic_report(malg, x)["parabolic"]
        alg, u = malg.algebra, _u(rep)
        start = Subspace(alg.dim, [alg.bracket(z, rep["x"]) for z in u.rows])
        hull = ad_closure(alg, start, u)
        assert hull == fixed_point_hull(alg, start, u)
        assert hull == trace_annihilator(malg, rep["q_basis"])
        assert rep["relations"]["hull_matches_annihilator"]


# -- the two relations `parabolic_report` reads off its other checks ------------


def upper_triangular(rng, size):
    """A traceless upper-triangular matrix: diagonal in [-2, 2], so eigenvalues
    repeat at some draws, and entries above it in [-3, 3]."""
    diag = [F(rng.randint(-2, 2)) for _ in range(size - 1)]
    diag.append(-sum(diag))
    return tuple(tuple(diag[i] if i == j else (F(rng.randint(-3, 3)) if i < j else 0)
                       for j in range(size)) for i in range(size))


def relation_inputs(entries, sl4, seed):
    """(algebra, x, the grading by x_h) for each x with a supported spectrum among
    the basis, the catalog covectors' duals and seeded elements of sl2, sl3 and
    so(3,1), and seeded upper-triangular elements of sl3 and sl4."""
    rng = random.Random(seed)
    inputs = []
    for name in ("sl2", "sl3", "so31"):
        malg = matrix_lie_algebra(entries[name].algebra)
        n = malg.dim
        inputs += [(malg, basis_vector(n, i)) for i in range(n)]
        inputs += [(malg, covector_to_element(malg, Covector(malg.algebra, c)))
                   for c in entries[name].covectors.values()]
        inputs += [(malg, rand_vec(rng, n, lo=-3, hi=3, max_den=2)) for _ in range(6)]
        if name == "sl3":
            inputs += [(malg, element_coords(malg, upper_triangular(rng, 3))) for _ in range(6)]
    inputs += [(sl4, element_coords(sl4, upper_triangular(rng, 4))) for _ in range(6)]
    for malg, x in inputs:
        try:
            xh, eigenvalues = hyperbolic(malg, x)
        except InputError:
            continue
        yield malg, x, grade(malg, xh, eigenvalues)


def trace_pairing(gram, a_rows, b_rows):
    return [[vec_dot(combine(ra, gram, len(gram)), rb) for rb in b_rows] for ra in a_rows]


def square_rank_verdict(gram, grading):
    """The trace-block check the report ran before: tr(g^a g^b) = 0 unless a + b = 0,
    and every (a, -a) block square and of full rank."""
    for a, space in grading.items():
        for b, other in grading.items():
            pairing = trace_pairing(gram, space.rows, other.rows)
            if a + b != 0:
                if any(map(any, pairing)):
                    return False
            elif space.dim != other.dim or rank_kernel(pairing, other.dim)[0] != space.dim:
                return False
    return True


def zero_pattern_verdict(gram, grading):
    return all(not any(map(any, trace_pairing(gram, space.rows, other.rows)))
               for a, space in grading.items() for b, other in grading.items() if a + b)


@pytest.mark.parametrize("seed", range(2))
def test_the_trace_block_ranks_follow_from_the_zero_pattern(entries, sl4, seed):
    """On a grading that is a basis and any nondegenerate symmetric Gram, the (a, -a)
    blocks are square and nonsingular once every other block vanishes: the old
    verdict and the zero pattern agree, on the true Gram, where both hold and the
    report says so, and on Grams with one symmetric pair of entries moved."""
    rng = random.Random(100 + seed)
    verdicts = set()
    for malg, x, grading in relation_inputs(entries, sl4, seed):
        gram = malg.trace_gram
        assert square_rank_verdict(gram, grading) and zero_pattern_verdict(gram, grading)
        assert parabolic_report(malg, x)["parabolic"]["relations"]["trace_blocks"], x
        n = malg.dim
        i, j = rng.randrange(n), rng.randrange(n)
        moved = [list(row) for row in gram]
        moved[i][j] += 1
        if i != j:
            moved[j][i] += 1
        if rank_kernel(moved, n)[0] == n:
            verdict = square_rank_verdict(moved, grading)
            assert verdict == zero_pattern_verdict(moved, grading), (x, i, j)
            verdicts.add(verdict)
    assert verdicts == {False, True}


@pytest.mark.parametrize("seed", range(2))
def test_the_trace_annihilator_of_q_is_ad_u_invariant(entries, sl4, seed):
    """tr([W, Y]Z) = tr(Y[Z, W]) = 0 for W in u, Y in ann(q) and Z in q, q being a
    subalgebra; so whenever [x, u] = ann(q), its ad(u)-closure is ann(q) too, and the
    report's `hull_matches_annihilator` is that equality."""
    images = 0
    for malg, x, grading in relation_inputs(entries, sl4, seed):
        alg, n = malg.algebra, malg.dim
        u = Subspace(n, [r for a, space in grading.items() if a > 0 for r in space.rows])
        q = grading.get(F(0), Subspace.zero(n)).add(u)
        ann_q = trace_annihilator(malg, q)
        assert all(ann_q.contains(alg.bracket(z, y)) for z in u.rows for y in ann_q.rows)
        moved = Subspace(n, [alg.bracket(z, x) for z in u.rows])
        hull = ad_closure(alg, moved, u)
        if moved == ann_q:
            assert hull == ann_q, x
            images += 1
        relations = parabolic_report(malg, x)["parabolic"]["relations"]
        assert relations["hull_matches_annihilator"] == (hull == ann_q), x
    assert images > 30


@pytest.mark.parametrize("name", ["sl2", "sl3", "so31"])
def test_the_parabolic_relations_hold_on_seeded_supported_elements(entries, name):
    """x commutes with its hyperbolic part x_h, a polynomial in x, so ad x keeps each
    g^a and has eigenvalues of real part a there; hence:
    g_x <= g^0 (stabilizer_in_g0);
    [u, x] = u, ad x being invertible on each g^a with a > 0 (ad_x_bijective_on_u);
    tr(g^a g^b) = 0 unless a + b = 0, by the ad(x_h)-invariance of the trace form, and
    g^a x g^-a is nondegenerate, as the whole form is (trace_blocks);
    so ann(q) = u = [u, x] (image_is_annihilator), the ad(u)-closure of u is u
    (hull_matches_annihilator) and tr(x u) = 0 as x is in g^0 (levi_pairing_zero);
    and q^f = ann[x, q] <= ann(u) = q with g_x <= q, so dim G.x = 2 codim q + the rank
    of f on q (dimensions.consistent)."""
    malg = matrix_lie_algebra(entries[name].algebra)
    supported = 0
    for seed in range(100):
        rng = random.Random(seed)
        x = [rng.randint(-3, 3) for _ in range(malg.dim)]
        try:
            rep = parabolic_report(malg, x)
        except InputError:
            continue
        assert rep["ok"], (name, x)
        supported += 1
    assert supported >= 5


def test_parabolic_dim_y_matches_the_subalgebra_route(sl3):
    for m in SL3_MATRICES:
        rep = parabolic_report(sl3, element_coords(sl3, m))["parabolic"]
        cov = element_to_covector(sl3, rep["x"])
        dims = rep["dimensions"]
        assert dims["dim_y"] == orbit_dim(sl3.algebra, cov, rep["q_basis"])
        assert dims["dim_y"] == subalgebra_orbit_dim(sl3.algebra, cov, rep["q_basis"])
        assert dims["consistent"]


# -- the elliptic branch: spectra in Q(i) --------------------------------------


def sympy_hyperbolic(x):
    """Reference: x_h of a matrix x whose spectrum lies in Q(i), from sympy's
    Jordan form x = P J P^-1: x_h = P Re(diag J) P^-1."""
    import sympy

    m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                      for row in x])
    p, j = m.jordan_form()
    re_d = sympy.diag(*[sympy.re(j[i, i]) for i in range(j.rows)])
    xh = (p * re_d * p.inv()).applyfunc(sympy.simplify)
    assert all(e.is_Rational for e in xh)
    return tuple(tuple(F(int(e.p), int(e.q)) for e in xh.row(i)) for i in range(xh.rows))


def test_rotation_scaling_splits_into_identity_and_rotation():
    s = ((1, -1), (1, 1))   # 1 +- i
    xh, eigenvalues = hyperbolic_part(s)
    assert xh == _diag((1, 1)) and eigenvalues == [1]
    assert tuple(map(vec_sub, s, xh)) == ((0, -1), (1, 0))
    assert xh == sympy_hyperbolic(s)


def test_a_rotation_is_elliptic():
    assert hyperbolic_part(((0, -1), (1, 0))) == (((0, 0), (0, 0)), [0])


def _inverse(u):
    n = len(u)
    cols = [solve(u, [1 if i == j else 0 for i in range(n)], n) for j in range(n)]
    return tuple(zip(*cols))


def _unimodular(rng, n):
    u = _diag((1,) * n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        e = [[1 if a == b else (rng.randint(-3, 3) if (a, b) == (i, j) else 0)
              for b in range(n)] for a in range(n)]
        u = matmul(e, u)
    return u


def _conjugate(u, d, u_inv):
    return matmul(matmul(u, d), u_inv)


def test_a_conjugated_gaussian_spectrum_matches_the_sympy_diagonalization():
    # spectrum {2, -3, 1 +- 2i}, conjugated by a unimodular integer matrix
    d = ((2, 0, 0, 0), (0, -3, 0, 0), (0, 0, 1, -2), (0, 0, 2, 1))
    u = _unimodular(random.Random(7), 4)
    u_inv = _inverse(u)
    assert matmul(u, u_inv) == _diag((1,) * 4)
    s = _conjugate(u, d, u_inv)
    xh, eigenvalues = hyperbolic_part(s)
    assert sorted(eigenvalues) == [-3, 1, 2]
    xe = tuple(map(vec_sub, s, xh))
    assert xh == _conjugate(u, _diag((2, -3, 1, 1)), u_inv)
    assert matmul(xh, xe) == matmul(xe, xh)
    assert xh == sympy_hyperbolic(s)


def real_jordan_block(rng, gaussian, size):
    """A real Jordan block of one eigenvalue, or one conjugate pair, taken `size`
    times, with the diagonal of its x_h, which is diagonal.

    Rational: a on the diagonal and 1 above it, so x_h = a I.  Gaussian: the
    rotation-scaling block [[a, -b], [b, a]] (eigenvalues a +- b i) on the
    diagonal and I_2 above it, so x_h = a I again."""
    a = F(rng.randint(-5, 5), rng.randint(1, 3))
    if not gaussian:
        return ([[a if i == j else (1 if j == i + 1 else 0) for j in range(size)]
                 for i in range(size)], [a] * size)
    b = F(rng.randint(1, 4), rng.randint(1, 2))
    n = 2 * size
    rows = [[0] * n for _ in range(n)]
    for k in range(size):
        i = 2 * k
        rows[i][i], rows[i][i + 1], rows[i + 1][i], rows[i + 1][i + 1] = a, -b, b, a
        if k + 1 < size:
            rows[i][i + 2] = rows[i + 1][i + 3] = 1
    return rows, [a] * n


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
@pytest.mark.parametrize("seed", range(4))
def test_hyperbolic_part_of_a_conjugated_real_jordan_form(gaussian, seed):
    """A nilpotent part on a rational or a Gaussian block, beside one or two
    semisimple blocks, conjugated by a unimodular integer matrix u: x_h is
    u Re(diag) u^-1, and sympy's Jordan form gives the same."""
    rng = random.Random(seed)
    blocks = [real_jordan_block(rng, gaussian, 2 if gaussian else rng.randint(2, 3))]
    while (size := sum(len(b) for b, _ in blocks)) < 5:   # a 5 x 5 matrix in all
        blocks.append(real_jordan_block(rng, size <= 3 and rng.random() < 0.5, 1))
    rng.shuffle(blocks)
    d = block_diagonal([b for b, _ in blocks])
    n = len(d)
    reals = [a for _, parts in blocks for a in parts]
    u = _unimodular(rng, n)
    u_inv = _inverse(u)
    x = _conjugate(u, d, u_inv)
    xh, eigenvalues = hyperbolic_part(x)
    assert sorted(set(eigenvalues)) == sorted(set(reals))
    assert xh == _conjugate(u, _diag(reals), u_inv)
    assert matmul(xh, x) == matmul(x, xh)
    assert xh == sympy_hyperbolic(x)


def _companion(f):
    """The companion matrix of the monic polynomial f (coefficients lowest first)."""
    n = len(f) - 1
    return tuple(tuple((1 if i == j + 1 else 0) if j < n - 1 else -f[i] for j in range(n))
                 for i in range(n))


def assert_names_sympys_unsupported_part(mu, err):
    """The factor the refusal names against sympy's factorization of the minimal
    polynomial mu: at degree <= 3 it is sympy's one unsupported factor, above that
    their product, refused as having no root in Q(i)."""
    _, unsupported = sympy_supported(mu)
    factor = reduce(mul, unsupported, poly([1]))
    assert str(err).startswith(f"unsupported spectrum: factor {to_string(factor)} (")
    if deg(factor) <= 3:
        assert len(unsupported) == 1
    else:
        assert str(err).endswith(" (no root in Q(i))")


def _no_projector(*_):
    raise AssertionError("a projector was built before the refusal")


def assert_refused_beside_a_gaussian_block(coeffs, reason):
    """The companion block of coeffs beside a supported block 1 +- i, which
    qi_factors does find, is refused with `reason` before the projector of
    the 1 +- i block is built."""
    c = _companion(coeffs)
    n = len(c)
    s = [list(row) + [0, 0] for row in c] + [[0] * n + [1, -1], [0] * n + [1, 1]]
    with pytest.MonkeyPatch.context() as mp, pytest.raises(InputError) as got:
        mp.setattr(reductive, "invert_mod", _no_projector)
        hyperbolic_part(s)
    assert str(got.value) == f"unsupported spectrum: {reason}"
    assert_names_sympys_unsupported_part(mul(poly(coeffs), poly([2, -2, 1])), got.value)


@pytest.mark.parametrize("coeffs,reason", [
    ((-9, -5, 0, 1), "factor x^3 - 5*x - 9 (irreducible factor of degree 3)"),
    ((-2, 0, 1), "factor x^2 - 2 (irrational real eigenvalues)"),
    ((2, 0, 1), "factor x^2 + 2 (imaginary part is irrational)"),
])
def test_unsupported_spectra_keep_the_sympy_error_text(coeffs, reason):
    # the texts the package gave when sympy named the factor
    assert_refused_beside_a_gaussian_block(coeffs, reason)


@pytest.mark.parametrize("coeffs,reason", [
    ((6, 0, -5, 0, 1), "factor x^4 - 5*x^2 + 6 (no root in Q(i))"),   # (x^2 - 2)(x^2 - 3)
    ((1, 0, 0, 0, 1), "factor x^4 + 1 (no root in Q(i))"),
])
def test_a_cofactor_of_degree_4_is_refused_whole(coeffs, reason):
    assert_refused_beside_a_gaussian_block(coeffs, reason)


def test_a_refused_element_builds_no_projector(sl3, monkeypatch):
    """h1 + h2/2 + 2 e23 + e32 is diag(1) beside a block with eigenvalues
    -1/2 +- sqrt(2): the cofactor is refused before the projector of x - 1."""
    monkeypatch.setattr(reductive, "invert_mod", _no_projector)
    with pytest.raises(InputError) as got:
        parabolic_report(sl3, [1, F(1, 2), 0, 0, 0, 0, 2, 1])
    assert str(got.value) == ("unsupported spectrum: factor x^2 + x - 7/4 "
                              "(irrational real eigenvalues)")


# irreducible over Q with no root in Q(i), of degrees 2, 3 and 4
OUTSIDE_QI = [poly(c) for c in ((-2, 0, 1), (-3, 0, 1), (2, 0, 1), (1, 1, 1), (-1, -1, 1),
                                (-9, -5, 0, 1), (-2, 0, 0, 1), (1, 0, 0, 0, 1), (-2, 0, 0, 0, 1))]


def mixed_spectrum(rng):
    """A squarefree product of one to three linear factors, up to two Gaussian
    quadratics (x - a)^2 + b^2 and up to two distinct factors from OUTSIDE_QI."""
    roots = {F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))}
    factors = [poly([-a, 1]) for a in roots]
    gaussians = {(F(rng.randint(-5, 5), rng.randint(1, 3)),
                  F(rng.randint(1, 5), rng.randint(1, 3))) for _ in range(rng.randint(0, 2))}
    factors += [poly([a * a + b * b, -2 * a, 1]) for a, b in gaussians]
    factors += rng.sample(OUTSIDE_QI, rng.randint(0, 2))
    rng.shuffle(factors)
    return reduce(mul, factors, poly([1]))


@pytest.mark.parametrize("seed", range(30))
def test_the_split_refuses_exactly_the_spectra_sympy_finds_outside_qi(seed):
    mu = mixed_spectrum(random.Random(seed))
    s = _companion(mu)
    _, unsupported = sympy_supported(mu)
    try:
        xh = hyperbolic_part(s)[0]
    except InputError as err:
        assert unsupported
        assert_names_sympys_unsupported_part(mu, err)
    else:
        assert not unsupported
        xe = tuple(map(vec_sub, s, xh))
        assert matmul(xh, xe) == matmul(xe, xh)


# -- bounded time at large heights ---------------------------------------------


def test_grade_at_a_diagonal_of_height_10_12(sl3):
    a = (F(10**12), F(-10**12 + 7, 3), F(-2 * 10**12 - 7, 3))
    xh = element_coords(sl3, _diag(a))
    start = time.perf_counter()
    grading = grade(sl3, xh, a)
    assert time.perf_counter() - start < 2
    assert list(grading) == sorted({ai - aj for ai in a for aj in a})


@pytest.fixture(scope="module")
def sl4():
    return matrix_lie_algebra(algebra_from_rep("sl4", *sl_rep(4)))


def test_parabolic_report_on_sl4_at_height_10_9(sl4):
    rng = random.Random(11)
    diag = [F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(3)]
    diag.append(-sum(diag))
    x = [[diag[i] if i == j else (F(rng.randint(-10**9, 10**9)) if i < j else 0)
          for j in range(4)] for i in range(4)]
    x = element_coords(sl4, x)
    start = time.perf_counter()
    rep = parabolic_report(sl4, x)
    assert time.perf_counter() - start < 2
    assert rep["ok"]
    rep = rep["parabolic"]
    assert len(rep["grading"]) == 13               # distinct a_i - a_j, and 0
    assert rep["u_dim"] == 6 and rep["q_dim"] == 9  # a Borel subalgebra


# -- the grading law [g^a, g^b] <= g^{a+b}, read off the bracket spans -----------


def span_grading_holds(alg, spaces):
    """[g^a, g^b] <= g^{a+b}, by one bracket span per ordered pair of eigenvalues."""
    zero = Subspace.zero(alg.dim)
    return all(spaces.get(a + b, zero).contains_subspace(bracket_span(alg, spaces[a], spaces[b]))
               for a in spaces for b in spaces)


def test_the_grading_law_holds_on_the_catalog(entries, rng):
    checked = 0
    for name in ("sl2", "sl3", "so31"):
        malg = matrix_lie_algebra(entries[name].algebra)
        n = malg.dim
        elements = [basis_vector(n, i) for i in range(n)]
        elements += [covector_to_element(malg, Covector(malg.algebra, c))
                     for c in entries[name].covectors.values()]
        elements += [rand_vec(rng, n, lo=-2, hi=2, max_den=1) for _ in range(6)]
        for x in elements:
            try:
                graded = hyperbolic(malg, x)
            except InputError:
                continue
            for element, eigenvalues in (
                    (x, rational_eigenvalues(element_matrix(malg, x))), graded):
                try:
                    spaces = grade(malg, element, eigenvalues)
                except ValueError:
                    continue  # the eigenspaces do not sum to g
                assert span_grading_holds(malg.algebra, spaces)
                checked += 1
    assert checked > 20


def _parabolic_inputs(seed=workloads.DEFAULT_SEED):
    """The (algebra, element) pairs of the `parabolic` invocations of the benchmark."""
    wl = workloads.build("parabolic_polarize", seed)
    algebras = {}
    for inv in wl.round:
        if inv.args[0] == "parabolic":
            path, element = inv.args[1], inv.args[2]
            if path not in algebras:
                algebras[path] = matrix_lie_algebra(parse_algebra(wl.files[path]))
            yield algebras[path], [F(c) for c in element.split("=", 1)[1].split(",")]


def test_the_grading_law_holds_on_the_benchmark_inputs():
    inputs = list(_parabolic_inputs())
    assert len(inputs) == 17
    for malg, x in inputs:
        assert span_grading_holds(malg.algebra, grade(malg, *hyperbolic(malg, x)))


@pytest.mark.parametrize("seed", range(8))
def test_grade_matches_the_reference_route_on_the_benchmark_elements(seed):
    """The grading of every `parabolic` element of the benchmark at seeds 0-7 (136
    in all) is the one the eigenvalues of ad(x_h) give."""
    inputs = list(_parabolic_inputs(seed))
    assert len(inputs) == 17
    for malg, x in inputs:
        xh, eigenvalues = hyperbolic(malg, x)
        assert grade(malg, xh, eigenvalues) == reference_grading(malg, xh), x


def test_parabolic_report_takes_charpoly_only_of_the_representation(monkeypatch):
    """charpoly runs once, on x, of the representation's size (3 or 4 on the
    benchmark): never on x_h, whose eigenvalues come with it, nor on ad(x_h), of
    the algebra's size (8 or 15)."""
    shapes, real = [], reductive.charpoly
    monkeypatch.setattr(reductive, "charpoly",
                        lambda m: shapes.append((len(m), *{len(row) for row in m})) or real(m))
    inputs = list(_parabolic_inputs())
    assert len(inputs) == 17
    for malg, x in inputs:
        shapes.clear()
        parabolic_report(malg, x)
        size = len(malg.rep[0])
        assert shapes == [(size, size)], x


def test_parabolic_report_builds_ad_only_for_the_grading(monkeypatch):
    """One ad(x_h), in `grade`, per report on the benchmark elements: x's stabilizer
    is its centralizer, and no other step builds the matrix of an ad."""
    calls, real = [], liealg.ad_matrix
    for mod in (reductive, liealg):
        monkeypatch.setattr(mod, "ad_matrix", lambda *args: calls.append(args) or real(*args))
    inputs = list(_parabolic_inputs())
    assert len(inputs) == 17
    for malg, x in inputs:
        calls.clear()
        parabolic_report(malg, x)
        assert len(calls) == 1, x


def test_the_stabilizer_of_x_dual_is_its_centralizer(entries):
    """tr(x[Z, Y]) = tr([x, Z]Y) and the trace form is nondegenerate, so the
    stabilizer of f = tr(x .) is ker ad x, on the benchmark elements and on
    seeded elements of sl2, sl3 and so(3,1)."""
    rng = random.Random(11)
    inputs = list(_parabolic_inputs())
    for name in ("sl2", "sl3", "so31"):
        malg = matrix_lie_algebra(entries[name].algebra)
        inputs += [(malg, rand_vec(rng, malg.dim, -3, 3, 2)) for _ in range(8)]
    inputs.append((malg, [0] * malg.dim))
    for malg, x in inputs:
        alg = malg.algebra
        assert (liealg.stabilizer(alg, element_to_covector(malg, x))
                == polarization.centralizer(alg, Subspace(alg.dim, [x]))), x


def test_each_report_builds_one_matrix_for_x_and_one_for_x_h(monkeypatch):
    """`parabolic_report` builds x's representation matrix, for its hyperbolic
    part, which builds x_h's as a polynomial in it; nothing builds another."""
    callers, real = [], reductive.element_matrix

    def recorded(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(reductive, "element_matrix", recorded)
    inputs = list(_parabolic_inputs())
    assert len(inputs) == 17
    for malg, x in inputs:
        callers.clear()
        parabolic_report(malg, x)
        assert callers == ["parabolic_report"], x


def test_each_report_factors_one_spectrum(monkeypatch):
    """`qi_factors` runs once per report, on charpoly(x): `grade` reads x_h's
    eigenvalues off `hyperbolic_part` and factors nothing."""
    calls, real = [], reductive.qi_factors
    monkeypatch.setattr(reductive, "qi_factors", lambda chi: calls.append(chi) or real(chi))
    inputs = list(_parabolic_inputs())
    assert len(inputs) == 17
    for malg, x in inputs:
        calls.clear()
        parabolic_report(malg, x)
        assert calls == [charpoly(element_matrix(malg, x))], x


def test_a_hyperbolic_part_takes_one_gcd(monkeypatch):
    """The spectrum is decided once: `hyperbolic_part` takes one polynomial gcd,
    of charpoly(x) with its derivative, on the benchmark's elements and on
    spectra with repeated factors and factors outside Q(i)."""
    calls, real = [], polynomials.gcd
    for module in (polynomials, qi_roots, reductive):
        if getattr(module, "gcd", None) is real:
            monkeypatch.setattr(module, "gcd", lambda p, q: calls.append((p, q)) or real(p, q))
    rng = random.Random(0)
    spectra = [mixed_spectrum(rng) for _ in range(10)]
    matrices = [element_matrix(malg, x) for malg, x in _parabolic_inputs()]
    matrices += [_companion(mu) for mu in spectra] + [_companion(mul(mu, mu)) for mu in spectra]
    for m in matrices:
        calls.clear()
        try:
            hyperbolic_part(m)
        except InputError:
            pass
        chi = charpoly(m)
        assert calls == [(chi, derivative(chi))], m


def test_element_coords_refuses_a_matrix_of_another_shape(sl3):
    """The flattened diag(1, 0, -1) has the right entries but not the shape."""
    flat_diag = [1, 0, 0, 0, 0, 0, 0, 0, -1]
    for m, shape in (([flat_diag], "1x9"), ([[a] for a in flat_diag], "9x1"),
                     (_diag((1, 1)), "2x2")):
        shape = f"shape {shape} for a representation of size 3"
        with pytest.raises(ValueError, match=shape):
            element_coords(sl3, m)


def _report_or_error(malg, x):
    try:
        return parabolic_report(malg, x)
    except ValueError as err:
        return type(err), str(err)


def test_a_covector_gives_the_report_of_its_trace_dual(entries):
    """`parabolic --point` sends a covector, `--element` its trace dual's
    coordinates: the catalog covectors of sl2 and so(3,1) and seeded covectors
    of sl3 give the same report, or the same refusal, either way."""
    rng = random.Random(42)
    malgs = {name: matrix_lie_algebra(entries[name].algebra) for name in ("sl2", "sl3", "so31")}
    covs = [(name, c) for name in ("sl2", "so31") for c in entries[name].covectors.values()]
    covs += [("sl3", rand_vec(rng, 8, lo=-3, hi=3, max_den=2)) for _ in range(12)]
    outcomes = []
    for name, c in covs:
        malg = malgs[name]
        cov = Covector(malg.algebra, c)
        got = _report_or_error(malg, cov)
        assert got == _report_or_error(malg, covector_to_element(malg, cov)), (name, c)
        outcomes.append(isinstance(got, dict))
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("seed", range(8))
def test_hyperbolic_part_of_the_benchmark_elements_matches_sympy(seed):
    """Every `parabolic` element of the benchmark at seeds 0-7, against sympy's
    Jordan form; the benchmark compares stdout byte for byte only at seed 0."""
    inputs = list(_parabolic_inputs(seed))
    assert len(inputs) == 17
    for malg, x in inputs:
        xmat = element_matrix(malg, x)
        xh, eigenvalues = hyperbolic_part(xmat)
        assert xh == sympy_hyperbolic(xmat), x
        # the candidates `grade` took before: the rational roots of charpoly(x_h)
        assert sorted(set(eigenvalues)) == sorted(rational_eigenvalues(xh)), x


def forged(malg, i, j, k, delta):
    """malg with c[i][j][k] (and so c[j][i][k]) moved by delta, validation bypassed."""
    alg = malg.algebra
    brackets = {(a, b): dict(alg.nonzeros[a][b])
                for a in range(alg.dim) for b in range(a + 1, alg.dim)}
    brackets[(i, j)][k] = brackets[(i, j)].get(k, 0) + delta
    bent = LieAlgebra.from_brackets(alg.labels, brackets, alg.name, alg.matrix_rep)
    return reductive.MatrixLieAlgebra(bent, malg.trace_gram)


def test_grade_refuses_every_forged_algebra(entries):
    rng = random.Random(15)
    refused = 0
    # every structure constant of sl2, 40 of sl3's; the elements are the Cartan basis
    for name, samples, rank in (("sl2", 9, 1), ("sl3", 40, 2)):
        malg = matrix_lie_algebra(entries[name].algebra)
        n = malg.dim
        cells = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
        for i, j, k in rng.sample(cells, samples):
            bent = forged(malg, i, j, k, rng.choice((1, -1, F(1, 2))))
            for x in (basis_vector(n, c) for c in range(rank)):
                with pytest.raises(ValueError) as exc:
                    grade(bent, x, (0,))
                assert (exc.type, str(exc.value)) == (
                    ValueError, "algebra fails validation; see validate()")
                refused += 1
    assert refused == 9 + 40 * 2


def test_parabolic_report_grades_through_grade(monkeypatch):
    """The grading of each report is one call of `grade`, so the span that times
    `grade` sees its work."""
    real, calls = reductive.grade, []
    monkeypatch.setattr(reductive, "grade", lambda *args: calls.append(args) or real(*args))
    inputs = list(_parabolic_inputs())
    for malg, x in inputs:
        parabolic_report(malg, x)
    assert len(calls) == len(inputs) == 17


def test_grade_builds_no_bracket_span(sl3, monkeypatch):
    def refuse(*args):
        raise AssertionError("bracket span built")

    assert not hasattr(reductive, "bracket_span") and not hasattr(structure, "bracket_span")
    monkeypatch.setattr(liealg, "bracket_span", refuse)
    for m in SL3_MATRICES:
        assert parabolic_report(sl3, element_coords(sl3, m))["ok"]
