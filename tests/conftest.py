import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitkit.catalog import CatalogEntry, CatalogError, builtin_catalog, parse_entry
from orbitkit.liealg import (
    Covector,
    LieAlgebra,
    ad_matrix,
    bracket_span,
    flat,
    kks_pairing,
    krylov_hull,
)
from orbitkit.linalg import (
    Matrix,
    Subspace,
    basis_vector,
    combine,
    rank_kernel,
    solve,
    vec,
    vec_dot,
    vec_sub,
)
from orbitkit.polynomials import (
    charpoly,
    deg,
    derivative,
    divmod_poly,
    gcd,
    is_rational_square,
    monic,
    poly,
    scale,
    sign_variations,
    squarefree_part,
)
from orbitkit.polarization import pukanszky_polarization
from orbitkit.qi_roots import qi_factors
from orbitkit.structure import restrict, subquotient

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402  (perfbench/ is not a package)


# -- the built-in entries as Python builders, kept as a reference ----------------
# The package ships each built-in as a definition file in orbitkit/algebras; these
# builders are what the files are checked against, brackets from a matrix
# representation read off its commutators by `algebra_from_rep`.


def algebra_from_rep(name: str, labels, matrices) -> LieAlgebra:
    """Structure constants read off a faithful matrix representation by `solve`:
    the commutator of each pair of matrices, in the coordinates of the matrices
    (the columns of the system are the flattened matrices)."""
    mats = [Matrix(m) for m in matrices]
    columns = Matrix(list(zip(*map(flat, mats))), len(mats))
    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            coords = solve(columns, flat(mats[i] * mats[j] - mats[j] * mats[i]))
            if coords is None:
                raise CatalogError(f"{name}: commutator [{labels[i]},{labels[j]}] leaves the span")
            brackets[(i, j)] = dict(enumerate(coords))  # from_brackets drops the zeros
    return LieAlgebra.from_brackets(labels, brackets, name=name, matrix_rep=mats)


def _span(alg: LieAlgebra, indices) -> Subspace:
    return Subspace(alg.dim, [basis_vector(alg.dim, i) for i in indices])


def _heisenberg3() -> CatalogEntry:
    rep = [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    alg = algebra_from_rep("heisenberg3", ("e1", "e2", "e3"), rep)
    return CatalogEntry(
        "heisenberg3", alg,
        "Heisenberg algebra: [e1,e2]=e3, center spanned by e3.",
        covectors={"center_dual": (0, 0, 1), "x_dual": (1, 0, 0)},
        ideals={"center": _span(alg, [2]), "plane": _span(alg, [1, 2])},
        complements={"xy_plane": _span(alg, [0, 1])},
    )


def _filiform4() -> CatalogEntry:
    alg = LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"),
        {(0, 1): {2: 1}, (0, 2): {3: 1}},
        name="filiform4",
    )
    return CatalogEntry(
        "filiform4", alg,
        "Filiform nilpotent algebra n4: [e1,e2]=e3, [e1,e3]=e4.",
        covectors={"top_dual": (0, 0, 0, 1), "mixed": (0, 0, 1, 1)},
        ideals={"center": _span(alg, [3]), "derived": _span(alg, [2, 3]),
                "big_abelian": _span(alg, [1, 2, 3])},
    )


def _abelian3() -> CatalogEntry:
    alg = LieAlgebra.from_brackets(("a1", "a2", "a3"), {}, name="abelian3")
    return CatalogEntry("abelian3", alg, "Abelian Q^3.",
                        covectors={"generic": (1, 2, 3)})


def _affine_line() -> CatalogEntry:
    rep = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    alg = algebra_from_rep("affine_line", ("a", "b"), rep)
    return CatalogEntry(
        "affine_line", alg,
        "Affine algebra of the line: [a,b]=b; exponential but not nilpotent.",
        covectors={"b_dual": (0, 1)},
        ideals={"translations": _span(alg, [1])},
        complements={"dilation": _span(alg, [0])},
    )


def _euclid2() -> CatalogEntry:
    rep = [
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    ]
    alg = algebra_from_rep("euclid2", ("j", "p1", "p2"), rep)
    return CatalogEntry(
        "euclid2", alg,
        "Euclidean algebra e(2): rotation j against translations p1, p2.",
        covectors={"momentum": (0, 1, 0), "rotation_dual": (1, 0, 0)},
        ideals={"translations": _span(alg, [1, 2])},
        complements={"rotation": _span(alg, [0])},
    )


def _sl2() -> CatalogEntry:
    rep = [
        [[1, 0], [0, -1]],
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]],
    ]
    alg = algebra_from_rep("sl2", ("h", "e", "f"), rep)
    return CatalogEntry(
        "sl2", alg,
        "sl(2,Q) with standard basis h, e, f.",
        covectors={"hyperbolic_dual": (2, 0, 0), "nilpotent_dual": (0, 0, 1)},
    )


def _sl3() -> CatalogEntry:
    def unit(i, j):
        m = [[0] * 3 for _ in range(3)]
        m[i][j] = 1
        return m

    h1 = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    h2 = [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
    labels = ("h1", "h2", "e12", "e21", "e13", "e31", "e23", "e32")
    rep = [h1, h2, unit(0, 1), unit(1, 0), unit(0, 2), unit(2, 0), unit(1, 2), unit(2, 1)]
    alg = algebra_from_rep("sl3", labels, rep)
    return CatalogEntry(
        "sl3", alg,
        "sl(3,Q): Cartan h1, h2 plus the six root vectors.",
    )


_ETA = (1, -1, -1, -1)


def _lorentz_generators():
    # (M_ab) r_nu = eta_b delta_{b nu} e_a - eta_a delta_{a nu} e_b
    labels, mats = [], []
    for a in range(4):
        for b in range(a + 1, 4):
            m = [[0] * 4 for _ in range(4)]
            m[a][b] = _ETA[b]
            m[b][a] = -_ETA[a]
            labels.append(f"m{a}{b}")
            mats.append(m)
    return labels, mats


def _so31() -> CatalogEntry:
    labels, mats = _lorentz_generators()
    alg = algebra_from_rep("so31", tuple(labels), mats)
    return CatalogEntry(
        "so31", alg,
        "Lorentz algebra so(3,1) with metric diag(1,-1,-1,-1).",
        covectors={"boost_dual": (1, 0, 0, 0, 0, 0)},
    )


def _poincare() -> CatalogEntry:
    lor_labels, lor_mats = _lorentz_generators()
    labels = tuple(lor_labels) + ("p0", "p1", "p2", "p3")
    mats = []
    for m in lor_mats:
        big = [row + [0] for row in m] + [[0] * 5]
        mats.append(big)
    for a in range(4):
        big = [[0] * 5 for _ in range(5)]
        big[a][4] = 1
        mats.append(big)
    alg = algebra_from_rep("poincare", labels, mats)
    return CatalogEntry(
        "poincare", alg,
        "Poincare algebra so(3,1) |x R^{3,1}; translations p0..p3 form the abelian ideal.",
        covectors={
            "timelike": (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            "timelike_spinning": (0, 0, 0, 1, 0, 0, 1, 0, 0, 0),
            "lightlike": (0, 0, 0, 0, 0, 0, 1, 1, 0, 0),
            "spacelike": (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
            "zero_momentum": (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
        },
        ideals={"translations": _span(alg, range(6, 10))},
        complements={"lorentz": _span(alg, range(6))},
    )


BUILDERS = {
    "abelian3": _abelian3,
    "heisenberg3": _heisenberg3,
    "filiform4": _filiform4,
    "affine_line": _affine_line,
    "euclid2": _euclid2,
    "sl2": _sl2,
    "sl3": _sl3,
    "so31": _so31,
    "poincare": _poincare,
}


@pytest.fixture(scope="session")
def entries():
    return builtin_catalog()


def seeded_family_entries(seed=0):
    """The seeded h9, n5, L9, b4 and Poincare d=4, as catalog entries."""
    return [parse_entry(make(size, families.family_rng(seed, stem)).doc)
            for make, size, stem in ((families.heisenberg, 4, "h9"),
                                     (families.nilradical, 5, "n5"),
                                     (families.filiform, 9, "L9"),
                                     (families.borel, 4, "b4"),
                                     (families.poincare, 4, "poincare4"))]


@pytest.fixture(scope="session")
def descents(entries):
    """(entry, covector, trace) over the catalog and `seeded_family_entries`: each
    declared covector, two seeded ones and a seeded one with about half its entries 0,
    with the automatic descent's "trace" block at each (None where the ideal search
    is exhausted)."""
    rng = random.Random(26)
    out = []
    for entry in [*entries.values(), *seeded_family_entries()]:
        alg = entry.algebra
        sparse = [0 if rng.random() < 0.5 else rand_frac(rng, -5, 5, 3) for _ in range(alg.dim)]
        for coords in [*entry.covectors.values(), rand_vec(rng, alg.dim, -5, 5, 3),
                       rand_vec(rng, alg.dim, -5, 5, 3), sparse]:
            cov = Covector(alg, coords)
            result = pukanszky_polarization(alg, cov)
            assert "trace" in result or result["error"] == "strategy exhausted"
            out.append((entry, cov, result.get("trace")))
    return out


def dense_apply(m, v):
    """Reference matrix times column vector: one entrywise dot per row of m."""
    assert len(v) == m.cols
    return tuple(vec_dot(row, v) for row in m.entries)


# -- the dense structure tensor, kept as a reference ---------------------------
# An algebra is its sparse bracket table; these are the dense dim^3 forms the
# table replaced.


def dense_from_brackets(n, brackets):
    """The old construction: c[i][j][k] from a {(i, j): {k: coeff}} dict, i < j."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in brackets.items():
        for k, val in coeffs.items():
            c[i][j][k] = Fraction(val)
            c[j][i][k] = -Fraction(val)
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def dense_structure(alg):
    """c[i][j][k] of an algebra, read off its bracket table."""
    n = alg.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, plane in enumerate(alg.nonzeros):
        for j, entries in enumerate(plane):
            for k, x in entries:
                c[i][j][k] = x
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def table_of(tensor):
    """The bracket table of a dense tensor, taken as given (not made antisymmetric)."""
    return tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane)
                 for plane in tensor)


def dense_antisymmetry_failures(tensor):
    """The old triple loop of `validate`: every (i <= j, k) with c[i][j][k] != -c[j][i][k]."""
    n = len(tensor)
    return tuple((i, j, k) for i in range(n) for j in range(i, n) for k in range(n)
                 if tensor[i][j][k] != -tensor[j][i][k])


# -- the subalgebra route to a restricted orbit dimension, kept as a reference ---


def subalgebra_orbit_dim(alg, cov, sub):
    """The route `liealg.orbit_dim` replaced: build the subalgebra sub, restrict
    cov to it and take the rank of the restricted covector's pairing."""
    cov_sub = restrict(alg, cov, sub)
    return rank_kernel(kks_pairing(cov_sub.algebra, cov_sub))[0]


# -- the Krylov-hull route to the orbit annihilator, kept as a reference -----------


def hull_orbit_annihilator(alg, cov):
    """The route `polarization.orbit_annihilator` replaced for sub = g: the elements
    pairing to zero with cov and with its Krylov hull, the orbit's linear span."""
    return rank_kernel(Matrix([cov.coords, *krylov_hull(alg, cov).rows]))[1]


# -- the negation-gcd route to an imaginary root, kept as a reference ------------


def negation_gcd_has_imaginary_root(p):
    """Whether p has a nonzero purely imaginary root, by the route that
    `polarization._has_imaginary_eigenvalue` replaced: d = gcd(p(x), p(-x)) collects
    the roots symmetric under negation.  Writing d = x^k E(x^2), the nonzero imaginary
    pairs are the negative real roots of E, which a Sturm sequence counts as
    V(-inf) - V(0)."""
    d = gcd(p, poly([-a if i % 2 else a for i, a in enumerate(p)]))
    while not d[0]:
        d = d[1:]                   # strip the roots at 0
    assert not any(d[1::2])        # d(-x) = +-d(x), so the rest is even
    e = poly(d[::2])
    if deg(e) == 0:
        return False
    chain = [e, derivative(e)]
    while deg(chain[-1]) > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(scale(-1, rem))
    at_minus_inf = [c[-1] if deg(c) % 2 == 0 else -c[-1] for c in chain]
    return sign_variations(at_minus_inf) - sign_variations([c[0] for c in chain]) > 0


# -- the signature off the characteristic polynomial, kept as a reference ---------


def descartes_signature(m):
    """(positives, negatives, rank) of a symmetric matrix, by the route that
    `mackey.symmetric_signature` replaced: a symmetric spectrum is real, so
    Descartes' rule of signs is exact on chi = charpoly(m).  The sign variations
    of chi(x) and of chi(-x) count the positive and the negative eigenvalues with
    multiplicity, and, m being diagonalizable, its rank is their sum."""
    chi = charpoly(m)
    pos = sign_variations(chi)
    neg = sign_variations([-c if k % 2 else c for k, c in enumerate(chi)])  # chi(-x)
    return pos, neg, pos + neg


# -- the obstruction through a section into a given complement, kept as a reference --


def complement_obstruction(data, complement):
    """The `obstruction` block of little-group data through the section into
    `complement`, by the route `mackey.obstruction_step` offered before its section was always the
    canonical lifts: class k goes to row k of the echelon rows (class of v | v) over the
    complement's basis, (e_k | its element in class k).  A complement must lie in h_c
    and give pivots 0..m-1 (m = dim h_c/n_c), i.e. map one-to-one onto the quotient;
    else it is a ValueError."""
    alg, cov, h_c, n_c = data.algebra, data.covector, data.g_c, data.n_c
    if not h_c.contains_subspace(complement):
        raise ValueError("complement does not lie in h_c")
    quot = subquotient(alg, h_c, n_c)
    m = quot.algebra.dim
    # class coordinates: n_c.reduce(v) at the pivots of h_c that are not pivots of n_c
    columns = [p for p in h_c.pivots if p not in n_c.pivots]

    def project(v):
        rep = n_c.reduce(v)
        return tuple(rep[j] for j in columns)

    echelon = Subspace(m + alg.dim, [project(v) + v for v in complement.rows])
    if echelon.pivots != tuple(range(m)):
        raise ValueError("complement does not map one-to-one onto h_c/n_c")
    sec = [row[m:] for row in echelon.rows]
    f = [[Fraction(0)] * m for _ in range(m)]
    pair_rows, rhs = [], []
    for a in range(m):
        for b in range(a + 1, m):
            br = alg.bracket_exact(sec[a], sec[b])
            f[a][b] = cov.pair(vec_sub(br, combine(project(br), sec, alg.dim)))
            f[b][a] = -f[a][b]
            coeffs = dict(quot.algebra.nonzeros[a][b])
            pair_rows.append([coeffs.get(k, Fraction(0)) for k in range(m)])
            rhs.append(f[a][b])
    beta = solve(Matrix(pair_rows), rhs) if pair_rows else ()
    c_vanishes = all(cov.pair(row) == 0 for row in n_c.rows)
    j_dim = n_c.dim - (0 if c_vanishes else 1)
    return {"j_dim": j_dim, "extension_dims": (n_c.dim - j_dim, h_c.dim - j_dim, m),
            "c_vanishes_on_n_c": c_vanishes, "cocycle": Matrix(f, m),
            "trivial": beta is not None, "primitive": None if beta is None else tuple(beta),
            "level": "infinitesimal"}


# -- coordinates in a canonical basis -------------------------------------------


def coords_of(s, v):
    """Coordinates of v in the canonical basis of the subspace s, or None if outside.

    They are v's entries at the pivots.
    """
    v = vec(v)
    if not s.contains(v):
        return None
    return tuple(v[p] for p in s.pivots)


# -- sympy's factorization, kept as the reference for spectra in Q(i) ------------


def sympy_supported(mu):
    """Reference: sympy's monic irreducible factors of mu, split into the ones
    with roots in Q(i) (linear, or quadratic with a rational imaginary part)
    and the rest, by the classification of `reductive.hyperbolic_part`."""
    import sympy

    x = sympy.Symbol("x")
    spoly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(mu)],
                       x, domain="QQ")
    supported, unsupported = [], []
    for fac, _ in spoly.factor_list()[1]:
        f = monic(poly([Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]))
        ok = deg(f) == 1 or (deg(f) == 2 and f[1] ** 2 < 4 * f[0]
                             and is_rational_square(4 * f[0] - f[1] ** 2) is not None)
        (supported if ok else unsupported).append(f)
    return supported, unsupported


# -- the grading by charpoly(ad(x_h)), kept as the reference for `grade` ------------


def reference_grading(malg, xh):
    """The grading's former route, at x_h's coordinates: the candidate eigenvalues
    are the roots of the linear factors `qi_factors` finds in charpoly(ad(x_h)), of
    the algebra's degree, each keeping its kernel of ad(x_h) - c; the dict
    {eigenvalue: eigenspace}, or None when they do not sum to g."""
    n = malg.dim
    ad = ad_matrix(malg.algebra, vec(xh))
    eigs = [-f[0] for f in qi_factors(squarefree_part(charpoly(ad))) if deg(f) == 1]
    spaces = {}
    for a in sorted(eigs):
        _, ker = rank_kernel(ad - Matrix.identity(n).scale(a))
        if ker.dim:
            spaces[a] = ker
    if sum(s.dim for s in spaces.values()) != n:
        return None
    return spaces


def loop_ideal_closure(alg, sub):
    """Reference: add [g, S] to S until nothing changes."""
    full = Subspace.full(alg.dim)
    while True:
        grown = sub.add(bracket_span(alg, full, sub))
        if grown == sub:
            return sub
        sub = grown


def rand_frac(rng, lo=-9, hi=9, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_vec(rng, n, lo=-9, hi=9, max_den=4):
    return tuple(rand_frac(rng, lo, hi, max_den) for _ in range(n))


def rand_covector(alg, rng):
    return Covector(alg, rand_vec(rng, alg.dim))


@pytest.fixture
def rng():
    return random.Random(20240810)


def sl_rep(n):
    """Labels and matrices of sl_n: Cartan h_k = E_kk - E_{k+1,k+1}, then every E_ij, i != j."""
    def unit(i, j):
        return [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)]

    cartan = [[[1 if a == b == k else -1 if a == b == k + 1 else 0 for b in range(n)]
               for a in range(n)] for k in range(n - 1)]
    roots = [(i, j) for i in range(n) for j in range(n) if i != j]
    labels = [f"h{k + 1}" for k in range(n - 1)] + [f"e{i + 1}{j + 1}" for i, j in roots]
    return labels, cartan + [unit(i, j) for i, j in roots]


def strictly_upper(n):
    """n_n, basis E_ab (a < b): [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    brackets = {}
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if i < j:
                coeffs = {}
                if b == c:
                    coeffs[index[(a, d)]] = 1
                if d == a:
                    coeffs[index[(c, b)]] = -1
                if coeffs:
                    brackets[(i, j)] = coeffs
    labels = [f"E{a + 1}{b + 1}" for a, b in pairs]
    return LieAlgebra.from_brackets(labels, brackets, name=f"n{n}"), index


def n5_three_steps():
    """n5 and a covector at which the automatic descent takes three steps."""
    alg, _ = strictly_upper(5)
    return alg, Covector(alg, (Fraction(-1, 3), 7, Fraction(5, 2), -4, -2, 3, 3,
                               Fraction(9, 2), Fraction(-9, 2), Fraction(4, 3)))
