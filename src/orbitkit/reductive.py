"""Trace-form duality, the exact hyperbolic part, and parabolic data.

For a matrix Lie algebra with nondegenerate trace form, a dual element is
identified with a matrix x, its hyperbolic part x_h is computed exactly
over Q, and the positive part of the ad(x_h)-grading assembles the
parabolic q = g^0 (+) u.  x_h is restricted to spectra inside Q(i): every
irreducible factor of the characteristic polynomial must be linear, or
quadratic with negative discriminant whose imaginary part is rational.
Those factors are found p-adically by `qi_roots.qi_factors`, and the
cofactor they leave, which has no root in Q(i), names a refused spectrum:
at degree <= 3 it has no rational root, so it is the one irreducible
unsupported factor; above that it is named whole.

x_h is read off x's own spectral projectors.  With chi = charpoly(x) =
prod f_i^{m_i}, the projection onto the generalized eigenspace ker
f_i(x)^{m_i} is e_i(x), e_i = 1 mod f_i^{m_i} and 0 mod the other blocks
(Humphreys, *Introduction to Lie Algebras and Representation Theory*,
§4.2), and x_h = sum a_i e_i(x), a_i the real part of f_i's roots.  This is
the hyperbolic part of the semisimple part x_s of x = x_s + x_n: the
generalized eigenspaces of x are the eigenspaces of x_s, and charpoly(x) =
charpoly(x_s), so the factors, their real parts and the projectors are the
same.  x_s itself is never formed; everything stays in Q.

The grading of g by D = ad(x_h) is read off x_h's own spectrum.  On gl(V),
V the representation space, D is left minus right multiplication by x_h,
two commuting maps, so its eigenvalues are the differences a_i - a_j of
x_h's eigenvalues, E_ij being one for a_i - a_j when x_h is diagonal
(Humphreys, §4.2), and g is D-invariant.  So `grade` takes its candidates
from the a_i `hyperbolic_part` found, and factors no characteristic
polynomial, of the representation's degree or of the algebra's.  The
grading obeys [g^a, g^b] <= g^{a+b} because D is a derivation: for x in g^a
and y in g^b, D[x, y] = [Dx, y] + [x, Dy] = (a + b)[x, y] by the Jacobi
identity, which `validate` checks on the bracket table once per algebra.
So `grade` refuses an algebra that fails `validate` and proves nothing more
per element.

Trace pairings are read off the Gram matrix G[i][j] = tr(R_i R_j) of the
representation, built once without forming any product R_i R_j: for
elements a, b in algebra coordinates tr(M(a) M(b)) = a^T G b, so the dual
covector of x is G x, and the trace-block and Levi checks of the parabolic
report multiply no matrices.  G is symmetric, so G x is the row combination
x^T G, built by `combine` like every other matrix-vector product; the trace
annihilator of q is ann(G r : r in q), r over the eigenspace rows of g^a,
a >= 0, whose images the trace blocks pair too.  The report builds no ad(x).  It
takes x as algebra coordinates or a covector, and forms one representation
matrix, x's, whose hyperbolic part it takes.  x's centralizer is the
stabilizer of its dual covector f = tr(x .), the kernel of f's KKS pairing,
whose rank is dim O_x: f([Z, Y]) = tr(x[Z, Y]) = tr([x, Z]Y) for all Y, and
the trace form is nondegenerate on g (`matrix_lie_algebra` checks it), so
g_f = ker ad x.  One elimination gives both.  The stabilizer, the rank of f
on q and ad(x_h) come from `liealg` (`stabilizer`, `orbit_dim`,
`ad_matrix`), so a `parabolic` invocation compiles no `structure`.

`parabolic_command` is the `parabolic` handler: every `--element`, then
every `--point`, each reported in that order.
"""

from __future__ import annotations

from collections.abc import Sequence

from .catalog import CatalogEntry, InputError, parse_coords, parse_points
from .liealg import (
    Covector,
    LieAlgebra,
    ad_matrix,
    flat,
    orbit_dim,
    stabilizer,
    validate,
)
from .linalg import (
    Record,
    Subspace,
    ZERO,
    annihilator,
    combine,
    invariant_closure,
    rank_kernel,
    solve,
    vec_dot,
)
from .polynomials import (
    add,
    charpoly,
    deg,
    divmod_poly,
    eval_matrix,
    invert_mod,
    is_rational_square,
    monic,
    mul,
    poly,
    scale,
    squarefree_part,
    to_string,
)
from .qi_roots import qi_factors


class UnsupportedSpectrumError(ValueError):
    """Spectrum leaves Q(i); carries the offending factor, raised only by
    `hyperbolic_part`: irreducible at degree <= 3, and above that the whole
    part of the minimal polynomial with no root in Q(i).
    """

    def __init__(self, factor: tuple, reason: str):
        self.factor = factor
        self.reason = reason
        super().__init__(f"unsupported spectrum: factor {to_string(factor)} ({reason})")


class MatrixLieAlgebra(Record):
    algebra: LieAlgebra
    trace_gram: tuple  # the rows of G, G[i][j] = Tr(R_i R_j)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def rep(self) -> tuple:
        return self.algebra.matrix_rep


def matrix_lie_algebra(alg: LieAlgebra) -> MatrixLieAlgebra:
    """Wrap an algebra with a faithful representation and nondegenerate trace form."""
    if not alg.matrix_rep:  # None, or the empty representation of a 0-dimensional algebra
        raise ValueError("algebra carries no matrix representation")
    report = validate(alg)
    if not report["ok"]:
        raise ValueError("representation brackets do not match the structure constants"
                         if report["rep_failures"] else "algebra fails validation")
    n = alg.dim
    # tr(R_i R_j) = sum_kl R_i[k][l] R_j[l][k]: flattened R_i against flattened R_j^T
    flats = [flat(r) for r in alg.matrix_rep]
    flats_t = [flat(zip(*r)) for r in alg.matrix_rep]
    gram = tuple(tuple(vec_dot(a, b) for b in flats_t) for a in flats)
    if rank_kernel(gram, n)[0] != n:
        raise ValueError("degenerate trace form: dual space cannot be identified with the algebra")
    return MatrixLieAlgebra(alg, gram)


def element_matrix(malg: MatrixLieAlgebra, coords: Sequence) -> tuple:
    """The rows of the representation matrix of an element given by its coordinates."""
    size = len(malg.rep[0])
    entries = combine(malg.algebra.coords(coords), [flat(r) for r in malg.rep], size * size)
    return tuple(entries[i * size:(i + 1) * size] for i in range(size))


def element_coords(malg: MatrixLieAlgebra, m: Sequence[Sequence]) -> tuple:
    """Coordinates of a representation matrix, given by its rows, in the algebra
    basis: the solution of sum_k x_k flat(R_k) = flat(m), unique as the R_k are
    independent."""
    size = len(malg.rep[0])
    widths = {len(row) for row in m}
    if len(m) != size or widths != {size}:
        raise ValueError(f"matrix of shape {len(m)}x{max(widths, default=0)} "
                         f"for a representation of size {size}")
    coords = solve(tuple(zip(*map(flat, malg.rep))), flat(m), malg.dim)
    if coords is None:
        raise ValueError("matrix does not lie in the algebra")
    return coords


def element_to_covector(malg: MatrixLieAlgebra, coords: Sequence) -> Covector:
    """Trace-form dual of an algebra element: (G x)_j = tr(M(x) R_j), G symmetric."""
    return Covector(malg.algebra,
                    combine(malg.algebra.coords(coords), malg.trace_gram, malg.dim))


def covector_to_element(malg: MatrixLieAlgebra, cov: Covector) -> tuple:
    """Inverse of element_to_covector; exact solve against the Gram matrix."""
    sol = solve(malg.trace_gram, cov.coords, malg.dim)
    if sol is None:
        raise ValueError("trace form failed to invert (degenerate?)")
    return sol


def hyperbolic_part(x: Sequence[Sequence]) -> tuple[tuple, list]:
    """The hyperbolic part x_h of a square rational matrix, a polynomial in x,
    with x_h's eigenvalues; both matrices are given by their rows.

    x_h = h(x), where h = a_i mod f_i^{m_i} (Chinese remainder theorem) over
    chi = charpoly(x) = prod f_i^{m_i}: the f_i are the factors `qi_factors`
    finds in the squarefree part mu of chi, a_i is the rational real part of
    f_i's roots and m_i the multiplicity of f_i in chi; the module docstring
    says why this is the hyperbolic part of x's semisimple part.  The a_i,
    one per factor, are returned too: they are x_h's eigenvalues.

    The monic cofactor `rest` the factors leave in mu has no root in Q(i).
    At degree 2 or 3 it has no rational root, so it is irreducible over Q,
    and the loop below names why it is unsupported; at degree >= 4 it is
    refused whole, with no claim that it is irreducible ((x^2 - 2)(x^2 - 3)
    is one such cofactor).
    """
    if any(len(row) != len(x) for row in x):
        raise ValueError("square matrix required")
    chi = charpoly(x)
    mu = squarefree_part(chi)
    factors = qi_factors(mu)
    rest = mu
    for f in factors:
        rest = divmod_poly(rest, f)[0]
    if deg(rest) >= 4:
        raise UnsupportedSpectrumError(monic(rest), "no root in Q(i)")
    if deg(rest) > 0:
        factors.append(monic(rest))
    h, eigenvalues = (), []
    for f in factors:
        if deg(f) == 1:
            a = -f[0]
        elif deg(f) == 2:  # monic: roots (-f[1] +- sqrt(disc)) / 2
            disc = f[1] * f[1] - 4 * f[0]
            if disc >= 0:
                raise UnsupportedSpectrumError(f, "irrational real eigenvalues")
            if is_rational_square(-disc) is None:
                raise UnsupportedSpectrumError(f, "imaginary part is irrational")
            a = -f[1] / 2
        else:
            raise UnsupportedSpectrumError(f, f"irreducible factor of degree {deg(f)}")
        eigenvalues.append(a)
        if not a:
            continue
        # chi = g f^m with f coprime to g; g (g^-1 mod f^m) is 1 mod f^m and 0 mod g
        g, block = chi, poly([1])
        while True:
            quot, r = divmod_poly(g, f)
            if r:
                break
            g, block = quot, mul(block, f)
        h = add(h, scale(a, mul(g, invert_mod(g, block))))
    return eval_matrix(divmod_poly(h, chi)[1], x), eigenvalues


def grade(malg: MatrixLieAlgebra, xh: Sequence, eigenvalues: Sequence) -> dict:
    """Eigenspace grading of the algebra under ad(x_h), x_h given by its
    coordinates and its eigenvalues (`hyperbolic_part` returns both).

    Returns {eigenvalue: eigenspace in algebra coordinates}, the keys
    increasing Fractions, one per nonzero eigenspace.  Each candidate c, 0
    or a difference a - b of the eigenvalues (module docstring), keeps
    ker(ad(x_h) - c) when it is nonzero.  Refuses an algebra that fails
    `validate`, and refuses unless the kept eigenspaces sum to g: that sum
    is the certificate, short only when the eigenvalues are not x_h's.
    """
    alg = malg.algebra
    if not validate(alg)["ok"]:
        raise ValueError("algebra fails validation; see validate()")
    ad = ad_matrix(alg, alg.coords(xh))
    n = alg.dim
    # ad(x_h) - c: the rows of ad(x_h) with c taken off the diagonal
    kernels = {c: rank_kernel([row[:i] + (row[i] - c,) + row[i + 1:]
                               for i, row in enumerate(ad)], n)[1]
               for c in sorted({a - b for a in eigenvalues for b in eigenvalues} | {ZERO})}
    spaces = {c: ker for c, ker in kernels.items() if ker.dim}
    if sum(space.dim for space in spaces.values()) != n:
        raise ValueError("the eigenspaces of ad(x_h) at the differences of its given "
                         "eigenvalues do not sum to the algebra")
    return spaces


def parabolic_report(malg: MatrixLieAlgebra, x: Sequence | Covector) -> dict:
    """The `parabolic` result at x: {"parabolic": q = g^0 (+) u and its checks, "ok": ...}.

    x is given by its algebra coordinates, or as a covector, converted
    through the trace form.  An x whose hyperbolic part x_h is not in g is
    refused: g is not closed under the Jordan decomposition, and there is
    no grading of g by ad(x_h).  The block holds x's coordinates, the
    grading, q, dim u, the six induction relations, checked exactly, and the
    dimensions dim O_x = 2 dim(g/q) + dim y.  ok is whether every relation
    holds and the dimensions are consistent.

    Two relations are read off the other checks, by these proofs.
    `trace_blocks` asks that tr(g^a g^b) = 0 unless a + b = 0 and that each
    (a, -a) block be square and nonsingular; only the first part is
    computed.  The eigenspaces are a basis of g (`grade`'s certificate), and
    in it the trace Gram G, nondegenerate (`matrix_lie_algebra`), has its
    g^a rows inside the g^-a columns once the other pairings vanish.  Those
    rows are independent, so dim g^a <= dim g^-a, and by symmetry the block
    is square, hence nonsingular.  `hull_matches_annihilator` asks that the
    ad(u)-closure of [x, u] be ann(q), the trace annihilator of q; when
    [x, u] = ann(q) (`image_is_annihilator`) it holds, since ann(q) is
    ad(u)-invariant: for W in u, Y in ann(q) and Z in q,
    tr([W, Y]Z) = tr(Y[Z, W]) = 0, as q is a subalgebra (the grading law,
    module docstring).  Only otherwise is the closure built.
    """
    alg = malg.algebra
    coords = alg.coords(covector_to_element(malg, x) if isinstance(x, Covector) else x)
    xh, eigenvalues = hyperbolic_part(element_matrix(malg, coords))
    try:
        xh_coords = element_coords(malg, xh)
    except ValueError:
        raise ValueError("x_h, the hyperbolic part of x, does not lie in the algebra: "
                         "the algebra is not closed under the Jordan decomposition") from None
    grading = grade(malg, xh_coords, eigenvalues)
    n = alg.dim

    g0 = grading.get(ZERO, Subspace.zero(n))
    u = Subspace(n, [r for a, space in grading.items() if a > 0 for r in space.rows])
    q = g0.add(u)

    # tr(M(x) M(z)) = x^T G z = <cov, z>; g_cov = ker ad x (module docstring)
    cov = element_to_covector(malg, coords)
    stab = stabilizer(alg, cov)
    stab_ok = g0.contains_subspace(stab)

    # G r for each eigenspace row r: ann(q) is ann(G q), and the trace blocks pair them
    gram_rows = {a: [combine(r, malg.trace_gram, n) for r in space.rows]
                 for a, space in grading.items()}
    moved = Subspace(n, [alg.bracket_exact(z, coords) for z in u.rows])
    ann_q = annihilator(Subspace(n, [w for a, rows in gram_rows.items() if a >= 0 for w in rows]))
    image_ok = moved == ann_q

    bijective = u.contains_subspace(moved) and moved.dim == u.dim

    # ann(q) is ad(u)-invariant (docstring), so the closure is built only when it can differ
    hull_ok = image_ok or invariant_closure(
        n, moved.rows, lambda w: (alg.bracket_exact(z, w) for z in u.rows)) == ann_q

    # tr(M(a) M(b)) = a^T G b over the pairs a <= b with a + b != 0, G symmetric;
    # the (a, -a) blocks are then square and nonsingular (docstring)
    blocks_ok = all(vec_dot(ra, w) == 0
                    for a, space in grading.items() for b in grading if a <= b and a + b
                    for ra in space.rows for w in gram_rows[b])

    levi_ok = all(cov.pair(z) == 0 for z in u.rows)

    dim_x = n - stab.dim
    dim_y = orbit_dim(alg, cov, q)
    dims_ok = dim_x == 2 * (n - q.dim) + dim_y

    return {
        "parabolic": {
            "x": tuple(coords),
            # JSON object keys never reach the encoder, so the eigenvalues are written here
            "grading": {str(a): space for a, space in grading.items()},
            "q_dim": q.dim,
            "q_basis": q,
            "u_dim": u.dim,
            "relations": {
                "stabilizer_in_g0": stab_ok,
                "image_is_annihilator": image_ok,
                "ad_x_bijective_on_u": bijective,
                "hull_matches_annihilator": hull_ok,
                "trace_blocks": blocks_ok,
                "levi_pairing_zero": levi_ok,
            },
            "dimensions": {"dim_x": dim_x, "dim_y": dim_y, "consistent": dims_ok},
        },
        "ok": (stab_ok and image_ok and bijective and hull_ok and blocks_ok and levi_ok
               and dims_ok),
    }


def parabolic_command(entry: CatalogEntry, args) -> dict:
    """The `parabolic` payload: a report per `--element`, then per `--point`."""
    malg = matrix_lie_algebra(entry.algebra)
    inputs = [parse_coords(text, malg.dim, "element") for text in args.element]
    inputs += parse_points(entry.algebra, args.point)
    if not inputs:
        raise InputError("parabolic needs --element or --point")
    return {"results": [{"input": x, **parabolic_report(malg, x)} for x in inputs]}
