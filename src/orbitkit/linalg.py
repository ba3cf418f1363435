"""Exact linear algebra over arbitrary-precision rationals.

Vectors are tuples of Fraction, matrices are immutable row-major grids of
Fraction, and a subspace is its reduced row echelon basis with zero rows
removed: the tuple `rows`, nothing else.  That canonical form is the
equality witness used everywhere above this module: two subspaces are equal
iff their rows are identical, so inclusion and equality questions about
subalgebras, stabilizers and annihilators are decided without tolerances.
An entry is coerced to Fraction once, where it comes in, by `vec` (a row of
`Matrix(...)` too).  What this module builds from Fraction rows is taken as it is: the
matrices of Matrix operations by `Matrix._of`, and rows already canonical
(`full`, both halves of `sum_intersect`, a closure) by `Subspace._from_rref`.

A Subspace also keeps the pivot columns of that basis.  Basis row r is 1 at
pivot r and 0 at every other pivot, so a vector of the subspace has its
coordinates written out at the pivots, and `reduce` takes any vector to
the one representative of its coset that is 0 at the pivots.  The changes
of coordinates above this module (into a subalgebra, onto a quotient, out of
a polarization window) read coordinates there and map them back through
`combine`, with no linear solve.  Products are row combinations too: row i
of A*B is `combine` of the rows of B with row i of A as coefficients,
skipping the zero entries, and a matrix acts on a vector w the same way,
as w^T A = `combine(w, A.entries)`, which is A w when A is symmetric and
-A w when A is antisymmetric.  No arithmetic is done on a zero: sums,
differences, scalings and dot products (`vec_dot`) skip zero terms, and a
zero is found by truthiness, not by `== 0`, a comparison that coerces.

Every elimination is one insertion step, `_insert`, and it runs on integer
rows.  A vector is scaled once by the least common multiple of its
denominators, reduced at the kept rows' pivots by integer
cross-multiplication, and dropped if it is 0; else it is divided by its
content (the gcd of its entries), made positive at its first nonzero entry,
its pivot, and put in at its pivot's place, after the kept rows are cleared
at that pivot the same way.  So a kept row is primitive, positive at its
pivot and 0 at the other pivots: the one such integer multiple of the
canonical row.  Fractions are made once, by dividing each row by its pivot
entry, when `rref` returns and when `invariant_closure` builds its Subspace;
`_reduce` serves `Subspace.reduce` on those canonical rows.  `rref` inserts
row by row, and so does `invariant_closure`, the one worklist for a
smallest subspace closed under linear maps (the Krylov hull, the ideal
closure, the parabolic hull).  Its worklist holds integer rows, which is
enough: the images of a multiple of v span what the images of v span.  The
order cannot change the result: the pivots are the columns where some
vector of the row space has its first nonzero entry, and the row at pivot p
is the one vector of the space that is 1 at p and 0 at the other pivots.
The one other eliminator is `mackey.symmetric_signature`, a symmetric
(congruence) elimination that counts the signs of its pivots, which an RREF
does not keep.

No floating point enters this module.

The package's value types (an algebra, a covector, the data one step hands
the next) are `Record`s, defined here because every other module imports
this one; a report is the plain dict that the CLI prints.  A Record
subclass lists its fields as its own annotations, in order; a class
attribute of a field's name is that field's default.  `__init__` binds
the fields by position or keyword (a missing, extra or unknown argument is
a TypeError), sets them and then calls `__post_init__`.  A record is
immutable (assignment and deletion are AttributeErrors); records are equal
when they are of one class with equal field tuples, and hash as that tuple;
the repr is `Name(field=value, ...)`.  Making a record class costs nothing
beyond the class statement itself.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


class Record:
    """Immutable value with named fields; see the module docstring."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unknown or repeated argument {name!r}")
            values[name] = value
        for name in fields:
            if name in values:
                value = values[name]
            elif name in cls.__dict__:
                value = cls.__dict__[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"


MAX_EXPONENT = 4300  # as many digits as Python prints of an int by default
_TOO_LONG = 10 ** MAX_EXPONENT  # the least int of MAX_EXPONENT + 1 digits
# the rational grammar of Python 3.11's Fraction, on every version: digits
# with single underscores between them; no spaces around "/", which 3.12
# allows and 3.10 refuses, as it refuses every underscore
_DIGITS = r"\d+(?:_\d+)*"
_LITERAL = re.compile(rf"""
    \s*[-+]?
    (?=\d|\.\d)(?P<num>{_DIGITS})?
    (?: /(?P<denom>{_DIGITS})
      | (?:\.(?P<decimal>{_DIGITS})?)? (?:[eE][-+]?(?P<exp>{_DIGITS}))? )
    \s*""", re.VERBOSE)


def frac(x) -> Fraction:
    """Coerce ints or strings like '3/4' or '1.5e-3' to an exact rational.

    A string is read by one grammar on every Python version (`_LITERAL`);
    any other is refused in Python's own words, "Invalid literal for
    Fraction: ...".  A zero denominator is a ValueError too, and so are an
    exponent above MAX_EXPONENT in magnitude and a run of more than
    MAX_EXPONENT digits, refused before the number is built:
    `Fraction('1e1000000')` alone takes 0.3 s, growing with the exponent.
    A string whose numerator or denominator has more than MAX_EXPONENT digits
    once built ('1e4300', '1e-4300') is refused too, so that no input number
    is too long to print.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in exact computations")
    if not isinstance(x, str):
        return Fraction(x)
    m = _LITERAL.fullmatch(x)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {x!r}")
    runs = [run.replace("_", "") for run in m.groups("")]  # num, denom, decimal, exp
    exp = runs[3].lstrip("0")
    if len(exp) > len(str(MAX_EXPONENT)) or int(exp or 0) > MAX_EXPONENT:
        raise ValueError(f"exponent above {MAX_EXPONENT} in magnitude in a rational literal")
    if max(map(len, runs)) > MAX_EXPONENT:
        raise ValueError(f"more than {MAX_EXPONENT} digits in a row in a rational literal")
    try:
        q = Fraction(x.replace("_", ""))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal {x!r}") from None
    if max(abs(q.numerator), q.denominator) >= _TOO_LONG:
        raise ValueError(f"more than {MAX_EXPONENT} digits in the numerator or denominator "
                         "of a rational literal")
    return q


def vec(entries: Iterable) -> tuple:
    """The one reader of a coordinate sequence: its entries, each read by `frac`.
    A str or bytes is refused whole; read per character, "100" would be (1, 0, 0)."""
    if isinstance(entries, (str, bytes)):
        raise TypeError("a string is not a coordinate sequence; pass its entries")
    return tuple(frac(x) for x in entries)


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b if b else a for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b if b else a for a, b in zip(u, v))


def vec_dot(u: Sequence, v: Sequence) -> Fraction:
    """sum_i u_i v_i, forming no product with a zero factor."""
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def is_zero_vec(u: Sequence) -> bool:
    return not any(u)


def combine(coeffs: Sequence, rows: Sequence[Sequence], n: int) -> tuple:
    """sum_k coeffs[k] * rows[k] in Q^n; the zero vector when there are no rows."""
    out = [ZERO] * n
    for c, row in zip(coeffs, rows):
        if c:
            out = [a + c * b if b else a for a, b in zip(out, row)]
    return tuple(out)


def basis_vector(n: int, j: int) -> tuple:
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} out of range for dimension {n}")
    return tuple(ONE if i == j else ZERO for i in range(n))


class Matrix:
    """Immutable dense matrix of exact rationals.

    The width comes from the first row.  A matrix with no rows has no row
    to read it from, so its width must be passed as `cols`: a 0 x n matrix
    keeps n, and its kernel is all of Q^n.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        grid = tuple(map(vec, entries))
        if cols is None:
            if not grid:
                raise ValueError("a matrix with no rows needs its width")
            cols = len(grid[0])
        self.entries = grid
        self.rows = len(grid)
        self.cols = cols
        if any(len(row) != cols for row in grid):
            raise ValueError("ragged matrix")

    @classmethod
    def _of(cls, grid: tuple, cols: int) -> "Matrix":
        """The matrix of a tuple of Fraction rows of length cols, taken as it is."""
        m = cls.__new__(cls)
        m.entries, m.rows, m.cols = grid, len(grid), cols
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n)

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self.entries)) or ((),) * self.cols, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(tuple(map(vec_add, self.entries, other.entries)), self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(tuple(map(vec_sub, self.entries, other.entries)), self.cols)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix._of(tuple(tuple(c * a if a else a for a in row) for row in self.entries),
                          self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        rows = other.entries
        return Matrix._of(tuple(combine(r, rows, other.cols) for r in self.entries), other.cols)

    def is_zero(self) -> bool:
        return all(is_zero_vec(row) for row in self.entries)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form, padded with zero rows, and the pivot columns."""
        rows, pivots = [], []
        for row in self.entries:
            if len(pivots) == self.cols:  # full rank: the other rows lie in the span
                break
            _insert(rows, pivots, row)
        red = _canonical(rows, pivots) + [(ZERO,) * self.cols] * (self.rows - len(rows))
        return Matrix._of(tuple(red), self.cols), tuple(pivots)


def _reduce(rows: Sequence[Sequence], pivots: Sequence[int], v: Sequence) -> Sequence:
    """v - sum_r v[pivots[r]] rows[r]; 0 at every pivot when the rows are in RREF."""
    for p, row in zip(pivots, rows):
        f = v[p]
        if f:
            v = tuple(a - f * b if b else a for a, b in zip(v, row))
    return v


def _integer_row(v: Sequence) -> list:
    """v, whose entries are ints or Fractions, times the lcm of its denominators."""
    ratios = [a.as_integer_ratio() for a in v]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios]


def _primitive(w: Sequence[int]) -> tuple:
    """A nonzero integer vector divided by the gcd of its entries, the signs kept."""
    g = gcd(*w)
    return tuple(a // g for a in w) if g > 1 else tuple(w)


def _insert(rows: list, pivots: list, v: Sequence) -> tuple | None:
    """Insert v into integer echelon rows with increasing pivots, in place.

    Each row is primitive, positive at its pivot and 0 at the other pivots,
    before and after.  Returns the row v became, or None if v is in the
    rows' span.
    """
    w = _integer_row(v)
    for p, row in zip(pivots, rows):
        f = w[p]
        if f:
            d = row[p]
            g = gcd(d, f)
            d, f = d // g, f // g
            w = [d * a - f * b for a, b in zip(w, row)]
    p = next((j for j, a in enumerate(w) if a), None)
    if p is None:
        return None
    w = _primitive(w if w[p] > 0 else [-a for a in w])
    d = w[p]
    for r, row in enumerate(rows):
        f = row[p]
        if f:
            g = gcd(d, f)
            e, f = d // g, f // g
            rows[r] = _primitive([e * a - f * b for a, b in zip(row, w)])
    k = bisect_left(pivots, p)
    rows.insert(k, w)
    pivots.insert(k, p)
    return w


def _canonical(rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> list:
    """The canonical Fraction rows of integer echelon rows: each divided by its pivot entry."""
    return [tuple(Fraction(a, row[p]) if a else ZERO for a in row)
            for p, row in zip(pivots, rows)]


def solve(m: Matrix, v: Sequence) -> tuple | None:
    """Solve m x = v exactly; None when the system is inconsistent.

    When solutions form an affine space an arbitrary but deterministic
    representative (free variables set to zero) is returned.
    """
    if len(v) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    aug = Matrix._of(tuple(row + (val,) for row, val in zip(m.entries, vec(v))), m.cols + 1)
    red, pivots = aug.rref()
    if m.cols in pivots:  # pivot in the augmented column
        return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.entries[r][m.cols]
    return tuple(x)


class Subspace:
    """Linear subspace of Q^n: its canonical RREF rows and their pivot columns."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, generators: Iterable[Iterable] = ()):
        rows = tuple(vec(row) for row in generators)
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("generator length does not match ambient dimension")
        red, pivots = Matrix._of(rows, ambient_dim).rref()
        self.ambient_dim = ambient_dim
        self.rows = red.entries[: len(pivots)]
        self.pivots = pivots  # pivots[r]: the column where row r has its leading 1

    @classmethod
    def _from_rref(cls, ambient_dim: int, rows: Sequence[tuple],
                   pivots: Sequence[int]) -> "Subspace":
        """The subspace whose canonical basis is `rows`, Fraction rows already in RREF
        with their leading 1s at `pivots`: no elimination or coercion is redone."""
        s = cls.__new__(cls)
        s.ambient_dim, s.rows, s.pivots = ambient_dim, tuple(rows), tuple(pivots)
        return s

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls._from_rref(n, (), ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls._from_rref(n, [basis_vector(n, j) for j in range(n)], range(n))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {self.rows})"

    def reduce(self, v: Sequence) -> tuple:
        """The member of v + self that is 0 at the pivots: v - sum_r v[pivots[r]] row_r."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return _reduce(self.rows, self.pivots, v)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.missing_row(other) is None

    def missing_row(self, other: "Subspace") -> tuple | None:
        """The first canonical basis row of other that self does not contain, else None."""
        self._same_ambient(other)
        return next((row for row in other.rows if not self.contains(row)), None)

    def add(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace(self.ambient_dim, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        return sum_intersect(self, other)[1]

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def _echelon_kernel(rows: Sequence[Sequence], pivots: Sequence[int], n: int) -> Subspace:
    """Kernel of a reduced row echelon matrix with n columns: one vector per free column."""
    kernel_rows = []
    for f in range(n):
        if f in pivots:
            continue
        v = [ZERO] * n
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        kernel_rows.append(v)
    return Subspace(n, kernel_rows)


def rank_kernel(m: Matrix) -> tuple[int, Subspace]:
    """Rank and kernel of a matrix; rank + dim(kernel) = cols."""
    red, pivots = m.rref()
    return len(pivots), _echelon_kernel(red.entries, pivots, m.cols)


def sum_intersect(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """Sum and intersection of two subspaces (Zassenhaus block trick).

    The RREF of the rows (a_r | a_r) and (b_r | 0) lists the rows with a
    pivot left of n first: their left halves are the canonical rows of a + b.
    The other rows are 0 on the left, and their right halves are the
    canonical rows of a & b.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    rows = tuple(r + r for r in a.rows) + tuple(r + (ZERO,) * n for r in b.rows)
    red, pivots = Matrix._of(rows, 2 * n).rref()
    k = bisect_left(pivots, n)
    return (Subspace._from_rref(n, [row[:n] for row in red.entries[:k]], pivots[:k]),
            Subspace._from_rref(n, [row[n:] for row in red.entries[k:len(pivots)]],
                                [p - n for p in pivots[k:]]))


def annihilator(s: Subspace) -> Subspace:
    """All dual vectors pairing to zero with s (coordinate pairing).

    s's basis is already in RREF, so the kernel is read off its pivots.
    """
    return _echelon_kernel(s.rows, s.pivots, s.ambient_dim)


def invariant_closure(n: int, start_rows: Iterable[Sequence],
                      images: Callable[[tuple], Iterable[Sequence]]) -> Subspace:
    """Smallest subspace of Q^n containing start_rows and closed under some linear maps.

    images(v) yields the image of v under each of the maps.  Worklist: each
    row that enlarges the span is queued once, as it was inserted, and its
    images are inserted in turn, until the span is all of Q^n.
    """
    rows, pivots, work = [], [], []
    for v in start_rows:
        if row := _insert(rows, pivots, v):
            work.append(row)
    while work and len(rows) < n:
        for image in images(work.pop()):
            if row := _insert(rows, pivots, image):
                work.append(row)
                if len(rows) == n:
                    break
    return Subspace._from_rref(n, _canonical(rows, pivots), pivots)

