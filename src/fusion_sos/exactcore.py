"""Exact rational scalars, dense exact linear algebra, and polynomial arithmetic.

Everything downstream computes over the rationals, so all identities can be
checked as exact equalities instead of within floating-point tolerances.
Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator); polynomials are small immutable containers of them.

Matrices are dense, but not small: fused operators act on spaces of
dimension up to a few dozen and lattice transfer products on spaces of
dimension 256.  An :class:`ExactMatrix` therefore has one storage: rows of
integer numerators over one positive common denominator, in lowest terms.
The kernels (:func:`mat_mul`, :func:`kron`, :func:`trace_product` and the
matrix arithmetic) compute on it and return it, and a matrix built from
scalars is put over the lcm of their denominators at once.  ``entries``,
``m[i, j]`` and :meth:`ExactMatrix.column_vector` form ``Fraction`` values
from it on each read; nothing else is stored.  The integer form is
canonical, so equality and hashing need no ``Fraction`` at all.

:func:`solve_exact` and :func:`det` share one fraction-free elimination
on the integer numerators (Bareiss, Math. Comp. 22, 1968), so they form no
``Fraction`` until the result.  Polynomials with known roots are expanded
the same way (:meth:`ExactPolynomial.from_integer_roots`): the product of
integer linear factors first, one ``Fraction`` per coefficient at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import floordiv, mul
from typing import Iterable, Sequence, Union

ScalarLike = Union[int, str, Fraction]


class ShapeMismatchError(ValueError):
    """Operands do not have conforming shapes."""


class DegeneratePointError(Exception):
    """A computation has no finite value at this parameter point.

    Base of :class:`SingularMatrixError`, :class:`PoleError` and the
    face-weight error :class:`fusion_sos.sos.DegenerateParameterPoint`,
    which keep their ``ValueError`` / ``ZeroDivisionError`` bases as well.
    """


class PoleError(DegeneratePointError, ZeroDivisionError):
    """A denominator vanished: a face weight's (integer w or colliding
    heights) or the fusion normalization of a fused operator."""


class SingularMatrixError(DegeneratePointError, ValueError):
    """Coefficient matrix is rank deficient."""


class InconsistentSystemError(ValueError):
    """Overdetermined system has no exact solution."""


def rat(x: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def common_denominator(*xs: Fraction) -> tuple[int, list[int]]:
    """The least common denominator of the scalars, and their numerators over it."""
    den = lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def rat_to_str(x: Fraction) -> str:
    """Serialize a scalar as "p" or "p/q" without precision loss."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _check_shape(rows: tuple) -> int:
    if not rows or not rows[0]:
        raise ShapeMismatchError("matrix must have at least one row and column")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ShapeMismatchError("ragged rows")
    return ncols


class ExactMatrix:
    """A dense matrix of exact scalars, immutable after construction.

    It holds integer numerator rows over one positive common denominator,
    in lowest terms, and nothing else (see the module docstring).
    ``ExactMatrix(rows)`` puts the given scalars over the lcm of their
    denominators; :meth:`from_integers` takes the integers directly.  Equal
    matrices compare and hash equal however they were built.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]]):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        ncols = _check_shape(rows)
        # Reduced fractions over the lcm of their denominators are in
        # lowest terms: no gcd pass is needed.
        den = lcm(*(x.denominator for row in rows for x in row))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def _canonical(cls, num: tuple, den: int, ncols: int) -> "ExactMatrix":
        """Wrap integer rows (tuples) already in lowest terms over den > 0."""
        m = object.__new__(cls)
        object.__setattr__(m, "_num", num)
        object.__setattr__(m, "_den", den)
        object.__setattr__(m, "rows", len(num))
        object.__setattr__(m, "cols", ncols)
        return m

    @classmethod
    def _reduced(cls, num, den: int, ncols: int) -> "ExactMatrix":
        """Bring integer rows over den > 0 to lowest terms and wrap them."""
        g = den
        for row in num:
            if g == 1:
                break
            g = gcd(g, *row)
        if g == 1:
            return cls._canonical(tuple(map(tuple, num)), den, ncols)
        return cls._canonical(
            tuple(tuple(map(floordiv, row, repeat(g))) for row in num), den // g, ncols
        )

    @classmethod
    def from_integers(cls, numerators: Iterable[Iterable[int]], denominator: int = 1) -> "ExactMatrix":
        """The matrix with entries numerators[i][j] / denominator."""
        num = tuple(tuple(row) for row in numerators)
        ncols = _check_shape(num)
        if type(denominator) is not int or not set(map(type, chain.from_iterable(num))) <= {int}:
            raise TypeError("numerators and denominator must be ints")
        if denominator == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        if denominator < 0:
            num = tuple(tuple(-x for x in row) for row in num)
            denominator = -denominator
        return cls._reduced(num, denominator, ncols)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- the storage and its Fraction reads -------------------------------

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as tuples of ``Fraction``, formed on each read."""
        den = self._den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self._num)

    @property
    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """Integer rows over :attr:`denominator`, in lowest terms."""
        return self._num

    @property
    def denominator(self) -> int:
        """The least positive common denominator of all entries."""
        return self._den

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_integers([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls.from_integers([[0] * cols for _ in range(rows)])

    @classmethod
    def column(cls, values: Sequence[ScalarLike]) -> "ExactMatrix":
        return cls([[v] for v in values])

    # -- basics --------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self._num[i][j], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return False
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        body = "; ".join(" ".join(rat_to_str(x) for x in row) for row in self.entries)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("addition needs equal shapes")
        an, ad = self._num, self._den
        bn, bd = other._num, other._den
        den = lcm(ad, bd)
        fa, fb = den // ad, sign * (den // bd)
        out = [
            [x * fa + y * fb for x, y in zip(ra, rb)] for ra, rb in zip(an, bn)
        ]
        return ExactMatrix._reduced(out, den, self.cols)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def scale(self, s: ScalarLike) -> "ExactMatrix":
        s = rat(s)
        num, den = self._num, self._den
        p = s.numerator
        out = [[x * p for x in row] for row in num]
        return ExactMatrix._reduced(out, den * s.denominator, self.cols)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        return mat_mul(self, other)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._canonical(tuple(zip(*self._num)), self._den, self.rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeMismatchError("trace needs a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self._num)), self._den)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def column_vector(self, j: int = 0) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(row[j], den) for row in self._num)

    # -- serialization ---------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[rat_to_str(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ExactMatrix":
        m = cls(obj["entries"])
        if (m.rows, m.cols) != (obj["rows"], obj["cols"]):
            raise ShapeMismatchError("declared shape does not match entries")
        return m


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product, on integer numerators over one denominator.

    The product of the numerator rows is taken over the product of the
    two denominators and then reduced once.  Zeros are skipped on both
    sides: each right-hand row is listed once as its nonzero (column,
    value) pairs, and each nonzero left entry adds its multiple of that
    list.  The fused operators are chains of very sparse embedded
    factors, and this keeps those chains cheap.  It stays beside the packed
    rows of :mod:`fusion_sos.vertex`: on the benchmark's products, none past
    32 x 32, packed rows took twice as long, packing and unpacking included.
    """
    if a.cols != b.rows:
        raise ShapeMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    an, ad = a._num, a._den
    bn, bd = b._num, b._den
    ncols = b.cols
    bnz = [[(k, x) for k, x in enumerate(row) if x] for row in bn]
    out = []
    for arow in an:
        acc = [0] * ncols
        for j, aij in enumerate(arow):
            if aij:
                for k, x in bnz[j]:
                    acc[k] += aij * x
        out.append(acc)
    return ExactMatrix._reduced(out, ad * bd, ncols)


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product with (a x b)[(i*rb + k), (j*cb + l)] = a[i,j] * b[k,l].

    Runs on integer numerators; a zero entry of ``a`` gives a zero block
    without a multiplication.
    """
    an, ad = a._num, a._den
    bn, bd = b._num, b._den
    zero = (0,) * b.cols
    out = []
    for arow in an:
        for brow in bn:
            row = []
            for x in arow:
                if x:
                    row.extend(map(mul, repeat(x), brow))
                else:
                    row.extend(zero)
            out.append(row)
    return ExactMatrix._reduced(out, ad * bd, a.cols * b.cols)


def trace_product(a: ExactMatrix, b: ExactMatrix) -> Fraction:
    """trace(a @ b), summing a[i, j] * b[j, i] without forming the product."""
    if a.cols != b.rows or a.rows != b.cols:
        raise ShapeMismatchError(f"a @ b is not square for {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    an, ad = a._num, a._den
    bn, bd = b._num, b._den
    total = sum(sum(map(mul, arow, bcol)) for arow, bcol in zip(an, zip(*bn)))
    return Fraction(total, ad * bd)


def _bareiss(rows: list[list[int]], pivots: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows, in place.

    Column k < ``pivots`` is cleared outside its pivot row by
    row <- (p_k row - row[k] prow) / p_(k-1), with p_k the k-th pivot and
    p_(-1) = 1.  By Sylvester's identity every division is exact, so the
    rows stay integers of the size of a minor.  Afterwards the first
    ``pivots`` diagonal entries all equal the last pivot, and every later
    row is zero in the pivot columns.  Returns that pivot and the sign of
    the row swaps, whose product is the determinant when the rows are
    square; the pivot is 0 as soon as a column has no pivot.
    """
    sign, prev = 1, 1
    n = len(rows)
    for col in range(pivots):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0, sign
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        prow = rows[col]
        pv = prow[col]
        for r in range(n):
            if r != col:
                f = rows[r][col]
                rows[r] = [(pv * x - f * y) // prev for x, y in zip(rows[r], prow)]
        prev = pv
    return prev, sign


def solve_exact(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Solve a @ x = b exactly.

    ``a`` may be square or overdetermined; full column rank is required.  For
    an overdetermined system the pivot rows determine the solution and every
    remaining row is verified, so a consistent system solves and an
    inconsistent one raises.  The elimination runs on the integer
    numerators: a_num @ y = b_num by :func:`_bareiss`, then
    x = y den(a) / den(b).
    """
    if a.rows != b.rows:
        raise ShapeMismatchError("matrix and right-hand side must have equal row count")
    if a.rows < a.cols:
        raise ShapeMismatchError("underdetermined systems are not supported")
    m = a.cols
    an, ad = a._num, a._den
    bn, bd = b._num, b._den
    aug = [list(ra + rb) for ra, rb in zip(an, bn)]
    pivot, _ = _bareiss(aug, m)
    if not pivot:
        raise SingularMatrixError("singular")
    if any(any(row[m:]) for row in aug[m:]):
        raise InconsistentSystemError("inconsistent")
    # Each pivot row reads pivot * y_i = row[m:].
    return ExactMatrix.from_integers(
        [[x * ad for x in row[m:]] for row in aug[:m]], pivot * bd
    )


def det(a: ExactMatrix) -> Fraction:
    """Exact determinant, by :func:`_bareiss` on the integer numerators."""
    if a.rows != a.cols:
        raise ShapeMismatchError("determinant needs a square matrix")
    num, den = a._num, a._den
    pivot, sign = _bareiss([list(row) for row in num], a.rows)
    return Fraction(sign * pivot, den**a.rows)


def _root_product(numerators: Sequence[int], lead: int = 1) -> list[int]:
    """The integer coefficients, lowest power first, of lead * prod (y - r)."""
    q = [lead]
    for r in numerators:
        q = [x - r * y for x, y in zip([0] + q, q + [0])]
    return q


class ExactPolynomial:
    """A polynomial in one variable with exact coefficients, lowest power first.

    Trailing zero coefficients are stripped on construction, so ``degree`` is
    the honest degree (-1 for the zero polynomial).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ExactPolynomial is immutable")

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "ExactPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: ScalarLike = 1) -> "ExactPolynomial":
        return cls([0] * power + [coeff])

    @classmethod
    def from_roots(cls, roots: Sequence[ScalarLike]) -> "ExactPolynomial":
        """The monic polynomial prod (z - r) over the given roots."""
        den, numerators = common_denominator(*map(rat, roots))
        return cls.from_integer_roots(numerators, den)

    @classmethod
    def from_integer_roots(
        cls, numerators: Sequence[int], denominator: int = 1, lead: int = 1
    ) -> "ExactPolynomial":
        """The polynomial lead * prod (z - r / denominator) over r in ``numerators``.

        The integer product q(y) = lead * prod (y - r) is expanded first; the
        coefficient of z^j is then q_j / denominator^(k - j) for k roots.
        """
        q = _root_product(numerators, lead)
        k = len(q) - 1
        return cls(Fraction(x, denominator ** (k - j)) for j, x in enumerate(q))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def coeff_vector(self, dim: int) -> tuple[Fraction, ...]:
        """Coefficients padded with zeros to length ``dim``."""
        if len(self.coeffs) > dim:
            raise ShapeMismatchError(f"degree {self.degree} does not fit in dimension {dim}")
        return self.coeffs + (Fraction(0),) * (dim - len(self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "ExactPolynomial(0)"
        terms = ", ".join(rat_to_str(c) for c in self.coeffs)
        return f"ExactPolynomial([{terms}])"

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return ExactPolynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        return self + other.scale(-1)

    def scale(self, s: ScalarLike) -> "ExactPolynomial":
        s = rat(s)
        return ExactPolynomial([s * c for c in self.coeffs])

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        if self.is_zero() or other.is_zero():
            return ExactPolynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                if cj:
                    out[i + j] += ci * cj
        return ExactPolynomial(out)

    def __call__(self, z: ScalarLike) -> Fraction:
        z = rat(z)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

