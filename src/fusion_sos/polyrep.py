"""Difference-operator realization on spaces of polynomials.

Fused operators and intertwining vectors act on polynomials of bounded
degree.  Operators are stored as rectangular matrices on coefficient vectors
with explicit input and output dimensions, because individual building
blocks (multiplication by z, by a linear factor) temporarily raise the
degree even when the composite operator preserves it.  Truncation back to
the target bound asserts that the dropped coefficients vanish, so a wrong
composition cannot pass silently.

The averaged shift operators

    [delta(+|-) f](z) = (f(z + alpha) +|- f(z - alpha)) / 2

are the primitive moves: delta(-) lowers the degree by one, delta(+)
preserves the leading coefficient.  The factor gamma(z, p) is the finite
product prod_{j=0}^{p-1} (z + alpha (2j + 1 - p)) for integer p >= 0 and its
reciprocal for p < 0; reciprocal factors are handled through exact
rational-function arithmetic so that operator compositions whose
intermediate stages leave the polynomial ring can still be evaluated without
ever using floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactcore import (
    ExactMatrix,
    ExactPolynomial,
    ScalarLike,
    ShapeMismatchError,
    mat_mul,
    poly_divmod,
    poly_gcd,
    poly_shift,
    rat,
)
from .vertex import ModelParams, up_steps


class UnsupportedEvaluationPoint(ValueError):
    """A gamma exponent would be non-integer at the requested point."""


@dataclass(frozen=True)
class DiffOp:
    """Linear operator between polynomial spaces of bounded degree.

    ``matrix`` has shape (out_dim, in_dim): it maps coefficient vectors of
    polynomials of degree < in_dim to degree < out_dim.
    """

    matrix: ExactMatrix

    @property
    def in_dim(self) -> int:
        return self.matrix.cols

    @property
    def out_dim(self) -> int:
        return self.matrix.rows

    @classmethod
    def identity(cls, dim: int) -> "DiffOp":
        return cls(ExactMatrix.identity(dim))

    def pad_out(self, out_dim: int) -> "DiffOp":
        if out_dim < self.out_dim:
            raise ShapeMismatchError("cannot pad to a smaller output space")
        if out_dim == self.out_dim:
            return self
        m = self.matrix
        zeros = ((0,) * self.in_dim,) * (out_dim - self.out_dim)
        return DiffOp(ExactMatrix.from_integers(m.numerators + zeros, m.denominator))

    def truncate(self, out_dim: int) -> "DiffOp":
        """Drop output rows above ``out_dim``, asserting they are exactly zero."""
        if out_dim >= self.out_dim:
            return self.pad_out(out_dim)
        num = self.matrix.numerators
        if any(map(any, num[out_dim:])):
            raise ShapeMismatchError("truncation would discard nonzero coefficients")
        return DiffOp(ExactMatrix.from_integers(num[:out_dim], self.matrix.denominator))

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self applied after other."""
        inner = other.pad_out(self.in_dim) if other.out_dim < self.in_dim else other
        if inner.out_dim != self.in_dim:
            raise ShapeMismatchError("composition dimensions do not chain")
        return DiffOp(mat_mul(self.matrix, inner.matrix))

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if self.in_dim != other.in_dim:
            raise ShapeMismatchError("sum needs equal input spaces")
        out = max(self.out_dim, other.out_dim)
        return DiffOp(self.pad_out(out).matrix + other.pad_out(out).matrix)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + other.scale(-1)

    def scale(self, s: ScalarLike) -> "DiffOp":
        return DiffOp(self.matrix.scale(s))

    def apply(self, p: ExactPolynomial) -> ExactPolynomial:
        column = ExactMatrix.column(p.coeff_vector(self.in_dim))
        return ExactPolynomial(mat_mul(self.matrix, column).column_vector())

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOp) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


def delta_op(sign: int, degree_bound: int, params: ModelParams) -> DiffOp:
    """The averaged shift operator on polynomials of degree <= degree_bound."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    alpha = params.alpha
    dim = degree_bound + 1
    cols = []
    for j in range(dim):
        col = [Fraction(0)] * dim
        ap = Fraction(1)
        for i in range(j, -1, -1):
            # coefficient of z^i in ((z+a)^j +|- (z-a)^j)/2
            parity = (j - i) % 2
            if (sign == 1 and parity == 0) or (sign == -1 and parity == 1):
                col[i] = comb(j, i) * ap
            ap *= alpha
        cols.append(col)
    return DiffOp(ExactMatrix(list(zip(*cols))))


def mul_z(in_dim: int) -> DiffOp:
    """Multiplication by z: raises the degree bound by one."""
    rows = [[Fraction(0)] * in_dim for _ in range(in_dim + 1)]
    for j in range(in_dim):
        rows[j + 1][j] = Fraction(1)
    return DiffOp(ExactMatrix(rows))


def mul_poly(q: ExactPolynomial, in_dim: int) -> DiffOp:
    """Multiplication by a fixed polynomial."""
    if q.is_zero():
        return DiffOp(ExactMatrix.zeros(1, in_dim))
    out_dim = in_dim + q.degree
    rows = [[Fraction(0)] * in_dim for _ in range(out_dim)]
    for j in range(in_dim):
        for i, c in enumerate(q.coeffs):
            rows[i + j][j] = c
    return DiffOp(ExactMatrix(rows))


def delta_minus_power(k: int, dim: int, params: ModelParams) -> DiffOp:
    op = DiffOp.identity(dim)
    dm = delta_op(-1, dim - 1, params)
    for _ in range(k):
        op = dm.compose(op)
    return op


@dataclass(frozen=True)
class GammaFactor:
    """gamma(z - shift, p) for integer p: a polynomial, or its reciprocal for p < 0."""

    p: int
    shift: Fraction
    poly: ExactPolynomial
    reciprocal: bool

    def as_rational(self) -> "RationalFunction":
        if self.reciprocal:
            return RationalFunction(ExactPolynomial.one(), self.poly)
        return RationalFunction(self.poly, ExactPolynomial.one())


def gamma_poly(p: int, shift: ScalarLike, params: ModelParams) -> GammaFactor:
    """gamma(z - shift, p) = prod_{j=0}^{|p|-1} (z - shift + alpha(2j + 1 - |p|)).

    The product telescopes so that gamma(z, p) * gamma(z, -p) = 1; negative p
    is returned as a reciprocal marker around the |p| product.
    """
    shift = rat(shift)
    alpha = params.alpha
    q = abs(p)
    poly = ExactPolynomial.one()
    for j in range(q):
        poly = poly * ExactPolynomial((-shift + alpha * (2 * j + 1 - q), 1))
    return GammaFactor(p, shift, poly, p < 0)


def star_triangle_check(
    k: int, l: int, shift: ScalarLike, degree_bound: int, params: ModelParams
) -> bool:
    """Exact operator test of gamma(k) delta-^(k+l) gamma(l) = delta-^l gamma(k+l) delta-^k.

    Both sides are built independently as matrices on polynomials of degree
    <= degree_bound and compared entrywise.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    shift = rat(shift)
    d = degree_bound
    gk = gamma_poly(k, shift, params).poly
    gl = gamma_poly(l, shift, params).poly
    gkl = gamma_poly(k + l, shift, params).poly

    lhs = mul_poly(gl, d + 1)
    lhs = delta_minus_power(k + l, lhs.out_dim, params).compose(lhs)
    lhs = mul_poly(gk, lhs.out_dim).compose(lhs)
    lhs = lhs.truncate(d + 1)

    rhs = delta_minus_power(k, d + 1, params)
    rhs = mul_poly(gkl, rhs.out_dim).compose(rhs)
    rhs = delta_minus_power(l, rhs.out_dim, params).compose(rhs)
    rhs = rhs.truncate(d + 1)
    return lhs == rhs


def r_n1_matrix(n: int, u: ScalarLike, params: ModelParams) -> tuple[tuple[DiffOp, DiffOp], tuple[DiffOp, DiffOp]]:
    """The fused (n,1) operator as a 2x2 matrix of difference operators.

    Entries act on polynomials of degree <= n; each entry maps that space
    into itself even though the individual terms overshoot by up to two
    degrees, so they are built in a padded space and truncated with a
    zero-loss check.
    """
    u = rat(u)
    alpha = params.alpha
    dim = n + 1
    work = dim + 2
    dp = delta_op(1, work - 1, params)
    dm = delta_op(-1, work - 1, params)
    z1 = mul_z(work)

    def crop(op: DiffOp) -> DiffOp:
        rows = [row[:dim] for row in op.matrix.numerators]
        return DiffOp(ExactMatrix.from_integers(rows, op.matrix.denominator)).truncate(dim)

    z2 = DiffOp(mat_mul(mul_z(work + 1).matrix, z1.matrix))  # times z^2, shape (work+2, work)

    a11 = dp.scale(u) + z1.compose(dm).scale(1 / alpha)
    a12 = dm.scale(-1 / alpha)
    a21 = (
        z2.compose(dm).scale(1 / alpha)
        + z1.compose(dp).scale(-n)
        + dm.scale(-alpha * u * (u + n))
    )
    a22 = dp.scale(u + n) + z1.compose(dm).scale(-1 / alpha)
    return ((crop(a11), crop(a12)), (crop(a21), crop(a22)))


def assemble_2x2(ops: tuple[tuple[DiffOp, DiffOp], tuple[DiffOp, DiffOp]]) -> ExactMatrix:
    """Interleave a 2x2 block of equal-size operators into one matrix.

    Row and column order is (coefficient index major, C^2 index minor),
    matching the restricted fused matrices after the monomial-to-coefficient
    change of basis.
    """
    dim = ops[0][0].in_dim
    size = 2 * dim
    rows = [[Fraction(0)] * size for _ in range(size)]
    for bi in range(2):
        for bj in range(2):
            mat = ops[bi][bj].matrix
            for i in range(dim):
                for j in range(dim):
                    rows[2 * i + bi][2 * j + bj] = mat[i, j]
    return ExactMatrix(rows)


@lru_cache(maxsize=None)
def monomial_to_coeff_matrix(n: int) -> ExactMatrix:
    """Change of basis from symmetric-space monomial coordinates to z-coefficients.

    Coordinate k (the monomial with k powers of the second variable) maps to
    the polynomial (-z)^(n-k), so entry [n-k, k] is (-1)^(n-k).
    """
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        rows[n - k][k] = Fraction((-1) ** (n - k))
    return ExactMatrix(rows)


def intertwiner_poly(n: int, u: ScalarLike, a: int, b: int, params: ModelParams) -> ExactPolynomial:
    """The degree-n intertwining polynomial for heights (a, b); zero off adjacency."""
    u = rat(u)
    n_plus = up_steps(a, b, n)
    if n_plus is None:
        return ExactPolynomial.zero()
    n_minus = n - n_plus
    alpha, s, t = params.alpha, params.s, params.t
    roots = [alpha * (u + n - a - 2 * p + 1 - t) for p in range(1, n_plus + 1)]
    roots += [alpha * (u + n + a - 2 * q + 1 + s) for q in range(1, n_minus + 1)]
    return ExactPolynomial.from_roots(roots).scale((-1) ** n)


def o_m_product_form(
    m: int, u: ScalarLike, b: int, c: int, params: ModelParams, degree_bound: int
) -> DiffOp:
    """The height-changing operator as an ordered product of first-order factors.

    Each factor is {[z - z0] delta(-) + alpha(u - shift) delta(+)} and
    preserves the degree bound; the whole operator carries alpha^(-m).
    """
    u = rat(u)
    m_plus = up_steps(b, c, m)
    if m_plus is None:
        raise ValueError("heights b, c are not adjacent at distance m")
    m_minus = m - m_plus
    alpha, s, t = params.alpha, params.s, params.t
    dim = degree_bound + 1
    dp = delta_op(1, degree_bound, params)
    dm = delta_op(-1, degree_bound, params)
    z1 = mul_z(dim)

    def factor(z0: Fraction, coef: Fraction) -> DiffOp:
        linear = ExactPolynomial((-z0, 1))
        term1 = mul_poly(linear, dim).compose(dm).truncate(dim)
        return term1 + dp.scale(alpha * coef)

    op = DiffOp.identity(dim)
    # Rightmost factors act first: the second product, ascending l' applied first.
    for lp in range(m_minus):
        op = factor(alpha * (-u + Fraction(m + b + c, 2) + s), u - m_plus - lp).compose(op)
    for l in range(m_plus):
        op = factor(alpha * (-u + Fraction(m - b - c, 2) - t), u - l).compose(op)
    return op.scale(alpha ** (-m))


class RationalFunction:
    """Quotient of exact polynomials, reduced and with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: ExactPolynomial, den: ExactPolynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = ExactPolynomial.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
            lead = den.coeffs[-1]
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_poly(cls, p: ExactPolynomial) -> "RationalFunction":
        return cls(p, ExactPolynomial.one())

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def scale(self, s: ScalarLike) -> "RationalFunction":
        return RationalFunction(self.num.scale(s), self.den)

    def shift(self, h: ScalarLike) -> "RationalFunction":
        return RationalFunction(poly_shift(self.num, h), poly_shift(self.den, h))

    def delta(self, sign: int, params: ModelParams) -> "RationalFunction":
        a = params.alpha
        plus = self.shift(a)
        minus = self.shift(-a)
        if sign == 1:
            return (plus + minus).scale(Fraction(1, 2))
        return (plus + minus.scale(-1)).scale(Fraction(1, 2))

    def as_polynomial(self) -> ExactPolynomial:
        if self.den.degree != 0:
            raise ValueError("rational function is not a polynomial")
        return self.num.scale(1 / self.den.coeffs[0])


def o_m_gamma_form(
    m: int, u: ScalarLike, b: int, c: int, params: ModelParams, degree_bound: int
) -> DiffOp:
    """The factorized form of the height-changing operator, at integer u in {0..m}.

    The factorization is a sandwich of gamma factors and powers of delta(-);
    away from integer u the gamma exponents are non-integers, which the
    rational field cannot represent, so those points are refused.  At
    integer u one exponent is typically negative: the evaluation therefore
    runs through exact rational-function arithmetic, and the final result is
    checked to be polynomial before the matrix is assembled.
    """
    u = rat(u)
    if u.denominator != 1 or not (0 <= u <= m):
        raise UnsupportedEvaluationPoint(
            f"gamma exponents are integers only for integer u in 0..{m}, got {u}"
        )
    ui = int(u)
    m_plus = up_steps(b, c, m)
    if m_plus is None:
        raise ValueError("heights b, c are not adjacent at distance m")
    m_minus = m - m_plus
    alpha, s, t = params.alpha, params.s, params.t
    u1 = alpha * (-u + Fraction(m - b - c, 2) - t)
    u2 = alpha * (-u + Fraction(m + b + c, 2) + s)

    stages = [
        gamma_poly(ui - m_plus, u2, params),
        ("delta_minus", m_minus),
        gamma_poly(m - ui, u2, params),
        gamma_poly(ui, u1, params),
        ("delta_minus", m_plus),
        gamma_poly(m_plus - ui, u1, params),
    ]

    dim = degree_bound + 1
    cols = []
    for j in range(dim):
        rf = RationalFunction.from_poly(ExactPolynomial.monomial(j))
        for stage in stages:
            if isinstance(stage, GammaFactor):
                rf = rf * stage.as_rational()
            else:
                _, k = stage
                for _ in range(k):
                    rf = rf.delta(-1, params)
        poly = rf.as_polynomial().scale(alpha ** (-m))
        cols.append(poly.coeff_vector(dim))
    return DiffOp(ExactMatrix(list(zip(*cols))))
