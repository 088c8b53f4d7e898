"""Difference-operator realization on spaces of polynomials.

Fused operators and intertwining vectors act on polynomials of bounded
degree.  An operator is a plain ``ExactMatrix`` on coefficient vectors
(lowest power first) of shape (out_dim, in_dim), and operators compose with
``@``.  The shape is rectangular because individual building blocks
(multiplication by z, by a linear factor) temporarily raise the degree even
when the composite operator preserves it.  Truncation back to the target
bound (``_truncate``) asserts that the dropped coefficients vanish, so a
wrong composition cannot pass silently.

Every building block is built as integer numerators over one denominator
(``ExactMatrix.from_integers``), so compositions run on the integer kernel
without a ``Fraction`` per entry.  A shift by h = p/q has entry (i, j)
C(j, i) p^(j-i) q^(dim-1-(j-i)) over q^(dim-1) (``_shift_entries``, the one
source of shift entries); multiplication by z or by a polynomial has the
polynomial's numerators over their least common denominator; gamma factors
and intertwining polynomials expand the integer product of their roots over
one common denominator.  Nothing built from shifts is composed factor by
factor.  delta(-)^k and the gamma sandwich are assembled in closed form on
integers from the shift expansion below, each with one
``from_integers``; the m first-order factors of the height-changing operator
act on integer coefficient columns (``_o_m_apply``), the identity's for the
matrix and one intertwining polynomial's for the face weights.

The averaged shift operators

    [delta(+|-) f](z) = (f(z + alpha) +|- f(z - alpha)) / 2

are the primitive moves: delta(-) lowers the degree by one, delta(+)
preserves the leading coefficient.  The factor gamma(z, p) is the finite
product prod_{j=0}^{p-1} (z + alpha (2j + 1 - p)) for integer p >= 0 and its
reciprocal for p < 0.

A reciprocal factor only appears inside a sandwich
gamma(z, C) delta(-)^B gamma(z, D) with B = C + D >= 0.  Expanding

    delta(-)^B = 2^-B sum_k (-1)^k C(B, k) T_{(B - 2k) alpha},
    T_h f(z) = f(z + h),

turns each term into multiplication by gamma(z, C) gamma(z + (B - 2k) alpha, D)
followed by a shift.  Since |B - 2k| <= B and B - 2k = B (mod 2), the roots
of the reciprocal factor always lie among those of the polynomial factor, so
that product is a polynomial and each column of the sandwich is a sum of
integer polynomial products.  The same expansion with C = D = 0 gives
delta(-)^k entry by entry.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm

from .exactcore import (
    ExactMatrix,
    ExactPolynomial,
    ScalarLike,
    ShapeMismatchError,
    _root_product,
    common_denominator,
    rat,
)
from .vertex import ModelParams, up_steps


class UnsupportedEvaluationPoint(ValueError):
    """A gamma exponent would be non-integer at the requested point."""


def _truncate(op: ExactMatrix, rows: int) -> ExactMatrix:
    """The first ``rows`` rows of ``op``: its action cut back to degree < rows.

    The dropped rows must be exactly zero (``ShapeMismatchError``
    otherwise), so a wrong composition cannot pass silently.
    """
    num = op.numerators
    if any(map(any, num[rows:])):
        raise ShapeMismatchError("truncation would discard nonzero coefficients")
    return ExactMatrix.from_integers(num[:rows], op.denominator)


def _pad(op: ExactMatrix, rows: int) -> ExactMatrix:
    """``op`` with zero rows appended up to ``rows``: its action into a larger space."""
    if rows < op.rows:
        raise ShapeMismatchError("cannot pad to a smaller output space")
    zeros = ((0,) * op.cols,) * (rows - op.rows)
    return ExactMatrix.from_integers(op.numerators + zeros, op.denominator)


def delta_op(sign: int, degree_bound: int, params: ModelParams) -> ExactMatrix:
    """The averaged shift operator on polynomials of degree <= degree_bound.

    ((z + alpha)^j +|- (z - alpha)^j) / 2 keeps the binomial terms of
    (z + alpha)^j with j - i even (delta(+)) or odd (delta(-)).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _shift_op(params.alpha, degree_bound + 1, parity=(1 - sign) // 2)


def _shift_entries(p: int, q: int, dim: int) -> list[list[int]]:
    """The shift f(z) -> f(z + p/q) on polynomials of degree < dim as integer
    rows over q^(dim-1): entry (i, j) is C(j, i) p^e q^(dim-1-e), e = j - i,
    and 0 below the diagonal."""
    top = dim - 1
    powers = [p**e * q ** (top - e) for e in range(dim)]
    return [[comb(j, i) * powers[j - i] if j >= i else 0 for j in range(dim)] for i in range(dim)]


def _shift_op(h: Fraction, dim: int, parity: int | None = None) -> ExactMatrix:
    """The shift f(z) -> f(z + h) on polynomials of degree < dim.

    Entry (i, j) is C(j, i) h^(j-i), held as in :func:`_shift_entries`.
    With ``parity``, only the terms with j - i = parity (mod 2) are kept.
    """
    rows = _shift_entries(h.numerator, h.denominator, dim)
    if parity is not None:
        rows = [[x if (j - i) % 2 == parity else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return ExactMatrix.from_integers(rows, h.denominator ** (dim - 1))


def mul_z(in_dim: int) -> ExactMatrix:
    """Multiplication by z: raises the degree bound by one."""
    return mul_poly(ExactPolynomial((0, 1)), in_dim)


def mul_poly(q: ExactPolynomial, in_dim: int) -> ExactMatrix:
    """Multiplication by a fixed polynomial."""
    if q.is_zero():
        return ExactMatrix.zeros(1, in_dim)
    den, nums = common_denominator(*q.coeffs)
    rows = [[0] * in_dim for _ in range(in_dim + q.degree)]
    for j in range(in_dim):
        for i, c in enumerate(nums):
            rows[i + j][j] = c
    return ExactMatrix.from_integers(rows, den)


def delta_minus_power(k: int, dim: int, params: ModelParams) -> ExactMatrix:
    """delta(-)^k on polynomials of degree < dim, in closed form.

    delta(-)^k = 2^-k sum_t (-1)^t C(k, t) T_{(k-2t) alpha}, so entry (i, j)
    is C(j, i) alpha^e S(k, e) / 2^k with e = j - i and
    S(k, e) = sum_t (-1)^t C(k, t) (k - 2t)^e, which vanishes for e < k and
    for odd e - k.  Over alpha = p/q the entries are the shift entries
    (:func:`_shift_entries`) times S(k, e), over q^(dim-1) 2^k.
    """
    if k < 0:
        raise ValueError("delta_minus_power needs a nonnegative exponent")
    alpha = params.alpha
    sums = [
        sum((-1) ** t * comb(k, t) * (k - 2 * t) ** e for t in range(k + 1)) if e >= k and (e - k) % 2 == 0 else 0
        for e in range(dim)
    ]
    rows = _shift_entries(alpha.numerator, alpha.denominator, dim)
    rows = [[x * sums[j - i] if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return ExactMatrix.from_integers(rows, 2**k * alpha.denominator ** (dim - 1))


def gamma_poly(p: int, shift: ScalarLike, params: ModelParams) -> ExactPolynomial:
    """gamma(z - shift, p) = prod_{j=0}^{p-1} (z - shift + alpha(2j + 1 - p)) for p >= 0."""
    if p < 0:
        raise ValueError("gamma_poly needs a nonnegative exponent")
    den, (x0, step) = common_denominator(rat(shift), params.alpha)
    return ExactPolynomial.from_integer_roots([x0 + step * (p - 1 - 2 * j) for j in range(p)], den)


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
    gk = gamma_poly(k, shift, params)
    gl = gamma_poly(l, shift, params)
    gkl = gamma_poly(k + l, shift, params)

    lhs = mul_poly(gl, d + 1)
    lhs = delta_minus_power(k + l, lhs.rows, params) @ lhs
    lhs = mul_poly(gk, lhs.rows) @ lhs

    rhs = delta_minus_power(k, d + 1, params)
    rhs = mul_poly(gkl, rhs.rows) @ rhs
    rhs = delta_minus_power(l, rhs.rows, params) @ rhs
    return _truncate(lhs, d + 1) == _truncate(rhs, d + 1)


def r_n1_matrix(n: int, u: ScalarLike, params: ModelParams) -> tuple[tuple[ExactMatrix, ExactMatrix], ...]:
    """The fused (n,1) operator as a 2x2 matrix of difference operators.

    Entries act on polynomials of degree <= n and map that space into
    itself.  delta(-) lowers the degree, so z delta(-) stays in the space;
    in the lower left entry z^2 delta(-) and z delta(+) overshoot by one
    degree, and their sum is cut back with a zero-loss check.
    """
    u = rat(u)
    alpha = params.alpha
    dim = n + 1
    dp = delta_op(1, n, params)
    dm = delta_op(-1, n, params)
    zdm = mul_z(dim) @ dm
    zdm_cut = _truncate(zdm, dim)

    a11 = dp.scale(u) + zdm_cut.scale(1 / alpha)
    a12 = dm.scale(-1 / alpha)
    a21 = (
        _truncate(mul_z(dim + 1) @ zdm, dim + 1).scale(1 / alpha)
        + (mul_z(dim) @ dp).scale(-n)
        + _pad(dm, dim + 1).scale(-alpha * u * (u + n))
    )
    a22 = dp.scale(u + n) + zdm_cut.scale(-1 / alpha)
    return ((a11, a12), (_truncate(a21, dim), a22))


def assemble_2x2(ops: tuple[tuple[ExactMatrix, ExactMatrix], ...]) -> ExactMatrix:
    """Interleave a 2x2 block of equal-size operators into one matrix.

    Row and column order is (coefficient index major, C^2 index minor),
    matching the restricted fused matrices after the monomial-to-coefficient
    change of basis.
    """
    size = 2 * ops[0][0].cols
    return ExactMatrix([[ops[i % 2][j % 2][i // 2, j // 2] for j in range(size)] for i in range(size)])


def monomial_to_coeff_matrix(n: int) -> ExactMatrix:
    """Change of basis from symmetric-space monomial coordinates to z-coefficients.

    Coordinate k (the monomial with k powers of the second variable) maps to
    the polynomial (-z)^(n-k), so entry [n-k, k] is (-1)^(n-k).
    """
    return ExactMatrix.from_integers([[(-1) ** (n - k) * (i + k == n) for k in range(n + 1)] for i in range(n + 1)])


def _intertwiner_roots(n: int, a: int, b: int, alpha_num: int, den: int, du: int, ds: int, dt: int):
    """The integer roots r of psi = (-1)^n prod (z - r/D), D = den(alpha) den,
    with u, s and t given as du, ds and dt over den; None off adjacency.
    r/D runs over alpha (u + n - a - 2p + 1 - t) and alpha (u + n + a - 2q + 1 + s)."""
    n_plus = up_steps(a, b, n)
    if n_plus is None:
        return None
    up = du + (n - a + 1) * den - dt
    down = du + (n + a + 1) * den + ds
    roots = [up - 2 * p * den for p in range(1, n_plus + 1)]
    roots += [down - 2 * q * den for q in range(1, n - n_plus + 1)]
    return [alpha_num * r for r in roots]


def intertwiner_poly(n: int, u: ScalarLike, a: int, b: int, params: ModelParams) -> ExactPolynomial:
    """The degree-n intertwining polynomial for heights (a, b); zero off adjacency."""
    den, shifts = common_denominator(rat(u), params.s, params.t)
    roots = _intertwiner_roots(n, a, b, params.alpha.numerator, den, *shifts)
    if roots is None:
        return ExactPolynomial.zero()
    return ExactPolynomial.from_integer_roots(roots, den * params.alpha.denominator, lead=(-1) ** n)


@lru_cache(maxsize=None)
def _delta_rows(p: int, q: int, dim: int):
    """delta(+) and delta(-) on degree < dim at alpha = p/q, over q^(dim-1):
    the even and odd terms of the shift by alpha (:func:`_shift_entries`),
    each row listed as its nonzero (j, entry) pairs."""
    rows = _shift_entries(p, q, dim)
    return tuple(
        tuple(tuple((j, x) for j, x in enumerate(row) if x and (j - i) % 2 == parity) for i, row in enumerate(rows))
        for parity in (0, 1)
    )


def _o_m_apply(m: int, u: Fraction, b: int, c: int, params: ModelParams, st, cols, den: int):
    """The height-changing operator on ``cols``, integer coefficient vectors
    (lowest power first, degree < dim) over ``den`` > 0; returns the image
    columns and their denominator.  ``st`` is ``common_denominator(s, t)``,
    which the caller already holds.  Each factor, divided by
    alpha, acts on the integers through the cached rows of delta(+) and
    delta(-) (:func:`_delta_rows`), and a gcd reduction follows.  A nonzero
    top coefficient of delta(-) f would leave the space under z - z0:
    ``ShapeMismatchError``.
    """
    m_plus = up_steps(b, c, m)
    if m_plus is None:
        raise ValueError("heights b, c are not adjacent at distance m")
    alpha = params.alpha
    top = len(cols[0]) - 1
    dp, dm = _delta_rows(alpha.numerator, alpha.denominator, top + 1)
    # Over alpha = p/q a factor is (z/alpha - Z) delta(-) + C delta(+), z0 = alpha Z, coef = C.
    # Z, C are put over 2 den(u, s, t) and all times |p|: z/alpha is q sign(p), den stays > 0.
    p, q = abs(alpha.numerator), alpha.denominator if alpha.numerator > 0 else -alpha.denominator
    st_den, (ds, dt) = st
    d = lcm(st_den, u.denominator)
    du, ds, dt = u.numerator * (d // u.denominator), ds * (d // st_den), dt * (d // st_den)
    lz, step = 2 * d * q, 2 * d * p * alpha.denominator**top
    # Rightmost factors act first: the second product, ascending l' applied first.
    factors = [(p * (2 * (ds - du) + (m + b + c) * d), 2 * p * (du - (m_plus + lp) * d)) for lp in range(m - m_plus)]
    factors += [(p * ((m - b - c) * d - 2 * (du + dt)), 2 * p * (du - l * d)) for l in range(m_plus)]
    for nz, nc in factors:
        out = []
        for f in cols:
            low = [sum([x * f[j] for j, x in row]) for row in dm]
            if low[-1]:
                raise ShapeMismatchError("truncation would discard nonzero coefficients")
            high = [sum([x * f[j] for j, x in row]) for row in dp]
            out.append([lz * x - nz * y + nc * h for x, y, h in zip([0] + low, low, high)])
        den *= step
        g = gcd(den, *chain.from_iterable(out))
        cols, den = [[x // g for x in col] for col in out], den // g
    return cols, den


def o_m_product_form(m: int, u: ScalarLike, b: int, c: int, params: ModelParams, degree_bound: int) -> ExactMatrix:
    """The height-changing operator as an ordered product of first-order factors.

    Each factor is {[z - z0] delta(-) + alpha(u - shift) delta(+)} and
    preserves the degree bound; the whole operator carries alpha^(-m).  Its
    columns are those of the identity, put through :func:`_o_m_apply`.
    """
    unit = ExactMatrix.identity(degree_bound + 1).numerators
    cols, den = _o_m_apply(m, rat(u), b, c, params, common_denominator(params.s, params.t), unit, 1)
    return ExactMatrix.from_integers(zip(*cols), den)


def _gamma_sandwich(c: int, d: int, center: Fraction, dim: int, params: ModelParams) -> ExactMatrix:
    """gamma(z - center, c) delta(-)^(c+d) gamma(z - center, d) on degree < dim.

    Either exponent may be negative (a reciprocal factor) as long as
    B = c + d >= 0.  With delta(-)^B = 2^-B sum_k (-1)^k C(B, k) T_{s alpha},
    s = B - 2k, the sandwich is 2^-B sum_k (-1)^k C(B, k) g_s T_{s alpha}
    with g_s(z) = gamma(z - center, c) gamma(z - center + s alpha, d).  In
    units of alpha from ``center`` the roots of g_s are {c-1, c-3, .., 1-c}
    counted with the sign of c and {d-1-s, .., 1-d-s} with the sign of d;
    for |s| <= B and s = B (mod 2) the reciprocal run lies inside the
    polynomial run, so every g_s is a polynomial of degree B.

    Column j is 2^-B sum_k (-1)^k C(B, k) g_s(z) (z + s alpha)^j, summed as
    integer coefficients over 2^B den^B q^(dim-1), where den is the common
    denominator of ``center`` and alpha = p/q: den^B g_s has the integer
    coefficients of :func:`_root_product` at z^i times den^i, and
    (z + s alpha)^j those of the shift by s p / q (:func:`_shift_entries`).
    The operator preserves the degree; the coefficients at z^dim and above
    must vanish and are cut off by :func:`_truncate`.
    """
    b = c + d
    if b < 0:
        raise ValueError("gamma sandwich needs c + d >= 0")
    alpha = params.alpha
    den, (x0, step) = common_denominator(center, alpha)
    den_powers = [den**i for i in range(b + 1)]
    cols = [[0] * (dim + b) for _ in range(dim)]
    for k in range(b + 1):
        s = b - 2 * k
        mult = Counter()
        for p, offset in ((c, 0), (d, s)):
            for r in range(abs(p) - 1, -abs(p), -2):
                mult[r - offset] += 1 if p > 0 else -1
        if any(e < 0 for e in mult.values()):
            raise ValueError("gamma sandwich left a reciprocal factor")
        weight = (-1) ** k * comb(b, k)
        g = [weight * x * y for x, y in zip(_root_product([x0 + step * r for r in mult.elements()]), den_powers)]
        shift = _shift_entries(s * alpha.numerator, alpha.denominator, dim)
        for j, col in enumerate(cols):
            for i in range(j + 1):
                x = shift[i][j]
                if x:
                    for r, y in enumerate(g, i):
                        col[r] += x * y
    op = ExactMatrix.from_integers(zip(*cols), 2**b * den**b * alpha.denominator ** (dim - 1))
    return _truncate(op, dim)


def o_m_gamma_form(
    m: int, u: ScalarLike, b: int, c: int, params: ModelParams, degree_bound: int
) -> ExactMatrix:
    """The factorized form of the height-changing operator, at integer u in {0..m}.

    The operator is alpha^(-m) S(m+ - u, u; u1) S(m - u, u - m+; u2), where
    S(C, D; x0) = gamma(z - x0, C) delta(-)^(C+D) gamma(z - x0, D) is built
    by ``_gamma_sandwich`` without leaving the polynomial ring.  Away from
    integer u the gamma exponents are non-integers, which the rational field
    cannot represent, so those points are refused.
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
    alpha, s, t = params.alpha, params.s, params.t
    u1 = alpha * (-u + Fraction(m - b - c, 2) - t)
    u2 = alpha * (-u + Fraction(m + b + c, 2) + s)
    dim = degree_bound + 1
    half2 = _gamma_sandwich(m - ui, ui - m_plus, u2, dim, params)
    half1 = _gamma_sandwich(m_plus - ui, ui, u1, dim, params)
    return (half1 @ half2).scale(alpha ** (-m))
