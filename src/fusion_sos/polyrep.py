"""Difference-operator realization on spaces of polynomials.

Fused operators and intertwining vectors act on polynomials of bounded
degree.  Every operator is held as a shift form

    sum_s g_s(z) T_{s alpha} / den,    T_h f(z) = f(z + h),

its terms {s: g_s} integer coefficient lists (lowest power first) over one
denominator.  Every operator matrix the module returns is read out of its
form once: ``_shift_form_matrix`` sums the terms into coefficient columns,
and ``_truncate`` cuts them back to the degree bound and refuses to drop a
nonzero coefficient, so a wrong form cannot pass silently.  A shift by
h = p/q has entry (i, j) C(j, i) p^(j-i) q^(dim-1-(j-i)) over q^(dim-1)
(``_shift_entries``, the one source of shift entries).

The averaged shift operators

    [delta(+|-) f](z) = (f(z + alpha) +|- f(z - alpha)) / 2

are the primitive moves: delta(-) lowers the degree by one, delta(+)
preserves the leading coefficient.  The four entries of the fused (n,1)
operator (``r_n1_matrix``) and the m first-order factors of the product
form of the height-changing operator (``_o_m_factors``) are first-order
forms g(z) T_alpha + h(z) T_{-alpha}.  The factor gamma(z, p) is the finite
product prod_{j=0}^{p-1} (z + alpha (2j + 1 - p)) for integer p >= 0 and its
reciprocal for p < 0; gamma factors and intertwining polynomials expand the
integer product of their roots over one common denominator.

A reciprocal factor only appears inside a sandwich
gamma(z, C) delta(-)^B gamma(z, D) with B = C + D >= 0.  Expanding

    delta(-)^B = 2^-B sum_k (-1)^k C(B, k) T_{(B - 2k) alpha}

turns each term into multiplication by gamma(z, C) gamma(z + (B - 2k) alpha, D)
followed by a shift.  Since |B - 2k| <= B and B - 2k = B (mod 2), the roots
of the reciprocal factor always lie among those of the polynomial factor, so
that product is a polynomial and each sandwich term is an integer
polynomial product (``_sandwich_terms``).

Shift forms compose on their coefficients (``_compose_shift_forms``):
T_{s alpha} moves past a coefficient by shifting its argument.  The product
form of the height-changing operator is the composition of its first-order
factors (``_o_m_product_terms``), the gamma form the composition of its two
sandwiches (``_o_m_gamma_terms``).  The identity checks build no matrix: the
star-triangle check compares the sandwich, at C = k and D = l, with the
shift form of delta(-)^l gamma(k + l) delta(-)^k, and ``o_m_identity_check``
compares the two composed forms of the height-changing operator.  Two shift
forms over the B + 1 shifts s = -B, -B+2, .., B agree on degree <= d exactly
when their moments sum_s s^i D_s agree for i <= min(d, B) (see
``_moments``).  The linear-solve weights apply the m first-order factors to
one integer coefficient column instead (``_o_m_apply``), through the cached
rows of delta(+) and delta(-) (``_delta_rows``).
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


def _shift_entries(p: int, q: int, dim: int) -> list[list[int]]:
    """The shift f(z) -> f(z + p/q) on polynomials of degree < dim as integer
    rows over q^(dim-1): entry (i, j) is C(j, i) p^e q^(dim-1-e), e = j - i,
    and 0 below the diagonal."""
    top = dim - 1
    powers = [p**e * q ** (top - e) for e in range(dim)]
    return [[comb(j, i) * powers[j - i] if j >= i else 0 for j in range(dim)] for i in range(dim)]


def gamma_poly(p: int, shift: ScalarLike, params: ModelParams) -> ExactPolynomial:
    """gamma(z - shift, p) = prod_{j=0}^{p-1} (z - shift + alpha(2j + 1 - p)) for p >= 0."""
    if p < 0:
        raise ValueError("gamma_poly needs a nonnegative exponent")
    den, (x0, step) = common_denominator(rat(shift), params.alpha)
    return ExactPolynomial.from_integer_roots([x0 + step * (p - 1 - 2 * j) for j in range(p)], den)


def star_triangle_check(
    k: int, l: int, shift: ScalarLike, degree_bound: int, params: ModelParams
) -> bool:
    """Exact operator test of gamma(k) delta-^(k+l) gamma(l) = delta-^l gamma(k+l) delta-^k
    on polynomials of degree <= degree_bound, with gamma(p) = gamma(z - shift, p).

    Both sides are finite sums sum_s g_s(z) T_{s alpha} over the B + 1 shifts
    s = -B, -B+2, .., B, B = k + l, held as integer coefficient lists over
    2^B den^B.  They agree when the moments i <= min(degree_bound, B) of the
    differences of their s-terms vanish (:func:`_moments`); no matrix is
    built.  The left side is the expansion of the gamma form of the
    height-changing operator (:func:`_sandwich_terms`), the right side is
    :func:`_delta_gamma_delta_terms`.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    if degree_bound < 0:
        raise ShapeMismatchError("matrix must have at least one row and column")
    top = min(degree_bound, k + l)
    den, (x0, step) = common_denominator(rat(shift), params.alpha)
    left = _sandwich_terms(k, l, den, x0, step)
    right = _delta_gamma_delta_terms(k, l, den, x0, step)
    diffs = {s: [x - y for x, y in zip(g, right[s])] for s, g in left.items()}
    return not any(map(any, _moments(diffs, top)))


def _moments(terms: dict[int, list[int]], top: int) -> list[list[int]]:
    """The moments M_i = sum_s s^i g_s, i = 0..top, of the shift form
    sum_s g_s(z) T_{s alpha}, its terms integer coefficient lists (lowest
    power first) of one length.

    The form sends z^j to sum_s g_s(z) (z + s alpha)^j
    = sum_i C(j, i) z^(j-i) alpha^i M_i(z).  By induction on j (the i = j
    term is alpha^j M_j and alpha != 0):

    - it sends every z^j, j <= d, to degree <= j exactly when deg M_i <= i
      for every i <= d;
    - it vanishes on degree <= d exactly when M_i = 0 for every i <= d, so
      two forms over one denominator agree there exactly when their moments
      i <= d are equal (the moments are linear in the terms).

    When the shifts lie among the B + 1 values -B, -B+2, .., B, the
    polynomial prod (x - s) over them has degree B + 1 and vanishes at every
    shift, so for i > B, s^i is one fixed combination of s^0, .., s^B at every
    shift, and M_i is the same combination of M_0, .., M_B.  Hence
    deg M_i <= B < i, and M_0 = .. = M_B = 0 forces M_i = 0: both statements
    are decided by the moments i <= min(d, B), for every d >= 0.
    """
    width = len(next(iter(terms.values())))
    moments = []
    for i in range(top + 1):
        moment = [0] * width
        for s, g in terms.items():
            w = s**i
            moment = [m + w * x for m, x in zip(moment, g)]
        moments.append(moment)
    return moments


def r_n1_matrix(n: int, u: ScalarLike, params: ModelParams) -> tuple[tuple[ExactMatrix, ExactMatrix], ...]:
    """The fused (n,1) operator as a 2x2 matrix of difference operators.

    The entries are u delta(+) + (z/alpha) delta(-), -delta(-)/alpha,
    (z^2/alpha) delta(-) - n z delta(+) - alpha u(u + n) delta(-) and
    (u + n) delta(+) - (z/alpha) delta(-).  With
    delta(+|-) = (T_alpha +|- T_{-alpha}) / 2 each is the first-order shift
    form (g(z) T_alpha + h(z) T_{-alpha}) / 2, its coefficients put over one
    denominator and read out on polynomials of degree <= n.  Each maps that
    space into itself; in the lower left entry the z^(n+1) terms of
    (z^2/alpha) delta(-) and n z delta(+) cancel, and the read-out checks that.
    """
    u = rat(u)
    alpha, dim, c = params.alpha, n + 1, params.alpha * u * (u + n)
    # (g, h), lowest power first.
    entries = (
        ((u, 1 / alpha), (u, -1 / alpha)),
        ((-1 / alpha,), (1 / alpha,)),
        ((-c, -n, 1 / alpha), (c, -n, -1 / alpha)),
        ((u + n, -1 / alpha), (u + n, 1 / alpha)),
    )
    ops = []
    for g, h in entries:
        den, nums = common_denominator(*g, *h)
        terms = {1: nums[: len(g)], -1: nums[len(g) :]}
        ops.append(_truncate(_shift_form_matrix(terms, 2 * den, dim, alpha), dim))
    return ((ops[0], ops[1]), (ops[2], ops[3]))


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


def _o_m_up_steps(m: int, b: int, c: int) -> int:
    """m+, the up steps from b to c at distance m, checked as every entry
    point of the height-changing operator checks it: ``ValueError`` when
    m < 0, then when b and c are not adjacent at distance m."""
    if m < 0:
        raise ValueError(f"the height-changing operator needs m >= 0, got m = {m}")
    m_plus = up_steps(b, c, m)
    if m_plus is None:
        raise ValueError("heights b, c are not adjacent at distance m")
    return m_plus


def _o_m_factors(m: int, u: Fraction, b: int, c: int, st) -> tuple[int, list[tuple[int, int]]]:
    """The m first-order factors of the height-changing operator, in the
    order they act (rightmost first), as (e, [(Z, C), ..]): the factor is
    [z - z0] delta(-) + alpha coef delta(+) with z0 = alpha Z / e and
    coef = C / e, all over e = 2 den(u, s, t).  ``st`` is
    ``common_denominator(s, t)``.

    The second product acts first, ascending l', with
    z0 = alpha(-u + (m + b + c)/2 + s) and coef = u - m+ - l'; then the
    first, ascending l, with z0 = alpha(-u + (m - b - c)/2 - t) and coef = u - l.
    """
    m_plus = _o_m_up_steps(m, b, c)
    st_den, (ds, dt) = st
    d = lcm(st_den, u.denominator)
    du, ds, dt = u.numerator * (d // u.denominator), ds * (d // st_den), dt * (d // st_den)
    factors = [(2 * (ds - du) + (m + b + c) * d, 2 * (du - (m_plus + lp) * d)) for lp in range(m - m_plus)]
    factors += [((m - b - c) * d - 2 * (du + dt), 2 * (du - l * d)) for l in range(m_plus)]
    return 2 * d, factors


def _o_m_apply(m: int, u: Fraction, b: int, c: int, params: ModelParams, st, cols, den: int):
    """The height-changing operator on ``cols``, integer coefficient vectors
    (lowest power first, degree < dim) over ``den`` > 0; returns the image
    columns and their denominator: the column kernel of the linear-solve
    weights (``correspondence.solve_weights_from_relation``), which never
    form the operator's matrix.  ``st`` is ``common_denominator(s, t)``,
    which the caller already holds.  The factors are those of
    :func:`_o_m_factors`; each, divided by alpha, acts on the integers
    through the cached rows of delta(+) and delta(-) (:func:`_delta_rows`),
    and a gcd reduction follows.  A nonzero top coefficient of delta(-) f
    would leave the space under z - z0: ``ShapeMismatchError``.
    """
    e, factors = _o_m_factors(m, u, b, c, st)
    alpha = params.alpha
    top = len(cols[0]) - 1
    dp, dm = _delta_rows(alpha.numerator, alpha.denominator, top + 1)
    # Over alpha = p/q a factor is (z/alpha - Z/e) delta(-) + C/e delta(+),
    # times e |p|: z/alpha is q sign(p), and den stays > 0.
    p, q = abs(alpha.numerator), alpha.denominator if alpha.numerator > 0 else -alpha.denominator
    lz, step = e * q, e * p * alpha.denominator**top
    for zn, cn in factors:
        nz, nc = p * zn, p * cn
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


def _o_m_product_terms(m: int, u: ScalarLike, b: int, c: int, params: ModelParams):
    """alpha^m times the product form of the height-changing operator, in
    shift form (terms, den) (see :func:`_compose_shift_forms`): the
    first-order factors of :func:`_o_m_factors` composed rightmost first,
    each in shift form [z - z0] delta(-) + alpha coef delta(+)
    = 1/2 [(z - z0 + alpha coef) T_alpha + (-z + z0 + alpha coef) T_{-alpha}].
    Refuses m < 0 and heights that are not adjacent (``ValueError``)."""
    alpha = params.alpha
    p, q = alpha.numerator, alpha.denominator
    e, factors = _o_m_factors(m, rat(u), b, c, common_denominator(params.s, params.t))
    # 2 q e times a factor, with z0 = alpha Z / e and coef = C / e.
    form = ({0: [1]}, 1)
    for zn, cn in factors:
        factor = {1: [p * (cn - zn), q * e], -1: [p * (zn + cn), -q * e]}
        form = _compose_shift_forms((factor, 2 * q * e), form, alpha)
    return form


def _o_m_matrix(m: int, form, degree_bound: int, alpha: Fraction) -> ExactMatrix:
    """alpha^(-m) times the shift form (terms, den), read out on degree <= degree_bound."""
    dim = degree_bound + 1
    return _truncate(_shift_form_matrix(*form, dim, alpha), dim).scale(alpha ** (-m))


def o_m_product_form(m: int, u: ScalarLike, b: int, c: int, params: ModelParams, degree_bound: int) -> ExactMatrix:
    """The height-changing operator as an ordered product of first-order factors.

    Each factor is {[z - z0] delta(-) + alpha(u - shift) delta(+)} and
    preserves the degree bound; the whole operator carries alpha^(-m).  The
    factors are composed in shift form (:func:`_o_m_product_terms`) and the
    composition is read out once.
    """
    return _o_m_matrix(m, _o_m_product_terms(m, u, b, c, params), degree_bound, params.alpha)


def _sandwich_terms(c: int, d: int, den: int, x0: int, step: int) -> dict[int, list[int]]:
    """gamma(z - center, c) delta(-)^B gamma(z - center, d), B = c + d, in shift
    form: {s: g} with the sandwich equal to sum_s g_s(z) T_{s alpha} / (2^B den^B),
    center = x0 / den and alpha = step / den.

    With delta(-)^B = 2^-B sum_k (-1)^k C(B, k) T_{s alpha}, s = B - 2k, 2^B
    times the term at s is (-1)^k C(B, k) gamma(z - center, c) gamma(z - center + s alpha, d).
    In units of alpha from ``center`` its roots are {c-1, c-3, .., 1-c}
    counted with the sign of c and {d-1-s, .., 1-d-s} with the sign of d;
    for |s| <= B and s = B (mod 2) the reciprocal run lies inside the
    polynomial run, so every term is a polynomial of degree B.  Its B
    integer roots x0 + step r over den give den^B times it the coefficients
    of :func:`_root_product` at z^i times den^i, listed lowest power first.
    """
    b = c + d
    den_powers = [den**i for i in range(b + 1)]
    terms = {}
    for k in range(b + 1):
        s = b - 2 * k
        mult = Counter()
        for p, offset in ((c, 0), (d, s)):
            for r in range(abs(p) - 1, -abs(p), -2):
                mult[r - offset] += 1 if p > 0 else -1
        if any(e < 0 for e in mult.values()):
            raise ValueError("gamma sandwich left a reciprocal factor")
        weight = (-1) ** k * comb(b, k)
        roots = _root_product([x0 + step * r for r in mult.elements()])
        terms[s] = [weight * x * y for x, y in zip(roots, den_powers)]
    return terms


def _delta_gamma_delta_terms(k: int, l: int, den: int, x0: int, step: int) -> dict[int, list[int]]:
    """delta(-)^l gamma(z - center, k + l) delta(-)^k in shift form, as in
    :func:`_sandwich_terms`: {s: g} over 2^B den^B, B = k + l.

    Expanding both powers binomially and moving T_{s1 alpha} past the gamma
    factor gives 2^-B sum (-1)^(t1+t2) C(l, t1) C(k, t2)
    gamma(z - center + s1 alpha, B) T_{(s1+s2) alpha} with s1 = l - 2 t1 and
    s2 = k - 2 t2.  The shifted gamma factor has the roots
    center + alpha (r - s1), r = B-1, B-3, .., 1-B.
    """
    b = k + l
    den_powers = [den**i for i in range(b + 1)]
    terms = {s: [0] * (b + 1) for s in range(-b, b + 1, 2)}
    for t1 in range(l + 1):
        s1 = l - 2 * t1
        roots = _root_product([x0 + step * (r - s1) for r in range(b - 1, -b, -2)])
        gamma = [x * y for x, y in zip(roots, den_powers)]
        for t2 in range(k + 1):
            weight = (-1) ** (t1 + t2) * comb(l, t1) * comb(k, t2)
            term = terms[s1 + k - 2 * t2]
            for i, x in enumerate(gamma):
                term[i] += weight * x
    return terms


def _compose_shift_forms(outer, inner, alpha: Fraction):
    """The composition (outer after inner) of two shift forms, each given as
    (terms, den): the operator sum_s g_s(z) T_{s alpha} / den with {s: g}
    integer coefficient lists (lowest power first), one length per form.

    T_{s alpha} moves past a coefficient by shifting its argument, so
    (sum_s g_s T_{s alpha})(sum_t h_t T_{t alpha})
    = sum_{s,t} g_s(z) h_t(z + s alpha) T_{(s+t) alpha}, and the term at s + t
    collects g_s(z) h_t(z + s alpha).  For inner terms of length n and
    alpha = p/q, q^(n-1) h_t(z + s alpha) has the integer coefficients of the
    shift by s p / q (:func:`_shift_entries`), so the composition is over
    den_outer den_inner q^(n-1).
    """
    (g_terms, g_den), (h_terms, h_den) = outer, inner
    n = len(next(iter(h_terms.values())))
    terms = {}
    for s, g in g_terms.items():
        shift = _shift_entries(s * alpha.numerator, alpha.denominator, n)
        for t, h in h_terms.items():
            moved = [sum([x * y for x, y in zip(row, h)]) for row in shift]
            term = terms.setdefault(s + t, [0] * (len(g) + n - 1))
            for i, x in enumerate(g):
                for r, y in enumerate(moved, i):
                    term[r] += x * y
    return terms, g_den * h_den * alpha.denominator ** (n - 1)


def _shift_form_matrix(terms: dict[int, list[int]], den: int, dim: int, alpha: Fraction) -> ExactMatrix:
    """The matrix of sum_s g_s(z) T_{s alpha} / den on degree < dim, before
    it is cut back: (dim + w - 1) x dim for terms of length w.

    Column j is sum_s g_s(z) (z + s alpha)^j, summed as integer coefficients
    over den q^(dim-1) for alpha = p/q: (z + s alpha)^j has the coefficients
    of the shift by s p / q (:func:`_shift_entries`).  A degree-preserving
    form leaves the rows at z^dim and above zero, which :func:`_truncate`
    checks as it cuts them off.
    """
    width = len(next(iter(terms.values())))
    cols = [[0] * (dim + width - 1) for _ in range(dim)]
    for s, g in terms.items():
        shift = _shift_entries(s * alpha.numerator, alpha.denominator, dim)
        for j, col in enumerate(cols):
            for i in range(j + 1):
                x = shift[i][j]
                if x:
                    for r, y in enumerate(g, i):
                        col[r] += x * y
    return ExactMatrix.from_integers(zip(*cols), den * alpha.denominator ** (dim - 1))


def _sandwich_form(c: int, d: int, center: Fraction, alpha: Fraction):
    """gamma(z - center, c) delta(-)^(c+d) gamma(z - center, d) in shift form,
    as (terms, den) (see :func:`_compose_shift_forms`): the terms of
    :func:`_sandwich_terms` over 2^B den^B, B = c + d, den the common
    denominator of ``center`` and alpha."""
    den, (x0, step) = common_denominator(center, alpha)
    b = c + d
    return _sandwich_terms(c, d, den, x0, step), 2**b * den**b


def _o_m_gamma_terms(m: int, u: ScalarLike, b: int, c: int, params: ModelParams):
    """alpha^m times the gamma form of the height-changing operator, in shift
    form (terms, den) (see :func:`_compose_shift_forms`): the composition
    S(m+ - u, u; u1) S(m - u, u - m+; u2) of two sandwiches
    (:func:`_sandwich_form`), S(C, D; x0) = gamma(z - x0, C) delta(-)^(C+D)
    gamma(z - x0, D).  Refuses m < 0 and heights that are not adjacent
    (``ValueError``), then u off the integers 0..m
    (``UnsupportedEvaluationPoint``).
    """
    m_plus = _o_m_up_steps(m, b, c)
    u = rat(u)
    if u.denominator != 1 or not (0 <= u <= m):
        raise UnsupportedEvaluationPoint(
            f"gamma exponents are integers only for integer u in 0..{m}, got {u}"
        )
    ui = int(u)
    alpha, s, t = params.alpha, params.s, params.t
    u1 = alpha * (-u + Fraction(m - b - c, 2) - t)
    u2 = alpha * (-u + Fraction(m + b + c, 2) + s)
    half1 = _sandwich_form(m_plus - ui, ui, u1, alpha)
    half2 = _sandwich_form(m - ui, ui - m_plus, u2, alpha)
    return _compose_shift_forms(half1, half2, alpha)


def o_m_gamma_form(
    m: int, u: ScalarLike, b: int, c: int, params: ModelParams, degree_bound: int
) -> ExactMatrix:
    """The factorized form of the height-changing operator, at integer u in {0..m}.

    The operator is alpha^(-m) S(m+ - u, u; u1) S(m - u, u - m+; u2), where
    S(C, D; x0) = gamma(z - x0, C) delta(-)^(C+D) gamma(z - x0, D).  The two
    sandwiches are composed in shift form (:func:`_o_m_gamma_terms`), without
    leaving the polynomial ring, and the composition is summed into columns
    once (:func:`_shift_form_matrix`).  Away from integer u the gamma
    exponents are non-integers, which the rational field cannot represent,
    so those points are refused.
    """
    return _o_m_matrix(m, _o_m_gamma_terms(m, u, b, c, params), degree_bound, params.alpha)


def o_m_identity_check(m: int, u: ScalarLike, b: int, c: int, params: ModelParams, degree_bound: int) -> bool:
    """Exact test of o_m_product_form == o_m_gamma_form on polynomials of
    degree <= degree_bound, at integer u in {0..m}; no matrix is built.

    Both sides carry alpha^(-m); the check compares alpha^m times each as a
    shift form sum_s D_s(z) T_{s alpha}, s = -m, -m+2, .., m, with integer
    coefficient lists over one denominator per side: the forms the two
    matrix forms read out, :func:`_o_m_product_terms` and
    :func:`_o_m_gamma_terms`.

    Each side must send z^j to degree <= j, that is deg M_i <= i for its
    moments i <= min(d, m) (:func:`_moments`), or ``ShapeMismatchError`` is
    raised, as the matrix forms refuse to cut off a nonzero coefficient.  The
    sides agree when those moments, put over one denominator, are equal.
    The refusals are those of :func:`o_m_gamma_form`: ``ValueError`` for
    m < 0 and for heights that are not adjacent,
    ``UnsupportedEvaluationPoint`` for u off the integers 0..m, and
    ``ShapeMismatchError`` for degree_bound < 0.
    """
    gamma, gamma_den = _o_m_gamma_terms(m, u, b, c, params)
    if degree_bound < 0:
        raise ShapeMismatchError("matrix must have at least one row and column")
    product, product_den = _o_m_product_terms(m, u, b, c, params)
    top = min(degree_bound, m)
    left, right = _moments(product, top), _moments(gamma, top)
    for side in (left, right):
        if any(any(moment[i + 1 :]) for i, moment in enumerate(side)):
            raise ShapeMismatchError("the operator raises the degree of a polynomial")
    return [[x * gamma_den for x in mo] for mo in left] == [[y * product_den for y in mo] for mo in right]
