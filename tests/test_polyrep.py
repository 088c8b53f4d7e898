import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusion_sos.exactcore import (
    ExactMatrix,
    ExactPolynomial,
    ScalarLike,
    ShapeMismatchError,
    common_denominator,
    kron,
    mat_mul,
    rat,
)
from fusion_sos import cli, correspondence, polyrep
from fusion_sos.fusion import fuse_nm
from fusion_sos.polyrep import (
    UnsupportedEvaluationPoint,
    _compose_shift_forms,
    _sandwich_form,
    _shift_entries,
    _shift_form_matrix,
    _truncate,
    assemble_2x2,
    intertwiner_poly,
    monomial_to_coeff_matrix,
    o_m_gamma_form,
    o_m_identity_check,
    o_m_product_form,
    r_n1_matrix,
    star_triangle_check,
)
from fusion_sos.vertex import ModelParams, r7v, up_steps

from conftest import lagrange_interpolate, poly_shift, reference_solve_weights

Z = ExactPolynomial((0, 1))

# Step sizes with denominators 1, 3 and 7, of both signs.
STEPS = [Fraction(2), Fraction(-1), Fraction(5, 3), Fraction(-4, 3), Fraction(3, 7), Fraction(-9, 7)]


def apply(op, p):
    """The polynomial whose coefficient column is op times that of p."""
    column = ExactMatrix.column(p.coeff_vector(op.cols))
    return ExactPolynomial(mat_mul(op, column).column_vector())


def cached_delta(sign, dim, alpha):
    """delta(+) (sign 1) or delta(-) (sign -1) on degree < dim, read from the
    cached rows of ``polyrep._delta_rows``, the one delta source."""
    pairs = polyrep._delta_rows(alpha.numerator, alpha.denominator, dim)[(1 - sign) // 2]
    rows = [[dict(row).get(j, 0) for j in range(dim)] for row in pairs]
    return ExactMatrix.from_integers(rows, alpha.denominator ** (dim - 1))


class TestDeltaOps:
    def test_plus_fixes_constants(self, params):
        dp = cached_delta(1, 5, params.alpha)
        assert apply(dp, ExactPolynomial.one()) == ExactPolynomial.one()

    def test_low_degree_actions(self, params):
        a = params.alpha
        dm = cached_delta(-1, 5, a)
        dp = cached_delta(1, 5, a)
        assert apply(dm, Z) == ExactPolynomial((a,))
        assert apply(dm, Z * Z) == ExactPolynomial((0, 2 * a))
        assert apply(dp, Z * Z) == ExactPolynomial((a * a, 0, 1))

    def test_minus_power_annihilates(self, params):
        d = 3
        big = delta_minus_power(d + 1, d + 1, params)
        for j in range(d + 1):
            assert apply(big, ExactPolynomial.monomial(j)).is_zero()

    def test_minus_power_refuses_negative_exponent(self, params):
        with pytest.raises(ValueError):
            delta_minus_power(-1, 3, params)


def delta_minus_power(k, dim, params):
    """delta(-)^k on polynomials of degree < dim, in closed form: the
    reference the composed form below is checked against.

    delta(-)^k = 2^-k sum_t (-1)^t C(k, t) T_{(k-2t) alpha}, so entry (i, j)
    is C(j, i) alpha^e S(k, e) / 2^k with e = j - i and
    S(k, e) = sum_t (-1)^t C(k, t) (k - 2t)^e, which vanishes for e < k and
    for odd e - k.  Over alpha = p/q the entries are the shift entries
    (``polyrep._shift_entries``) times S(k, e), over q^(dim-1) 2^k.
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


def composed_delta_minus_power(k, dim, params):
    """delta(-)^k as the k-fold composition of delta(-)."""
    op = ExactMatrix.identity(dim)
    dm = fraction_delta(-1, dim, params.alpha)
    for _ in range(k):
        op = dm @ op
    return op


# Nonzero steps with unit and non-unit denominators, of both signs.
nonzero_alphas = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


class TestDeltaMinusPowerClosedForm:
    """The closed form of delta(-)^k from its shift expansion, the reference
    helper above, equals the k-fold composition of delta(-)."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 9), nonzero_alphas)
    def test_matches_composition(self, k, dim, alpha):
        params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
        assert delta_minus_power(k, dim, params) == composed_delta_minus_power(k, dim, params)

    @pytest.mark.parametrize("alpha", STEPS)
    def test_matches_composition_at_listed_steps(self, alpha):
        params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
        for k in range(7):
            for dim in (1, 2, 6, 9):
                assert delta_minus_power(k, dim, params) == composed_delta_minus_power(k, dim, params)


@lru_cache(maxsize=None)
def fraction_shift(h, dim):
    """The shift f(z) -> f(z + h) from Fraction rows: column j is poly_shift of z^j."""
    cols = [poly_shift(ExactPolynomial.monomial(j), h).coeff_vector(dim) for j in range(dim)]
    return ExactMatrix(list(zip(*cols)))


def fraction_delta(sign, dim, alpha):
    """delta(+) (sign 1) or delta(-) (sign -1) on degree < dim, averaged from
    the Fraction shifts by alpha and -alpha."""
    return (fraction_shift(alpha, dim) + fraction_shift(-alpha, dim).scale(sign)).scale(Fraction(1, 2))


def fraction_mul(q, dim, rows=None):
    """Multiplication by the polynomial q from degree < dim into degree < rows
    (by default dim + deg q): column j is q z^j, entry (i, j) the Fraction
    coefficient of q at z^(i-j)."""
    rows = rows or dim + max(q.degree, 0)
    return ExactMatrix([[q.coeff(i - j) for j in range(dim)] for i in range(rows)])


def linear_product(roots, lead=1):
    """lead * prod (z - r), multiplied out one Fraction linear factor at a time."""
    p = ExactPolynomial((lead,))
    for r in roots:
        p = p * ExactPolynomial((-r, 1))
    return p


def gamma_poly(p: int, shift: ScalarLike, params: ModelParams) -> ExactPolynomial:
    """gamma(z - shift, p) = prod_{j=0}^{p-1} (z - shift + alpha(2j + 1 - p)) for p >= 0."""
    if p < 0:
        raise ValueError("gamma_poly needs a nonnegative exponent")
    den, (x0, step) = common_denominator(rat(shift), params.alpha)
    return ExactPolynomial.from_integer_roots([x0 + step * (p - 1 - 2 * j) for j in range(p)], den)


class TestIntegerBuildersMatchFractionReferences:
    """The shift entries, the delta rows, the multiplication forms and the
    polynomials with known roots are built on integer numerators; Fraction
    constructions are the references."""

    @pytest.mark.parametrize("h", STEPS)
    def test_shift_entries_are_poly_shift_of_monomials(self, h):
        for dim in (1, 2, 5, 7):
            rows = _shift_entries(h.numerator, h.denominator, dim)
            assert ExactMatrix.from_integers(rows, h.denominator ** (dim - 1)) == fraction_shift(h, dim)

    @pytest.mark.parametrize("alpha", STEPS)
    def test_delta_ops_are_averaged_shifts(self, alpha):
        for dim in (1, 2, 5, 7):
            for sign in (1, -1):
                assert cached_delta(sign, dim, alpha) == fraction_delta(sign, dim, alpha)

    def test_multiplication_operators(self):
        """Multiplication by q is the shift form with one term, at shift 0:
        its integer matrix is the Fraction one and acts as q * p."""
        q = ExactPolynomial((Fraction(-2, 7), Fraction(5, 3), 0, Fraction(1, 21)))
        p = ExactPolynomial((Fraction(1, 2), -3, Fraction(7, 4)))
        den, g = common_denominator(*q.coeff_vector(q.degree + 1))
        for alpha in STEPS:
            op = _shift_form_matrix({0: g}, den, 3, alpha)
            assert op == fraction_mul(q, 3)
            assert apply(op, p) == q * p
        assert apply(_shift_form_matrix({0: [1, 0]}, 1, 3, STEPS[0]), p) == p
        assert apply(_shift_form_matrix({0: [0, 1]}, 1, 3, STEPS[0]), p) == Z * p

    @pytest.mark.parametrize("alpha", STEPS)
    def test_gamma_poly_is_product_of_linear_factors(self, alpha):
        params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
        for shift in (Fraction(0), Fraction(2, 7), Fraction(-5, 3)):
            for p in range(5):
                roots = [shift + alpha * (p - 1 - 2 * j) for j in range(p)]
                assert gamma_poly(p, shift, params) == linear_product(roots)

    @pytest.mark.parametrize("alpha", STEPS)
    def test_intertwiner_poly_is_product_of_linear_factors(self, alpha):
        params = ModelParams(alpha, Fraction(-3, 7), Fraction(4, 3))
        s, t = params.s, params.t
        for u in (Fraction(0), Fraction(7, 3), Fraction(-1, 2)):
            for n in range(4):
                for a in (-2, 1):
                    for n_plus in range(n + 1):
                        b = a + 2 * n_plus - n
                        roots = [alpha * (u + n - a - 2 * p + 1 - t) for p in range(1, n_plus + 1)]
                        roots += [alpha * (u + n + a - 2 * q + 1 + s) for q in range(1, n - n_plus + 1)]
                        assert intertwiner_poly(n, u, a, b, params) == linear_product(roots, (-1) ** n)


class TestGammaFactor:
    def test_p0(self, params):
        assert gamma_poly(0, Fraction(2), params) == ExactPolynomial.one()

    def test_p1(self, params):
        g = gamma_poly(1, Fraction(2, 3), params)
        assert g == ExactPolynomial((Fraction(-2, 3), 1))

    def test_p2(self, params):
        sh = Fraction(1, 5)
        a = params.alpha
        g = gamma_poly(2, sh, params)
        expected = ExactPolynomial((-sh - a, 1)) * ExactPolynomial((-sh + a, 1))
        assert g == expected

    def test_negative_exponent_raises(self, params):
        with pytest.raises(ValueError):
            gamma_poly(-1, Fraction(1, 7), params)


SANDWICH_CENTER = Fraction(2, 7)
SANDWICH_DIM = 5


def _mul_gamma(p, dim, params):
    return fraction_mul(gamma_poly(p, SANDWICH_CENTER, params), dim)


def sandwich(c, d, center, dim, params):
    """gamma(z - center, c) delta-^(c+d) gamma(z - center, d) on degree < dim,
    read out of its shift form as o_m_gamma_form reads its composition."""
    alpha = params.alpha
    return _truncate(_shift_form_matrix(*_sandwich_form(c, d, center, alpha), dim, alpha), dim)


def per_term_sandwich(c, d, center, dim, params):
    """The sandwich summed term by term as operators:
    2^-B sum_k (-1)^k C(B, k) g_s T_{s alpha}, s = B - 2k, with g_s the
    Fraction product over the roots center + alpha r left after the
    reciprocal run cancels, cut back to dim."""
    b, alpha = c + d, params.alpha
    total = ExactMatrix.zeros(dim + b, dim)
    for k in range(b + 1):
        s = b - 2 * k
        mult = Counter()
        for p, offset in ((c, 0), (d, s)):
            for r in range(abs(p) - 1, -abs(p), -2):
                mult[r - offset] += 1 if p > 0 else -1
        g = linear_product([center + alpha * r for r in mult.elements()])
        term = fraction_mul(g, dim, dim + b) @ fraction_shift(s * alpha, dim)
        total = total + term.scale((-1) ** k * comb(b, k))
    return _truncate(total.scale(Fraction(1, 2**b)), dim)


class TestGammaSandwich:
    """The sandwich, read out of its shift form (``sandwich``), is summed on
    integer columns in one pass; the operator compositions it replaced are
    the references.  A sandwich with c + d < 0 has no shift form, and no
    public path asks for one: star_triangle_check refuses k, l < 0, and the
    two sandwiches of the gamma form have B = m+ and B = m - m+."""

    @pytest.mark.parametrize("alpha", STEPS)
    def test_matches_per_term_operator_sum(self, alpha):
        params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
        for center in (SANDWICH_CENTER, Fraction(-5, 3)):
            for c in range(-3, 4):
                for d in range(-c, 4):
                    for dim in (1, 6):
                        assert sandwich(c, d, center, dim, params) == per_term_sandwich(
                            c, d, center, dim, params
                        ), (c, d, dim)

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("l", range(4))
    def test_polynomial_factors(self, k, l, params):
        """For k, l >= 0 the sandwich is gamma(k) delta-^(k+l) gamma(l) cut back."""
        dim = SANDWICH_DIM
        inner = _mul_gamma(l, dim, params)
        inner = composed_delta_minus_power(k + l, inner.rows, params) @ inner
        expected = _truncate(_mul_gamma(k, inner.rows, params) @ inner, dim)
        assert sandwich(k, l, SANDWICH_CENTER, dim, params) == expected

    @pytest.mark.parametrize(
        "c, d", [(c, d) for c in range(-3, 4) for d in range(-3, 4) if c + d >= 0 and min(c, d) < 0]
    )
    def test_reciprocal_factor_cancels(self, c, d, params):
        """Clearing the reciprocal factor gives a product of polynomial operators."""
        dim, b = SANDWICH_DIM, c + d
        if d < 0:
            # S(c, d) gamma(|d|) = gamma(c) delta-^b
            lhs = sandwich(c, d, SANDWICH_CENTER, dim - d, params) @ _mul_gamma(-d, dim, params)
            rhs = _mul_gamma(c, dim, params) @ composed_delta_minus_power(b, dim, params)
        else:
            # gamma(|c|) S(c, d) = delta-^b gamma(d)
            lhs = _mul_gamma(-c, dim, params) @ sandwich(c, d, SANDWICH_CENTER, dim, params)
            inner = _mul_gamma(d, dim, params)
            rhs = composed_delta_minus_power(b, inner.rows, params) @ inner
        assert _truncate(rhs, lhs.rows) == lhs

    def test_zero_loss_check(self, params, monkeypatch):
        """A shift quadratic in s (by s^2 p alpha for alpha = p/q, not s alpha)
        breaks the cancellation of the top coefficients; the overflow is
        refused, not cut off."""
        entries = polyrep._shift_entries
        monkeypatch.setattr(polyrep, "_shift_entries", lambda p, q, dim: entries(p * p, q, dim))
        with pytest.raises(ShapeMismatchError):
            sandwich(1, 1, SANDWICH_CENTER, SANDWICH_DIM, params)


def reference_star_sides(k, l, shift, degree_bound, params):
    """Both sides of the star-triangle relation as composed matrices on
    degree <= degree_bound, before they are cut back: gamma(k) delta-^(k+l)
    gamma(l) and delta-^l gamma(k+l) delta-^k, each with dim + k + l rows."""
    shift = rat(shift)
    d = degree_bound
    gk = gamma_poly(k, shift, params)
    gl = gamma_poly(l, shift, params)
    gkl = gamma_poly(k + l, shift, params)

    lhs = fraction_mul(gl, d + 1)
    lhs = delta_minus_power(k + l, lhs.rows, params) @ lhs
    lhs = fraction_mul(gk, lhs.rows) @ lhs

    rhs = delta_minus_power(k, d + 1, params)
    rhs = fraction_mul(gkl, rhs.rows) @ rhs
    rhs = delta_minus_power(l, rhs.rows, params) @ rhs
    return lhs, rhs


def reference_star_triangle(k, l, shift, degree_bound, params):
    """The star-triangle check as it was built before the shift-coefficient
    comparison: both sides composed as matrices and compared entrywise."""
    lhs, rhs = reference_star_sides(k, l, shift, degree_bound, params)
    return _truncate(lhs, degree_bound + 1) == _truncate(rhs, degree_bound + 1)


def fraction_form_matrix(terms, den, dim, alpha):
    """sum_s g_s T_{s alpha} / den on degree < dim, from Fraction polynomials
    and Fraction shifts, with dim + w - 1 rows for terms of length w."""
    rows = dim + len(next(iter(terms.values()))) - 1
    total = ExactMatrix.zeros(rows, dim)
    for s, g in terms.items():
        poly = ExactPolynomial([Fraction(x, den) for x in g])
        total = total + fraction_mul(poly, dim, rows) @ fraction_shift(s * alpha, dim)
    return total


def shift_form_matrix(terms, b, shift, dim, params):
    """sum_s g_s T_{s alpha} / (2^B den^B) on degree < dim, with dim + B rows."""
    den, _ = common_denominator(rat(shift), params.alpha)
    return fraction_form_matrix(terms, 2**b * den**b, dim, params.alpha)


def shift_terms(k, l, shift, params):
    """The two sides' shift-form terms, as star_triangle_check forms them."""
    den, (x0, step) = common_denominator(rat(shift), params.alpha)
    return polyrep._sandwich_terms(k, l, den, x0, step), polyrep._delta_gamma_delta_terms(k, l, den, x0, step)


def sandwich_verdict(k, l, shift, degree_bound, params):
    """The relation decided on matrices with the left side read out of the
    shift form of _sandwich_terms (``sandwich``), so a perturbed
    _sandwich_terms reaches it; a nonzero coefficient past the degree bound
    is a failure, as _truncate refuses it."""
    _, rhs = reference_star_sides(k, l, shift, degree_bound, params)
    try:
        return sandwich(k, l, rat(shift), degree_bound + 1, params) == _truncate(rhs, degree_bound + 1)
    except ShapeMismatchError:
        return False


STAR_ALPHAS = [Fraction(3, 2), Fraction(-2, 3), Fraction(5, 7)]
STAR_SHIFTS = [Fraction(0), Fraction(2, 7), Fraction(-3, 5)]
# The 48 cases of ``fusion-sos verify star-triangle``, at its degree bound 8.
_, _, star_cases, _ = cli._SUITES["star-triangle"]
STAR_SUITE = star_cases(random.Random(0))


def star_degree_bounds(k, l):
    return sorted({0, 1, k + l - 1, k + l, 8} - {-1})


class TestStarTriangle:
    """The relation is checked on the shift-form coefficients of both sides;
    the matrix compositions it replaced are the reference."""

    def test_trivial(self, params):
        assert star_triangle_check(0, 0, Fraction(0), 4, params)

    def test_k1_l0(self, params):
        assert star_triangle_check(1, 0, Fraction(0), 6, params)

    def test_k2_l3(self, params):
        assert star_triangle_check(2, 3, Fraction(2, 7), 8, params)

    @pytest.mark.parametrize("alpha", STAR_ALPHAS)
    def test_matches_matrix_reference(self, alpha):
        """Equal to the composed-matrix check for k, l <= 4, also at bounds
        d < k + l, where only the moments 0..d are compared."""
        params = ModelParams(alpha)
        calls = 0
        for k in range(5):
            for l in range(5):
                for shift in STAR_SHIFTS:
                    for d in star_degree_bounds(k, l):
                        assert star_triangle_check(k, l, shift, d, params) == reference_star_triangle(
                            k, l, shift, d, params
                        ), (k, l, shift, d)
                        calls += 1
        assert calls == 345

    @pytest.mark.parametrize("alpha", STAR_ALPHAS)
    def test_each_side_is_its_matrix(self, alpha):
        """Each side's terms, summed as operators, are that side's composed matrix."""
        params = ModelParams(alpha)
        for k in range(4):
            for l in range(4):
                for shift in STAR_SHIFTS:
                    lhs, rhs = reference_star_sides(k, l, shift, 4, params)
                    left, right = shift_terms(k, l, shift, params)
                    assert shift_form_matrix(left, k + l, shift, 5, params) == lhs, (k, l, shift)
                    assert shift_form_matrix(right, k + l, shift, 5, params) == rhs, (k, l, shift)

    def test_perturbed_left_terms_fail(self, params, monkeypatch):
        """1 added to the constant coefficient of the s = B term of the left
        side fails every suite case, in the check and in the gamma sandwich."""
        terms = polyrep._sandwich_terms

        def mutant(c, d, den, x0, step):
            out = terms(c, d, den, x0, step)
            out[c + d][0] += 1
            return out

        monkeypatch.setattr(polyrep, "_sandwich_terms", mutant)
        for k, l, shift in STAR_SUITE:
            assert not star_triangle_check(k, l, shift, 8, params), (k, l, shift)
            assert not sandwich_verdict(k, l, shift, 8, params), (k, l, shift)

    def test_perturbed_right_terms_fail(self, params, monkeypatch):
        """1 added to the top coefficient of the s = -B term of the right side
        fails every suite case; summed as operators, the perturbed terms
        differ from the composed left side too."""
        terms = polyrep._delta_gamma_delta_terms

        def mutant(k, l, den, x0, step):
            out = terms(k, l, den, x0, step)
            out[-k - l][-1] += 1
            return out

        monkeypatch.setattr(polyrep, "_delta_gamma_delta_terms", mutant)
        for k, l, shift in STAR_SUITE:
            assert not star_triangle_check(k, l, shift, 8, params), (k, l, shift)
            lhs, _ = reference_star_sides(k, l, shift, 8, params)
            _, right = shift_terms(k, l, shift, params)
            assert shift_form_matrix(right, k + l, shift, 9, params) != lhs, (k, l, shift)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_perturbation_seen_from_its_degree(self, order, params, monkeypatch):
        """An order-j difference of shifts, sum_t (-1)^t C(j, t) T_{(B-2t) alpha}
        added to the left side, kills every polynomial of degree < j and no
        other: the check and the gamma-sandwich matrices both pass exactly
        when d < j."""
        terms = polyrep._sandwich_terms

        def mutant(c, d, den, x0, step):
            out = terms(c, d, den, x0, step)
            for t in range(order + 1):
                out[c + d - 2 * t][0] += (-1) ** t * comb(order, t)
            return out

        monkeypatch.setattr(polyrep, "_sandwich_terms", mutant)
        for k, l in [(k, l) for k in range(4) for l in range(4) if k + l >= order]:
            for d in range(k + l + 2):
                expected = d < order
                assert star_triangle_check(k, l, Fraction(2, 7), d, params) == expected, (k, l, d)
                assert sandwich_verdict(k, l, Fraction(2, 7), d, params) == expected, (k, l, d)

    def test_negative_degree_bound_raises(self, params):
        """An empty space is refused, as the empty matrix of the composed check was."""
        for d in (-1, -3):
            with pytest.raises(ShapeMismatchError, match="at least one row and column"):
                star_triangle_check(1, 2, Fraction(2, 7), d, params)
            with pytest.raises(ShapeMismatchError):
                reference_star_triangle(1, 2, Fraction(2, 7), d, params)

    @pytest.mark.parametrize("k, l", [(-1, 0), (0, -1), (-2, 3)])
    def test_negative_exponent_raises(self, k, l, params):
        with pytest.raises(ValueError, match="nonnegative"):
            star_triangle_check(k, l, Fraction(0), 4, params)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_commutation_identities(p, params):
    """delta- gamma(p) = gamma(p-1)[z delta- + p alpha delta+] and its mirror."""
    d = 6
    a = params.alpha
    gp = gamma_poly(p, Fraction(0), params)
    gp1 = gamma_poly(p - 1, Fraction(0), params)
    pa = ExactPolynomial((p * a,))

    lhs = fraction_delta(-1, d + p + 1, a) @ fraction_mul(gp, d + 1)
    bracket = fraction_mul(Z, d + 1) @ fraction_delta(-1, d + 1, a)
    bracket += fraction_mul(pa, d + 1, d + 2) @ fraction_delta(1, d + 1, a)
    assert lhs == fraction_mul(gp1, d + 2) @ bracket

    lhs2 = fraction_mul(gp, d + 1) @ fraction_delta(-1, d + 1, a)
    gdim = d + p  # degree bound after multiplying by gamma(p - 1)
    bracket2 = fraction_delta(-1, gdim + 1, a) @ fraction_mul(Z, gdim)
    bracket2 -= fraction_mul(pa, gdim, gdim + 1) @ fraction_delta(1, gdim, a)
    assert lhs2 == bracket2 @ fraction_mul(gp1, d + 1)


class TestTruncateAndPad:
    """``_truncate`` cuts an operator back to a smaller output space, drops
    zero rows padded below it exactly, and refuses to drop a nonzero row."""

    def test_truncate_refuses_nonzero_integer_rows(self):
        # Multiplication by z^2 / 3 on degree < 3; its top row holds z^2 -> z^4 / 3.
        op = fraction_mul(Z * Z, 3).scale(Fraction(1, 3))
        assert op.rows == 5
        with pytest.raises(ShapeMismatchError):
            _truncate(op, 4)

    def test_truncate_refuses_nonzero_fraction_rows(self):
        # Multiplication by z built from Fraction rows; its top row holds z^3 -> z^4.
        rows = [[Fraction(int(i == j + 1)) for j in range(3)] for i in range(4)]
        with pytest.raises(ShapeMismatchError):
            _truncate(ExactMatrix(rows), 3)

    def test_truncate_keeps_exact_action(self, params):
        # delta(-) lowers the degree, so z * delta(-) fits back in degree < 4.
        dm = fraction_delta(-1, 4, params.alpha).scale(Fraction(2, 5))
        op = fraction_mul(Z, 4) @ dm
        cut = _truncate(op, 4)
        assert cut.rows == 4
        p = ExactPolynomial((Fraction(1, 2), -3, Fraction(7, 4), 2))
        assert apply(cut, p) == apply(op, p) == Z * apply(dm, p)

    def test_pad_then_truncate_round_trip(self, params):
        # Zero rows appended below an operator are exactly what _truncate drops.
        a = params.alpha
        for op in (
            fraction_delta(1, 4, a),
            fraction_mul(Z, 3),
            (fraction_mul(Z, 4) @ fraction_delta(-1, 4, a)).scale(Fraction(-3, 7)),
        ):
            zero_rows = [[0] * len(op.numerators[0])] * 3
            padded = ExactMatrix.from_integers(op.numerators + tuple(zero_rows), op.denominator)
            assert padded.rows == op.rows + 3
            assert _truncate(padded, op.rows) == op


def test_builders_return_matrices_of_documented_shape(params):
    """Every operator builder returns a plain (out_dim x in_dim) ExactMatrix."""
    shapes = [
        (delta_minus_power(2, 6, params), (6, 6)),
        (sandwich(-1, 3, SANDWICH_CENTER, 4, params), (4, 4)),
        (o_m_product_form(2, Fraction(5, 3), 0, 2, params, 4), (5, 5)),
        (o_m_gamma_form(2, Fraction(1), 0, 2, params, 4), (5, 5)),
    ]
    shapes += [(op, (4, 4)) for row in r_n1_matrix(3, Fraction(4, 7), params) for op in row]
    for op, shape in shapes:
        assert type(op) is ExactMatrix
        assert (op.rows, op.cols) == shape


class TestRn1Matrix:
    def test_entries_preserve_degree(self, params):
        n, u = 3, Fraction(4, 7)
        for row in r_n1_matrix(n, u, params):
            for op in row:
                assert op.rows == op.cols == n + 1

    def test_n1_reproduces_elementary(self, params):
        u = Fraction(9, 5)
        target = assemble_2x2(r_n1_matrix(1, u, params))
        d = monomial_to_coeff_matrix(1)
        dinv = d.scale(-1)
        fused = mat_mul(
            mat_mul(kron(d, ExactMatrix.identity(2)), r7v(u, params)),
            kron(dinv, ExactMatrix.identity(2)),
        )
        assert fused == target

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_fused_operator(self, n, params):
        u = Fraction(4, 5)
        target = assemble_2x2(r_n1_matrix(n, u, params))
        d = monomial_to_coeff_matrix(n)
        dinv = d.scale((-1) ** n)
        conj = mat_mul(
            mat_mul(kron(d, ExactMatrix.identity(2)), fuse_nm(n, 1, u, params)),
            kron(dinv, ExactMatrix.identity(2)),
        )
        assert conj == target


class TestIntertwinerPoly:
    def test_up_step(self, params):
        a_level = 2
        u = Fraction(3, 4)
        p = intertwiner_poly(1, u, a_level, a_level + 1, params)
        expected = ExactPolynomial((params.alpha * (u - a_level - params.t), -1))
        assert p == expected

    def test_down_step(self, params):
        a_level = -1
        u = Fraction(3, 4)
        p = intertwiner_poly(1, u, a_level, a_level - 1, params)
        expected = ExactPolynomial((params.alpha * (u + a_level + params.s), -1))
        assert p == expected

    def test_adjacency_violation_gives_zero(self, params):
        assert intertwiner_poly(1, Fraction(1), 0, 3, params).is_zero()
        assert intertwiner_poly(2, Fraction(1), 0, 1, params).is_zero()


class TestOmOperators:
    def test_m0_is_identity(self, params):
        op = o_m_product_form(0, Fraction(5, 3), 2, 2, params, 4)
        assert op == ExactMatrix.identity(5)

    def test_m1_single_factor_structure(self, params):
        """For one down-step the operator is a single first-order factor."""
        u = Fraction(5, 7)
        b, c = 3, 2  # c = b - 1: the +s factor
        d = 4
        op = o_m_product_form(1, u, b, c, params, d)
        a = params.alpha
        z0 = a * (-u + Fraction(1 + b + c, 2) + params.s)
        dm = fraction_delta(-1, d + 1, a)
        dp = fraction_delta(1, d + 1, a)
        manual = (_truncate(fraction_mul(ExactPolynomial((-z0, 1)), d + 1) @ dm, d + 1) + dp.scale(a * u)).scale(1 / a)
        assert op == manual

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_product_equals_gamma_form_at_integer_points(self, m, params):
        for diff in range(-m, m + 1, 2):
            for u in range(m + 1):
                prod = o_m_product_form(m, Fraction(u), 1, 1 + diff, params, 6)
                gam = o_m_gamma_form(m, Fraction(u), 1, 1 + diff, params, 6)
                assert prod == gam

    def test_gamma_form_rejects_non_integer_u(self, params):
        with pytest.raises(UnsupportedEvaluationPoint):
            o_m_gamma_form(2, Fraction(3, 2), 0, 0, params, 4)

    def test_gamma_form_u0_reduction(self, params):
        """At u = 0 the factorization collapses to multiplication then lowering."""
        m, b, c = 2, 1, 1
        d = 5
        m_plus = (m + (c - b)) // 2
        m_minus = (m - (c - b)) // 2
        a = params.alpha
        u1 = a * (Fraction(m - b - c, 2) - params.t)
        u2 = a * (Fraction(m + b + c, 2) + params.s)
        g1 = gamma_poly(m_plus, u1, params)
        g2 = gamma_poly(m_minus, u2, params)
        expected = _truncate(fraction_mul(g1 * g2, d + 1) @ composed_delta_minus_power(m, d + 1, params), d + 1)
        expected = expected.scale(a ** (-m))
        assert o_m_gamma_form(m, Fraction(0), b, c, params, d) == expected

    def test_gamma_form_um_reduction(self, params):
        """At u = m the mirrored collapse: lowering then multiplication."""
        m, b, c = 2, 0, 2
        d = 5
        m_plus = (m + (c - b)) // 2
        m_minus = (m - (c - b)) // 2
        a = params.alpha
        u1 = a * (-m + Fraction(m - b - c, 2) - params.t)
        u2 = a * (-m + Fraction(m + b + c, 2) + params.s)
        g1 = gamma_poly(m_plus, u1, params)
        g2 = gamma_poly(m_minus, u2, params)
        expected = _truncate(composed_delta_minus_power(m, d + 1 + m, params) @ fraction_mul(g1 * g2, d + 1), d + 1)
        expected = expected.scale(a ** (-m))
        assert o_m_gamma_form(m, Fraction(m), b, c, params, d) == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_product_form_degree_in_u(self, m, params):
        """Entrywise, the operator is polynomial of degree <= m in u."""
        b, c = 1, 1 + (-m if m % 2 else -m)  # keep adjacency: c - b = -m
        d = 4
        nodes = [Fraction(k, 1) + Fraction(1, 5) for k in range(m + 2)]
        mats = {x: o_m_product_form(m, x, b, c, params, d) for x in nodes}
        extra = Fraction(17, 3)
        extra_mat = o_m_product_form(m, extra, b, c, params, d)
        for i in range(d + 1):
            for j in range(d + 1):
                pts = [(x, mats[x][i, j]) for x in nodes]
                poly = lagrange_interpolate(pts)
                assert poly.degree <= m
                assert poly(extra) == extra_mat[i, j]


def composed_product_form(m, u, b, c, params, degree_bound):
    """The height-changing operator composed one operator factor at a time:
    (z - z0) delta- cut back to dim plus alpha coef delta+, rightmost factor
    first, times alpha^(-m)."""
    m_plus = up_steps(b, c, m)
    alpha, dim = params.alpha, degree_bound + 1
    dp, dm = fraction_delta(1, dim, alpha), fraction_delta(-1, dim, alpha)

    def factor(z0, coef):
        return _truncate(fraction_mul(ExactPolynomial((-z0, 1)), dim) @ dm, dim) + dp.scale(alpha * coef)

    op = ExactMatrix.identity(dim)
    for lp in range(m - m_plus):
        op = factor(alpha * (-u + Fraction(m + b + c, 2) + params.s), u - m_plus - lp) @ op
    for l in range(m_plus):
        op = factor(alpha * (-u + Fraction(m - b - c, 2) - params.t), u - l) @ op
    return op.scale(alpha ** (-m))


# Faces (n, m, a, b, c) of the solve route past n = m = 1.
SOLVE_FACES = [(1, 1, 0, 1, 0), (2, 1, 1, -1, 0), (2, 3, 0, 0, 3), (3, 2, -1, 2, 2)]


class TestColumnKernel:
    """``o_m_product_form`` reads the composed shift form of the m factors;
    the solve route applies them to one integer column (``_o_m_apply``).
    The operator composed factor by factor is the reference of the first,
    ``reference_solve_weights``, which reads the product form, of the second."""

    @pytest.mark.parametrize("alpha", STEPS)
    @pytest.mark.parametrize("u", [Fraction(2), Fraction(-5, 3)], ids=["u-int", "u-frac"])
    def test_matches_composed_factors(self, alpha, u):
        params = ModelParams(alpha, Fraction(-3, 7), Fraction(4, 3))
        for m in range(4):
            for b in range(-3, 4):
                for c in range(max(b - m, -3), min(b + m, 3) + 1):
                    if up_steps(b, c, m) is None:
                        continue
                    for d in range(1, 7):
                        assert o_m_product_form(m, u, b, c, params, d) == composed_product_form(
                            m, u, b, c, params, d
                        ), (m, b, c, d)

    @pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(-9, 7)])
    def test_solve_route_image_is_operator_applied_to_source(self, alpha):
        """The solve route's weights are those of ``solve_exact`` with the
        intertwining polynomials psi(0)^b'_c as basis and O_m applied to
        psi(0)^a_b as right-hand side (``reference_solve_weights``).  The
        basis is invertible, so equal weights mean an equal image."""
        params = ModelParams(alpha, Fraction(-2, 5), Fraction(3, 7))
        u = Fraction(7, 3)
        for face in SOLVE_FACES:
            table = correspondence.solve_weights_from_relation(*face, u, params)
            assert table == reference_solve_weights(*face, u, params), face

    def test_reference_is_independent_of_the_kernel(self, monkeypatch):
        """A wrong kernel, bound wherever ``_o_m_apply`` is, doubles the
        constant coefficient of each image column: the solve route and
        ``reference_solve_weights`` then disagree on every face above."""
        kernel = polyrep._o_m_apply

        def doubled(*args):
            cols, den = kernel(*args)
            return [[2 * col[0], *col[1:]] for col in cols], den

        for module in (polyrep, correspondence):
            monkeypatch.setattr(module, "_o_m_apply", doubled)
        params, u = ModelParams(Fraction(3, 2), Fraction(-2, 5), Fraction(3, 7)), Fraction(7, 3)
        for face in SOLVE_FACES:
            table = correspondence.solve_weights_from_relation(*face, u, params)
            assert table != reference_solve_weights(*face, u, params), face

    def test_zero_loss_check(self, params, monkeypatch):
        """A delta(-) that does not lower the degree is refused, not truncated.
        The delta rows are rebuilt uncached from the transposed shift."""
        entries = polyrep._shift_entries
        monkeypatch.setattr(polyrep, "_shift_entries", lambda p, q, dim: [list(c) for c in zip(*entries(p, q, dim))])
        monkeypatch.setattr(polyrep, "_delta_rows", polyrep._delta_rows.__wrapped__)
        for face in [(1, 1, 0, 1, 0), (2, 1, 1, -1, 0), (3, 2, -1, 2, 2)]:
            with pytest.raises(ShapeMismatchError, match="truncation would discard nonzero coefficients"):
                correspondence.solve_weights_from_relation(*face, Fraction(5, 3), params)


# The 29 cases (m, c - b, u) of ``fusion-sos verify om``, at b = 0 and degree bound 6.
_, _, om_cases, om_check = cli._SUITES["om"]
OM_SUITE = om_cases(random.Random(0))
OM_ALPHAS = [Fraction(3, 2), Fraction(-2, 3), Fraction(5, 7)]


def om_degree_bounds(m):
    return sorted({0, 1, m - 1, m, 6} - {-1})


def om_matrix_verdict(m, u, b, c, params, degree_bound):
    """The identity decided on the two matrix forms; a nonzero coefficient
    past the degree bound is a failure, as _truncate refuses it."""
    try:
        return o_m_product_form(m, u, b, c, params, degree_bound) == o_m_gamma_form(m, u, b, c, params, degree_bound)
    except ShapeMismatchError:
        return False


def om_suite_verdicts(params):
    return [om_check(params, case) for case in OM_SUITE]


def random_shift_form(rng, width):
    """Random integer terms of one length at three to five distinct shifts in
    -3..3, of both parities, over a random denominator."""
    shifts = rng.sample(range(-3, 4), rng.randint(3, 5))
    return {s: [rng.randint(-9, 9) for _ in range(width)] for s in shifts}, rng.randint(1, 12)


class TestOmIdentityCheck:
    """The product form and the gamma form of the height-changing operator
    are compared as composed shift forms; the two matrices are the reference."""

    @pytest.mark.parametrize("alpha", OM_ALPHAS)
    def test_matches_matrix_equality(self, alpha):
        """Equal to (and, the identity being true, as true as) matrix equality
        for m <= 4, every c - b, u in 0..m and three b, also at bounds d < m."""
        params = ModelParams(alpha, Fraction(-2, 7), Fraction(3, 5))
        calls = 0
        for m in range(5):
            for diff in range(-m, m + 1, 2):
                for b in (0, 1, -2):
                    for u in range(m + 1):
                        for d in om_degree_bounds(m):
                            verdict = o_m_identity_check(m, Fraction(u), b, b + diff, params, d)
                            assert verdict == om_matrix_verdict(m, Fraction(u), b, b + diff, params, d)
                            assert verdict, (m, b, diff, u, d)
                            calls += 1
        assert calls == 768

    def test_perturbed_factor_fails(self, params, monkeypatch):
        """1 added to z0 / alpha of the first factor fails every suite case:
        the check and the product matrix read the one factor list."""
        factors = polyrep._o_m_factors

        def mutant(*args):
            e, listed = factors(*args)
            (z, c), *rest = listed
            return e, [(z + 1, c), *rest]

        monkeypatch.setattr(polyrep, "_o_m_factors", mutant)
        assert not any(om_suite_verdicts(params))
        for m, diff, u in OM_SUITE:
            assert not om_matrix_verdict(m, Fraction(u), 0, diff, params, 6), (m, diff, u)

    def test_perturbed_sandwich_terms_fail(self, params, monkeypatch):
        """1 added to the constant coefficient of the s = B term of each
        sandwich fails every suite case, in the check and in the gamma matrix."""
        terms = polyrep._sandwich_terms

        def mutant(c, d, den, x0, step):
            out = terms(c, d, den, x0, step)
            out[c + d][0] += 1
            return out

        monkeypatch.setattr(polyrep, "_sandwich_terms", mutant)
        assert not any(om_suite_verdicts(params))
        for m, diff, u in OM_SUITE:
            assert not om_matrix_verdict(m, Fraction(u), 0, diff, params, 6), (m, diff, u)

    def test_composition_without_shift_fails(self, params, monkeypatch):
        """Composing with h_t(z) in place of h_t(z + s alpha) fails 22 of the
        29 suite cases.  It passes the four m = 1 cases, which compose with a
        constant form only, and the three m = 2, c = b cases, whose two
        mutated sides still agree."""

        def mutant(outer, inner, alpha):
            (g_terms, g_den), (h_terms, h_den) = outer, inner
            n = len(next(iter(h_terms.values())))
            terms = {}
            for s, g in g_terms.items():
                for t, h in h_terms.items():
                    term = terms.setdefault(s + t, [0] * (len(g) + n - 1))
                    for i, x in enumerate(g):
                        for r, y in enumerate(h, i):
                            term[r] += x * y * alpha.denominator ** (n - 1)
            return terms, g_den * h_den * alpha.denominator ** (n - 1)

        monkeypatch.setattr(polyrep, "_compose_shift_forms", mutant)
        verdicts = om_suite_verdicts(params)
        assert len(verdicts) == 29
        assert verdicts.count(False) == 22

    def test_degree_raising_side_is_refused(self, params, monkeypatch):
        """A sandwich term that raises the degree is refused by the check, as
        the gamma matrix refuses to cut off its top coefficients."""
        terms = polyrep._sandwich_terms

        def mutant(c, d, den, x0, step):
            out = terms(c, d, den, x0, step)
            out[c + d][-1] += 1
            return out

        monkeypatch.setattr(polyrep, "_sandwich_terms", mutant)
        for d in (0, 2, 6):
            with pytest.raises(ShapeMismatchError, match="raises the degree"):
                o_m_identity_check(2, Fraction(1), 0, 0, params, d)
            with pytest.raises(ShapeMismatchError):
                o_m_gamma_form(2, Fraction(1), 0, 0, params, d)

    @pytest.mark.parametrize("u", [Fraction(3, 2), Fraction(3), Fraction(-1)])
    def test_u_off_the_integers_0_to_m_is_refused(self, u, params):
        for entry in (o_m_identity_check, o_m_gamma_form):
            with pytest.raises(UnsupportedEvaluationPoint, match="integer u in 0..2"):
                entry(2, u, 0, 0, params, 4)

    @pytest.mark.parametrize("u", [Fraction(1), Fraction(1, 2)])
    def test_heights_not_adjacent_are_refused(self, u, params):
        """Both matrix forms and the check name the heights first, whatever u."""
        for entry in (o_m_identity_check, o_m_gamma_form, o_m_product_form):
            with pytest.raises(ValueError, match="not adjacent at distance m"):
                entry(2, u, 0, 1, params, 4)

    def test_negative_degree_bound_is_refused(self, params):
        for entry in (o_m_identity_check, o_m_gamma_form, o_m_product_form):
            with pytest.raises(ShapeMismatchError, match="at least one row and column"):
                entry(2, Fraction(1), 0, 0, params, -1)

    @pytest.mark.parametrize("m", [-1, -2])
    def test_negative_m_is_refused_first(self, m, params):
        """m < 0 gives one ValueError naming m on every entry point, before u
        or the heights are looked at (and, in the check and the gamma form,
        the degree bound)."""
        cases = [(entry, u, c, 4) for entry in (o_m_identity_check, o_m_gamma_form, o_m_product_form)
                 for u, c in [(Fraction(0), 0), (Fraction(1, 2), 5)]]
        cases += [(o_m_identity_check, Fraction(0), 0, -1), (o_m_gamma_form, Fraction(0), 0, -1)]
        for entry, u, c, d in cases:
            with pytest.raises(ValueError, match=rf"^the height-changing operator needs m >= 0, got m = {m}$") as info:
                entry(m, u, 0, c, params, d)
            assert type(info.value) is ValueError

    @pytest.mark.parametrize("alpha", OM_ALPHAS)
    def test_composition_is_the_matrix_product(self, alpha):
        """On seeded random shift forms, the matrix of the composition is the
        product of the matrices, each matrix also equal to its Fraction
        reference."""
        rng = random.Random(24)
        for _ in range(12):
            outer = random_shift_form(rng, rng.randint(1, 3))
            inner = random_shift_form(rng, rng.randint(1, 3))
            width = len(next(iter(inner[0].values())))
            composed = _compose_shift_forms(outer, inner, alpha)
            for dim in (1, 4):
                product = _shift_form_matrix(*outer, dim + width - 1, alpha) @ _shift_form_matrix(*inner, dim, alpha)
                assert _shift_form_matrix(*composed, dim, alpha) == product
                for form, size in ((outer, dim + width - 1), (inner, dim), (composed, dim)):
                    assert _shift_form_matrix(*form, size, alpha) == fraction_form_matrix(*form, size, alpha)
