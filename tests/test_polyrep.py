from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusion_sos.exactcore import (
    ExactMatrix,
    ExactPolynomial,
    ShapeMismatchError,
    kron,
    lagrange_interpolate,
    mat_mul,
    poly_shift,
)
from fusion_sos import correspondence, polyrep
from fusion_sos.fusion import fuse_nm
from fusion_sos.polyrep import (
    UnsupportedEvaluationPoint,
    _gamma_sandwich,
    _pad,
    _shift_op,
    _truncate,
    assemble_2x2,
    delta_minus_power,
    delta_op,
    gamma_poly,
    intertwiner_poly,
    monomial_to_coeff_matrix,
    mul_poly,
    mul_z,
    o_m_gamma_form,
    o_m_product_form,
    r_n1_matrix,
    star_triangle_check,
)
from fusion_sos.vertex import ModelParams, r7v, up_steps

from conftest import reference_solve_weights

Z = ExactPolynomial((0, 1))

# Step sizes with denominators 1, 3 and 7, of both signs.
STEPS = [Fraction(2), Fraction(-1), Fraction(5, 3), Fraction(-4, 3), Fraction(3, 7), Fraction(-9, 7)]


def apply(op, p):
    """The polynomial whose coefficient column is op times that of p."""
    column = ExactMatrix.column(p.coeff_vector(op.cols))
    return ExactPolynomial(mat_mul(op, column).column_vector())


class TestDeltaOps:
    def test_plus_fixes_constants(self, params):
        dp = delta_op(1, 4, params)
        assert apply(dp, ExactPolynomial.one()) == ExactPolynomial.one()

    def test_low_degree_actions(self, params):
        a = params.alpha
        dm = delta_op(-1, 4, params)
        dp = delta_op(1, 4, params)
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


def composed_delta_minus_power(k, dim, params):
    """delta(-)^k as the k-fold composition of delta_op(-1)."""
    op = ExactMatrix.identity(dim)
    dm = delta_op(-1, dim - 1, params)
    for _ in range(k):
        op = dm @ op
    return op


# Nonzero steps with unit and non-unit denominators, of both signs.
nonzero_alphas = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


class TestDeltaMinusPowerClosedForm:
    """delta(-)^k is built from its shift expansion in one step; the k-fold
    composition of delta(-) is the reference."""

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


def fraction_shift(h, dim):
    """The shift f(z) -> f(z + h) from Fraction rows: column j is poly_shift of z^j."""
    cols = [poly_shift(ExactPolynomial.monomial(j), h).coeff_vector(dim) for j in range(dim)]
    return ExactMatrix(list(zip(*cols)))


def linear_product(roots, lead=1):
    """lead * prod (z - r), multiplied out one Fraction linear factor at a time."""
    p = ExactPolynomial((lead,))
    for r in roots:
        p = p * ExactPolynomial((-r, 1))
    return p


class TestIntegerBuildersMatchFractionReferences:
    """The shift, averaged-shift and multiplication operators and the
    polynomials with known roots are built on integer numerators; the Fraction
    constructions they replaced are the references."""

    @pytest.mark.parametrize("h", STEPS)
    def test_shift_op_is_poly_shift_of_monomials(self, h):
        for dim in (1, 2, 5, 7):
            assert _shift_op(h, dim) == fraction_shift(h, dim)

    @pytest.mark.parametrize("alpha", STEPS)
    def test_delta_ops_are_averaged_shifts(self, alpha):
        params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
        for d in (0, 1, 4, 6):
            forward, backward = fraction_shift(alpha, d + 1), fraction_shift(-alpha, d + 1)
            assert delta_op(1, d, params) == (forward + backward).scale(Fraction(1, 2))
            assert delta_op(-1, d, params) == (forward - backward).scale(Fraction(1, 2))

    def test_multiplication_operators(self):
        q = ExactPolynomial((Fraction(-2, 7), Fraction(5, 3), 0, Fraction(1, 21)))
        p = ExactPolynomial((Fraction(1, 2), -3, Fraction(7, 4)))
        assert apply(mul_poly(q, 3), p) == q * p
        assert apply(mul_poly(ExactPolynomial.zero(), 3), p).is_zero()
        assert apply(mul_z(3), p) == Z * p

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
    return mul_poly(gamma_poly(p, SANDWICH_CENTER, params), dim)


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
        term = _pad(mul_poly(g, dim) @ fraction_shift(s * alpha, dim), dim + b)
        total = total + term.scale((-1) ** k * comb(b, k))
    return _truncate(total.scale(Fraction(1, 2**b)), dim)


class TestGammaSandwich:
    """The sandwich is summed on integer columns in one pass; the operator
    compositions it replaced are the references."""

    @pytest.mark.parametrize("alpha", STEPS)
    def test_matches_per_term_operator_sum(self, alpha):
        params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
        for center in (SANDWICH_CENTER, Fraction(-5, 3)):
            for c in range(-3, 4):
                for d in range(-c, 4):
                    for dim in (1, 6):
                        assert _gamma_sandwich(c, d, center, dim, params) == per_term_sandwich(
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
        assert _gamma_sandwich(k, l, SANDWICH_CENTER, dim, params) == expected

    @pytest.mark.parametrize(
        "c, d", [(c, d) for c in range(-3, 4) for d in range(-3, 4) if c + d >= 0 and min(c, d) < 0]
    )
    def test_reciprocal_factor_cancels(self, c, d, params):
        """Clearing the reciprocal factor gives a product of polynomial operators."""
        dim, b = SANDWICH_DIM, c + d
        if d < 0:
            # S(c, d) gamma(|d|) = gamma(c) delta-^b
            lhs = _gamma_sandwich(c, d, SANDWICH_CENTER, dim - d, params) @ _mul_gamma(-d, dim, params)
            rhs = _mul_gamma(c, dim, params) @ composed_delta_minus_power(b, dim, params)
        else:
            # gamma(|c|) S(c, d) = delta-^b gamma(d)
            lhs = _mul_gamma(-c, dim, params) @ _gamma_sandwich(c, d, SANDWICH_CENTER, dim, params)
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
            _gamma_sandwich(1, 1, SANDWICH_CENTER, SANDWICH_DIM, params)

    def test_negative_power_raises(self, params):
        with pytest.raises(ValueError):
            _gamma_sandwich(-2, 1, SANDWICH_CENTER, SANDWICH_DIM, params)


class TestStarTriangle:
    def test_trivial(self, params):
        assert star_triangle_check(0, 0, Fraction(0), 4, params)

    def test_k1_l0(self, params):
        assert star_triangle_check(1, 0, Fraction(0), 6, params)

    def test_k2_l3(self, params):
        assert star_triangle_check(2, 3, Fraction(2, 7), 8, params)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_commutation_identities(p, params):
    """delta- gamma(p) = gamma(p-1)[z delta- + p alpha delta+] and its mirror."""
    d = 6
    a = params.alpha
    gp = gamma_poly(p, Fraction(0), params)
    gp1 = gamma_poly(p - 1, Fraction(0), params)
    dm = delta_op(-1, d + p, params)
    dp_small = delta_op(1, d, params)
    dm_small = delta_op(-1, d, params)

    lhs = dm @ mul_poly(gp, d + 1)
    bracket = mul_z(d + 1) @ dm_small + _pad(dp_small.scale(p * a), d + 2)
    rhs = mul_poly(gp1, d + 2) @ bracket
    assert _pad(lhs, rhs.rows) == rhs

    lhs2 = mul_poly(gp, d + 1) @ delta_op(-1, d, params)
    gdim = d + p  # degree bound after multiplying by gamma(p - 1)
    bracket2 = delta_op(-1, gdim, params) @ mul_z(gdim) - _pad(delta_op(1, gdim - 1, params).scale(p * a), gdim + 1)
    rhs2 = bracket2 @ mul_poly(gp1, d + 1)
    assert _pad(lhs2, rhs2.rows) == rhs2


class TestTruncateAndPad:
    """The two shape helpers: ``_truncate`` cuts an operator back to a smaller
    output space and refuses to drop a nonzero row; ``_pad`` adds zero rows."""

    def test_truncate_refuses_nonzero_integer_rows(self):
        # A kernel result (integer form) whose top row is z^2 * z^2 / 3.
        op = (mul_z(4) @ mul_z(3)).scale(Fraction(1, 3))
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
        dm = delta_op(-1, 3, params).scale(Fraction(2, 5))
        op = mul_z(4) @ dm
        cut = _truncate(op, 4)
        assert cut.rows == 4
        p = ExactPolynomial((Fraction(1, 2), -3, Fraction(7, 4), 2))
        assert apply(cut, p) == apply(op, p) == Z * apply(dm, p)

    def test_pad_refuses_smaller_space(self, params):
        with pytest.raises(ShapeMismatchError):
            _pad(delta_op(1, 3, params), 3)
        with pytest.raises(ShapeMismatchError):
            _pad(mul_z(4) @ mul_z(3), 4)

    def test_pad_then_truncate_round_trip(self, params):
        for op in (
            delta_op(1, 3, params),
            mul_z(3),
            (mul_z(4) @ delta_op(-1, 3, params)).scale(Fraction(-3, 7)),
        ):
            padded = _pad(op, op.rows + 3)
            assert padded.rows == op.rows + 3
            assert _truncate(padded, op.rows) == op


def test_builders_return_matrices_of_documented_shape(params):
    """Every operator builder returns a plain (out_dim x in_dim) ExactMatrix."""
    q = ExactPolynomial((Fraction(1, 3), 0, 2))
    shapes = [
        (delta_op(1, 4, params), (5, 5)),
        (delta_op(-1, 4, params), (5, 5)),
        (_shift_op(Fraction(-4, 3), 6), (6, 6)),
        (mul_z(3), (4, 3)),
        (mul_poly(q, 3), (5, 3)),
        (mul_poly(ExactPolynomial.zero(), 3), (1, 3)),
        (delta_minus_power(2, 6, params), (6, 6)),
        (_gamma_sandwich(-1, 3, SANDWICH_CENTER, 4, params), (4, 4)),
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
        dm = delta_op(-1, d, params)
        dp = delta_op(1, d, params)
        manual = (_truncate(mul_poly(ExactPolynomial((-z0, 1)), d + 1) @ dm, d + 1) + dp.scale(a * u)).scale(1 / a)
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
        expected = _truncate(mul_poly(g1 * g2, d + 1) @ composed_delta_minus_power(m, d + 1, params), d + 1)
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
        expected = _truncate(composed_delta_minus_power(m, d + 1 + m, params) @ mul_poly(g1 * g2, d + 1), d + 1)
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
    dp, dm = delta_op(1, degree_bound, params), delta_op(-1, degree_bound, params)

    def factor(z0, coef):
        return _truncate(mul_poly(ExactPolynomial((-z0, 1)), dim) @ dm, dim) + dp.scale(alpha * coef)

    op = ExactMatrix.identity(dim)
    for lp in range(m - m_plus):
        op = factor(alpha * (-u + Fraction(m + b + c, 2) + params.s), u - m_plus - lp) @ op
    for l in range(m_plus):
        op = factor(alpha * (-u + Fraction(m - b - c, 2) - params.t), u - l) @ op
    return op.scale(alpha ** (-m))


class TestColumnKernel:
    """``o_m_product_form`` and the solve route apply the m factors to
    integer columns (``_o_m_apply``); the operator composed factor by factor
    is the reference."""

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
        for n, m, a, b, c in [(1, 1, 0, 1, 0), (2, 1, 1, -1, 0), (2, 3, 0, 0, 3), (3, 2, -1, 2, 2)]:
            table = correspondence.solve_weights_from_relation(n, m, a, b, c, u, params)
            assert table == reference_solve_weights(n, m, a, b, c, u, params), (n, m, a, b, c)

    def test_zero_loss_check(self, params, monkeypatch):
        """A delta(-) that does not lower the degree is refused, not truncated.
        The delta rows are rebuilt uncached from the transposed shift."""
        entries = polyrep._shift_entries
        monkeypatch.setattr(polyrep, "_shift_entries", lambda p, q, dim: [list(c) for c in zip(*entries(p, q, dim))])
        monkeypatch.setattr(polyrep, "_delta_rows", polyrep._delta_rows.__wrapped__)
        with pytest.raises(ShapeMismatchError):
            o_m_product_form(1, Fraction(5, 3), 0, 1, params, 3)
