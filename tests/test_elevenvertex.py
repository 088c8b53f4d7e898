import random
from fractions import Fraction

import pytest

from fusion_sos import correspondence
from fusion_sos.correspondence import (
    check_shifted_correspondence,
    check_vertex_sos_matrix,
    solve_weights_from_relation,
)
from fusion_sos.elevenvertex import r11v, shift_op, similarity_fused
from fusion_sos.exactcore import ExactMatrix, ExactPolynomial, kron, mat_mul
from fusion_sos.fusion import sym_basis
from fusion_sos.polyrep import intertwiner_poly, monomial_to_coeff_matrix
from fusion_sos.vertex import ModelParams, check_ybe_vertex, up_steps

from conftest import poly_shift, spectral_pair, symmetrizer


def kronecker_shift(n, u, params):
    """The n-fold Kronecker power of the elementary shift [[1, 0], [-alpha u, 1]]."""
    a1 = ExactMatrix([[1, 0], [-params.alpha * u, 1]])
    full = a1
    for _ in range(n - 1):
        full = kron(full, a1)
    return full


class TestShiftOp:
    def test_elementary(self, params_unit):
        op = shift_op(1, Fraction(1), params_unit)
        assert op == ExactMatrix([[1, 0], [-1, 1]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_group_property(self, n, params):
        u, v = Fraction(2, 3), Fraction(-5, 4)
        a = shift_op(n, u, params)
        b = shift_op(n, v, params)
        c = shift_op(n, u + v, params)
        assert mat_mul(a, b) == c
        inv = shift_op(n, -u, params)
        assert mat_mul(a, inv) == ExactMatrix.identity(n + 1)

    @pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(-2, 3), Fraction(1)])
    def test_matches_restricted_kronecker_power(self, alpha):
        """The shift entries equal the Kronecker power projected by sym_basis."""
        params = ModelParams(alpha)
        for n in range(1, 6):
            basis = sym_basis(n)
            for u in (Fraction(0), Fraction(7, 3), Fraction(-5, 4), Fraction(2)):
                restricted = mat_mul(mat_mul(basis.project, kronecker_shift(n, u, params)), basis.embed)
                assert shift_op(n, u, params) == restricted

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutes_with_symmetrizer(self, n, params):
        full = kronecker_shift(n, Fraction(3, 5), params)
        pi = symmetrizer(n)
        assert mat_mul(full, pi) == mat_mul(pi, full)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polynomial_action_is_argument_shift(self, n, params):
        """Conjugated into coefficient coordinates, the operator shifts z."""
        u = Fraction(4, 7)
        d = monomial_to_coeff_matrix(n)
        dinv = d.scale((-1) ** n)
        mat = mat_mul(mat_mul(d, shift_op(n, u, params)), dinv)
        for j in range(n + 1):
            image = [mat[i, j] for i in range(n + 1)]
            expected = poly_shift(ExactPolynomial.monomial(j), params.alpha * u)
            assert ExactPolynomial(image) == expected


class TestElevenVertexMatrix:
    def test_d_zero_partial_permutation(self, params):
        expected = ExactMatrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert r11v(Fraction(0), params) == expected

    def test_matches_shift_conjugation(self, params):
        rng = random.Random(111)
        for _ in range(5):
            u, v = spectral_pair(rng)
            assert r11v(u - v, params) == similarity_fused(1, 1, u, v, params)

    def test_ybe(self, params):
        rng = random.Random(112)
        u, v = spectral_pair(rng)
        dims = (2, 2, 2)
        assert check_ybe_vertex(r11v(v, params), r11v(u, params), r11v(u - v, params), dims)


class TestSimilarityFused:
    @pytest.mark.parametrize("nm", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_difference_only_dependence(self, nm, params):
        n, m = nm
        u, v = Fraction(7, 5), Fraction(1, 3)
        base = similarity_fused(n, m, u, v, params)
        for delta in (Fraction(1), Fraction(-2, 3)):
            assert similarity_fused(n, m, u + delta, v + delta, params) == base

    @pytest.mark.parametrize(
        "triple",
        [
            (k, n, l)
            for k in range(1, 4)
            for n in range(1, 4)
            for l in range(1, 4)
            if k + n + l <= 5
        ],
    )
    def test_transformed_family_ybe(self, triple, params):
        k, n, l = triple
        rng = random.Random(113 + 100 * k + 10 * n + l)
        u, v = spectral_pair(rng)
        dims = (k + 1, n + 1, l + 1)

        def rbar(nn, mm, diff):
            return similarity_fused(nn, mm, diff, Fraction(0), params)

        assert check_ybe_vertex(rbar(k, n, v), rbar(k, l, u), rbar(n, l, u - v), dims)


class TestConstantIntertwiners:
    def test_elementary_example(self, params):
        # One up-step from height 0: -(z + alpha t).
        expected = ExactPolynomial((params.alpha * params.t, 1)).scale(-1)
        assert intertwiner_poly(1, 0, 0, 1, params) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_u_independence(self, n, params):
        for u in (Fraction(1, 3), Fraction(-7, 5), Fraction(9, 2)):
            for b in range(-n, n + 1, 2):
                shifted = poly_shift(intertwiner_poly(n, u, 0, b, params), params.alpha * u)
                assert shifted == intertwiner_poly(n, 0, 0, b, params)

    def test_adjacency_violation(self, params):
        assert intertwiner_poly(2, 0, 0, 1, params).is_zero()

    @pytest.mark.parametrize("nm", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_correspondence_with_unchanged_weights(self, nm, params):
        """The shifted family satisfies the correspondence with the same faces."""
        n, m = nm
        rng = random.Random(120 + 10 * n + m)
        for _ in range(3):
            a = rng.randint(-2, 2)
            b = a - rng.choice(range(-n, n + 1, 2))
            c = b - rng.choice(range(-m, m + 1, 2))
            u, v = spectral_pair(rng)
            assert check_shifted_correspondence(n, m, a, b, c, u, v, params)


U, V = Fraction(7, 5), Fraction(1, 3)


def bumped_operator(*args):
    rows = [list(row) for row in similarity_fused(*args).entries]
    rows[0][1] += 1
    return ExactMatrix(rows)


def bumped_weights(n, m, a, b, c, u, p):
    weights = solve_weights_from_relation(n, m, a, b, c, u, p)
    weights[next(bp for bp in weights if up_steps(a, bp, m) is not None)] += 1
    return weights


# What each mutant replaces in ``correspondence``, and the check that must then fail.
MUTANTS = {
    "operator": ("similarity_fused", bumped_operator, check_shifted_correspondence),
    "weights": ("solve_weights_from_relation", bumped_weights, check_shifted_correspondence),
    # The shifted operator with the vectors read at (u, v) instead of at 0.
    "vectors": ("fuse_nm", lambda n, m, d, p: similarity_fused(n, m, U, V, p), check_vertex_sos_matrix),
}


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("nm", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_shifted_correspondence_mutant_fails(nm, mutant, params, monkeypatch):
    n, m = nm
    a, b, c = 0, n % 2, (n + m) % 2
    assert check_shifted_correspondence(n, m, a, b, c, U, V, params)
    name, replacement, check = MUTANTS[mutant]
    monkeypatch.setattr(correspondence, name, replacement)
    assert not check(n, m, a, b, c, U, V, params)
