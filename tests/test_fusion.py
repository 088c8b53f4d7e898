import random
from fractions import Fraction

import pytest

from fusion_sos import fusion
from fusion_sos.exactcore import ExactMatrix, kron, mat_mul
from fusion_sos.fusion import (
    check_fused_ybe,
    fuse_nm,
    fuse_nm_unrestricted,
    fusion_scalar,
    sym_basis,
    symmetric_residual,
    symmetrizer,
)
from fusion_sos.vertex import ModelParams, r7v

from conftest import spectral_pair


class TestSymmetrizer:
    def test_n1(self):
        assert symmetrizer(1) == ExactMatrix.identity(2)

    def test_n2_middle_block(self):
        pi = symmetrizer(2)
        h = Fraction(1, 2)
        assert pi == ExactMatrix(
            [[1, 0, 0, 0], [0, h, h, 0], [0, h, h, 0], [0, 0, 0, 1]]
        )

    def test_idempotent_n3(self):
        pi = symmetrizer(3)
        assert mat_mul(pi, pi) == pi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sym_basis_invariants(n):
    basis = sym_basis(n)
    assert mat_mul(basis.project, basis.embed) == ExactMatrix.identity(n + 1)
    assert mat_mul(basis.embed, basis.project) == symmetrizer(n)


def test_fusion_scalar_zero_raises(params_unit):
    with pytest.raises(ZeroDivisionError):
        fuse_nm(2, 1, Fraction(-1), params_unit)
    assert fusion_scalar(3, Fraction(-2)) == 0
    # A shifted factor's scalar vanishing is enough: (2,2) at 0 needs (2,1) at -1.
    for n, m, u in ((2, 2, 0), (3, 2, -2)):
        with pytest.raises(ZeroDivisionError):
            fuse_nm(n, m, Fraction(u), params_unit)


@pytest.mark.parametrize("n, m", [(0, 1), (1, 0), (0, 0), (-1, 1), (1, -1), (-1, 2)])
def test_fuse_nm_rejects_orders_below_one(n, m, params_unit):
    before = fusion._fuse_nm.cache_info()
    with pytest.raises(ValueError, match="fusion orders must be at least 1"):
        fuse_nm(n, m, Fraction(7, 3), params_unit)
    # Refused before the cache: no lookup, hit or miss, was made.
    after = fusion._fuse_nm.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_fuse_nm_trivial_case(params):
    u = Fraction(3, 4)
    assert fuse_nm(1, 1, u, params) == r7v(u, params)


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(1000003, 999983)], ids=str)
@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6) for m in range(1, 7 - n)])
def test_fuse_nm_matches_dense_definition(n, m, alpha):
    # The restricted recursive build against the literal 2**(n+m) product.
    # At alpha = 1000003/999983 every step packs its rows in slots of 91 to
    # 224 bits, so a single entry spans more than one machine word.
    params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
    bn, bm = sym_basis(n), sym_basis(m)
    left, right = kron(bn.project, bm.project), kron(bn.embed, bm.embed)
    for u in (Fraction(5, 3), Fraction(-11, 4), Fraction(22, 7)):
        scale = Fraction(1)
        for j in range(m):
            scale *= fusion_scalar(n, u - j)
        expected = mat_mul(mat_mul(left, fuse_nm_unrestricted(n, m, u, params)), right)
        assert fuse_nm(n, m, u, params) == expected.scale(1 / scale)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 6 - n) if n + m > 2])
@pytest.mark.parametrize("u", [Fraction(5, 7), Fraction(-9, 4), Fraction(2), Fraction(0)], ids=str)
def test_fusion_lemma(n, m, u):
    # Pi X Pi = Pi X for the bare product X, integer u included.
    for alpha in (Fraction(3, 2), Fraction(-2, 3)):
        assert symmetric_residual(n, m, u, ModelParams(alpha)).is_zero()


def test_fusion_lemma_fails_for_a_junk_r(monkeypatch, params):
    # The residual is a check: a 4x4 factor that is not R breaks the lemma.
    junk = ExactMatrix([[1, 2, 0, 0], [0, 3, 1, 0], [5, 0, 1, 0], [0, 0, 2, 7]])
    monkeypatch.setattr(fusion, "r7v", lambda u, params: junk)
    for n, m in ((2, 1), (1, 2), (2, 2)):
        assert not symmetric_residual(n, m, Fraction(5, 7), params).is_zero()


@pytest.mark.parametrize("triple", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1)])
def test_fused_ybe_samples(triple, params):
    rng = random.Random(sum(triple) * 101)
    for _ in range(3):
        u, v = spectral_pair(rng)
        assert check_fused_ybe(*triple, u, v, params)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["r12", "r13", "r23"])
@pytest.mark.parametrize("triple", [(1, 2, 1), (2, 1, 2)])
def test_fused_ybe_fails_on_a_wrong_operator(monkeypatch, triple, which, params):
    """Adding +-1 to any one numerator of one of the three fused operators
    makes the check fail: the unreduced comparison is not fooled."""
    u, v = Fraction(7, 3), Fraction(-5, 4)
    assert check_fused_ybe(*triple, u, v, params)
    real = fusion.fuse_nm
    k, n, l = triple
    size = [(k + 1) * (n + 1), (k + 1) * (l + 1), (n + 1) * (l + 1)][which]
    for i in range(size):
        for j in range(size):
            for sign in (1, -1):
                calls = []

                def wrong(a, b, x, p, i=i, j=j, sign=sign):
                    op = real(a, b, x, p)
                    calls.append(op)
                    if len(calls) - 1 != which:
                        return op
                    num = [list(row) for row in op.numerators]
                    num[i][j] += sign
                    return ExactMatrix.from_integers(num, op.denominator)

                monkeypatch.setattr(fusion, "fuse_nm", wrong)
                assert not check_fused_ybe(*triple, u, v, params), (i, j, sign)


def test_fused_ybe_alpha_sensitivity(params, params_unit):
    # Same spectral point, two alphas: both satisfied (alpha is a free constant).
    u, v = Fraction(5, 3) + Fraction(1, 7), Fraction(1, 2)
    assert check_fused_ybe(1, 2, 1, u, v, params)
    assert check_fused_ybe(1, 2, 1, u, v, params_unit)
