import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from fusion_sos import fusion
from fusion_sos.exactcore import ExactMatrix, kron, mat_mul, rat
from fusion_sos.fusion import check_fused_ybe, fuse_nm, fusion_scalar, sym_basis
from fusion_sos.vertex import ModelParams, embed_two_site, r7v

from conftest import spectral_pair, symmetrizer


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


def _bare_product(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """X: the n*m elementary factors of the (n,m) product on (C^2)^(x (n+m)).

    Slots 0..n-1 carry the n quantum factors and slots n..n+m-1 the m
    auxiliary ones; no symmetrizer is applied.
    """
    dims = (2,) * (n + m)
    # Leftmost factor couples the last auxiliary slot at the undecremented argument.
    return reduce(mat_mul, (
        embed_two_site(r7v(u - (m - j) + n - i, params), (i - 1, n + j - 1), dims)
        for j in range(m, 0, -1)
        for i in range(1, n + 1)
    ))


def fuse_nm_unrestricted(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """Pi X on (C^2)^(x (n+m)): the raw fused (n,m) product, unnormalized and unrestricted.

    This is the defining product, evaluated literally in the full
    2**(n+m)-dimensional space, with Pi = Sym_n (x) Sym_m and X the bare
    product of :func:`_bare_product`.  It is the reference the restricted
    build in :func:`fuse_nm` must reproduce.
    """
    return mat_mul(kron(symmetrizer(n), symmetrizer(m)), _bare_product(n, m, rat(u), params))


def symmetric_residual(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """Pi X (I - Pi), zero by the fusion lemma, with Pi and X as in
    :func:`fuse_nm_unrestricted`."""
    pi = kron(symmetrizer(n), symmetrizer(m))
    return mat_mul(mat_mul(pi, _bare_product(n, m, rat(u), params)), ExactMatrix.identity(pi.rows) - pi)


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


def unscaled_then_scaled(n, m, u, params):
    """The recursion of fuse_nm by dense restricted products, unnormalized,
    then divided by its normalization in one ExactMatrix.scale."""
    def raw(x):
        return r7v(x, params) if n == 1 else fusion._swap_factors(fuse_nm(1, n, x + n - 1, params), 2, n + 1)

    lift, eye = ExactMatrix.identity(n + 1), ExactMatrix.identity(2)
    op = raw(u - m + 1)
    for j in range(2, m + 1):
        big, small, dims = sym_basis(j), sym_basis(j - 1), (n + 1, j, 2)
        merge = kron(lift, mat_mul(big.project, kron(small.embed, eye)))
        split = kron(lift, mat_mul(kron(small.project, eye), big.embed))
        op = merge @ embed_two_site(raw(u - m + j), (0, 2), dims) @ embed_two_site(op, (0, 1), dims) @ split
    scale = Fraction(1)
    for j in range(m):
        scale *= fusion_scalar(n, u - j)
    return op.scale(1 / scale), scale


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(-5, 3)], ids=str)
@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 5) for m in (2, 3)])
def test_folded_normalization_equals_one_final_scale(n, m, alpha):
    """For m >= 2 the build divides by its normalization inside its last
    reduction; the result equals the unscaled build scaled once, in lowest
    terms over a positive denominator, at normalizations of both signs."""
    params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
    signs = set()
    # At (2, 2) and u = -1/2, scale = (u + 1) u = -1/4.
    for u in (Fraction(-1, 2), Fraction(7, 3), Fraction(-13, 4), Fraction(-5, 2)):
        expected, scale = unscaled_then_scaled(n, m, u, params)
        op = fuse_nm(n, m, u, params)
        assert op == expected
        assert op.denominator > 0 and gcd(op.denominator, *(x for row in op.numerators for x in row)) == 1
        signs.add(scale > 0)
    assert signs == {True, False}


def unitarity_scalar(forward, backward, n, m):
    """c with forward S backward S^-1 = c I, S the swap of the two factors of
    C^(m+1) (x) C^(n+1) that backward acts on, or None if there is none."""
    product = forward @ fusion._swap_factors(backward, m + 1, n + 1)
    c = product.entries[0][0]
    return c if product == ExactMatrix.identity(product.rows).scale(c) else None


UNITARITY_US = (Fraction(2, 7), Fraction(-5, 4), Fraction(7, 3))


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 4) for m in range(1, 4)])
def test_unitarity(n, m):
    """fuse_nm(n, m, u) S fuse_nm(m, n, -u) S^-1 is proportional to the
    identity; at n = m = 1 the scalar is 1 - u^2 for every alpha."""
    for u in UNITARITY_US:
        scalars = set()
        for alpha in (Fraction(3, 2), Fraction(-5, 3)):
            params = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
            c = unitarity_scalar(fuse_nm(n, m, u, params), fuse_nm(m, n, -u, params), n, m)
            assert c is not None and c != 0, (u, alpha)
            scalars.add(c)
        if n == m == 1:
            assert scalars == {1 - u * u}


def test_unitarity_fails_on_a_doubled_charge_changing_entry(params):
    # Index a (m + 1) + b of Sym_n (x) Sym_m has a and b copies of e2: charge a + b.
    n, m = 1, 2
    for u in UNITARITY_US:
        op = fuse_nm(n, m, u, params)
        num = [list(row) for row in op.numerators]
        changing = [(i, j) for i, row in enumerate(num) for j, x in enumerate(row)
                    if x and sum(divmod(i, m + 1)) != sum(divmod(j, m + 1))]
        assert changing
        i, j = changing[0]
        num[i][j] *= 2
        mutant = ExactMatrix.from_integers(num, op.denominator)
        assert unitarity_scalar(op, fuse_nm(m, n, -u, params), n, m) is not None
        assert unitarity_scalar(mutant, fuse_nm(m, n, -u, params), n, m) is None


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 3)])
def test_unitarity_fails_at_u_in_place_of_minus_u(n, m, params):
    for u in UNITARITY_US:
        assert unitarity_scalar(fuse_nm(n, m, u, params), fuse_nm(m, n, u, params), n, m) is None


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 6 - n) if n + m > 2])
@pytest.mark.parametrize("u", [Fraction(5, 7), Fraction(-9, 4), Fraction(2), Fraction(0)], ids=str)
def test_fusion_lemma(n, m, u):
    # Pi X Pi = Pi X for the bare product X, integer u included.
    for alpha in (Fraction(3, 2), Fraction(-2, 3)):
        assert symmetric_residual(n, m, u, ModelParams(alpha)).is_zero()


def test_fusion_lemma_fails_for_a_junk_r(monkeypatch, params):
    # The residual is a check: a 4x4 factor that is not R breaks the lemma.
    junk = ExactMatrix([[1, 2, 0, 0], [0, 3, 1, 0], [5, 0, 1, 0], [0, 0, 2, 7]])
    # The literal product reads the r7v of this module.
    monkeypatch.setitem(globals(), "r7v", lambda u, params: junk)
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
