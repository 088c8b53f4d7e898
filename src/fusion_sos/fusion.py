"""Fusion of the elementary R-matrix into higher-spin operators.

The fused (n,m) operator is defined on (C^2)^(x n) (x) (C^2)^(x m) as the
ordered product X of n*m elementary 4x4 factors, projected by
Pi = Sym_n (x) Sym_m (the fusion procedure) and restricted to
Sym_n (x) Sym_m.  The fusion lemma Pi X Pi = Pi X makes Pi X an operator on
the symmetric space; :func:`symmetric_residual` returns Pi X (I - Pi).
:func:`fuse_nm_unrestricted` evaluates Pi X literally in the
2**(n+m)-dimensional space; :func:`fuse_nm` computes the same matrix
without leaving restricted spaces.

Write E_k, P_k for the embedding of Sym_k into (C^2)^(x k) and its
projection (:func:`sym_basis`), and Sym_k for the symmetrizer.  The build
uses only four identities:

1. Sym_k = E_k P_k;
2. P_k E_k = I;
3. Sym_k = Sym_k (I (x) Sym_{k-1}) = Sym_k (Sym_{k-1} (x) I), and the
   transposes of these (Sym_k is a symmetric matrix);
4. operators on disjoint slots commute.

From 1-3, P_k = P_k (I (x) Sym_{k-1}) and E_k = (I (x) Sym_{k-1}) E_k,
and likewise with Sym_{k-1} (x) I.

With these, a symmetrizer moves past every factor that does not touch its
slots and splits as E P, so each product collapses onto a smaller
restricted space.  One recursion, over m, results:
raw(n, m, u) = [P_m (E_{m-1} (x) I)] raw(n, u)_{aux m}
(raw(n, m-1, u-1) (x) I) [(P_{m-1} (x) I) E_m], on
Sym_n (x) Sym_{m-1} (x) C^2 (dimension 2m(n+1)).  Each step runs on the
row kernel of :mod:`fusion_sos.vertex`: it starts from the packed
identity, at the width that bounds the step's entries, applies the split,
then the inner operator and the factor locally, then the merge, and
unpacks and reduces once, at the end.  It forms no matrix product, and the
split and merge plans and their entry bound are listed once per shape
(``_peel_last``).

Its factors are the raw (n,1) operators raw(n, x) = P_n T_n(x) E_n with
T_n(x) = R_{0a}(x+n-1) ... R_{n-1,a}(x).  For n = 1 that is R(x).  For
n >= 2 it is the (1,n) operator at x+n-1 with its two tensor factors
swapped, by two premises:

5. R commutes with the swap P of its two factors: P R(u) P = R(u);
6. P_n and E_n do not change when the n slots are relabelled.

The (1,n) product at x+n-1 is R_{a'(n-1)'}(x+n-1) ... R_{a'0'}(x), with
quantum slot a' and auxiliary slots 0'..(n-1)'.  By 5 each factor is
R_{k'a'}; reading a' as a and k' as n-1-k turns the product into T_n(x),
and by 6 leaves P_n and E_n alone.
The (1,n) operator carries no normalization (fusion_scalar(1, u) = 1), so
the build needs no other recursion.

The result is divided once by prod_{j<m} fusion_scalar(n, u-j).  The
restriction uses the unnormalized monomial basis, so the matrices here
agree entrywise with the difference-operator realization in
:mod:`fusion_sos.polyrep` without any diagonal gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations
from math import comb, factorial
from operator import itemgetter

from .exactcore import ExactMatrix, PoleError, kron, mat_mul, rat
from .vertex import (
    ModelParams,
    _apply_plan,
    _left_product_plan,
    _two_site_plan,
    _unpack,
    _width,
    check_ybe_vertex,
    embed_two_site,
    r7v,
)


def _bits(index: int, n: int) -> tuple[int, ...]:
    """Big-endian bit word of length n; bit 1 means basis vector e2."""
    return tuple((index >> (n - 1 - s)) & 1 for s in range(n))


def symmetrizer(n: int) -> ExactMatrix:
    """Projector onto the symmetric component of (C^2)^(x n), by permutation averaging."""
    if n < 1:
        raise ValueError("n must be at least 1")
    dim = 1 << n
    counts = [[0] * dim for _ in range(dim)]
    for col in range(dim):
        word = _bits(col, n)
        for sigma in permutations(range(n)):
            row = 0
            for s in range(n):
                row = (row << 1) | word[sigma[s]]
            counts[row][col] += 1
    return ExactMatrix.from_integers(counts, factorial(n))


@dataclass(frozen=True)
class SymBasis:
    """Embedding of the (n+1)-dimensional symmetric space into (C^2)^(x n).

    Column k of ``embed`` is the symmetrization of the word with k copies of
    e2, which corresponds to the monomial with k powers of the second
    variable; ``project`` recovers monomial coefficients.  They satisfy
    project @ embed = identity and embed @ project = symmetrizer.
    """

    n: int
    embed: ExactMatrix
    project: ExactMatrix


@lru_cache(maxsize=None)
def sym_basis(n: int) -> SymBasis:
    dim = 1 << n
    embed = [[Fraction(0)] * (n + 1) for _ in range(dim)]
    project = [[Fraction(0)] * dim for _ in range(n + 1)]
    for idx in range(dim):
        k = sum(_bits(idx, n))
        embed[idx][k] = Fraction(1, comb(n, k))
        project[k][idx] = Fraction(1)
    return SymBasis(n, ExactMatrix(embed), ExactMatrix(project))


def fusion_scalar(n: int, u: Fraction) -> Fraction:
    """Normalization prod_{j=1}^{n-1} (u + j) relating the raw ordered product
    to the difference-operator realization of the (n,1) operator.

    The raw product of elementary factors carries this extra scalar; dividing
    it out makes the fused operators agree entrywise with the polynomial
    realization and makes the face weights of the correspondence come out in
    their standard normalization.
    """
    out = Fraction(1)
    for j in range(1, n):
        out *= u + j
    return out


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


@lru_cache(maxsize=None)
def _peel_last(k: int, outer: int):
    """merge = I_outer (x) P_k (E_{k-1} (x) I) and split = I_outer (x) (P_{k-1} (x) I) E_k
    as the step of :func:`_fuse_nm` uses them: their left-product row plans,
    the merge-split entry bound (the product of their largest row sums of
    absolute numerators), the product of their denominators and split's
    width.  merge maps Sym_{k-1} (x) C^2 onto Sym_k and split embeds Sym_k
    back.
    """
    big, small, eye = sym_basis(k), sym_basis(k - 1), ExactMatrix.identity(2)
    lift = ExactMatrix.identity(outer)
    merge = kron(lift, mat_mul(big.project, kron(small.embed, eye)))
    split = kron(lift, mat_mul(kron(small.project, eye), big.embed))
    bound = 1
    for m in (merge, split):
        bound *= max(sum(map(abs, row)) for row in m.numerators)
    return _left_product_plan(merge), _left_product_plan(split), bound, merge.denominator * split.denominator, split.cols


def _swap_factors(op: ExactMatrix, d1: int, d2: int) -> ExactMatrix:
    """S op S^-1 for op on C^d1 (x) C^d2, where S swaps the two factors.

    Row and column k*d1 + i of the result are row and column i*d2 + k of op,
    and reindexing keeps lowest terms.
    """
    pick = itemgetter(*[i * d2 + k for k in range(d2) for i in range(d1)])
    return ExactMatrix._canonical(tuple(map(pick, pick(op.numerators))), op.denominator, op.cols)


def check_fusion_orders(n: int, m: int) -> None:
    """Raise ``ValueError`` unless both fusion orders are at least 1.

    Below that there is no fused operator, and the recursion of
    :func:`fuse_nm` would return one of another order at a shifted argument.
    """
    if n < 1 or m < 1:
        raise ValueError(f"fusion orders must be at least 1, got n = {n}, m = {m}")


def fuse_nm(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """The fused (n,m) operator on Sym_n (x) Sym_m, (n+1)(m+1) square.

    Equal to (P_n (x) P_m) fuse_nm_unrestricted(n, m, u) (E_n (x) E_m) divided
    by prod_{j<m} fusion_scalar(n, u - j), but no intermediate leaves a
    restricted space.  One recursion grows the product one auxiliary slot
    at a time on Sym_n (x) Sym_{j-1} (x) C^2.  Its factors are raw (n,1)
    operators: R itself for n = 1, and for n >= 2 the (1,n) operator with
    its two tensor factors swapped.  Each step is exact by the identities
    and premises of the module docstring.

    Orders below 1 raise ``ValueError`` (:func:`check_fusion_orders`) before
    the cache is consulted.  For n >= 2 the normalization vanishes at the
    integers -(n-1) <= u <= m-2; there it raises ``PoleError`` (a
    ``ZeroDivisionError``) before anything is built.
    """
    check_fusion_orders(n, m)
    return _fuse_nm(n, m, u, params)


@lru_cache(maxsize=None)
def _fuse_nm(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """:func:`fuse_nm` for orders already checked, cached per argument tuple."""
    u = rat(u)
    scale = Fraction(1)
    for j in range(m):
        scale *= fusion_scalar(n, u - j)
    if scale == 0:
        raise PoleError(
            f"fusion normalization vanishes at u = {u}; the (n,m) product degenerates"
        )

    def raw_n1(x: Fraction) -> ExactMatrix:
        if n == 1:
            return r7v(x, params)
        return _swap_factors(_fuse_nm(1, n, x + n - 1, params), 2, n + 1)

    op = raw_n1(u - m + 1)
    # With u' = u - m + j: raw(n, j, u') = merge raw(n, 1, u')_{aux j} (raw(n, j-1, u'-1) (x) I) split.
    for j in range(2, m + 1):
        merge, split, bound, den, ncols = _peel_last(j, n + 1)
        dims, r = (n + 1, j, 2), raw_n1(u - m + j)
        w = _width(bound, op, r)
        rows = _apply_plan(split, [1 << (w * i) for i in range(ncols)])
        rows = _apply_plan(_two_site_plan(op, (0, 1), dims), rows)
        rows = _apply_plan(_two_site_plan(r, (0, 2), dims), rows)
        rows = _apply_plan(merge, rows)
        op = ExactMatrix._reduced(_unpack(rows, w, ncols), den * r.denominator * op.denominator, ncols)
    # At n = 1, which covers the (1,n) operators the swapped factors reuse, scale is 1.
    return op if scale == 1 else op.scale(1 / scale)


def symmetric_residual(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """Pi X (I - Pi), zero by the fusion lemma, with Pi and X as in
    :func:`fuse_nm_unrestricted`."""
    pi = kron(symmetrizer(n), symmetrizer(m))
    return mat_mul(mat_mul(pi, _bare_product(n, m, rat(u), params)), ExactMatrix.identity(pi.rows) - pi)


def check_fused_ybe(k: int, n: int, l: int, u: Fraction, v: Fraction, params: ModelParams) -> bool:
    """Yang-Baxter test for the fused triple (k,n), (k,l), (n,l) at (u, v)."""
    u, v = rat(u), rat(v)
    r12, r13, r23 = fuse_nm(k, n, v, params), fuse_nm(k, l, u, params), fuse_nm(n, l, u - v, params)
    return check_ybe_vertex(r12, r13, r23, (k + 1, n + 1, l + 1))
