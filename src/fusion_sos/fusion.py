"""Fusion of the elementary R-matrix into higher-spin operators.

The fused (n,m) operator is defined on (C^2)^(x n) (x) (C^2)^(x m) as the
ordered product of n*m elementary 4x4 factors sandwiched between
symmetrizers (the fusion procedure), then restricted to Sym_n (x) Sym_m.
:func:`fuse_nm_unrestricted` evaluates that definition literally in the
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
restricted space.  Two recursions result:

- over n, for the raw (n,1) operator raw(n, x) = P_n T_n(x) E_n with
  T_n(x) = R_{0a}(x+n-1) ... R_{n-1,a}(x):
  raw(n, x) = [P_n (I (x) E_{n-1})] R_{0a}(x+n-1) (I (x) raw(n-1, x))
  [(I (x) P_{n-1}) E_n], on C^2 (x) Sym_{n-1} (x) C^2 (dimension 4n);
- over m: raw(n, m, u) = [P_m (E_{m-1} (x) I)] raw(n, u)_{aux m}
  (raw(n, m-1, u-1) (x) I) [(P_{m-1} (x) I) E_m], on
  Sym_n (x) Sym_{m-1} (x) C^2 (dimension 2m(n+1)).

Both recursions act locally: R and the inner raw operator each act on two
of the three factors, and :func:`fusion_sos.vertex.apply_two_site` applies
them to the split one after the other without embedding either, so each
step forms one matrix product, with the merge.

The result is divided once by prod_{j<m} fusion_scalar(n, u-j).  The
restriction uses the unnormalized monomial basis, so the matrices here
agree entrywise with the difference-operator realization in
:mod:`fusion_sos.polyrep` without any diagonal gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from .exactcore import ExactMatrix, kron, mat_mul, rat
from .vertex import ModelParams, apply_two_site, check_ybe_vertex, embed_two_site, r7v


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


def fuse_nm_unrestricted(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """The raw fused (n,m) product on (C^2)^(x (n+m)), unnormalized and unrestricted.

    This is the defining product, evaluated literally in the full
    2**(n+m)-dimensional space: slots 0..n-1 carry the n quantum factors and
    slots n..n+m-1 the m auxiliary ones.  It is the reference the restricted
    build in :func:`fuse_nm` must reproduce, and what
    :func:`symmetric_residual` tests for containment.
    """
    u = rat(u)
    nslots = n + m
    dims = tuple([2] * nslots)
    sym_n_full = embed_op_on_slots(symmetrizer(n), range(n), nslots) if n > 1 else ExactMatrix.identity(1 << nslots)
    prod = None
    # Leftmost factor couples the last auxiliary slot at the undecremented argument.
    for j in range(m, 0, -1):
        block = None
        for i in range(1, n + 1):
            factor = embed_two_site(r7v(u - (m - j) + n - i, params), (i - 1, n + j - 1), dims)
            block = factor if block is None else mat_mul(block, factor)
        block = mat_mul(sym_n_full, block)
        prod = block if prod is None else mat_mul(prod, block)
    sym_m_full = embed_op_on_slots(symmetrizer(m), range(n, n + m), nslots) if m > 1 else ExactMatrix.identity(1 << nslots)
    return mat_mul(sym_m_full, prod)


def embed_op_on_slots(op: ExactMatrix, slots, nslots: int) -> ExactMatrix:
    """Embed an operator acting on contiguous 2-dim slots, identity elsewhere."""
    slots = list(slots)
    k = len(slots)
    if op.rows != 1 << k:
        raise ValueError("operator size does not match slot count")
    before = slots[0]
    after = nslots - slots[-1] - 1
    if slots != list(range(before, before + k)):
        raise ValueError("slots must be contiguous")
    out = op
    if before:
        out = kron(ExactMatrix.identity(1 << before), out)
    if after:
        out = kron(out, ExactMatrix.identity(1 << after))
    return out


@lru_cache(maxsize=None)
def _peel_first(k: int) -> tuple[ExactMatrix, ExactMatrix]:
    """(P_k (I (x) E_{k-1}), (I (x) P_{k-1}) E_k), each (x) I_2.

    The first maps C^2 (x) Sym_{k-1} onto Sym_k, the second embeds Sym_k
    back; the trailing C^2 is the auxiliary slot of an (n,1) operator.
    """
    big, small, eye = sym_basis(k), sym_basis(k - 1), ExactMatrix.identity(2)
    merge = mat_mul(big.project, kron(eye, small.embed))
    split = mat_mul(kron(eye, small.project), big.embed)
    return kron(merge, eye), kron(split, eye)


@lru_cache(maxsize=None)
def _peel_last(k: int, outer: int) -> tuple[ExactMatrix, ExactMatrix]:
    """I_outer (x) (P_k (E_{k-1} (x) I), (P_{k-1} (x) I) E_k).

    The same couplings as :func:`_peel_first` with the split slot trailing,
    behind the ``outer``-dimensional quantum space Sym_n.
    """
    big, small, eye = sym_basis(k), sym_basis(k - 1), ExactMatrix.identity(2)
    merge = mat_mul(big.project, kron(small.embed, eye))
    split = mat_mul(kron(small.project, eye), big.embed)
    lift = ExactMatrix.identity(outer)
    return kron(lift, merge), kron(lift, split)


def _raw_n1(n: int, x: Fraction, params: ModelParams) -> ExactMatrix:
    """P_n T_n(x) E_n on Sym_n (x) C^2, where T_n(x) is the raw (n,1) product.

    Peels quantum slot 0 off each step: raw(k) = merge R(x+k-1) (I (x) raw(k-1))
    split, on C^2 (x) Sym_{k-1} (x) C^2, with R on factors 0 and 2 and
    raw(k-1) on factors 1 and 2, each applied locally.
    """
    op = r7v(x, params)
    for k in range(2, n + 1):
        merge, split = _peel_first(k)
        dims, r = (2, k, 2), r7v(x + k - 1, params)
        op = mat_mul(merge, apply_two_site(r, (0, 2), dims, apply_two_site(op, (1, 2), dims, split)))
    return op


def check_fusion_orders(n: int, m: int) -> None:
    """Raise ``ValueError`` unless both fusion orders are at least 1.

    Below that there is no fused operator, and the recursions of
    :func:`fuse_nm` would return one of another order at a shifted argument.
    """
    if n < 1 or m < 1:
        raise ValueError(f"fusion orders must be at least 1, got n = {n}, m = {m}")


def fuse_nm(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """The fused (n,m) operator on Sym_n (x) Sym_m, (n+1)(m+1) square.

    Equal to (P_n (x) P_m) fuse_nm_unrestricted(n, m, u) (E_n (x) E_m) divided
    by prod_{j<m} fusion_scalar(n, u - j), but no intermediate leaves a
    restricted space.  Two recursions build it: over n, each raw (n,1) factor
    is grown one quantum slot at a time on C^2 (x) Sym_{k-1} (x) C^2
    (:func:`_raw_n1`); over m, the product is grown one auxiliary slot at a
    time on Sym_n (x) Sym_{j-1} (x) C^2.  Each step is exact by the four
    identities of the module docstring: Sym_k = E_k P_k, P_k E_k = I,
    Sym_k = Sym_k (I (x) Sym_{k-1}) = Sym_k (Sym_{k-1} (x) I), and
    disjoint-slot commutation.

    Orders below 1 raise ``ValueError`` (:func:`check_fusion_orders`) before
    the cache is consulted.  For n >= 2 the normalization vanishes at the
    integers -(n-1) <= u <= m-2; there it raises ZeroDivisionError before
    anything is built.
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
        raise ZeroDivisionError(
            f"fusion normalization vanishes at u = {u}; the (n,m) product degenerates"
        )
    op = _raw_n1(n, u - m + 1, params)
    # With u' = u - m + j: raw(n, j, u') = merge raw(n, 1, u')_{aux j} (raw(n, j-1, u'-1) (x) I) split.
    for j in range(2, m + 1):
        merge, split = _peel_last(j, n + 1)
        dims, r = (n + 1, j, 2), _raw_n1(n, u - m + j, params)
        op = mat_mul(merge, apply_two_site(r, (0, 2), dims, apply_two_site(op, (0, 1), dims, split)))
    return op.scale(1 / scale)


def symmetric_residual(n: int, m: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """(I - Pi_n Pi_m) applied to the unrestricted fused operator; zero iff contained."""
    op = fuse_nm_unrestricted(n, m, rat(u), params)
    nslots = n + m
    full = ExactMatrix.identity(1 << nslots)
    pi = full
    if n > 1:
        pi = mat_mul(pi, embed_op_on_slots(symmetrizer(n), range(n), nslots))
    if m > 1:
        pi = mat_mul(pi, embed_op_on_slots(symmetrizer(m), range(n, n + m), nslots))
    return mat_mul(full - pi, op)


def check_fused_ybe(k: int, n: int, l: int, u: Fraction, v: Fraction, params: ModelParams) -> bool:
    """Yang-Baxter test for the fused triple (k,n), (k,l), (n,l) at (u, v)."""
    u, v = rat(u), rat(v)
    r12, r13, r23 = fuse_nm(k, n, v, params), fuse_nm(k, l, u, params), fuse_nm(n, l, u - v, params)
    return check_ybe_vertex(r12, r13, r23, (k + 1, n + 1, l + 1))
