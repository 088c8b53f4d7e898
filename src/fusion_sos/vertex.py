"""The rational seven-vertex model: its R-matrix and exact Yang-Baxter checks.

The 4x4 weight matrix acts on C^2 (x) C^2 with the basis ordered
(e1 h1, e1 h2, e2 h1, e2 h2); basis vector e1 carries edge state +1 and e2
carries state -1, which pins the intertwining-vector coordinates used in
:mod:`fusion_sos.correspondence`.

Two-site operators act through one private row kernel, on integer
numerators.  Its first part is a row plan (:func:`_two_site_plan`): for
each row of the product space, which input rows a two-site operator
combines, and with which of its numerators.  Its second part applies a
plan to packed rows and does not reduce: the result is over the product
of the denominators that went in.  A packed row is one Python ``int``,
the row's integers x_k put in slots of w bits, sum_k x_k 2^(w k)
(Kronecker substitution), so applying a plan row is one multiply-add of
whole packed rows per (offset, numerator) pair.  Every caller starts from
the packed identity, row i = 2^(w i), so the product B of the applied
plans' largest row sums of absolute numerators bounds every entry, and
the width is w = B.bit_length() + 1 (:func:`_width`), so 2B < 2^w.  Two
packed rows with entries bounded by B are then equal exactly when the
rows are: the lowest nonzero digit of their difference is at most
2B < 2^w in size, yet it would have to be a nonzero multiple of 2^w for
the higher digits to cancel it.  So two results made from the same
denominators are equal exactly when their packed rows are, with no
unpacking and no gcd.  :func:`check_ybe_vertex` compares unreduced sides
that way, and the step of :func:`fusion_sos.fusion.fuse_nm` applies the
plans of two left products and two two-site plans before it unpacks
(:func:`_unpack`) and reduces once.  :func:`embed_two_site` writes a
plan's own pairs as the rows of the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .exactcore import (
    ExactMatrix,
    ScalarLike,
    ShapeMismatchError,
    rat,
)


@dataclass(frozen=True)
class ModelParams:
    """The free constants of the model family.

    ``alpha`` rescales the corner weight and must be nonzero; ``s`` and ``t``
    enter only through the intertwining vectors, and the derived combination
    ``w = (s + t)/2`` is the single parameter the face weights depend on.
    ``w`` is computed once, here, and is not a field: equality, hashing and
    ``repr`` see only (alpha, s, t).  Integer ``w`` is accepted here because
    degenerate-``w`` behaviour is itself under test; operations that need
    ``w`` non-integer guard their own denominators.
    """

    alpha: Fraction
    s: Fraction
    t: Fraction

    def __init__(self, alpha: ScalarLike, s: ScalarLike = 0, t: ScalarLike = 1):
        object.__setattr__(self, "alpha", rat(alpha))
        object.__setattr__(self, "s", rat(s))
        object.__setattr__(self, "t", rat(t))
        object.__setattr__(self, "w", (self.s + self.t) / 2)
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")


def up_steps(a: int, b: int, n: int) -> int | None:
    """Number of +1 steps on a unit-step path of length n from a to b.

    This is the adjacency rule of the fused models: b is adjacent to a at
    distance n when |b - a| <= n and n + b - a is even.  Off adjacency the
    result is None; otherwise the path has ``n - up_steps(a, b, n)`` down
    steps.
    """
    d = b - a
    if abs(d) > n or (n + d) % 2:
        return None
    return (n + d) // 2


@lru_cache(maxsize=None)
def r7v(u: Fraction, params: ModelParams) -> ExactMatrix:
    """Seven-vertex weight matrix at spectral parameter u."""
    u, alpha = rat(u), params.alpha
    # Integer rows over den(alpha)^2 den(u)^2, with u = p/q and alpha = a/b.
    p, q, a, b = u.numerator, u.denominator, alpha.numerator, alpha.denominator
    d, o, c = (p + q) * q * b * b, p * q * b * b, q * q * b * b
    return ExactMatrix.from_integers(
        [[d, 0, 0, 0], [0, o, c, 0], [0, c, o, 0], [a * a * p * (p + q), 0, 0, d]], c
    )


def permutation_op(d: int) -> ExactMatrix:
    """The operator P with P (v (x) w) = w (x) v on C^d (x) C^d."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    size = d * d
    rows = []
    for i in range(size):
        a, b = divmod(i, d)
        rows.append([1 if (c, e) == (b, a) else 0 for c, e in (divmod(j, d) for j in range(size))])
    return ExactMatrix(rows)


def check_degeneracy(params: ModelParams) -> Fraction:
    """Return c with r7v(-1) = c (I - P); fails if no such constant exists."""
    r = r7v(Fraction(-1), params)
    c = -r[1, 2]
    if r != (ExactMatrix.identity(4) - permutation_op(2)).scale(c):
        raise ValueError("r7v(-1) is not proportional to I - P")
    return c


# A row plan: per output row, a base input row and the (offset, numerator)
# pairs that weight input row base + offset.
_Plan = list[tuple[int, list[tuple[int, int]]]]


def _two_site_plan(op: ExactMatrix, pos: tuple[int, int], dims: tuple[int, ...]) -> _Plan:
    """The row plan of ``op`` acting on factors ``pos`` of the product space.

    Output row i, with factor indices (i_p, i_q) and the rest fixed, sums
    the input rows with indices (j_p, j_q) and the same rest, weighted by
    the entries of ``op`` in row (i_p, i_q).  Its plan entry is the index
    ``base`` of the input row with j_p = j_q = 0 and that rest, and the
    nonzero numerators of the ``op`` row as (offset, numerator) pairs: the
    input row ``base + offset`` enters with that weight.  Positions must be
    distinct factors, in ``range(len(dims))``, all of dimension at least 1.
    """
    p, q = pos
    if not (0 <= p < len(dims) and 0 <= q < len(dims)):
        raise ValueError(f"positions {pos} are not factors of a {len(dims)}-factor space")
    if p == q:
        raise ValueError("positions must be distinct")
    if min(dims) < 1:
        raise ShapeMismatchError(f"factor dimensions must be at least 1, got {dims}")
    if op.rows != op.cols or op.rows != dims[p] * dims[q]:
        raise ShapeMismatchError("operator does not match the selected factors")
    sp, sq = prod(dims[p + 1 :]), prod(dims[q + 1 :])
    dp, dq = dims[p], dims[q]
    local = [
        [(jp * sp + jq * sq, v) for jp in range(dp) for jq in range(dq) if (v := orow[jp * dq + jq])]
        for orow in op.numerators
    ]
    plan = []
    for i in range(prod(dims)):
        ip, iq = i // sp % dp, i // sq % dq
        plan.append((i - ip * sp - iq * sq, local[ip * dq + iq]))
    return plan


def _width(bound: int, *ops: ExactMatrix) -> int:
    """The slot width w of packed rows that start as the packed identity
    and pass through the plans of ``ops`` and of other operators whose
    largest row sums of absolute numerators multiply to ``bound``.

    B = ``bound`` times each operator's largest row sum bounds every
    entry, and w = B.bit_length() + 1 makes 2B < 2^w, which the module
    docstring's equality argument needs.
    """
    for op in ops:
        bound *= max(sum(map(abs, row)) for row in op.numerators)
    return bound.bit_length() + 1


def _unpack(packed: list[int], w: int, ncols: int) -> list[list[int]]:
    """The integer rows of packed rows of slot width w and ncols slots.

    Every entry must be below 2^(w-1) in size.  Adding 2^(w-1) to every
    slot makes every digit nonnegative and below 2^w, so no slot borrows
    from the next and each is read off with a shift and a mask.
    """
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = half * (((1 << (w * ncols)) - 1) // mask)
    shifts = range(0, w * ncols, w)
    out = []
    for x in packed:
        x += bias
        out.append([(x >> s & mask) - half for s in shifts])
    return out


def _apply_plan(plan: _Plan, rows: list[int]) -> list[int]:
    """Apply a row plan to packed rows, without reducing.

    The result is over the product of the plan's and the rows'
    denominators, packed at the same width, which must leave room for
    the entries of the result (:func:`_width`).
    """
    out = []
    for base, pairs in plan:
        acc = 0
        for offset, v in pairs:
            acc += v * rows[base + offset]
        out.append(acc)
    return out


def _left_product_plan(m: ExactMatrix) -> _Plan:
    """The row plan of the left product by ``m``: output row i weights input
    row j by the numerator of m[i, j]."""
    return [(0, [(j, x) for j, x in enumerate(row) if x]) for row in m.numerators]


def embed_two_site(op: ExactMatrix, pos: tuple[int, int], dims: tuple[int, ...]) -> ExactMatrix:
    """Embed a two-factor operator into a tensor product, identity elsewhere.

    ``op`` acts on factors ``pos = (p, q)`` (in that order) of the product of
    spaces with the given dimensions.  Row i of the embedding is the plan
    entry of row i (:func:`_two_site_plan`): numerator v in column
    base + offset, over the denominator of ``op``.
    """
    plan = _two_site_plan(op, pos, dims)
    total = len(plan)
    rows = []
    for base, pairs in plan:
        row = [0] * total
        for offset, v in pairs:
            row[base + offset] = v
        rows.append(row)
    return ExactMatrix._reduced(rows, op.denominator, total)


def check_ybe_vertex(
    r12: ExactMatrix,
    r13: ExactMatrix,
    r23: ExactMatrix,
    dims: tuple[int, int, int],
) -> bool:
    """Exact test of r12 r13 r23 = r23 r13 r12 on the full product space.

    The operators are local: r12 acts on factors (0, 1), r13 on (0, 2) and
    r23 on (1, 2) of the space with the given three dimensions; pass them
    evaluated at the argument pattern (v, u, u - v).  Each side starts from
    the packed identity and applies the row plans of its three factors,
    rightmost first, with the row kernel of the module docstring, at the
    width both sides share (:func:`_width`).  Neither side is reduced: both
    are integer rows over the same denominator d12 d13 d23, the product of
    the operators' denominators, so the sides are equal exactly when their
    packed rows are.  ``dims`` of another length raise ``ValueError``.
    """
    if len(dims) != 3:
        raise ValueError(f"the Yang-Baxter check needs three factor dimensions, got {len(dims)}")
    plans = [_two_site_plan(op, pos, dims) for op, pos in ((r12, (0, 1)), (r13, (0, 2)), (r23, (1, 2)))]
    w = _width(1, r12, r13, r23)
    lhs = rhs = [1 << (w * i) for i in range(prod(dims))]
    for plan in reversed(plans):
        lhs = _apply_plan(plan, lhs)
    for plan in plans:
        rhs = _apply_plan(plan, rhs)
    return lhs == rhs
