"""The rational seven-vertex model: its R-matrix and exact Yang-Baxter checks.

The 4x4 weight matrix acts on C^2 (x) C^2 with the basis ordered
(e1 h1, e1 h2, e2 h1, e2 h2); basis vector e1 carries edge state +1 and e2
carries state -1, which pins the intertwining-vector coordinates used in
:mod:`fusion_sos.correspondence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactcore import (
    ExactMatrix,
    ScalarLike,
    ShapeMismatchError,
    mat_mul,
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
    u = rat(u)
    a2 = params.alpha**2
    return ExactMatrix(
        [
            [u + 1, 0, 0, 0],
            [0, u, 1, 0],
            [0, 1, u, 0],
            [a2 * u * (u + 1), 0, 0, u + 1],
        ]
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
    ip = ExactMatrix.identity(4) - permutation_op(2)
    c = None
    for i in range(4):
        for j in range(4):
            if ip[i, j] != 0:
                ratio = r[i, j] / ip[i, j]
                if c is None:
                    c = ratio
                elif ratio != c:
                    raise ValueError("r7v(-1) is not proportional to I - P")
            elif r[i, j] != 0:
                raise ValueError("r7v(-1) is not proportional to I - P")
    assert c is not None
    return c


def embed_two_site(op: ExactMatrix, pos: tuple[int, int], dims: tuple[int, ...]) -> ExactMatrix:
    """Embed a two-factor operator into a tensor product, identity elsewhere.

    ``op`` acts on factors ``pos = (p, q)`` (in that order) of the product of
    spaces with the given dimensions.
    """
    p, q = pos
    if p == q:
        raise ValueError("positions must be distinct")
    if op.rows != op.cols or op.rows != dims[p] * dims[q]:
        raise ShapeMismatchError("operator does not match the selected factors")
    total = 1
    for d in dims:
        total *= d

    strides = [0] * len(dims)
    acc = 1
    for i in range(len(dims) - 1, -1, -1):
        strides[i] = acc
        acc *= dims[i]

    # Nonzero numerators of each operator row, at their offsets in the big row.
    onum = op.numerators
    nonzero = [
        [
            (jp * strides[p] + jq * strides[q], v)
            for jp in range(dims[p])
            for jq in range(dims[q])
            if (v := orow[jp * dims[q] + jq])
        ]
        for orow in onum
    ]
    out = [[0] * total for _ in range(total)]
    others = [i for i in range(len(dims)) if i not in (p, q)]

    def rest_indices():
        idx = [0] * len(dims)
        while True:
            yield sum(idx[i] * strides[i] for i in others)
            for i in reversed(others):
                idx[i] += 1
                if idx[i] < dims[i]:
                    break
                idx[i] = 0
            else:
                return

    for base in rest_indices():
        for ip in range(dims[p]):
            for iq in range(dims[q]):
                out_row = out[base + ip * strides[p] + iq * strides[q]]
                for offset, v in nonzero[ip * dims[q] + iq]:
                    out_row[base + offset] = v
    return ExactMatrix.from_integers(out, op.denominator)


def check_ybe_vertex(
    r12: ExactMatrix,
    r13: ExactMatrix,
    r23: ExactMatrix,
    dims: tuple[int, int, int],
) -> bool:
    """Exact test of r12 r13 r23 = r23 r13 r12 on the full product space.

    The operators must already be embedded into the d1*d2*d3-dimensional
    space (use :func:`embed_two_site`); pass them evaluated at the argument
    pattern (v, u, u - v).
    """
    total = dims[0] * dims[1] * dims[2]
    for mat in (r12, r13, r23):
        if mat.rows != total or mat.cols != total:
            raise ShapeMismatchError("operators must act on the full product space")
    lhs = mat_mul(mat_mul(r12, r13), r23)
    rhs = mat_mul(mat_mul(r23, r13), r12)
    return lhs == rhs
