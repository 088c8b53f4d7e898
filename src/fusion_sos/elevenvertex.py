"""The eleven-vertex family: shift conjugation of the fused seven-vertex operators.

Conjugating by lower-triangular shift operators whose polynomial action is
z -> z + alpha*u turns the fused family into a new solution family whose
simplest member is the eleven-vertex matrix.  The conjugated operators
depend only on the spectral difference.  The shift removes the spectral
parameter from the intertwining vectors, so the family's vectors are the
seven-vertex ones read at u = 0 (``polyrep.intertwiner_poly(n, 0, a, b)``),
and its face weights are the seven-vertex ones unchanged:
:func:`fusion_sos.correspondence.check_shifted_correspondence` checks this.
"""

from __future__ import annotations

from fractions import Fraction

from .exactcore import ExactMatrix, ScalarLike, kron, mat_mul, rat
from .fusion import check_fusion_orders, fuse_nm
from .polyrep import _shift_entries
from .vertex import ModelParams


def shift_op(n: int, u: Fraction, params: ModelParams) -> ExactMatrix:
    """Restriction of the n-fold elementary shift to the symmetric space.

    Monomial coordinate k (k powers of the second variable) is the
    polynomial (-z)^(n-k), on which the operator is the shift
    z -> z + alpha*u.  So entry (k', k) is C(n-k, k'-k) (-alpha*u)^(k'-k):
    the shift entry (n-k', n-k) of :func:`polyrep._shift_entries` by
    -alpha*u, over den(alpha*u)^n.
    """
    h = -params.alpha * rat(u)
    rows = _shift_entries(h.numerator, h.denominator, n + 1)
    return ExactMatrix.from_integers([row[::-1] for row in reversed(rows)], h.denominator**n)


def r11v(d: ScalarLike, params: ModelParams) -> ExactMatrix:
    """Eleven-vertex weight matrix at spectral parameter d."""
    d = rat(d)
    al = params.alpha
    return ExactMatrix(
        [
            [d + 1, 0, 0, 0],
            [al * d, d, 1, 0],
            [-al * d, 1, d, 0],
            [al * al * d, al * d, -al * d, d + 1],
        ]
    )


def similarity_fused(
    n: int, m: int, u: ScalarLike, v: ScalarLike, params: ModelParams
) -> ExactMatrix:
    """[A(u) (x) A(v)] R(u - v) [A(u) (x) A(v)]^(-1) on the restricted spaces.

    Inverses are shift operators at the negated argument (group property),
    so the whole conjugation stays exact.  Orders below 1 raise ``ValueError``
    (:func:`~fusion_sos.fusion.check_fusion_orders`) before anything is built.
    """
    check_fusion_orders(n, m)
    u, v = rat(u), rat(v)
    left = kron(shift_op(n, u, params), shift_op(m, v, params))
    right = kron(shift_op(n, -u, params), shift_op(m, -v, params))
    return mat_mul(mat_mul(left, fuse_nm(n, m, u - v, params)), right)

