"""Intertwining vectors and the vertex-to-face-model correspondence.

The fused intertwining vectors convert the action of a fused R-operator into
face weights.  The checks read their coordinates off the intertwining
polynomial; the paper's symmetrized tensor product defines them and is the
tests' reference.  Expanding the image of one intertwining polynomial in the
basis of neighbouring ones is an exact linear solve, and the weights it
produces are the ground truth against which the closed-form and series
formulas in :mod:`fusion_sos.sos` are tested.  That route runs on integers
until each weight becomes one ``Fraction``: the intertwining polynomials are
integer columns over one shared denominator, the height-changing operator
acts on the source column (``polyrep._o_m_apply``) without its matrix ever
being formed, and one fraction-free elimination solves for the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exactcore import (
    ExactMatrix,
    ExactPolynomial,
    ScalarLike,
    SingularMatrixError,
    _bareiss,
    _root_product,
    common_denominator,
    det,
    mat_mul,
    rat,
)
from .fusion import fuse_nm, symmetrizer
from .polyrep import _intertwiner_roots, _o_m_apply, intertwiner_poly
from .sos import check_weight_domain
from .vertex import ModelParams, up_steps


def fused_intertwiner_tensor(
    n: int,
    u: ScalarLike,
    a: int,
    b: int,
    path,
    params: ModelParams,
) -> tuple[Fraction, ...]:
    """Symmetrized tensor product of elementary intertwining vectors.

    ``path`` is the height sequence (c_0 = a, ..., c_n = b) with unit steps,
    or "canonical" for all up-steps first.  The i-th factor (leftmost first)
    is the elementary vector at spectral argument u + n - 1 - i for the step
    c_i -> c_{i+1}; the result is a coordinate vector in the 2**n tensor
    space.
    """
    u = rat(u)
    ups = up_steps(a, b, n)
    if ups is None:
        return tuple(Fraction(0) for _ in range(1 << n))
    if path == "canonical":
        path = [a + i for i in range(ups + 1)]
        path += [path[-1] - i for i in range(1, n - ups + 1)]
    path = list(path)
    if len(path) != n + 1 or path[0] != a or path[-1] != b:
        raise ValueError("path must run from a to b in n unit steps")
    if any(abs(p - q) != 1 for p, q in zip(path, path[1:])):
        raise ValueError("path must move by one unit per step")

    alpha, s, t = params.alpha, params.s, params.t
    vec = [Fraction(1)]
    for i in range(n):
        arg = u + n - 1 - i
        lvl = path[i]
        if path[i + 1] == lvl + 1:
            second = alpha * (arg - lvl - t)
        else:
            second = alpha * (arg + lvl + s)
        vec = [x * comp for x in vec for comp in (Fraction(1), second)]
    tensor = ExactMatrix.column(vec)
    symmetrized = mat_mul(symmetrizer(n), tensor) if n > 1 else tensor
    return symmetrized.column_vector()


def intertwiner_sym_coords(
    n: int, u: ScalarLike, a: int, b: int, params: ModelParams
) -> tuple[Fraction, ...]:
    """The fused vector in the (n+1)-dimensional monomial basis, read off the
    intertwining polynomial: monomial k is (-z)^(n-k), so coordinate k is
    (-1)^(n-k) times the z^(n-k) coefficient.  The tests hold it equal to its
    definition, :func:`fused_intertwiner_tensor` under ``sym_basis(n).project``."""
    coeffs = intertwiner_poly(n, u, a, b, params).coeff_vector(n + 1)
    return tuple((-1) ** (n - k) * coeffs[n - k] for k in range(n + 1))


@dataclass(frozen=True)
class IntertwinerSet:
    """A complete family of fused intertwining vectors sharing one anchor height.

    ``direction`` is "outgoing" for {psi(u)^anchor_b : b} and "incoming" for
    {psi(u)^b_anchor : b}; ``vectors`` are the polynomials in height order.
    """

    n: int
    u: Fraction
    anchor: int
    direction: str
    vectors: tuple[ExactPolynomial, ...]


def intertwiner_set(
    n: int, u: ScalarLike, anchor: int, direction: str, params: ModelParams
) -> IntertwinerSet:
    u = rat(u)
    if direction == "outgoing":
        polys = [intertwiner_poly(n, u, anchor, anchor - n + 2 * j, params) for j in range(n + 1)]
    elif direction == "incoming":
        polys = [intertwiner_poly(n, u, anchor - n + 2 * j, anchor, params) for j in range(n + 1)]
    else:
        raise ValueError("direction must be 'outgoing' or 'incoming'")
    return IntertwinerSet(n, u, anchor, direction, tuple(polys))


def independence_determinant(family: IntertwinerSet) -> Fraction:
    """Determinant of the coefficient matrix; nonzero certifies independence."""
    dim = family.n + 1
    cols = [p.coeff_vector(dim) for p in family.vectors]
    return det(ExactMatrix(list(zip(*cols))))


def solve_weights_from_relation(
    n: int, m: int, a: int, b: int, c: int, u: ScalarLike, params: ModelParams
) -> dict[int, Fraction]:
    """Face weights from first principles: apply the height-changing operator
    to one intertwining polynomial and expand in the basis at the far corner.

    Returns the weight for every height b' adjacent to c at distance n; the
    expansion is a square exact solve, and weights automatically vanish for
    b' not adjacent to a at distance m.  Integer w is refused on entry, as
    by the other weight routes (:func:`fusion_sos.sos.check_weight_domain`).

    The source psi(0)^a_b and the basis psi(0)^b'_c are integer columns over
    one denominator, D^n with D = den(alpha) den(s, t); the operator acts on
    the source (``polyrep._o_m_apply``), and one fraction-free elimination
    of the rows [basis | image] (``exactcore._bareiss``) solves for them.
    """
    check_weight_domain(params)
    if up_steps(a, b, n) is None:
        raise ValueError("heights a, b are not adjacent at distance n")
    den, (ds, dt) = common_denominator(params.s, params.t)
    scale = [(den * params.alpha.denominator) ** j for j in range(n + 1)]

    def column(x: int, y: int) -> list[int]:
        roots = _intertwiner_roots(n, x, y, params.alpha.numerator, den, 0, ds, dt)
        return [k * d for k, d in zip(_root_product(roots, (-1) ** n), scale)]

    (image,), image_den = _o_m_apply(m, rat(u), b, c, params, (den, (ds, dt)), [column(a, b)], scale[n])
    heights = [c - n + 2 * j for j in range(n + 1)]
    rows = [[*row, x] for row, x in zip(zip(*(column(bp, c) for bp in heights)), image)]
    pivot, _ = _bareiss(rows, n + 1)
    if not pivot:
        raise SingularMatrixError("singular")
    # Pivot row j reads pivot * y_j = row[n + 1], and weight j is y_j D^n / image_den.
    return {bp: Fraction(row[n + 1] * scale[n], pivot * image_den) for bp, row in zip(heights, rows)}


def check_vertex_sos_matrix(
    n: int,
    m: int,
    a: int,
    b: int,
    c: int,
    u: ScalarLike,
    v: ScalarLike,
    params: ModelParams,
) -> bool:
    """Exact test of the correspondence at the level of restricted tensors.

    The fused operator at spectral difference u - v, applied to the pair of
    fused intertwining vectors, must equal the weight-weighted sum of the
    transposed pair.
    """
    u, v = rat(u), rat(v)
    r = fuse_nm(n, m, u - v, params)
    psi_n = intertwiner_sym_coords(n, u, a, b, params)
    psi_m = intertwiner_sym_coords(m, v, b, c, params)
    vec = [x * y for x in psi_n for y in psi_m]
    lhs = mat_mul(r, ExactMatrix.column(vec)).column_vector()

    weights = solve_weights_from_relation(n, m, a, b, c, u - v, params)
    rhs = [Fraction(0)] * len(lhs)
    for bp, weight in weights.items():
        if weight:
            left = intertwiner_sym_coords(n, u, bp, c, params)
            right = intertwiner_sym_coords(m, v, a, bp, params)
            rhs = [z + weight * x * y for z, (x, y) in zip(rhs, product(left, right))]
    return list(lhs) == rhs
