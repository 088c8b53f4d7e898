"""Small periodic lattices: transfer matrices and exact partition sums.

These are desk-scale sanity checks, not thermodynamics: lattices are tiny
enough for exhaustive enumeration, which supplies the oracle for the
transfer-matrix route, and commuting transfer matrices are the operational
meaning of exact solvability at this scale.

Conventions: the weight of a vertex is the matrix element with row index
(state above, state right) and column index (state below, state left); a row
transfer matrix is the auxiliary-space trace of the ordered product of
R-operators along the row, leftmost column first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exactcore import ExactMatrix, ScalarLike, mat_mul, rat, trace_product
from .fusion import fuse_nm
from .sos import WeightQuery, w_nm_sum
from .vertex import ModelParams, embed_two_site


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic N x M lattice for a model with edge orders (n, m)."""

    N: int
    M: int
    n: int
    m: int
    u: Fraction

    def __init__(self, N: int, M: int, n: int, m: int, u: ScalarLike):
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "M", int(M))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "u", rat(u))


def transfer_matrix_vertex(spec: LatticeSpec, params: ModelParams) -> ExactMatrix:
    """Row-to-row transfer matrix on the (n+1)^N-dimensional row space."""
    n, m, N = spec.n, spec.m, spec.N
    r = fuse_nm(n, m, spec.u, params)
    dims = tuple([n + 1] * N + [m + 1])
    prod_op = None
    for i in range(N - 1, -1, -1):
        factor = embed_two_site(r, (i, N), dims)
        prod_op = factor if prod_op is None else mat_mul(prod_op, factor)
    # Partial trace over the auxiliary (last) factor, on the integer numerators:
    # row r of the trace sums, over beta, row r*adim + beta of the product read
    # at the columns j*adim + beta (the slice [beta::adim]).
    adim = m + 1
    num = prod_op.numerators
    rows = [
        list(map(sum, zip(*(num[r * adim + beta][beta::adim] for beta in range(adim)))))
        for r in range(prod_op.rows // adim)
    ]
    return ExactMatrix.from_integers(rows, prod_op.denominator)


def partition_vertex_transfer(spec: LatticeSpec, params: ModelParams) -> Fraction:
    """Partition sum as trace of the M-th transfer-matrix power.

    trace(T^M) is taken as sum_ij (T^(M-1))_ij T_ji: the last product is
    never formed, only its diagonal is summed.
    """
    t = transfer_matrix_vertex(spec, params)
    if spec.M == 0:
        return Fraction(t.rows)
    if spec.M == 1:
        return t.trace()
    power = t
    for _ in range(spec.M - 2):
        power = mat_mul(power, t)
    return trace_product(power, t)


def partition_vertex_bruteforce(spec: LatticeSpec, params: ModelParams) -> Fraction:
    """Exhaustive sum over all periodic edge configurations."""
    n, m, N, M = spec.n, spec.m, spec.N, spec.M
    r = fuse_nm(n, m, spec.u, params)
    vdim, hdim = n + 1, m + 1
    total = Fraction(0)
    vertical_configs = product(range(vdim), repeat=N * M)
    for vconf in vertical_configs:
        def vstate(i, j):
            return vconf[(i % N) * M + (j % M)]

        acc = Fraction(0)
        for hconf in product(range(hdim), repeat=N * M):
            def hstate(i, j):
                return hconf[(i % N) * M + (j % M)]

            weight = Fraction(1)
            for i in range(N):
                for j in range(M):
                    row = vstate(i, j) * hdim + hstate(i, j)
                    col = vstate(i, j - 1) * hdim + hstate(i - 1, j)
                    weight *= r[row, col]
                    if weight == 0:
                        break
                if weight == 0:
                    break
            acc += weight
        total += acc
    return total


def partition_sos(
    spec: LatticeSpec, state_range: tuple[int, int], params: ModelParams
) -> Fraction:
    """Height-model partition sum over a window of height values.

    Heights live on the N x M torus of vertices (face corners wrap modulo N
    and M).  The height lattice is unbounded, so the sum is over the window
    [lo, hi] and the result is reported as window-dependent.
    """
    lo, hi = state_range
    if lo > hi:
        return Fraction(0)
    N, M = spec.N, spec.M
    total = Fraction(0)
    for heights in product(range(lo, hi + 1), repeat=N * M):
        def h(i, j):
            return heights[(i % N) * M + (j % M)]

        weight = Fraction(1)
        for i in range(N):
            for j in range(M):
                q = WeightQuery(
                    spec.n, spec.m, h(i, j), h(i + 1, j), h(i, j + 1), h(i + 1, j + 1), spec.u
                )
                if not q.is_valid():
                    weight = Fraction(0)
                    break
                weight *= w_nm_sum(q, params)
                if weight == 0:
                    break
            if weight == 0:
                break
        total += weight
    return total
