import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from typing import Sequence

import pytest

from fusion_sos import ModelParams
from fusion_sos.exactcore import ExactMatrix, ExactPolynomial, ScalarLike, mat_mul, rat, solve_exact
from fusion_sos.fusion import _bits
from fusion_sos.polyrep import intertwiner_poly, o_m_product_form
from fusion_sos.sos import check_weight_domain
from fusion_sos.vertex import up_steps


def rand_rat(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_rat_noninteger(rng: random.Random, span: int = 9) -> Fraction:
    while True:
        x = Fraction(rng.randint(-4 * span, 4 * span), rng.randint(2, span))
        if x.denominator != 1:
            return x


def spectral_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A pair (u, v) with u, v, and u - v all non-integer.

    Fusion normalization degenerates at integer spectral values, so sampled
    identity checks stay away from those isolated points.
    """
    while True:
        u = rand_rat_noninteger(rng)
        v = rand_rat_noninteger(rng)
        if (u - v).denominator != 1:
            return u, v


def valid_quads(n: int, m: int, span: int):
    """All height quadruples (a, b, b', c) with |a|, |c| <= span and full adjacency."""
    for a in range(-span, span + 1):
        for b in range(a - n, a + n + 1, 2):
            for c in range(b - m, b + m + 1, 2):
                if abs(c) > span:
                    continue
                for bp in range(c - n, c + n + 1, 2):
                    if abs(bp - a) <= m and (bp - a + m) % 2 == 0:
                        yield a, b, bp, c


def reference_solve_weights(n, m, a, b, c, u, params) -> dict:
    """The linear-solve face weights from public matrices: ``solve_exact`` with
    the intertwining polynomials psi(0)^b'_c as basis and the matrix of the
    height-changing operator, read out of its product shift form
    (``o_m_product_form``, not the route's column kernel), applied to
    psi(0)^a_b as right-hand side.  It refuses what the route refuses, in the
    same order and with the same message."""
    check_weight_domain(params)
    if up_steps(a, b, n) is None:
        raise ValueError("heights a, b are not adjacent at distance n")
    heights = range(c - n, c + n + 1, 2)
    columns = [intertwiner_poly(n, 0, bp, c, params).coeff_vector(n + 1) for bp in heights]
    source = ExactMatrix.column(intertwiner_poly(n, 0, a, b, params).coeff_vector(n + 1))
    image = mat_mul(o_m_product_form(m, u, b, c, params, n), source)
    solution = solve_exact(ExactMatrix(list(zip(*columns))), image)
    return {bp: solution[j, 0] for j, bp in enumerate(heights)}


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


def poly_shift(p: ExactPolynomial, h: ScalarLike) -> ExactPolynomial:
    """The polynomial z -> p(z + h), expanded by the binomial theorem."""
    h = rat(h)
    out = [Fraction(0)] * max(len(p.coeffs), 1)
    for j, c in enumerate(p.coeffs):
        if not c:
            continue
        hp = Fraction(1)
        for i in range(j, -1, -1):
            out[i] += c * comb(j, i) * hp
            hp *= h
    return ExactPolynomial(out)


def lagrange_interpolate(points: Sequence[tuple[ScalarLike, ScalarLike]]) -> ExactPolynomial:
    """The unique polynomial of degree < len(points) through the given points."""
    xs = [rat(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    result = ExactPolynomial.zero()
    for i, (xi, yi) in enumerate(points):
        xi, yi = rat(xi), rat(yi)
        if yi == 0:
            continue
        basis = ExactPolynomial.one()
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = basis * ExactPolynomial((-xj, 1))
            denom *= xi - xj
        result = result + basis.scale(yi / denom)
    return result


@pytest.fixture
def params() -> ModelParams:
    # w = 1/2
    return ModelParams(Fraction(3, 2), Fraction(1, 3), Fraction(2, 3))


@pytest.fixture
def params_unit() -> ModelParams:
    # alpha = 1, w = 1/2
    return ModelParams(1, 0, 1)
