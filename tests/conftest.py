import random
from fractions import Fraction

import pytest

from fusion_sos import ModelParams
from fusion_sos.exactcore import ExactMatrix, mat_mul, solve_exact
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


@pytest.fixture
def params() -> ModelParams:
    # w = 1/2
    return ModelParams(Fraction(3, 2), Fraction(1, 3), Fraction(2, 3))


@pytest.fixture
def params_unit() -> ModelParams:
    # alpha = 1, w = 1/2
    return ModelParams(1, 0, 1)
