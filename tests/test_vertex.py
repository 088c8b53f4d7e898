import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusion_sos import vertex
from fusion_sos.correspondence import fused_intertwiner_tensor
from fusion_sos.exactcore import ExactMatrix, ShapeMismatchError, kron, mat_mul
from fusion_sos.fusion import fuse_nm
from fusion_sos.polyrep import intertwiner_poly, o_m_gamma_form, o_m_product_form
from fusion_sos.sos import WeightQuery, gauge_w11_float
from fusion_sos.vertex import (
    ModelParams,
    check_degeneracy,
    check_ybe_vertex,
    embed_two_site,
    permutation_op,
    r7v,
    up_steps,
)

from conftest import rand_rat

ALPHAS = (Fraction(1), Fraction(5, 3), Fraction(-2, 7))


def test_params_reject_zero_alpha():
    with pytest.raises(ValueError):
        ModelParams(0)


def test_params_w_is_computed_once_and_is_not_a_field():
    p = ModelParams(Fraction(3, 2), Fraction(1, 3), Fraction(2, 3))
    assert p.w == Fraction(1, 2) and p.w is p.w
    same, other = ModelParams(Fraction(3, 2), Fraction(1, 3), Fraction(2, 3)), ModelParams(Fraction(3, 2), 0, 1)
    # Equality, hashing and repr see (alpha, s, t) only, as before w was stored.
    assert p == same and hash(p) == hash(same) == hash((p.alpha, p.s, p.t))
    assert p != other and other.w == p.w
    assert repr(p) == "ModelParams(alpha=Fraction(3, 2), s=Fraction(1, 3), t=Fraction(2, 3))"
    assert [f.name for f in dataclasses.fields(p)] == ["alpha", "s", "t"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.w = Fraction(0)


def test_r7v_at_zero_is_permutation(params_unit):
    assert r7v(Fraction(0), params_unit) == permutation_op(2)


def test_r7v_at_minus_one(params_unit):
    expected = ExactMatrix([[0, 0, 0, 0], [0, -1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 0]])
    assert r7v(Fraction(-1), params_unit) == expected
    assert expected == (ExactMatrix.identity(4) - permutation_op(2)).scale(-1)


def test_r7v_at_two_unit_alpha(params_unit):
    # Corner entry is alpha^2 u (u+1) = 6 at u = 2, alpha = 1.
    expected = ExactMatrix([[3, 0, 0, 0], [0, 2, 1, 0], [0, 1, 2, 0], [6, 0, 0, 3]])
    assert r7v(Fraction(2), params_unit) == expected


@pytest.mark.parametrize("alpha", [Fraction(-2, 7), Fraction(-3), Fraction(5, 3), Fraction(1)])
@pytest.mark.parametrize("u", [Fraction(0), Fraction(-1), Fraction(3), Fraction(-2), Fraction(-7, 3), Fraction(2, 5)])
def test_r7v_matches_fraction_formula(alpha, u):
    a2 = alpha * alpha
    expected = ExactMatrix(
        [[u + 1, 0, 0, 0], [0, u, 1, 0], [0, 1, u, 0], [a2 * u * (u + 1), 0, 0, u + 1]]
    )
    assert r7v(u, ModelParams(alpha)) == expected


class TestPermutationOp:
    def test_d1(self):
        assert permutation_op(1) == ExactMatrix.identity(1)

    def test_d2_swaps_middle(self):
        p = permutation_op(2)
        assert p == ExactMatrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

    def test_involution_d3(self):
        p = permutation_op(3)
        assert p @ p == ExactMatrix.identity(9)


def test_degeneracy_constant_is_minus_one():
    for alpha in ALPHAS:
        assert check_degeneracy(ModelParams(alpha)) == -1


def test_degeneracy_rejects_non_proportional(params_unit, monkeypatch):
    """r7v(-1) with one entry changed is refused: a nonzero entry where I - P
    vanishes, or entries of I - P that are not one multiple of it."""
    rows = [list(row) for row in r7v(Fraction(-1), params_unit).entries]
    assert rows == [[0, 0, 0, 0], [0, -1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 0]]
    for i, j, x in ((0, 0, 1), (3, 0, -2), (1, 1, -2), (2, 1, 3)):
        tampered = [row[:] for row in rows]
        tampered[i][j] = x
        monkeypatch.setattr(vertex, "r7v", lambda u, params, m=ExactMatrix(tampered): m)
        with pytest.raises(ValueError, match="not proportional"):
            check_degeneracy(params_unit)


class TestYbeVertex:
    def test_identity_triple(self):
        i4 = ExactMatrix.identity(4)
        assert check_ybe_vertex(i4, i4, i4, (2, 2, 2))

    def test_seven_vertex_point(self, params_unit):
        u, v = Fraction(2), Fraction(1, 2)
        r12, r13, r23 = r7v(v, params_unit), r7v(u, params_unit), r7v(u - v, params_unit)
        assert check_ybe_vertex(r12, r13, r23, (2, 2, 2))

    def test_broken_by_random_matrix(self, params_unit):
        rng = random.Random(21)
        u, v = Fraction(2), Fraction(1, 2)
        junk = ExactMatrix([[rand_rat(rng) for _ in range(4)] for _ in range(4)])
        assert not check_ybe_vertex(junk, r7v(u, params_unit), r7v(u - v, params_unit), (2, 2, 2))

    def test_embedded_operators_are_refused(self, params_unit):
        dims = (2, 2, 2)
        u, v = Fraction(2), Fraction(1, 2)
        r12 = embed_two_site(r7v(v, params_unit), (0, 1), dims)
        r13 = embed_two_site(r7v(u, params_unit), (0, 2), dims)
        r23 = embed_two_site(r7v(u - v, params_unit), (1, 2), dims)
        with pytest.raises(ShapeMismatchError):
            check_ybe_vertex(r12, r13, r23, dims)

    def test_random_points_all_alphas(self):
        rng = random.Random(22)
        for alpha in ALPHAS:
            p = ModelParams(alpha)
            for _ in range(8):
                u, v = rand_rat(rng), rand_rat(rng)
                assert check_ybe_vertex(r7v(v, p), r7v(u, p), r7v(u - v, p), (2, 2, 2))


def test_embed_two_site_reversed_positions(params_unit):
    # Embedding with swapped factor order must transpose the roles.
    r = r7v(Fraction(3), params_unit)
    dims = (2, 2)
    direct = embed_two_site(r, (0, 1), dims)
    assert direct == r
    swapped = embed_two_site(r, (1, 0), dims)
    p = permutation_op(2)
    assert swapped == p @ r @ p


nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@settings(max_examples=100, deadline=None)
@given(nonzero_rationals, st.one_of(st.integers(-6, 6).map(Fraction), st.fractions(-9, 9, max_denominator=9)))
def test_r7v_commutes_with_the_swap(alpha, u):
    # The premise that makes the (n,1) fusion factor the swapped (1,n) operator.
    p = permutation_op(2)
    r = r7v(u, ModelParams(alpha))
    assert p @ r @ p == r


def kron_reference(op, pos, dims, rhs):
    """embed(op) @ rhs as P^T (op (x) I) P @ rhs, P the permutation that
    brings factor order (p, q, rest...) to the natural order."""
    p, q = pos
    order = [p, q] + [i for i in range(len(dims)) if i not in pos]
    rest = 1
    for i in order[2:]:
        rest *= dims[i]
    total = op.rows * rest
    perm = [[0] * total for _ in range(total)]
    for natural, digits in enumerate(product(*(range(d) for d in dims))):
        moved = 0
        for i in order:
            moved = moved * dims[i] + digits[i]
        perm[moved][natural] = 1
    perm = ExactMatrix.from_integers(perm)
    big = mat_mul(mat_mul(perm.transpose(), kron(op, ExactMatrix.identity(rest))), perm)
    return mat_mul(big, rhs)


SCALARS = st.one_of(st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=9))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_embed_two_site_matches_kron_reference(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=3, max_size=4)))
    p, q = data.draw(st.permutations(range(len(dims))))[:2]
    local, total = dims[p] * dims[q], 1
    for d in dims:
        total *= d
    ncols = data.draw(st.integers(1, 3))

    def matrix(rows, cols):
        # Entries over mixed denominators, some rows zero, and the whole
        # matrix put over a denominator of either sign.
        zero_rows = data.draw(st.sets(st.integers(0, rows - 1)))
        entries = [
            [0] * cols if i in zero_rows else data.draw(st.lists(SCALARS, min_size=cols, max_size=cols))
            for i in range(rows)
        ]
        m = ExactMatrix(entries)
        return ExactMatrix.from_integers(m.numerators, m.denominator * data.draw(st.sampled_from((1, -1))))

    op, rhs = matrix(local, local), matrix(total, ncols)
    embedded = embed_two_site(op, (p, q), dims)
    assert embedded @ rhs == kron_reference(op, (p, q), dims, rhs)
    assert embedded == kron_reference(op, (p, q), dims, ExactMatrix.identity(total))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_check_ybe_vertex_is_the_embedded_product_identity(data):
    """The unreduced packed check against the definition, whose two sides
    are products of embedded operators compared as reduced matrices.  The
    three operators have distinct denominators, so the unreduced sides lie
    over a product of three different ones; most random triples fail.
    Numerators are small, or up to 2^70 in size, so that a packed row spans
    several machine words and negative entries borrow across slots."""
    dims = tuple(data.draw(st.lists(st.sampled_from((2, 3)), min_size=3, max_size=3)))
    dens = data.draw(st.permutations(range(1, 10)))[:3]
    positions = ((0, 1), (0, 2), (1, 2))
    # Scalar multiples of the identity make some triples satisfy the identity.
    scalar = data.draw(st.booleans())
    ops = []
    for (p, q), den in zip(positions, dens):
        size = dims[p] * dims[q]
        top = data.draw(st.sampled_from((3, 2**70)))
        if scalar:
            c = data.draw(st.integers(-top, top).filter(bool))
            nums = [[c if i == j else 0 for j in range(size)] for i in range(size)]
        else:
            nums = [data.draw(st.lists(st.integers(-top, top), min_size=size, max_size=size)) for _ in range(size)]
        ops.append(ExactMatrix.from_integers(nums, den))
    assume(len({op.denominator for op in ops}) == 3)
    r12, r13, r23 = (embed_two_site(op, pos, dims) for op, pos in zip(ops, positions))
    expected = mat_mul(mat_mul(r12, r13), r23) == mat_mul(mat_mul(r23, r13), r12)
    assert check_ybe_vertex(*ops, dims) is expected


def test_check_ybe_vertex_is_homogeneous_in_each_operator(params):
    # Rescaled factors put the sides over denominators no true triple had.
    u, v = Fraction(7, 3), Fraction(-5, 4)
    r12, r13, r23 = fuse_nm(2, 1, v, params), fuse_nm(2, 2, u, params), fuse_nm(1, 2, u - v, params)
    dims = (3, 2, 3)
    assert check_ybe_vertex(r12, r13, r23, dims)
    assert check_ybe_vertex(r12.scale(Fraction(3, 7)), r13.scale(Fraction(5, 2)), r23, dims)
    assert not check_ybe_vertex(r12.scale(Fraction(3, 7)), r13.scale(Fraction(5, 2)), r23 + ExactMatrix.identity(6), dims)


def test_embed_two_site_refuses_mismatched_shapes(params_unit):
    r = r7v(Fraction(3), params_unit)
    with pytest.raises(ShapeMismatchError):
        embed_two_site(r, (0, 1), (2, 3, 2))
    with pytest.raises(ValueError):
        embed_two_site(r, (1, 1), (2, 2, 2))


@pytest.mark.parametrize("pos", [(-1, 0), (0, -1), (0, 3), (3, 1), (-3, 1)], ids=str)
def test_two_site_positions_outside_the_factors_are_refused(pos, params_unit):
    # (-3, 1) would pick the same factor twice by negative indexing.
    with pytest.raises(ValueError, match=r"not factors of a 3-factor space"):
        embed_two_site(r7v(Fraction(1, 3), params_unit), pos, (2, 2, 2))


@pytest.mark.parametrize("low", [0, -1])
def test_factor_dimensions_below_one_are_refused(low, params_unit):
    """An empty or negative factor is refused, not embedded as a 0 x 0
    matrix, and check_ybe_vertex refuses it with the same exception type
    as an operator of the wrong shape."""
    r = r7v(Fraction(1, 3), params_unit)
    with pytest.raises(ShapeMismatchError, match="at least 1"):
        embed_two_site(r, (1, 2), (low, 2, 2))
    with pytest.raises(ShapeMismatchError):
        check_ybe_vertex(r, r, r, (low, 2, 2))


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (4,), ()], ids=str)
def test_check_ybe_vertex_refuses_other_than_three_factors(dims, params_unit):
    r = r7v(Fraction(1, 3), params_unit)
    with pytest.raises(ValueError, match=f"three factor dimensions, got {len(dims)}"):
        check_ybe_vertex(r, r, r, dims)


# -- the packed rows of the row kernel -----------------------------------------


def pack(row, w):
    """A packed row by its definition: sum_k row[k] 2^(w k)."""
    return sum(x << (w * k) for k, x in enumerate(row))


BOUNDS = {"1": 1, "2": 2, "3": 3, "7": 7, "8": 8, "255": 255, "2^63-1": 2**63 - 1, "2^64": 2**64, "2^64+1": 2**64 + 1,
          "3^100": 3**100}


def test_width_multiplies_the_largest_row_sums():
    ops = (ExactMatrix.from_integers([[1, -2], [0, 1]]), ExactMatrix.from_integers([[0, 0], [-5, 0]], 3))
    assert vertex._width(7) == 4
    assert vertex._width(7, *ops) == (7 * 3 * 5).bit_length() + 1
    assert vertex._width(0, *ops) == 1


@pytest.mark.parametrize("bound", BOUNDS.values(), ids=list(BOUNDS))
def test_width_rule_keeps_rows_within_the_bound_apart(bound):
    """Two rows with entries within B that differ by (2^v, -1) in adjacent
    columns, v = B.bit_length(), pack to one int at width v, one bit
    narrower than the rule, and to different ints at the rule's width."""
    w = vertex._width(bound)
    narrow = bound.bit_length()
    assert w == narrow + 1
    half = 1 << (narrow - 1)
    assert half <= bound
    lhs, rhs = [0, half, 0, -bound], [0, -half, 1, -bound]
    assert pack(lhs, narrow) == pack(rhs, narrow)
    assert pack(lhs, w) != pack(rhs, w)


# Pairs (a, c) with a c != c a whose products agree in every row once packed
# at width 2: one row of a c - c a is (-4, 1, 0) or (0, 4, -1), and packs to 0.
NARROW_PAIRS = {
    # Entries within B = 3: the rule's width is 3, one bit fewer is 2.
    "one-bit-narrower": ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], [[-2, 1, 0], [0, 0, 0], [0, 0, 2]]),
    # Largest row sums 2 and 2 but largest entries 1: the rule's width is 4,
    # a bound made of the largest entries would give 2.
    "largest-entries": ([[0, 1, -1], [0, -1, 0], [0, 0, -1]], [[-1, 1, 0], [0, 1, 0], [0, -1, 0]]),
}


@pytest.mark.parametrize("pair", NARROW_PAIRS)
@pytest.mark.parametrize("swap", [False, True], ids=["ac", "ca"])
@pytest.mark.parametrize("dims", [(3, 1, 1), (1, 3, 1), (1, 1, 3)], ids=str)
def test_check_ybe_vertex_is_not_fooled_by_a_narrow_width(pair, swap, dims):
    """With two factors of dimension 1 the check compares x y with y x on
    C^3, x and y the operators on the factor of dimension 3 in the order
    r12, r13, r23.  Each placement puts c, whose row sums a too narrow
    bound would leave out, in another slot."""
    a, c = (ExactMatrix.from_integers(m) for m in NARROW_PAIRS[pair])
    x, y = (c, a) if swap else (a, c)
    lhs, rhs = mat_mul(x, y).numerators, mat_mul(y, x).numerators
    assert lhs != rhs
    assert [pack(row, 2) for row in lhs] == [pack(row, 2) for row in rhs]
    one = ExactMatrix.identity(1)

    def placed(x, y):
        return {(3, 1, 1): (x, y, one), (1, 3, 1): (x, one, y), (1, 1, 3): (one, x, y)}[dims]

    assert not check_ybe_vertex(*placed(x, y), dims)
    assert check_ybe_vertex(*placed(x, x), dims)


@pytest.mark.parametrize("bound", BOUNDS.values(), ids=list(BOUNDS))
def test_pack_unpack_round_trip_at_the_slot_limits(bound):
    # Entries +-(2^(w-1) - 1), the largest a slot holds, next to zeros and +-1.
    w = vertex._width(bound)
    top = (1 << (w - 1)) - 1
    assert top >= bound
    rows = [[top, -top, 0, -top, top], [-top] * 5, [top] * 5, [0, 0, 0, 0, -top], [1, -1, top, -1, 0], [0] * 5]
    assert vertex._unpack([pack(row, w) for row in rows], w, 5) == rows


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packing_is_injective_within_the_bound(data):
    bound = data.draw(st.one_of(st.integers(1, 9), st.integers(1, 2**200)))
    ncols = data.draw(st.integers(1, 6))
    w = vertex._width(bound)
    entries = st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols)
    a, b = data.draw(entries), data.draw(entries)
    assert vertex._unpack([pack(a, w), pack(b, w)], w, ncols) == [a, b]
    assert (pack(a, w) == pack(b, w)) is (a == b)


# -- the adjacency rule --------------------------------------------------------

ADJ_PARAMS = ModelParams(Fraction(3, 2), Fraction(1, 3), Fraction(2, 3))


def brute_force_up_steps(a, b, n):
    """Up-step counts of all +-1 paths of length n from a to b."""
    return {steps.count(1) for steps in product((1, -1), repeat=n) if a + sum(steps) == b}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(-6, 6), st.integers(-6, 6))
def test_up_steps_counts_unit_step_paths(n, a, b):
    counts = brute_force_up_steps(a, b, n)
    ups = up_steps(a, b, n)
    if counts:
        assert counts == {ups}
    else:
        assert ups is None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(-6, 6), st.integers(-6, 6))
def test_adjacency_consumers_agree_with_up_steps(n, a, b):
    adjacent = up_steps(a, b, n) is not None
    u = Fraction(5, 7)
    p = ADJ_PARAMS
    assert intertwiner_poly(n, u, a, b, p).is_zero() is not adjacent
    tensor = fused_intertwiner_tensor(n, u, a, b, "canonical", p)
    assert all(x == 0 for x in tensor) is not adjacent
    assert WeightQuery(n, n, a, b, b, a, u).is_valid() is adjacent
    # The float gauge weight has orders n = m = 1 and is 0.0 off adjacency.
    assert (gauge_w11_float(a, b, b, a, 5 / 7, 0.5) != 0.0) is (up_steps(a, b, 1) is not None)
    for build, at in ((o_m_product_form, u), (o_m_gamma_form, 0)):
        if adjacent:
            build(n, at, a, b, p, n)
        else:
            with pytest.raises(ValueError, match="not adjacent at distance m"):
                build(n, at, a, b, p, n)
