import random
from fractions import Fraction
from itertools import product

import pytest

from fusion_sos.exactcore import DegeneratePointError, ExactMatrix, PoleError, mat_mul
from fusion_sos.fusion import fuse_nm
from fusion_sos import lattice, sos
from fusion_sos.lattice import (
    LatticeSpec,
    _height_rows,
    partition_sos,
    partition_sos_transfer,
    partition_vertex_bruteforce,
    partition_vertex_transfer,
    transfer_matrix_sos,
    transfer_matrix_vertex,
)
from fusion_sos.correspondence import solve_weights_from_relation
from fusion_sos.sos import (
    DegenerateParameterPoint,
    WeightQuery,
    w_nm_hypergeometric,
    w_nm_sum,
)
from fusion_sos.vertex import ModelParams, embed_two_site, r7v

U = Fraction(7, 3)
# (N, M, n, m) and (N, M, n, m, window width) of the lattice benchmark
# workload (perfbench/workloads.py, _BRUTE and _SOS), copied.
BRUTE_SHAPES = [
    (2, 2, 1, 1), (3, 2, 1, 1), (2, 3, 1, 1), (3, 1, 1, 1),
    (1, 3, 1, 1), (2, 2, 2, 1), (2, 1, 2, 2), (4, 1, 1, 1),
]
SOS_SHAPES = [
    (2, 2, 1, 1, 5), (2, 2, 2, 1, 5), (2, 2, 1, 2, 5),
    (2, 2, 2, 2, 5), (2, 4, 1, 1, 3), (4, 2, 1, 1, 3),
]
# Every (N, n, m) of _TRANSFER and _COMMUTE in the same workload, copied;
# (7, 1, 1) is the 128-row shape.
ROW_SHAPES = [(7, 1, 1), (4, 2, 1), (5, 1, 1), (4, 1, 2), (3, 2, 1), (2, 2, 2), (3, 1, 1)]


def _params_w(alpha, w):
    return ModelParams(alpha, w - Fraction(1, 2), w + Fraction(1, 2))


def _outcome(route, *args):
    """The value of a route, or the class of the degenerate-point error it raised."""
    try:
        return route(*args)
    except DegeneratePointError as exc:
        return type(exc)


def _transfer_by_embedding(spec, r):
    """T built as the product F_{N-1} ... F_0 of the (n, m) operator r
    embedded on (site i, auxiliary), each a dense operator on the whole
    (n+1)^N (m+1) space, followed by the partial trace over the auxiliary
    factor."""
    n, m, N = spec.n, spec.m, spec.N
    dims = tuple([n + 1] * N + [m + 1])
    prod = embed_two_site(r, (N - 1, N), dims)
    for i in range(N - 2, -1, -1):
        prod = mat_mul(prod, embed_two_site(r, (i, N), dims))
    adim = m + 1
    return ExactMatrix([
        [sum(prod[s * adim + a, t * adim + a] for a in range(adim)) for t in range(prod.cols // adim)]
        for s in range(prod.rows // adim)
    ])


@pytest.mark.parametrize("N, n, m", ROW_SHAPES)
@pytest.mark.parametrize(
    "alpha, w, u",
    [(Fraction(3, 2), Fraction(1, 5), Fraction(7, 2)), (Fraction(-5, 3), Fraction(2, 7), Fraction(-11, 4))],
    ids=["alpha-3/2", "alpha--5/3"],
)
def test_transfer_equals_embedded_product(N, n, m, alpha, w, u):
    spec = LatticeSpec(N, 1, n, m, u)
    params = _params_w(alpha, w)
    t = transfer_matrix_vertex(spec, params)
    assert (t.rows, t.cols) == ((n + 1) ** N,) * 2
    assert not t.is_zero()
    assert t.entries == _transfer_by_embedding(spec, fuse_nm(n, m, u, params)).entries


# N = 1 enters the closing step at once; the rest push one to three sites
# before it, with n != m for rectangular local blocks.
DENSE_SHAPES = [(1, 1, 1), (1, 2, 3), (2, 1, 3), (3, 1, 2), (2, 3, 1), (3, 2, 2), (4, 1, 1)]


def _random_operator(n, m, seed, graded):
    """A random rational (n, m) operator with no zero entry, or, when
    graded, nonzero exactly on the entries whose row charge x + c is at
    least the column charge y + b (row index (x, c), column index (y, b))."""
    rng = random.Random(seed)
    adim = m + 1
    dim = (n + 1) * adim

    def entry(row, col):
        if graded and sum(divmod(col, adim)) > sum(divmod(row, adim)):
            return 0
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))

    return ExactMatrix([[entry(row, col) for col in range(dim)] for row in range(dim)])


@pytest.mark.parametrize("N, n, m", DENSE_SHAPES)
def test_transfer_equals_embedded_product_of_dense_operator(N, n, m, monkeypatch, params_unit):
    """The seven-vertex R has one charge-raising entry, so its fused
    operators are more than half zero (7 of 16 entries nonzero at (1, 1),
    30 of 81 at (2, 2)) and leave closing triples (x, c, a) and pushed keys
    unreached.  A random rational operator with no zero entry reaches every
    one: dropping the b == a filter of the closing step at site 0 makes
    this test fail.  It is not charge-graded, so the partition sum, which
    needs the grading, refuses it and names its first entry that raises the
    charge."""
    op = _random_operator(n, m, f"dense {N} {n} {m}", graded=False)
    monkeypatch.setattr(lattice, "fuse_nm", lambda *args: op)
    spec = LatticeSpec(N, 1, n, m, U)
    assert transfer_matrix_vertex(spec, params_unit).entries == _transfer_by_embedding(spec, op).entries
    message = "operator is not charge-graded: its entry at row (0, 0), column (0, 1) has column charge 1 > row charge 0"
    with pytest.raises(ValueError) as info:
        partition_vertex_transfer(spec, params_unit)
    assert str(info.value) == message


@pytest.mark.parametrize("N, n, m", DENSE_SHAPES)
@pytest.mark.parametrize("periods", [1, 2, 3])
def test_sector_sum_equals_trace_of_power_of_graded_operator(N, n, m, periods, monkeypatch, params_unit):
    """On a random graded operator, nonzero on every entry that keeps or
    lowers the charge (by odd amounts too), the sum over the charge sectors
    equals trace(T^M) of the embedded product.  M = 1 and the 1 x 1 end
    sectors (charge 0 and n N) take the integer shortcut; the other blocks
    take _trace_power."""
    op = _random_operator(n, m, f"graded {N} {n} {m}", graded=True)
    monkeypatch.setattr(lattice, "fuse_nm", lambda *args: op)
    spec = LatticeSpec(N, periods, n, m, U)
    t = _transfer_by_embedding(spec, op)
    power = t
    for _ in range(periods - 1):
        power = mat_mul(power, t)
    assert partition_vertex_transfer(spec, params_unit) == power.trace()


def _charge(index, n, N):
    """The charge of a row of edge states: the sum of its base-(n+1) digits."""
    return sum(index // (n + 1) ** i % (n + 1) for i in range(N))


ALPHAS = (Fraction(3, 2), Fraction(-5, 3))


@pytest.mark.parametrize("shape", [(4, 2, 1, 1), (3, 2, 2, 1), (2, 3, 1, 2), (2, 2, 2, 2)])
def test_partition_sum_does_not_depend_on_alpha(shape):
    """Only charge-conserving entries of R reach a torus partition sum, and
    none of them involves alpha."""
    spec = LatticeSpec(*shape, Fraction(-11, 4))
    values = {partition_vertex_transfer(spec, _params_w(alpha, Fraction(2, 7))) for alpha in ALPHAS}
    assert len(values) == 1 and values != {0}
    assert values == {partition_vertex_bruteforce(spec, _params_w(ALPHAS[0], Fraction(2, 7)))}


@pytest.mark.parametrize("N, n, m", ROW_SHAPES)
def test_transfer_is_block_triangular_by_charge(N, n, m):
    """T has no entry from a row to a column of higher charge, and its
    charge-diagonal blocks do not depend on alpha.  Its blocks below the
    diagonal do: there the charge-raising alpha^2 u (u + 1) entries act,
    which no partition sum sees."""
    spec = LatticeSpec(N, 1, n, m, Fraction(7, 2))
    t1, t2 = (transfer_matrix_vertex(spec, _params_w(alpha, Fraction(1, 5))).entries for alpha in ALPHAS)
    charges = [_charge(k, n, N) for k in range(len(t1))]
    above = [(s, t) for s, p in enumerate(charges) for t, q in enumerate(charges) if q > p]
    diagonal = [(s, t) for s, p in enumerate(charges) for t, q in enumerate(charges) if q == p]
    below = [(s, t) for s, p in enumerate(charges) for t, q in enumerate(charges) if q < p]
    assert all(t1[s][t] == t2[s][t] == 0 for s, t in above)
    assert all(t1[s][t] == t2[s][t] for s, t in diagonal)
    assert any(t1[s][t] for s, t in diagonal)
    assert any(t1[s][t] != t2[s][t] for s, t in below)


def test_degenerate_fusion_normalization_is_a_pole():
    """At (n, m) = (2, 1) and u = -1 the fusion normalization vanishes: both
    vertex routes refuse the point with the same degenerate-point error."""
    spec = LatticeSpec(2, 2, 2, 1, Fraction(-1))
    params = _params_w(Fraction(3, 2), Fraction(1, 5))
    for route in (partition_vertex_transfer, partition_vertex_bruteforce):
        assert _outcome(route, spec, params) is PoleError


def test_single_column_transfer_is_partial_trace(params_unit):
    spec = LatticeSpec(1, 1, 1, 1, U)
    t = transfer_matrix_vertex(spec, params_unit)
    r = r7v(U, params_unit)
    expected = ExactMatrix(
        [[r[0, 0] + r[1, 1], r[0, 2] + r[1, 3]], [r[2, 0] + r[3, 1], r[2, 2] + r[3, 3]]]
    )
    assert t == expected


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_partition_transfer_equals_bruteforce(shape, params_unit):
    n_cols, m_rows = shape
    spec = LatticeSpec(n_cols, m_rows, 1, 1, U)
    assert partition_vertex_transfer(spec, params_unit) == partition_vertex_bruteforce(
        spec, params_unit
    )


@pytest.mark.parametrize("periods", [0, 1, 2, 3])
def test_partition_transfer_is_trace_of_power(periods, params_unit):
    if periods == 0:
        # There is no lattice with zero rows: the spec itself is refused.
        with pytest.raises(ValueError):
            LatticeSpec(3, periods, 1, 2, Fraction(-5, 3))
        return
    spec = LatticeSpec(3, periods, 1, 2, Fraction(-5, 3))
    t = transfer_matrix_vertex(spec, params_unit)
    power = ExactMatrix.identity(t.rows)
    for _ in range(periods):
        power = mat_mul(power, t)
    assert partition_vertex_transfer(spec, params_unit) == power.trace()


def test_partition_mixed_orders(params_unit):
    # Unequal quantum/auxiliary orders exercise the rectangular local blocks.
    spec = LatticeSpec(2, 2, 1, 2, Fraction(5, 4))
    assert partition_vertex_transfer(spec, params_unit) == partition_vertex_bruteforce(
        spec, params_unit
    )


def test_transfer_matrices_commute(params_unit):
    for u, v in ((U, Fraction(-1, 5)), (Fraction(1, 2), Fraction(4, 7))):
        t1 = transfer_matrix_vertex(LatticeSpec(3, 1, 1, 1, u), params_unit)
        t2 = transfer_matrix_vertex(LatticeSpec(3, 1, 1, 1, v), params_unit)
        assert mat_mul(t1, t2) == mat_mul(t2, t1)


class TestSosPartition:
    def test_empty_window(self, params_unit):
        spec = LatticeSpec(2, 2, 1, 1, U)
        assert partition_sos(spec, (1, 0), params_unit) == 0

    def test_odd_parity_torus_vanishes(self, params_unit):
        # On a 1x1 torus every face has equal corners, which violates the
        # odd-order adjacency, so the sum is empty.
        spec = LatticeSpec(1, 1, 1, 1, U)
        assert partition_sos(spec, (-2, 2), params_unit) == 0
        assert partition_sos_transfer(spec, (-2, 2), params_unit) == 0

    def test_reenumeration_oracle(self, params_unit):
        """Independent summation order (faces innermost, heights outermost swapped)."""
        spec = LatticeSpec(2, 2, 1, 1, U)
        window = (-2, 2)
        value = partition_sos(spec, window, params_unit)
        lo, hi = window
        total = Fraction(0)
        # Enumerate heights column-major instead, multiply faces in reversed order.
        for h11 in range(lo, hi + 1):
            for h01 in range(lo, hi + 1):
                for h10 in range(lo, hi + 1):
                    for h00 in range(lo, hi + 1):
                        grid = {(0, 0): h00, (1, 0): h10, (0, 1): h01, (1, 1): h11}

                        def corner(i, j):
                            return grid[(i % 2, j % 2)]

                        weight = Fraction(1)
                        for i, j in reversed(list(product(range(2), range(2)))):
                            q = WeightQuery(
                                1, 1, corner(i, j), corner(i + 1, j), corner(i, j + 1),
                                corner(i + 1, j + 1), U,
                            )
                            if not q.is_valid():
                                weight = Fraction(0)
                                break
                            weight *= w_nm_sum(q, params_unit)
                        total += weight
        assert value == total

    def test_even_order_single_site(self, params_unit):
        # n = m = 2 allows equal corners, so the 1x1 torus sum is nonempty.
        spec = LatticeSpec(1, 1, 2, 2, U)
        value = partition_sos(spec, (-1, 1), params_unit)
        expected = sum(
            w_nm_sum(WeightQuery(2, 2, h, h, h, h, U), params_unit) for h in (-1, 0, 1)
        )
        assert value == expected
        assert partition_sos_transfer(spec, (-1, 1), params_unit) == expected


ROUTES = [
    partition_vertex_transfer,
    partition_vertex_bruteforce,
    transfer_matrix_vertex,
    lambda spec, p: partition_sos(spec, (-2, 2), p),
    lambda spec, p: partition_sos_transfer(spec, (-2, 2), p),
    lambda spec, p: transfer_matrix_sos(spec, (-2, 2), p),
]


@pytest.mark.parametrize("size", [(0, 2), (-1, 2), (2, 0), (2, -1), (0, 0)])
@pytest.mark.parametrize("route", range(len(ROUTES)))
def test_every_route_rejects_empty_lattice(size, route, params_unit):
    with pytest.raises(ValueError, match="lattice size must be at least 1 x 1"):
        ROUTES[route](LatticeSpec(*size, 1, 1, U), params_unit)


@pytest.mark.parametrize("orders", [(0, 1), (1, 0), (-1, 1), (1, -1), (0, 0)])
@pytest.mark.parametrize("route", range(len(ROUTES)))
def test_every_route_rejects_orders_below_one(orders, route, params_unit):
    with pytest.raises(ValueError, match="fusion orders must be at least 1"):
        ROUTES[route](LatticeSpec(2, 2, *orders, U), params_unit)


@pytest.mark.parametrize(
    "shape, name",
    [((2.7, 2, 1, 1), "N"), ((2, 1.5, 1, 1), "M"), ((2, 2, Fraction(3, 2), 1), "n"), ((2, 2, 1, 1.25), "m")],
)
@pytest.mark.parametrize("route", range(len(ROUTES)))
def test_every_route_rejects_non_integral_sizes(shape, name, route, params_unit):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        ROUTES[route](LatticeSpec(*shape, U), params_unit)


def test_integral_values_of_other_types_are_kept():
    spec = LatticeSpec(2.0, Fraction(3), 1, 2.0, U)
    assert (spec.N, spec.M, spec.n, spec.m) == (2, 3, 1, 2)
    assert all(type(x) is int for x in (spec.N, spec.M, spec.n, spec.m))


class TestVertexEnumeration:
    @pytest.mark.parametrize("shape", BRUTE_SHAPES)
    def test_equals_transfer_on_benchmark_shapes(self, shape):
        params = _params_w(Fraction(-3, 2), Fraction(2, 7))
        spec = LatticeSpec(*shape, Fraction(-11, 5))
        assert partition_vertex_bruteforce(spec, params) == partition_vertex_transfer(spec, params)

    def test_pruning_drops_no_nonzero_term(self):
        # A naive product over every edge configuration, with no pruning.
        N, M, n, m = 2, 2, 2, 1
        spec = LatticeSpec(N, M, n, m, Fraction(5, 4))
        params = _params_w(Fraction(2, 3), Fraction(1, 3))
        r = fuse_nm(n, m, spec.u, params)
        total = Fraction(0)
        for vconf in product(range(n + 1), repeat=N * M):
            for hconf in product(range(m + 1), repeat=N * M):
                weight = Fraction(1)
                for i in range(N):
                    for j in range(M):
                        row = vconf[i * M + j] * (m + 1) + hconf[i * M + j]
                        col = vconf[i * M + (j - 1) % M] * (m + 1) + hconf[((i - 1) % N) * M + j]
                        weight *= r[row, col]
                total += weight
        assert total != 0
        assert partition_vertex_bruteforce(spec, params) == total


class TestSosTransfer:
    @pytest.mark.parametrize("shape", SOS_SHAPES)
    @pytest.mark.parametrize("w", [Fraction(1, 2), Fraction(-4, 3)])
    def test_equals_enumeration_on_benchmark_shapes(self, shape, w):
        N, M, n, m, width = shape
        params = _params_w(Fraction(2, 3), w)
        spec = LatticeSpec(N, M, n, m, Fraction(-9, 4))
        for lo in (-3, 0):
            window = (lo, lo + width - 1)
            enumerated = _outcome(partition_sos, spec, window, params)
            transferred = _outcome(partition_sos_transfer, spec, window, params)
            # At non-integer w a failing route must fail the same way on both.
            assert enumerated == transferred
            assert isinstance(enumerated, Fraction)

    def test_matrix_is_on_admissible_rows(self, params_unit):
        spec = LatticeSpec(2, 1, 1, 1, U)
        t = transfer_matrix_sos(spec, (0, 2), params_unit)
        # Rows (h0, h1) with |h0 - h1| = 1: (0,1), (1,0), (1,2), (2,1).
        assert (t.rows, t.cols) == (4, 4)
        q = WeightQuery(1, 1, 0, 1, 1, 2, U)
        # Row (0, 1) to row (1, 2): faces (0, 1, 1, 2) and (1, 0, 2, 1).
        expected = w_nm_sum(q, params_unit) * w_nm_sum(WeightQuery(1, 1, 1, 0, 2, 1, U), params_unit)
        assert t[0, 2] == expected
        assert t[0, 0] == 0  # equal heights are not 1-adjacent

    def test_no_admissible_row(self, params_unit):
        spec = LatticeSpec(1, 2, 1, 1, U)
        assert partition_sos_transfer(spec, (-2, 2), params_unit) == 0
        assert partition_sos(spec, (-2, 2), params_unit) == 0
        with pytest.raises(ValueError, match="no admissible periodic height row"):
            transfer_matrix_sos(spec, (-2, 2), params_unit)


def test_height_routes_check_the_domain_once(monkeypatch):
    """Each height-lattice route checks the domain on entry, not again for
    each face weight it takes."""
    calls = []
    check = sos.check_weight_domain
    for module in (sos, lattice):
        monkeypatch.setattr(module, "check_weight_domain", lambda p: calls.append(p) or check(p))
    params = _params_w(Fraction(2, 3), Fraction(1, 2))
    spec = LatticeSpec(2, 2, 1, 1, U)
    for route in (partition_sos, partition_sos_transfer, transfer_matrix_sos):
        calls.clear()
        route(spec, (-1, 1), params)
        assert calls == [params]



def test_height_routes_take_one_denominator_per_sum(monkeypatch):
    """Each height-lattice route puts its one spectral point over one
    denominator once, not once per face weight."""
    calls = []
    over = sos._over_common_denominator
    for module in (sos, lattice):
        monkeypatch.setattr(module, "_over_common_denominator", lambda u, w: calls.append((u, w)) or over(u, w))
    params = _params_w(Fraction(2, 3), Fraction(1, 2))
    spec = LatticeSpec(2, 2, 1, 1, U)
    for route in (partition_sos, partition_sos_transfer, transfer_matrix_sos):
        calls.clear()
        route(spec, (-1, 1), params)
        assert calls == [(U, params.w)]

_INTEGER_W = (DegenerateParameterPoint, "w is an integer, outside the domain of the face weights")

# Height sums at integer w, outside the domain of the weights.  Both routes
# refuse them on entry.  Before that guard the full-product enumeration gave
# 51944/81, "a + w vanished", "height-ladder denominator vanished" and
# 609493697/52488 on these rows, and the transfer route disagreed with the
# depth-first enumeration on 70 of 288 such points.
SOS_DEGENERATE = [
    ((2, 2, 1, 1), "7/3", "1", (0, 4), _INTEGER_W),
    ((2, 2, 1, 1), "7/3", "0", (0, 4), _INTEGER_W),
    ((2, 2, 1, 1), "7/3", "0", (-2, 2), _INTEGER_W),
    ((2, 4, 1, 1), "7/3", "-2", (-2, 0), _INTEGER_W),
]


@pytest.mark.parametrize("shape, u, w, window, outcome", SOS_DEGENERATE)
def test_sos_enumeration_degenerate_outcomes(shape, u, w, window, outcome):
    spec = LatticeSpec(*shape, Fraction(u))
    params = _params_w(Fraction(2, 3), Fraction(w))
    cls, message = outcome
    for route in (partition_sos, partition_sos_transfer, transfer_matrix_sos):
        with pytest.raises(cls) as info:
            route(spec, window, params)
        assert type(info.value) is cls
        assert str(info.value) == message


@pytest.mark.parametrize("w", [0, 1, -2])
def test_integer_w_refused_by_every_weight_route(w):
    """Integer w is outside the domain of the face weights: the three weight
    routes and both height-lattice routes raise one error, with one message,
    before any arithmetic (so also on a face that violates adjacency, and on
    a lattice with no admissible row)."""
    params = _params_w(Fraction(2, 3), Fraction(w))
    valid = WeightQuery(1, 2, -2, -1, 0, -1, U)
    invalid = WeightQuery(1, 1, 0, 0, 0, 0, U)
    assert valid.is_valid() and not invalid.is_valid()
    calls = [
        lambda: w_nm_sum(valid, params),
        lambda: w_nm_sum(invalid, params),
        lambda: w_nm_hypergeometric(valid, params),
        lambda: w_nm_hypergeometric(invalid, params),
        lambda: solve_weights_from_relation(1, 2, -2, -1, -1, U, params),
        lambda: solve_weights_from_relation(1, 1, 0, 0, 0, U, params),
    ]
    for spec, window in ((LatticeSpec(2, 2, 1, 1, U), (-2, 2)), (LatticeSpec(1, 2, 1, 1, U), (0, 1))):
        calls += [
            lambda spec=spec, window=window: partition_sos(spec, window, params),
            lambda spec=spec, window=window: partition_sos_transfer(spec, window, params),
            lambda spec=spec, window=window: transfer_matrix_sos(spec, window, params),
        ]
    cls, message = _INTEGER_W
    for call in calls:
        with pytest.raises(cls) as info:
            call()
        assert type(info.value) is cls
        assert str(info.value) == message


# Every (N, n, m) with N <= 4 and n, m <= 2 that has an admissible periodic
# row in the window [-3, 3].
COMMUTE_SHAPES = [
    (N, n, m) for N in range(1, 5) for n in (1, 2) for m in (1, 2) if (N * n) % 2 == 0
]
COMMUTE_WINDOW = (-3, 3)


def _inner_rows(spec, window):
    """Indices of the rows whose heights all lie at least m inside the window."""
    lo, hi = window
    return [
        k for k, row in enumerate(_height_rows(spec, window))
        if all(lo + spec.m <= h <= hi - spec.m for h in row)
    ]


class TestHeightTransferCommutation:
    """T(u) T(v) = T(v) T(u) on the rows whose heights lie at least m inside
    the window.  From such a row every m-adjacent row is in the window, so
    no term of the sum over the middle row is cut off; on the whole window
    the two products differ."""

    U, V = Fraction(7, 3), Fraction(-5, 4)
    PARAMS = _params_w(Fraction(3, 2), Fraction(1, 5))

    def _products(self, N, n, m, params_v):
        t_u = transfer_matrix_sos(LatticeSpec(N, 1, n, m, self.U), COMMUTE_WINDOW, self.PARAMS)
        t_v = transfer_matrix_sos(LatticeSpec(N, 1, n, m, self.V), COMMUTE_WINDOW, params_v)
        return mat_mul(t_u, t_v).entries, mat_mul(t_v, t_u).entries

    @pytest.mark.parametrize("N, n, m", COMMUTE_SHAPES)
    def test_inner_rows_commute(self, N, n, m):
        uv, vu = self._products(N, n, m, self.PARAMS)
        inner = _inner_rows(LatticeSpec(N, 1, n, m, self.U), COMMUTE_WINDOW)
        assert inner
        assert [uv[k] for k in inner] == [vu[k] for k in inner]

    def test_whole_window_does_not_commute(self):
        uv, vu = self._products(2, 2, 1, self.PARAMS)
        assert uv != vu

    def test_different_w_does_not_commute(self):
        """Negative control: T(v) at another w breaks the inner block."""
        uv, vu = self._products(2, 2, 1, _params_w(Fraction(3, 2), Fraction(2, 7)))
        inner = _inner_rows(LatticeSpec(2, 1, 2, 1, self.U), COMMUTE_WINDOW)
        assert len(inner) == 11
        mismatches = sum(uv[i][j] != vu[i][j] for i in inner for j in inner)
        assert mismatches == 51
