from fractions import Fraction
from itertools import product

import pytest

from fusion_sos.exactcore import ExactMatrix, mat_mul
from fusion_sos.lattice import (
    LatticeSpec,
    partition_sos,
    partition_vertex_bruteforce,
    partition_vertex_transfer,
    transfer_matrix_vertex,
)
from fusion_sos.sos import WeightQuery, w_nm_sum
from fusion_sos.vertex import r7v

U = Fraction(7, 3)


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
