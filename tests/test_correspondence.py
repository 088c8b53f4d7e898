import random
from fractions import Fraction
from itertools import permutations

import pytest

from fusion_sos import correspondence, fusion
from fusion_sos.correspondence import (
    check_vertex_sos_matrix,
    fused_intertwiner_tensor,
    independence_determinant,
    intertwiner_set,
    intertwiner_sym_coords,
    solve_weights_from_relation,
)
from fusion_sos.exactcore import ExactMatrix, mat_mul
from fusion_sos.fusion import sym_basis
from fusion_sos.sos import WeightQuery, w11, w_n1
from fusion_sos.vertex import ModelParams

from conftest import spectral_pair

U = Fraction(5, 7)


def paths_between(a: int, b: int, n: int):
    ups = (n + b - a) // 2
    steps = [1] * ups + [-1] * (n - ups)
    seen = set()
    for order in permutations(steps):
        if order in seen:
            continue
        seen.add(order)
        path = [a]
        for s in order:
            path.append(path[-1] + s)
        yield path


class TestFusedVectors:
    def test_elementary_components(self, params):
        a = 2
        vec = fused_intertwiner_tensor(1, U, a, a + 1, "canonical", params)
        assert vec == (1, params.alpha * (U - a - params.t))
        vec = fused_intertwiner_tensor(1, U, a, a - 1, "canonical", params)
        assert vec == (1, params.alpha * (U + a + params.s))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_path_independence(self, n, params):
        for a in (-1, 0, 2):
            for b in range(a - n, a + n + 1, 2):
                vectors = {
                    fused_intertwiner_tensor(n, U, a, b, path, params)
                    for path in paths_between(a, b, n)
                }
                assert len(vectors) == 1

    def test_invalid_path_rejected(self, params):
        with pytest.raises(ValueError):
            fused_intertwiner_tensor(2, U, 0, 2, [0, 5, 2], params)

    @pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(-2, 3)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_projection_matches_polynomial(self, n, alpha):
        """The symmetric coordinates read off the intertwining polynomial are
        the projection of the paper's symmetrized tensor product, off
        adjacency too."""
        p = ModelParams(alpha, Fraction(1, 3), Fraction(2, 3))
        project = sym_basis(n).project
        for u in (U, Fraction(-9, 4), Fraction(0)):
            for a in range(-3, 4):
                for b in range(a - n - 1, a + n + 2):
                    tensor = fused_intertwiner_tensor(n, u, a, b, "canonical", p)
                    projected = mat_mul(project, ExactMatrix.column(tensor)).column_vector()
                    assert intertwiner_sym_coords(n, u, a, b, p) == projected


class TestIndependence:
    def test_elementary_determinant_formula(self, params):
        for anchor in (-3, 0, 2):
            fam = intertwiner_set(1, U, anchor, "outgoing", params)
            expected = 2 * params.alpha * (anchor + params.w)
            # Coefficient matrix in ascending-power order flips the sign of the
            # hand-expanded determinant for n = 1.
            assert independence_determinant(fam) in (expected, -expected)
            assert independence_determinant(fam) != 0

    def test_degenerate_integer_w(self):
        anchor = 2
        degenerate = ModelParams(1, -anchor, -anchor)  # w = -anchor, so anchor + w = 0
        fam = intertwiner_set(1, U, anchor, "outgoing", degenerate)
        assert independence_determinant(fam) == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_fused_families_independent(self, n, params):
        rng = random.Random(81 + n)
        for direction in ("outgoing", "incoming"):
            for _ in range(4):
                anchor = rng.randint(-4, 4)
                u = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
                fam = intertwiner_set(n, u, anchor, direction, params)
                assert independence_determinant(fam) != 0


class TestWeightOracle:
    def test_reproduces_w11(self, params):
        for a in (-2, 0, 1):
            for b in (a - 1, a + 1):
                for c in (b - 1, b + 1):
                    table = solve_weights_from_relation(1, 1, a, b, c, U, params)
                    for bp, val in table.items():
                        assert val == w11(WeightQuery(1, 1, a, b, bp, c, U), params)

    @pytest.mark.parametrize("n", [2, 3])
    def test_reproduces_wn1(self, n, params):
        rng = random.Random(91 + n)
        for _ in range(10):
            a = rng.randint(-3, 3)
            b = a - rng.choice(range(-n, n + 1, 2))
            c = b - rng.choice((-1, 1))
            table = solve_weights_from_relation(n, 1, a, b, c, U, params)
            for bp, val in table.items():
                assert val == w_n1(WeightQuery(n, 1, a, b, bp, c, U), params)

    def test_weights_vanish_off_m_adjacency(self, params):
        # The expansion runs over all b' adjacent to c at distance n; entries
        # with |b' - a| > m must come out exactly zero.
        n, m, a, b, c = 3, 1, 0, 1, 2
        table = solve_weights_from_relation(n, m, a, b, c, U, params)
        assert len(table) == n + 1
        for bp, val in table.items():
            if abs(bp - a) > m or (bp - a + m) % 2:
                assert val == 0


class TestMatrixCorrespondence:
    @pytest.mark.parametrize("nm", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_exact_identity(self, nm, params):
        n, m = nm
        rng = random.Random(100 + 10 * n + m)
        for _ in range(4):
            a = rng.randint(-2, 2)
            b = a - rng.choice(range(-n, n + 1, 2))
            c = b - rng.choice(range(-m, m + 1, 2))
            u, v = spectral_pair(rng)
            assert check_vertex_sos_matrix(n, m, a, b, c, u, v, params)

    def test_checks_no_tensor(self, params, monkeypatch):
        # The check reads its vectors off the intertwining polynomial: it
        # forms no symmetrized tensor and no symmetrizer.
        def refuse(*args):
            raise AssertionError("tensor route reached")

        monkeypatch.setattr(correspondence, "fused_intertwiner_tensor", refuse)
        monkeypatch.setattr(correspondence, "symmetrizer", refuse)
        monkeypatch.setattr(fusion, "symmetrizer", refuse)
        rng = random.Random(7)
        for n, m in ((2, 1), (3, 2)):
            u, v = spectral_pair(rng)
            assert check_vertex_sos_matrix(n, m, 0, n % 2, (n + m) % 2, u, v, params)

    def test_perturbed_weights_fail(self, params, monkeypatch):
        # Tampering with the weight table must break the identity.
        solve = correspondence.solve_weights_from_relation

        def bumped(n, m, a, b, c, u, p):
            weights = solve(n, m, a, b, c, u, p)
            weights[c + 1] += 1
            return weights

        monkeypatch.setattr(correspondence, "solve_weights_from_relation", bumped)
        u, v = Fraction(5, 7) + Fraction(1, 11), Fraction(1, 3)
        assert not check_vertex_sos_matrix(1, 1, 0, 1, 0, u, v, params)
