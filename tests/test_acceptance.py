"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every identity here is checked as an exact equality of
rationals except the gauge-model criterion, which is float-based by design
and carries explicit tolerances.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from fusion_sos import cli
from fusion_sos.correspondence import (
    check_shifted_correspondence,
    fused_intertwiner_tensor,
    independence_determinant,
    intertwiner_set,
    solve_weights_from_relation,
)
from fusion_sos.elevenvertex import r11v, similarity_fused
from fusion_sos.exactcore import ExactMatrix, kron, mat_mul
from fusion_sos.fusion import fuse_nm
from fusion_sos.lattice import (
    LatticeSpec,
    partition_vertex_bruteforce,
    partition_vertex_transfer,
    transfer_matrix_vertex,
)
from fusion_sos.polyrep import (
    assemble_2x2,
    monomial_to_coeff_matrix,
    o_m_gamma_form,
    o_m_product_form,
    r_n1_matrix,
)
from fusion_sos.sos import (
    WeightQuery,
    check_ybe_sos,
    gauge_w11_float,
    path_function_bruteforce,
    path_function_closed,
    sample_admissible_boundary,
    sos_ybe_residual_gauge,
    w0_model_float,
    w_nm_hypergeometric,
    w_nm_sum,
)
from fusion_sos.vertex import (
    ModelParams,
    check_ybe_vertex,
    permutation_op,
    r7v,
)

from conftest import lagrange_interpolate, rand_rat, spectral_pair, valid_quads

ALPHAS = (Fraction(1), Fraction(5, 3), Fraction(-2, 7))
PARAMS = ModelParams(Fraction(3, 2), Fraction(1, 3), Fraction(2, 3))  # w = 1/2


def params_for_w(w: Fraction, alpha=Fraction(1)) -> ModelParams:
    return ModelParams(alpha, w - Fraction(1, 2), w + Fraction(1, 2))


def report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.time() - started:.2f}s)")


def test_01_seven_vertex_ybe():
    t0 = time.time()
    rng = random.Random(1001)
    dims = (2, 2, 2)
    for alpha in ALPHAS:
        p = ModelParams(alpha)
        for _ in range(25):
            u, v = rand_rat(rng), rand_rat(rng)
            assert check_ybe_vertex(r7v(v, p), r7v(u, p), r7v(u - v, p), dims)
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    report(1, "seven-vertex YBE (25 points x 3 alphas)", t0)


def test_02_degeneracy_point():
    t0 = time.time()
    target = (ExactMatrix.identity(4) - permutation_op(2)).scale(-1)
    for alpha in ALPHAS:
        assert r7v(Fraction(-1), ModelParams(alpha)) == target
    report(2, "degeneracy r(-1) = -(I - P)", t0)


def test_03_fused_ybe():
    t0 = time.time()
    _, _, cases, check = cli._SUITES["ybe-vertex"]
    suite = cases(random.Random(1003), 6, 10)
    assert len(suite) == 200
    for case in suite:
        assert check(PARAMS, case)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.2f}s"
    report(3, "fused YBE (k+n+l <= 6, 10 points each)", t0)


def test_04_representation_agreement():
    t0 = time.time()
    rng = random.Random(1004)
    i2 = ExactMatrix.identity(2)
    for n in range(1, 5):
        d = monomial_to_coeff_matrix(n)
        dinv = d.scale((-1) ** n)
        for _ in range(5):
            u, _ = spectral_pair(rng)
            target = assemble_2x2(r_n1_matrix(n, u, PARAMS))
            conj = mat_mul(
                mat_mul(kron(d, i2), fuse_nm(n, 1, u, PARAMS)), kron(dinv, i2)
            )
            assert conj == target
    report(4, "fused/difference-operator agreement (n <= 4)", t0)


def test_05_star_triangle():
    t0 = time.time()
    _, _, cases, check = cli._SUITES["star-triangle"]
    for alpha in ALPHAS:
        suite = cases(random.Random(1005))
        assert len(suite) == 48
        for case in suite:
            assert check(ModelParams(alpha), case)
    report(5, "star-triangle (k,l <= 3, degree <= 8)", t0)


def test_06_om_identity():
    t0 = time.time()
    bound = 6
    for m in range(1, 4):
        for base in (0, 1):
            for diff in range(-m, m + 1, 2):
                b, c = base, base + diff
                # Product form equals the factorized form on the proof set.
                for u in range(m + 1):
                    assert o_m_product_form(
                        m, Fraction(u), b, c, PARAMS, bound
                    ) == o_m_gamma_form(m, Fraction(u), b, c, PARAMS, bound)
                # Interpolation certificate: entries have degree <= m in u.
                nodes = [Fraction(j) + Fraction(1, 5) for j in range(m + 2)]
                mats = [o_m_product_form(m, x, b, c, PARAMS, bound) for x in nodes]
                extra = Fraction(23, 7)
                extra_mat = o_m_product_form(m, extra, b, c, PARAMS, bound)
                for i in range(bound + 1):
                    for j in range(bound + 1):
                        poly = lagrange_interpolate(
                            [(x, mat[i, j]) for x, mat in zip(nodes, mats)]
                        )
                        assert poly.degree <= m
                        assert poly(extra) == extra_mat[i, j]
    report(6, "height-operator identity + degree certificate (m <= 3)", t0)


def test_07_three_way_weight_agreement():
    t0 = time.time()
    grids = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))
    us = (Fraction(7, 3), Fraction(-5, 7), Fraction(13, 4))
    ws = (Fraction(1, 2), Fraction(-3, 5))
    checked = 0
    for w in ws:
        p = params_for_w(w)
        for (n, m) in grids:
            for (a, b, bp, c) in valid_quads(n, m, 4):
                for u in us:
                    oracle = solve_weights_from_relation(n, m, a, b, c, u, p)[bp]
                    q = WeightQuery(n, m, a, b, bp, c, u)
                    assert w_nm_sum(q, p) == oracle
                    assert w_nm_hypergeometric(q, p) == oracle
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.2f}s"
    report(7, f"three-way weight agreement ({checked} evaluations)", t0)


def test_08_path_function():
    t0 = time.time()
    xs = (Fraction(5, 7), Fraction(22, 3), Fraction(-13, 2), Fraction(9, 4), Fraction(-31, 5))
    for kp in range(7):
        for km in range(7 - kp):
            for x in xs:
                assert path_function_closed(kp, km, x) == path_function_bruteforce(kp, km, x)
    for kp in range(1, 4):
        for km in range(1, 4):
            for x in xs:
                lhs = path_function_closed(kp, km, x)
                rhs = (
                    path_function_closed(kp - 1, km, x) + path_function_closed(kp, km - 1, x)
                ) / (x + kp - km)
                assert lhs == rhs
    report(8, "path function closed form and recurrence", t0)


def test_09_sos_ybe():
    t0 = time.time()
    rng = random.Random(1009)
    for triple in cli._triples(6):
        spectral = [
            (rand_rat(rng), rand_rat(rng), rand_rat(rng)) for _ in range(5)
        ]
        for _ in range(50):
            bd = sample_admissible_boundary(*triple, rng)
            for (u, v, wsp) in spectral:
                assert check_ybe_sos(*triple, u, v, wsp, bd, PARAMS)
    report(9, "face-model YBE (k+n+l <= 6, 50 boundaries x 5 spectra)", t0)


def test_10_vertex_sos_correspondence():
    t0 = time.time()
    rng = random.Random(1010)
    _, _, cases, check = cli._SUITES["correspondence"]
    for (n, m) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        suite = cases(rng, 10, None, None, n, m)
        assert len(suite) == 10
        for case in suite:
            assert check(PARAMS, case)
    report(10, "vertex-to-face correspondence (matrix level)", t0)


def test_11_path_and_linear_independence():
    t0 = time.time()
    # All step orderings give the same fused vector.
    u = Fraction(5, 7)
    for n in range(2, 5):
        for a in (-2, 0, 1):
            for b in range(a - n, a + n + 1, 2):
                ups = (n + b - a) // 2
                base = None
                for order in set(permutations([1] * ups + [-1] * (n - ups))):
                    path = [a]
                    for s in order:
                        path.append(path[-1] + s)
                    vec = fused_intertwiner_tensor(n, u, a, b, path, PARAMS)
                    if base is None:
                        base = vec
                    assert vec == base
    # Independence determinants: nonzero off integer w, zero at the
    # constructed degeneracy.
    for w in (Fraction(1, 2), Fraction(-3, 5)):
        p = params_for_w(w)
        for n in range(1, 5):
            for anchor in range(-4, 5):
                for uu in (Fraction(1, 3), Fraction(-7, 5), Fraction(9, 2)):
                    for direction in ("outgoing", "incoming"):
                        fam = intertwiner_set(n, uu, anchor, direction, p)
                        assert independence_determinant(fam) != 0
    anchor = 2
    degenerate = ModelParams(1, -anchor, -anchor)
    fam = intertwiner_set(1, u, anchor, "outgoing", degenerate)
    assert independence_determinant(fam) == 0
    report(11, "path independence + linear independence", t0)


def test_12_eleven_vertex_family():
    t0 = time.time()
    rng = random.Random(1012)
    # The 4x4 family matches the shift-conjugated elementary matrix.
    for _ in range(5):
        u, v = spectral_pair(rng)
        assert r11v(u - v, PARAMS) == similarity_fused(1, 1, u, v, PARAMS)
    # Difference-only dependence.
    for n in (1, 2):
        for m in (1, 2):
            u, v = Fraction(7, 5), Fraction(1, 3)
            base = similarity_fused(n, m, u, v, PARAMS)
            for delta in (Fraction(1), Fraction(-2, 3)):
                assert similarity_fused(n, m, u + delta, v + delta, PARAMS) == base
    # Constant intertwiners reproduce the unchanged weight tables.
    for (n, m) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for _ in range(4):
            a = rng.randint(-2, 2)
            b = a - rng.choice(range(-n, n + 1, 2))
            c = b - rng.choice(range(-m, m + 1, 2))
            u, v = spectral_pair(rng)
            assert check_shifted_correspondence(n, m, a, b, c, u, v, PARAMS)
    report(12, "eleven-vertex family (conjugation, difference-only, weights)", t0)


def test_13_gauge_model_float():
    t0 = time.time()
    rng = random.Random(1013)
    # Generic w: full identity in doubles.
    for _ in range(20):
        bd = tuple(x + 5 for x in sample_admissible_boundary(1, 1, 1, rng, spread=2))
        assert sos_ybe_residual_gauge(0.37, 0.81, 0.13, bd, 0.7) < 1e-9
        assert sos_ybe_residual_gauge(0.41, 0.11, 0.29, bd, 1.6) < 1e-9
    # w -> 1 degeneration for the two special boundary configurations.
    for wval in (1 + 1e-6, 1 - 1e-6):
        for bd in ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1)):
            assert sos_ybe_residual_gauge(0.4, 0.2, 0.1, bd, wval, g_min=0) < 1e-6
    # The w = 1 specialization reproduces the nonnegative-height model.
    for l in range(0, 5):
        for (a, b, bp, c) in (
            (l + 2, l + 1, l + 1, l),
            (l, l + 1, l + 1, l),
            (l, l + 1, l - 1, l),
            (l, l - 1, l + 1, l),
        ):
            if min(a, b, bp, c) < 0:
                continue
            got = gauge_w11_float(a, b, bp, c, 0.73, 1.0)
            assert abs(got - w0_model_float(a, b, bp, c, 0.73)) < 1e-12
    report(13, "gauge model in floats (YBE, w->1, w=1 values)", t0)


def test_14_lattice_plumbing():
    t0 = time.time()
    p = ModelParams(Fraction(1))
    for n_cols in (1, 2, 3):
        for m_rows in (1, 2, 3):
            spec = LatticeSpec(n_cols, m_rows, 1, 1, Fraction(7, 3))
            assert partition_vertex_transfer(spec, p) == partition_vertex_bruteforce(spec, p)
    for (u, v) in ((Fraction(7, 3), Fraction(-1, 5)), (Fraction(1, 2), Fraction(4, 7))):
        t1 = transfer_matrix_vertex(LatticeSpec(3, 1, 1, 1, u), p)
        t2 = transfer_matrix_vertex(LatticeSpec(3, 1, 1, 1, v), p)
        assert mat_mul(t1, t2) == mat_mul(t2, t1)
    report(14, "lattice plumbing (transfer = enumeration, commuting T)", t0)
