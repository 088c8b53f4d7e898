import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusion_sos.exactcore import (
    ExactMatrix,
    ExactPolynomial,
    InconsistentSystemError,
    ShapeMismatchError,
    SingularMatrixError,
    det,
    kron,
    mat_mul,
    rat_to_str,
    solve_exact,
    trace_product,
)

from fusion_sos.correspondence import (
    check_vertex_sos_matrix,
    independence_determinant,
    intertwiner_set,
    solve_weights_from_relation,
)
from fusion_sos.elevenvertex import r11v, similarity_fused
from fusion_sos.fusion import check_fused_ybe
from fusion_sos.lattice import (
    LatticeSpec,
    partition_sos,
    partition_sos_transfer,
    partition_vertex_bruteforce,
    partition_vertex_transfer,
    transfer_matrix_vertex,
)
from fusion_sos.polyrep import o_m_identity_check, star_triangle_check
from fusion_sos.sos import WeightQuery, check_ybe_sos, sample_admissible_boundary, w_nm_sum
from fusion_sos.vertex import ModelParams

from conftest import lagrange_interpolate, poly_shift, rand_rat

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def schoolbook_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Independent triple-loop product used as the oracle for mat_mul."""
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = Fraction(0)
            for k in range(a.cols):
                acc += a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return ExactMatrix(rows)


# Entries with many zeros, negative values and mixed denominators.
entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
units = st.sampled_from([0, 1, -1])
dims = st.integers(min_value=1, max_value=4)


@st.composite
def fraction_matrices(draw, rows=None, cols=None):
    """A matrix built from Fraction scalars; one draw in six is all zero and
    one in six has entries in {0, 1, -1} only."""
    r = draw(dims) if rows is None else rows
    c = draw(dims) if cols is None else cols
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return ExactMatrix([[0] * c for _ in range(r)])
    pick = units if kind == 1 else entries
    return ExactMatrix([[draw(pick) for _ in range(c)] for _ in range(r)])


def integer_twin(m: ExactMatrix, extra: int) -> ExactMatrix:
    """The same values built only in integer form, over a denominator that is
    not reduced (and negative when ``extra`` is) so that normalization runs."""
    den = extra * lcm(*(x.denominator for row in m.entries for x in row))
    return ExactMatrix.from_integers(
        [[int(x * den) for x in row] for row in m.entries], den
    )


extras = st.sampled_from([1, 2, 6, -1, -4])


def kron_definition(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(
        [
            [a[i, j] * b[k, l] for j in range(a.cols) for l in range(b.cols)]
            for i in range(a.rows)
            for k in range(b.rows)
        ]
    )


def assert_canonical(m: ExactMatrix):
    for row in m.entries:
        for x in row:
            assert type(x) is Fraction
            assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
    assert m.denominator > 0
    assert gcd(m.denominator, *(x for row in m.numerators for x in row)) == 1


@st.composite
def chains(draw):
    n, k, p, q = (draw(dims) for _ in range(4))
    return (
        draw(fraction_matrices(n, k)),
        draw(fraction_matrices(k, p)),
        draw(fraction_matrices(p, q)),
    )


class TestIntegerForm:
    @settings(max_examples=60, deadline=None)
    @given(chains(), extras)
    def test_products_match_schoolbook(self, abc, extra):
        a, b, c = abc
        for x, y in ((a, b), (integer_twin(a, extra), integer_twin(b, extra))):
            assert mat_mul(x, y) == schoolbook_product(a, b)
        ab = mat_mul(integer_twin(a, extra), b)
        assert mat_mul(ab, integer_twin(c, extra)) == schoolbook_product(
            schoolbook_product(a, b), c
        )
        assert_canonical(mat_mul(ab, c))

    @settings(max_examples=40, deadline=None)
    @given(fraction_matrices(), fraction_matrices(), extras)
    def test_kron_matches_definition(self, a, b, extra):
        expected = kron_definition(a, b)
        assert kron(a, b) == expected
        k = kron(integer_twin(a, extra), integer_twin(b, extra))
        assert k == expected
        assert k.entries == expected.entries
        assert_canonical(k)

    @settings(max_examples=60, deadline=None)
    @given(fraction_matrices(), extras)
    def test_forms_equal_and_hash_equal(self, m, extra):
        twin = integer_twin(m, extra)
        assert twin == m and m == twin
        assert hash(twin) == hash(m)
        assert twin.entries == m.entries
        assert twin.numerators == m.numerators
        assert twin.denominator == m.denominator
        assert_canonical(twin)
        assert_canonical(m)
        assert repr(twin) == repr(m)
        assert twin.to_jsonable() == m.to_jsonable()
        assert ExactMatrix.from_jsonable(twin.to_jsonable()) == m

    @settings(max_examples=60, deadline=None)
    @given(st.data(), extras)
    def test_operations_agree_across_forms(self, data, extra):
        a = data.draw(fraction_matrices())
        b = data.draw(fraction_matrices(a.rows, a.cols))
        s = data.draw(entries)
        ta, tb = integer_twin(a, extra), integer_twin(b, extra)
        plus = ExactMatrix([[x + y for x, y in zip(r, q)] for r, q in zip(a.entries, b.entries)])
        minus = ExactMatrix([[x - y for x, y in zip(r, q)] for r, q in zip(a.entries, b.entries)])
        scaled = ExactMatrix([[s * x for x in r] for r in a.entries])
        for x, y in ((a, b), (ta, tb), (a, tb), (ta, b)):
            assert x + y == plus
            assert x - y == minus
        for x in (a, ta):
            assert x.scale(s) == scaled
            assert x.transpose() == ExactMatrix(list(zip(*a.entries)))
            assert x.is_zero() == all(v == 0 for r in a.entries for v in r)
            assert x.to_jsonable() == a.to_jsonable()
            if a.rows == a.cols:
                assert x.trace() == sum((a[i, i] for i in range(a.rows)), Fraction(0))
        for m in (ta + tb, ta - tb, ta.scale(s), ta.transpose()):
            assert_canonical(m)

    @settings(max_examples=60, deadline=None)
    @given(fraction_matrices(), extras)
    def test_entry_and_column_reads_match_entries(self, m, extra):
        for x in (m, integer_twin(m, extra)):
            rows = x.entries
            for i in range(x.rows):
                for j in range(x.cols):
                    assert x[i, j] == rows[i][j] and type(x[i, j]) is Fraction
            for j in range(x.cols):
                assert x.column_vector(j) == tuple(row[j] for row in rows)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), extras)
    def test_trace_product(self, data, extra):
        a = data.draw(fraction_matrices())
        b = data.draw(fraction_matrices(a.cols, a.rows))
        expected = schoolbook_product(a, b).trace()
        assert trace_product(a, b) == expected
        assert trace_product(integer_twin(a, extra), integer_twin(b, extra)) == expected

    @settings(max_examples=20, deadline=None)
    @given(fraction_matrices(), extras)
    def test_no_public_mutable_row(self, m, extra):
        def frozen(value):
            if isinstance(value, tuple):
                return all(frozen(v) for v in value)
            return isinstance(value, (int, Fraction))

        for mat in (m, integer_twin(m, extra), mat_mul(m, m.transpose())):
            for name in dir(mat):
                if name.startswith("_"):
                    continue
                value = getattr(mat, name)
                if not callable(value):
                    assert frozen(value), name
            with pytest.raises(AttributeError):
                mat.rows = 7

    def test_from_integers_validates(self):
        with pytest.raises(TypeError):
            ExactMatrix.from_integers([[Fraction(1, 2)]])
        with pytest.raises(TypeError):
            ExactMatrix.from_integers([[1]], Fraction(2))
        with pytest.raises(ZeroDivisionError):
            ExactMatrix.from_integers([[1]], 0)
        with pytest.raises(ShapeMismatchError):
            ExactMatrix.from_integers([[1, 2], [3]])
        assert ExactMatrix.from_integers([[2, -4], [0, 6]], -4) == ExactMatrix(
            [["-1/2", 1], [0, "-3/2"]]
        )

    def test_identity_and_zeros(self):
        assert ExactMatrix.identity(3) == ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        z = ExactMatrix.zeros(2, 3)
        assert z.is_zero() and z == ExactMatrix([[0] * 3] * 2) and z.denominator == 1


def test_workload_entry_points_never_read_the_fraction_view(monkeypatch):
    """The entry points the benchmark workloads call run on the integer
    storage alone: with ``entries`` refusing every read they still return
    their values.  The parameters are used by no other test, so no library
    cache answers for them."""

    def refuse(self):
        raise AssertionError("the Fraction view of a matrix was read")

    monkeypatch.setattr(ExactMatrix, "entries", property(refuse))
    params = ModelParams(Fraction(7, 5), Fraction(1, 4), Fraction(-2, 9))
    u, v = Fraction(11, 7), Fraction(-3, 8)
    assert check_fused_ybe(2, 1, 1, u, v, params)
    boundary = sample_admissible_boundary(1, 2, 1, random.Random(5))
    assert check_ybe_sos(1, 2, 1, u, v, Fraction(2, 5), boundary, params)
    weights = solve_weights_from_relation(2, 1, 0, 2, 1, u, params)
    assert weights == {bp: w_nm_sum(WeightQuery(2, 1, 0, 2, bp, 1, u), params) for bp in weights}
    assert check_vertex_sos_matrix(2, 2, 0, 2, 2, u, v, params)
    assert independence_determinant(intertwiner_set(3, u, 1, "outgoing", params)) != 0
    spec = LatticeSpec(3, 2, 1, 1, u)
    z = partition_vertex_transfer(spec, params)
    t = transfer_matrix_vertex(spec, params)
    assert trace_product(t, t) == z
    z_sos = partition_sos(spec, (-1, 1), params)
    conjugated = similarity_fused(1, 1, u, v, params)
    assert star_triangle_check(1, 2, Fraction(2, 7), 8, params)
    assert o_m_identity_check(2, 1, 0, 2, params, 6)
    monkeypatch.undo()
    assert z == partition_vertex_bruteforce(spec, params)
    assert z_sos == partition_sos_transfer(spec, (-1, 1), params)
    assert conjugated == r11v(u - v, params)


class TestMatMul:
    def test_identity(self):
        i2 = ExactMatrix.identity(2)
        assert mat_mul(i2, i2) == i2

    def test_permutation_column_swap(self):
        a = ExactMatrix([[1, 2], [3, 4]])
        p = ExactMatrix([[0, 1], [1, 0]])
        assert mat_mul(a, p) == ExactMatrix([[2, 1], [4, 3]])

    def test_random_vs_schoolbook(self):
        rng = random.Random(11)
        for _ in range(10):
            a = ExactMatrix([[rand_rat(rng, 5) for _ in range(3)] for _ in range(3)])
            b = ExactMatrix([[rand_rat(rng, 5) for _ in range(3)] for _ in range(3)])
            assert mat_mul(a, b) == schoolbook_product(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mat_mul(ExactMatrix.identity(2), ExactMatrix.identity(3))


class TestKron:
    def test_identity(self):
        assert kron(ExactMatrix.identity(2), ExactMatrix.identity(2)) == ExactMatrix.identity(4)

    def test_unit_factor(self):
        a = ExactMatrix([[1, 2], [3, 4]])
        assert kron(a, ExactMatrix.identity(1)) == a
        assert kron(ExactMatrix.identity(1), a) == a

    def test_mixed_shape_against_definition(self):
        rng = random.Random(12)
        a = ExactMatrix([[rand_rat(rng, 5) for _ in range(3)] for _ in range(2)])
        b = ExactMatrix([[rand_rat(rng, 5) for _ in range(2)] for _ in range(4)])
        k = kron(a, b)
        for i in range(a.rows):
            for j in range(a.cols):
                for p in range(b.rows):
                    for q in range(b.cols):
                        assert k[i * b.rows + p, j * b.cols + q] == a[i, j] * b[p, q]

    def test_product_identity(self):
        rng = random.Random(13)
        a = ExactMatrix([[rand_rat(rng, 4) for _ in range(2)] for _ in range(3)])
        c = ExactMatrix([[rand_rat(rng, 4) for _ in range(3)] for _ in range(2)])
        b = ExactMatrix([[rand_rat(rng, 4) for _ in range(3)] for _ in range(2)])
        d = ExactMatrix([[rand_rat(rng, 4) for _ in range(2)] for _ in range(3)])
        assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))


class TestSolve:
    def test_identity(self):
        b = ExactMatrix.column([1, 2, 3])
        assert solve_exact(ExactMatrix.identity(3), b) == b

    def test_diagonal(self):
        a = ExactMatrix([[2, 0], [0, 3]])
        assert solve_exact(a, ExactMatrix.column([4, 9])) == ExactMatrix.column([2, 3])

    def test_round_trip_random(self):
        rng = random.Random(14)
        for _ in range(6):
            while True:
                a = ExactMatrix([[rand_rat(rng, 5) for _ in range(4)] for _ in range(4)])
                try:
                    x = ExactMatrix.column([rand_rat(rng, 5) for _ in range(4)])
                    assert solve_exact(a, mat_mul(a, x)) == x
                    break
                except SingularMatrixError:
                    continue

    def test_singular(self):
        a = ExactMatrix([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError):
            solve_exact(a, ExactMatrix.column([1, 1]))

    def test_overdetermined_consistent(self):
        a = ExactMatrix([[1, 0], [0, 1], [1, 1]])
        assert solve_exact(a, ExactMatrix.column([2, 3, 5])) == ExactMatrix.column([2, 3])

    def test_overdetermined_inconsistent(self):
        a = ExactMatrix([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(InconsistentSystemError):
            solve_exact(a, ExactMatrix.column([2, 3, 6]))


def fraction_gauss_jordan(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Independent Gauss-Jordan elimination on Fraction rows: the oracle for
    solve_exact, with the same errors in the same order."""
    n, m = a.rows, a.cols
    aug = [list(ra) + list(rb) for ra, rb in zip(a.entries, b.entries)]
    for col in range(m):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    if any(x != 0 for row in aug[m:] for x in row[m:]):
        raise InconsistentSystemError("inconsistent")
    return ExactMatrix([row[m:] for row in aug[:m]])


def fraction_det(a: ExactMatrix) -> Fraction:
    """Independent cofactor expansion along the first row on Fractions."""
    rows = [list(r) for r in a.entries]

    def expand(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum(
            (-1) ** j * x * expand([r[:j] + r[j + 1 :] for r in rows[1:]])
            for j, x in enumerate(rows[0])
            if x
        )

    return Fraction(expand(rows))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SingularMatrixError, InconsistentSystemError) as exc:
        return type(exc)


def _mixed(rng) -> Fraction:
    """Zero one time in four, else a rational with denominator 1, 3, 7 or 12."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-20, 20), rng.choice((1, 3, 7, 12)))


class TestIntegerSolveMatchesFractionReference:
    """solve_exact and det eliminate on integer numerators; a Fraction
    Gauss-Jordan and a cofactor expansion are the references."""

    @pytest.mark.parametrize("seed", range(6))
    def test_square(self, seed):
        rng = random.Random(100 + seed)
        for n in (1, 2, 3, 4, 5):
            a = ExactMatrix([[_mixed(rng) for _ in range(n)] for _ in range(n)])
            b = ExactMatrix([[_mixed(rng) for _ in range(2)] for _ in range(n)])
            assert _outcome(solve_exact, a, b) == _outcome(fraction_gauss_jordan, a, b)
            assert det(a) == fraction_det(a)

    @pytest.mark.parametrize("seed", range(6))
    def test_overdetermined(self, seed):
        rng = random.Random(200 + seed)
        for n, m in ((2, 2), (3, 2), (4, 3), (3, 1)):
            rows = [[_mixed(rng) for _ in range(m)] for _ in range(n)]
            # The last row repeats row 0, so a bumped right-hand side on it
            # is inconsistent unless the matrix is singular.
            a = ExactMatrix(rows + [rows[0]])
            x = ExactMatrix([[_mixed(rng), _mixed(rng)] for _ in range(m)])
            consistent = mat_mul(a, x)
            last = consistent.entries[-1]
            bumped = ExactMatrix(consistent.entries[:-1] + ((last[0] + Fraction(1, 7), last[1]),))
            for b in (consistent, bumped):
                assert _outcome(solve_exact, a, b) == _outcome(fraction_gauss_jordan, a, b)
            if _outcome(solve_exact, a, consistent) is not SingularMatrixError:
                assert solve_exact(a, consistent) == x
                assert _outcome(solve_exact, a, bumped) is InconsistentSystemError

    @pytest.mark.parametrize("seed", range(4))
    def test_singular(self, seed):
        rng = random.Random(300 + seed)
        for n in (2, 3, 4):
            rows = [[_mixed(rng) for _ in range(n)] for _ in range(n - 1)]
            f, g = _mixed(rng), Fraction(rng.randint(1, 9), 5)
            combo = [f * x + g * y for x, y in zip(rows[0], rows[-1])]
            rows.insert(rng.randrange(n), combo)
            a = ExactMatrix(rows)
            b = ExactMatrix.column([_mixed(rng) for _ in range(n)])
            assert det(a) == 0 == fraction_det(a)
            with pytest.raises(SingularMatrixError):
                solve_exact(a, b)
            tall = ExactMatrix(rows + [[_mixed(rng) for _ in range(n)]])
            assert _outcome(solve_exact, tall, ExactMatrix.column([1] * (n + 1))) == _outcome(
                fraction_gauss_jordan, tall, ExactMatrix.column([1] * (n + 1))
            )

    def test_pivot_swaps_and_signs(self):
        # A zero leading entry forces a row swap; the swap flips the sign of det.
        a = ExactMatrix([[0, Fraction(2, 3)], [Fraction(5, 7), 1]])
        assert det(a) == Fraction(-10, 21) == fraction_det(a)
        b = ExactMatrix.column([Fraction(1, 3), 2])
        assert solve_exact(a, b) == fraction_gauss_jordan(a, b)

    def test_shape_errors_come_first(self):
        singular = ExactMatrix([[1, 2], [2, 4]])
        with pytest.raises(ShapeMismatchError):
            solve_exact(singular, ExactMatrix.column([1, 2, 3]))
        with pytest.raises(ShapeMismatchError):
            solve_exact(ExactMatrix([[1, 2, 3]]), ExactMatrix.column([1]))
        with pytest.raises(ShapeMismatchError):
            det(ExactMatrix([[1, 2, 3], [4, 5, 6]]))


class TestFromRoots:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_product_of_linear_factors(self, seed):
        rng = random.Random(400 + seed)
        for k in range(6):
            roots = [_mixed(rng) for _ in range(k)]
            expected = ExactPolynomial.one()
            for r in roots:
                expected = expected * ExactPolynomial((-r, 1))
            assert ExactPolynomial.from_roots(roots) == expected

    def test_repeated_roots_and_leading_factor(self):
        r = Fraction(-2, 3)
        linear = ExactPolynomial((-r, 1))
        assert ExactPolynomial.from_roots([r, r]) == linear * linear
        assert ExactPolynomial.from_roots([]) == ExactPolynomial.one()
        assert ExactPolynomial.from_integer_roots([-2, -2], 3, lead=-5) == (linear * linear).scale(-5)
        assert ExactPolynomial.from_integer_roots([4], 1, lead=0).is_zero()


class TestPolyShift:
    def test_linear(self):
        z = ExactPolynomial((0, 1))
        assert poly_shift(z, 5) == ExactPolynomial((5, 1))

    def test_square(self):
        z2 = ExactPolynomial((0, 0, 1))
        assert poly_shift(z2, 1) == ExactPolynomial((1, 2, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6), rationals)
    def test_round_trip(self, coeffs, h):
        p = ExactPolynomial(coeffs)
        assert poly_shift(poly_shift(p, h), -h) == p

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=5), rationals, rationals)
    def test_group_action(self, coeffs, h1, h2):
        p = ExactPolynomial(coeffs)
        assert poly_shift(poly_shift(p, h1), h2) == poly_shift(p, h1 + h2)


class TestFieldAxioms:
    @settings(max_examples=40, deadline=None)
    @given(rationals, rationals, rationals)
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=20, deadline=None)
    @given(rationals, rationals)
    def test_division_inverts_multiplication(self, x, y):
        if y != 0:
            assert (x / y) * y == x


def test_lagrange_interpolation_recovers_polynomial():
    p = ExactPolynomial((Fraction(1, 3), -2, 0, 5))
    pts = [(x, p(x)) for x in range(4)]
    assert lagrange_interpolate(pts) == p


def test_scalar_string_round_trip():
    assert rat_to_str(Fraction(-3, 7)) == "-3/7"
    assert rat_to_str(Fraction(4)) == "4"
    assert Fraction("-3/7") == Fraction(-3, 7)


def test_matrix_json_round_trip():
    rng = random.Random(15)
    m = ExactMatrix([[rand_rat(rng) for _ in range(3)] for _ in range(2)])
    assert ExactMatrix.from_jsonable(m.to_jsonable()) == m
