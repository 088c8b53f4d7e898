import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusion_sos
from fusion_sos import correspondence, exactcore, polyrep, sos
from fusion_sos.correspondence import solve_weights_from_relation
from fusion_sos.exactcore import DegeneratePointError, SingularMatrixError, lagrange_interpolate
from fusion_sos.sos import (
    DegenerateParameterPoint,
    PoleError,
    WeightQuery,
    check_ybe_sos,
    gauge_w11_float,
    gauge_weights,
    path_function_bruteforce,
    path_function_closed,
    sample_admissible_boundary,
    sos_ybe_residual_gauge,
    w0_model_float,
    w11,
    w_n1,
    w_nm_hypergeometric,
    w_nm_sum,
)
from fusion_sos.vertex import ModelParams

from conftest import rand_rat, reference_solve_weights, valid_quads

U = Fraction(7, 3)


def random_valid_query(rng, n, m, span=3, u=U):
    a = rng.randint(-span, span)
    b = a - rng.choice(range(-n, n + 1, 2))
    c = b - rng.choice(range(-m, m + 1, 2))
    bp = c + rng.choice(range(-n, n + 1, 2))
    while abs(bp - a) > m or (bp - a + m) % 2:
        bp = c + rng.choice(range(-n, n + 1, 2))
    return WeightQuery(n, m, a, b, bp, c, u)


class TestW11:
    def test_corner_family(self, params):
        for l in (-2, 0, 3):
            q = WeightQuery(1, 1, l + 2, l + 1, l + 1, l, U)
            assert w11(q, params) == U + 1

    def test_mixed_family_example(self, params):
        q = WeightQuery(1, 1, 1, 2, 0, 1, Fraction(2))
        assert w11(q, params) == Fraction(10, 3)

    def test_invalid_adjacency(self, params):
        q = WeightQuery(1, 1, 3, 0, 1, 0, U)
        assert w11(q, params) == 0

    def test_pole_guard(self):
        integer_w = ModelParams(1, -3, 1)  # w = -1
        q = WeightQuery(1, 1, 1, 2, 2, 1, U)
        with pytest.raises(PoleError):
            w11(q, integer_w)


class TestWn1:
    def test_reduces_to_w11(self, params):
        rng = random.Random(31)
        for _ in range(20):
            q = random_valid_query(rng, 1, 1)
            assert w_n1(q, params) == w11(q, params)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vanishing_at_extreme_drift(self, n, params):
        """The up-family formula vanishes at k = n and the down-family at k = -n.

        At those drifts the face violates adjacency (the b'-c difference
        exceeds n), and the formula's leading factor n_-/n_+ hits zero, so
        both routes agree the weight is zero.
        """
        c, w = 1, params.w
        q_up = WeightQuery(n, 1, c + n + 1, c + 1, c + n + 2, c, U)
        assert not q_up.is_valid()
        assert w_n1(q_up, params) == 0
        k = n
        n_minus = Fraction(n - k, 2)
        assert n_minus * (c + 1 - n_minus + w - U) / (c + k + 1 + w) == 0

        q_dn = WeightQuery(n, 1, c - n - 1, c - 1, c - n - 2, c, U)
        assert not q_dn.is_valid()
        assert w_n1(q_dn, params) == 0
        k = -n
        n_plus = Fraction(n + k, 2)
        assert n_plus * (c - 1 + n_plus + w + U) / (c + k - 1 + w) == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_first_principles(self, n, params):
        rng = random.Random(32 + n)
        for _ in range(12):
            a = rng.randint(-3, 3)
            b = a - rng.choice(range(-n, n + 1, 2))
            c = b - rng.choice((-1, 1))
            table = solve_weights_from_relation(n, 1, a, b, c, U, params)
            for bp, expected in table.items():
                q = WeightQuery(n, 1, a, b, bp, c, U)
                assert w_n1(q, params) == expected


class TestPathFunction:
    def test_base_cases(self):
        x = Fraction(5, 7)
        assert path_function_bruteforce(1, 0, x) == 1 / (x + 1)
        assert path_function_bruteforce(0, 1, x) == 1 / (x - 1)

    def test_two_step_example(self):
        x = Fraction(5, 7)
        assert path_function_bruteforce(1, 1, x) == 2 / (x * x - 1)

    def test_closed_form_equals_bruteforce(self):
        xs = [Fraction(5, 7), Fraction(22, 3), Fraction(-13, 2), Fraction(9, 4), Fraction(-31, 5)]
        for kp in range(0, 7):
            for km in range(0, 7 - kp):
                for x in xs:
                    assert path_function_closed(kp, km, x) == path_function_bruteforce(kp, km, x)

    def test_recurrence(self):
        x = Fraction(9, 4)
        for kp in range(1, 4):
            for km in range(1, 4):
                lhs = path_function_closed(kp, km, x)
                rhs = (
                    path_function_closed(kp - 1, km, x) + path_function_closed(kp, km - 1, x)
                ) / (x + kp - km)
                assert lhs == rhs

    def test_pole(self):
        with pytest.raises(PoleError):
            path_function_closed(2, 0, Fraction(-1))


class TestSignedPochhammer:
    """``sos._poch(y, k, step)`` = prod_{j<k} (y + j step), on integers."""

    def test_empty_product(self):
        assert sos._poch(5, 0, 3) == 1

    def test_single(self):
        assert sos._poch(5, 1, 3) == 5
        assert sos._poch(5, 1, -3) == 5

    def test_descending(self):
        assert sos._poch(3, 3, -1) == 6


class TestWnmSum:
    def test_reduces_to_w11(self, params):
        rng = random.Random(41)
        for _ in range(20):
            q = random_valid_query(rng, 1, 1)
            assert w_nm_sum(q, params) == w11(q, params)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reduces_to_wn1(self, n, params):
        rng = random.Random(42 + n)
        for _ in range(20):
            q = random_valid_query(rng, n, 1)
            assert w_nm_sum(q, params) == w_n1(q, params)

    def test_22_against_oracle_grid(self, params):
        u = U
        for (a, b, bp, c) in valid_quads(2, 2, 3):
            q = WeightQuery(2, 2, a, b, bp, c, u)
            expected = solve_weights_from_relation(2, 2, a, b, c, u, params)[bp]
            assert w_nm_sum(q, params) == expected

    def test_cache_key_is_the_spectral_point(self, monkeypatch):
        """One face at one spectral point is one cache entry keyed on ints,
        however u is written and whichever (s, t) give the same w."""
        cached, keys = sos._w_nm_sum_at, []
        monkeypatch.setattr(sos, "_w_nm_sum_at", lambda *key: keys.append(key) or cached(*key))
        cached.cache_clear()
        points = [ModelParams(1, Fraction(1, 3), Fraction(2, 3)), ModelParams(Fraction(3, 2), 0, 1)]
        values = {w_nm_sum(WeightQuery(2, 1, 0, 2, 1, 1, u), p) for u in ("1/2", Fraction(2, 4)) for p in points}
        assert len(values) == 1
        assert len(keys) == 4 and all(type(x) is int for key in keys for x in key)
        info = cached.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)

    def test_invalid_queries_vanish(self, params):
        assert w_nm_sum(WeightQuery(2, 2, 0, 1, 0, 0, U), params) == 0
        assert w_nm_sum(WeightQuery(2, 2, 5, 1, 1, 0, U), params) == 0

    def test_polynomial_in_u(self, params):
        """For fixed heights the weight is a polynomial of degree <= m in u."""
        for (n, m, a, b, bp, c) in [(2, 2, 1, 1, 1, 1), (1, 2, 0, 1, 1, 0), (3, 2, 2, 1, 0, 1)]:
            nodes = [Fraction(k) + Fraction(1, 7) for k in range(m + 1)]
            pts = [
                (x, w_nm_sum(WeightQuery(n, m, a, b, bp, c, x), params)) for x in nodes
            ]
            poly = lagrange_interpolate(pts)
            assert poly.degree <= m
            for extra in (Fraction(19, 5), Fraction(-8, 3), Fraction(25, 7)):
                assert poly(extra) == w_nm_sum(WeightQuery(n, m, a, b, bp, c, extra), params)

    def test_depends_only_on_w_and_not_alpha(self, params):
        """The solver output is invariant under (s, t) -> (s+d, t-d) and alpha."""
        delta = Fraction(5, 9)
        shifted = ModelParams(Fraction(7, 4), params.s + delta, params.t - delta)
        assert shifted.w == params.w
        for (n, m, a, b, c) in [(2, 2, 1, 1, 1), (1, 2, 0, 1, -1), (2, 1, -1, 1, 0)]:
            t1 = solve_weights_from_relation(n, m, a, b, c, U, params)
            t2 = solve_weights_from_relation(n, m, a, b, c, U, shifted)
            assert t1 == t2


class TestWnmHypergeometric:
    def test_truncates_immediately_when_series_empty(self, params):
        # b + b' <= a + c with m_- = 0: the series is its k = 0 term.
        q = WeightQuery(1, 1, 2, 1, 1, 0, U)
        assert q.b - q.c == 1  # m_- = 0
        assert w_nm_hypergeometric(q, params) == w_nm_sum(q, params) == U + 1

    def test_reduces_to_w11(self, params):
        rng = random.Random(51)
        for _ in range(20):
            q = random_valid_query(rng, 1, 1)
            assert w_nm_hypergeometric(q, params) == w11(q, params)

    @pytest.mark.parametrize("nm", [(2, 1), (2, 2), (2, 3)])
    def test_grids_against_sum(self, nm, params):
        n, m = nm
        for (a, b, bp, c) in valid_quads(n, m, 2):
            q = WeightQuery(n, m, a, b, bp, c, U)
            assert w_nm_hypergeometric(q, params) == w_nm_sum(q, params)

    def test_second_w_value(self):
        other = ModelParams(1, Fraction(-3, 5) - Fraction(1, 2), Fraction(-3, 5) + Fraction(1, 2))
        assert other.w == Fraction(-3, 5)
        for (a, b, bp, c) in valid_quads(2, 2, 2):
            q = WeightQuery(2, 2, a, b, bp, c, U)
            assert w_nm_hypergeometric(q, other) == w_nm_sum(q, other)



def _fraction_sides(k, n, l, u, v, wsp, boundary, params):
    """Reference: both sides of the face Yang-Baxter identity as Fraction
    sums of w_nm_sum over every internal height within reach of the labels."""
    a, b, c, d, e, f = boundary

    def weight(nn, mm, aa, bb, bbp, cc, x):
        return w_nm_sum(WeightQuery(nn, mm, aa, bb, bbp, cc, x), params)

    heights = range(min(boundary) - k - n - l, max(boundary) + k + n + l + 1)
    lhs = rhs = Fraction(0)
    for g in heights:
        lhs += weight(k, n, f, g, e, d, v - wsp) * weight(k, l, a, b, f, g, u - wsp) * weight(n, l, b, c, g, d, u - v)
        rhs += weight(n, l, a, g, f, e, u - v) * weight(k, l, g, c, e, d, u - wsp) * weight(k, n, a, b, g, c, v - wsp)
    return lhs, rhs

class TestSosYbe:
    def test_elementary_triple(self, params):
        rng = random.Random(61)
        for _ in range(10):
            bd = sample_admissible_boundary(1, 1, 1, rng)
            u, v, w = rand_rat(rng), rand_rat(rng), rand_rat(rng)
            assert check_ybe_sos(1, 1, 1, u, v, w, bd, params)

    @pytest.mark.parametrize("triple", [(2, 1, 1), (2, 2, 1), (1, 2, 2)])
    def test_fused_triples(self, triple, params):
        rng = random.Random(62 + sum(triple))
        for _ in range(5):
            bd = sample_admissible_boundary(*triple, rng)
            u, v, w = rand_rat(rng), rand_rat(rng), rand_rat(rng)
            assert check_ybe_sos(*triple, u, v, w, bd, params)

    def test_perturbation_detected(self, params, monkeypatch):
        """One face weight off by one at the cache entry point breaks the
        identity as check_ybe_sos sums it."""
        bd = sample_admissible_boundary(2, 1, 1, random.Random(63))
        point = (2, 1, 1, Fraction(5, 7), Fraction(2, 3), Fraction(1, 9), bd, params)
        assert check_ybe_sos(*point)
        weight, tampered = sos._w_nm_sum_at, []

        def one_off(*key):
            if not tampered:
                tampered.append(key)
            return weight(*key) + (key == tampered[0])

        monkeypatch.setattr(sos, "_w_nm_sum_at", one_off)
        assert not check_ybe_sos(*point)
        assert tampered

    def test_integer_sums_match_fraction_sums(self, params):
        """Both integer sides equal the Fraction sums of w_nm_sum over every g
        within reach of the boundary, at about 200 boundaries: admissible
        ones, random labels with empty internal-height ranges, and ranges
        whose faces are all zero."""
        rng = random.Random(65)
        kinds = Counter()
        for i in range(200):
            k, n, l = rng.choice([(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 2, 2), (3, 1, 2)])
            if i % 2:
                bd = sample_admissible_boundary(k, n, l, rng)
            else:
                bd = tuple(rng.randint(-4, 4) for _ in range(6))
            u, v, wsp = rand_rat(rng), rand_rat(rng), rand_rat(rng)
            (lhs, lhs_den), (rhs, rhs_den) = sos._ybe_sides(k, n, l, u, v, wsp, bd, params.w)
            ref_lhs, ref_rhs = _fraction_sides(k, n, l, u, v, wsp, bd, params)
            assert (Fraction(lhs, lhs_den), Fraction(rhs, rhs_den)) == (ref_lhs, ref_rhs), (k, n, l, bd)
            assert check_ybe_sos(k, n, l, u, v, wsp, bd, params) == (ref_lhs == ref_rhs)
            a, b, c, d, e, f = bd
            ranges = sos._g_range((f, k), (d, n), (b, l)), sos._g_range((a, n), (c, k), (e, l))
            kinds["empty" if not any(ranges) else "zero" if ref_lhs == ref_rhs == 0 else "nonzero"] += 1
        assert min(kinds["empty"], kinds["zero"], kinds["nonzero"]) >= 10, kinds

    def test_one_denominator_per_spectral_point(self, params, monkeypatch):
        calls = []
        over = sos._over_common_denominator
        monkeypatch.setattr(sos, "_over_common_denominator", lambda u, w: calls.append(u) or over(u, w))
        bd = sample_admissible_boundary(2, 2, 1, random.Random(66))
        u, v, wsp = Fraction(5, 7), Fraction(2, 3), Fraction(1, 9)
        assert check_ybe_sos(2, 2, 1, u, v, wsp, bd, params)
        assert sorted(calls) == sorted([v - wsp, u - wsp, u - v])

    def test_domain_checked_once_per_boundary(self, params, monkeypatch):
        """The domain is checked on entry, not again for each face weight."""
        calls = []
        check = sos.check_weight_domain
        monkeypatch.setattr(sos, "check_weight_domain", lambda p: calls.append(p) or check(p))
        rng = random.Random(64)
        bd = sample_admissible_boundary(2, 1, 1, rng)
        assert check_ybe_sos(2, 1, 1, Fraction(5, 7), Fraction(2, 3), Fraction(1, 9), bd, params)
        assert calls == [params]

    def test_integer_w_refused_where_both_sums_are_empty(self):
        # Both internal-height ranges are empty at this boundary, so the
        # check used to compare 0 = 0 and pass at integer w.
        with pytest.raises(DegenerateParameterPoint, match="w is an integer"):
            check_ybe_sos(
                1, 1, 1, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                (0, 0, 10, 10, 0, 0), ModelParams(1, Fraction(1, 2), Fraction(3, 2)),
            )


class TestGaugeModel:
    def test_diagonal_families_match_plain_weights(self, params):
        for l in (0, 1, -2):
            for (a, b, bp, c) in [
                (l + 2, l + 1, l + 1, l),
                (l, l + 1, l + 1, l),
                (l, l - 1, l - 1, l),
            ]:
                q = WeightQuery(1, 1, a, b, bp, c, U)
                plain = w11(q, params)
                assert gauge_weights(q, params) == plain * plain

    def test_w1_reproduces_integer_radicand_values(self):
        # At w = 1 the off-diagonal weights carry sqrt(l (l + 2)).
        p = ModelParams(1, Fraction(1, 2), Fraction(3, 2))
        assert p.w == 1
        for l in (1, 2, 3):
            q = WeightQuery(1, 1, l, l + 1, l - 1, l, U)
            sq = gauge_weights(q, p)
            assert sq == U * U * l * (l + 2) / (l + 1) ** 2

    def test_refuses_fused_orders(self, params):
        with pytest.raises(ValueError, match="gauge weights are defined for n = m = 1"):
            gauge_weights(WeightQuery(2, 1, 0, 1, 1, 0, U), params)

    def test_float_weight_refuses_negative_radicand(self):
        # w = 1/4
        with pytest.raises(ValueError, match="unsupported parameter region"):
            gauge_w11_float(0, 1, -1, 0, float(U), 0.25)

    def test_float_ybe_residual(self):
        rng = random.Random(71)
        for _ in range(10):
            bd = tuple(x + 5 for x in sample_admissible_boundary(1, 1, 1, rng, spread=2))
            res = sos_ybe_residual_gauge(0.37, 0.81, 0.13, bd, 0.7)
            assert res < 1e-9

    def test_w_to_one_degeneration(self):
        for wval in (1 + 1e-6, 1 - 1e-6):
            for bd in ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1)):
                res = sos_ybe_residual_gauge(0.4, 0.2, 0.1, bd, wval, g_min=0)
                assert res < 1e-6

    def test_w0_model_values(self):
        for l in range(0, 4):
            assert abs(w0_model_float(l, l + 1, l - 1, l, 0.73) - gauge_w11_float(l, l + 1, l - 1, l, 0.73, 1.0)) < 1e-15

    @pytest.mark.parametrize("w", [0, 1, -2])
    def test_pole_at_l_plus_w_zero_on_every_route(self, w):
        p = ModelParams(1, w, w)
        l = -w
        for b in (l - 1, l + 1):
            for bp in (l - 1, l + 1):
                q = WeightQuery(1, 1, l, b, bp, l, U)
                assert q.is_valid()
                with pytest.raises(PoleError):
                    gauge_weights(q, p)
                with pytest.raises(PoleError):
                    gauge_w11_float(l, b, bp, l, float(U), float(w))
        # Faces with |a - c| = 2 have no denominator.
        for a in (l - 2, l + 2):
            mid = (a + l) // 2
            q = WeightQuery(1, 1, a, mid, mid, l, U)
            assert gauge_w11_float(a, mid, mid, l, float(U), float(w)) == float(U) + 1
            assert gauge_weights(q, p) == (U + 1) ** 2


@st.composite
def oracle_points(draw):
    """(n, m, a, b, c, u, w) with n, m <= 3, u and w non-integer of denominator
    2..7; about a third of the draws put u + w on the integers."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    a = draw(st.integers(-3, 3))
    b = a - draw(st.sampled_from(range(-n, n + 1, 2)))
    c = b - draw(st.sampled_from(range(-m, m + 1, 2)))

    def noninteger():
        den = draw(st.integers(2, 7))
        num = draw(st.integers(-4 * den, 4 * den).filter(lambda k: k % den))
        return Fraction(num, den)

    w = noninteger()
    if draw(st.integers(0, 2)) == 0:
        u = draw(st.integers(-4, 4)) - w
    else:
        u = noninteger()
    return n, m, a, b, c, u, w


class TestRoutesAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(oracle_points())
    def test_sum_and_hyper_match_linear_solve(self, point):
        n, m, a, b, c, u, w = point
        p = ModelParams(1, w, w)
        for bp, expected in solve_weights_from_relation(n, m, a, b, c, u, p).items():
            q = WeightQuery(n, m, a, b, bp, c, u)
            assert w_nm_sum(q, p) == expected
            try:
                hyper = w_nm_hypergeometric(q, p)
            except DegenerateParameterPoint:
                continue
            assert hyper == expected


def _outcome(call):
    """The value of ``call()``, or the class and message of what it raised."""
    try:
        return call()
    except (DegeneratePointError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def reflection_points(draw):
    """An oracle point, its w flipped in sign half the time so that u lies
    off the integers and off w + Z, on w + Z or on -w + Z, with model
    constants (alpha, s, t) of mean w and their reflection (alpha, -t, -s)."""
    n, m, a, b, c, u, w = draw(oracle_points())
    w = draw(st.sampled_from([w, -w]))
    r = draw(st.fractions(-3, 3, max_denominator=7))
    alpha = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(-2, 3)]))
    return (n, m, a, b, c), u, ModelParams(alpha, w + r, w - r), ModelParams(alpha, r - w, -w - r)


class TestHeightReflection:
    """The weights are invariant under (a, b, b', c; s, t) -> (-a, -b, -b', -c; -t, -s).

    At integer u the hypergeometric route may decline on one side of a face
    with b + b' = a + c only, so the points keep u off the integers."""

    @settings(max_examples=150, deadline=None)
    @given(reflection_points())
    def test_every_route_is_invariant(self, point):
        (n, m, a, b, c), u, p, p_refl = point
        table = solve_weights_from_relation(n, m, a, b, c, u, p)
        table_refl = solve_weights_from_relation(n, m, -a, -b, -c, u, p_refl)
        assert table == {-bp: weight for bp, weight in table_refl.items()}
        for bp in table:
            q = WeightQuery(n, m, a, b, bp, c, u)
            q_refl = WeightQuery(n, m, -a, -b, -bp, -c, u)
            for route in (w_nm_sum, w_nm_hypergeometric):
                assert _outcome(lambda: route(q, p)) == _outcome(lambda: route(q_refl, p_refl))


# Outcomes of the routes at points where at least one of them raises, or
# raised once: ((n, m, a, b, b', c), u, w, sum outcome, hypergeometric
# outcome).  An outcome is a value or (exception class, message); the
# linear-solve route must give the sum outcome.  The first rows have
# non-integer w with u + w an integer, recorded from the Fraction
# implementation the integer one replaced.  The next rows have integer w,
# outside the domain of the weights, which every route refuses on entry.
# Before that guard the two routes failed there in different ways ("a + w
# vanished", "height-ladder denominator vanished", "lower parameter vanished
# before termination", "gamma ratio hit a pole/zero collision"), and the
# hypergeometric route gave 70/9 and 91/6 on two faces where the sum route
# raised.  The last two rows lie at integer u with b + b' > a + c, which the
# hypergeometric route evaluates by height reflection: a second parameter
# table for that regime gave 14/3 at u = 1 and raised at u = 0.  No point
# of |a|, |c| <= 2, n, m <= 3 and ten u by nine w values reaches the other
# two messages ("series does not terminate", "gamma ratio needs an integer
# offset").
_GAMMA = (DegenerateParameterPoint, "gamma ratio hit a pole/zero collision")
_INTEGER_W = (DegenerateParameterPoint, "w is an integer, outside the domain of the face weights")
DEGENERATE_POINTS = [
    ((1, 1, -2, -3, -3, -2), "3/2", "1/2", "0", _GAMMA),
    ((3, 3, -2, -5, -5, -2), "1/2", "3/2", "0", _GAMMA),
    ((2, 1, -2, -2, -3, -1), "1/2", "1/2", "0", _GAMMA),
    ((1, 1, 1, 2, 2, 1), "3/2", "1/2", "0", _GAMMA),
    ((1, 1, -2, -1, -1, -2), "-3/2", "1/2", "0", _GAMMA),
    ((1, 1, -2, -3, -1, -2), "0", "1/3", "0", _GAMMA),
    ((2, 2, -2, 0, 0, 0), "-1", "3/5", "0", _GAMMA),
    ((1, 1, -1, -2, -2, -1), "7/3", "1", _INTEGER_W, _INTEGER_W),
    ((2, 2, -1, -1, 1, -1), "7/3", "1", _INTEGER_W, _INTEGER_W),
    ((3, 2, -1, -4, 1, -2), "7/3", "1", _INTEGER_W, _INTEGER_W),
    ((1, 1, -2, -3, -1, -2), "7/3", "1", _INTEGER_W, _INTEGER_W),
    ((1, 2, -2, -1, 0, -1), "7/3", "0", _INTEGER_W, _INTEGER_W),
    ((2, 2, -2, -2, 0, -2), "7/3", "0", _INTEGER_W, _INTEGER_W),
    ((3, 3, -2, -5, -3, -2), "7/3", "1", _INTEGER_W, _INTEGER_W),
    ((1, 3, -2, -1, -1, 0), "7/3", "0", _INTEGER_W, _INTEGER_W),
    ((2, 3, -2, -2, -1, -1), "7/3", "0", _INTEGER_W, _INTEGER_W),
    ((3, 3, -2, -3, -1, -2), "7/3", "0", _INTEGER_W, _INTEGER_W),
    ((2, 3, -2, -2, -1, -3), "1", "1/2", "14/3", _GAMMA),
    ((2, 3, -2, -2, -1, -3), "0", "1/2", "0", "0"),
]


def _solve_route(q, p):
    return solve_weights_from_relation(q.n, q.m, q.a, q.b, q.c, q.u, p)[q.bprime]


class TestDegeneratePoints:
    @pytest.mark.parametrize("heights, u, w, sum_outcome, hyper_outcome", DEGENERATE_POINTS)
    def test_pinned_outcomes(self, heights, u, w, sum_outcome, hyper_outcome):
        p = ModelParams(1, Fraction(w), Fraction(w))
        q = WeightQuery(*heights, Fraction(u))
        assert q.is_valid()
        routes = (
            (w_nm_sum, sum_outcome),
            (w_nm_hypergeometric, hyper_outcome),
            (_solve_route, sum_outcome),
        )
        for route, outcome in routes:
            if isinstance(outcome, str):
                assert route(q, p) == Fraction(outcome)
                continue
            cls, message = outcome
            with pytest.raises(cls) as info:
                route(q, p)
            assert type(info.value) is cls
            assert str(info.value) == message
            assert isinstance(info.value, DegeneratePointError)

    def test_errors_share_one_base(self):
        assert fusion_sos.DegeneratePointError is DegeneratePointError
        assert fusion_sos.PoleError is PoleError is exactcore.PoleError
        assert issubclass(PoleError, DegeneratePointError)
        assert issubclass(PoleError, ZeroDivisionError)
        for cls in (DegenerateParameterPoint, SingularMatrixError):
            assert issubclass(cls, DegeneratePointError)
            assert issubclass(cls, ValueError)
        # At integer w (here w = 1) every route refuses the point with the
        # shared type.
        p = ModelParams(1, 1, 1)
        q = WeightQuery(1, 1, -1, -2, -2, -1, U)
        for call in (
            lambda: w_nm_sum(q, p),
            lambda: w_nm_hypergeometric(q, p),
            lambda: solve_weights_from_relation(1, 1, -1, -2, -1, U, p),
        ):
            with pytest.raises(DegeneratePointError):
                call()


@st.composite
def solve_points(draw):
    """((n, m, a, b, c, u), params) with n <= 4, m <= 3, alpha in
    {3/2, -2/3, 5/7}, s and t off the integers with two different prime
    denominators (so w is off the integers too), and u an integer in about
    a third of the draws."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    a = draw(st.integers(-3, 3))
    b = a - draw(st.sampled_from(range(-n, n + 1, 2)))
    c = b - draw(st.sampled_from(range(-m, m + 1, 2)))

    def noninteger(den):
        return Fraction(draw(st.integers(-4 * den, 4 * den).filter(lambda k: k % den)), den)

    ds, dt = draw(st.permutations([2, 3, 5, 7]))[:2]
    if draw(st.integers(0, 2)) == 0:
        u = Fraction(draw(st.integers(-3, 3)))
    else:
        u = noninteger(draw(st.integers(2, 7)))
    alpha = draw(st.sampled_from([Fraction(3, 2), Fraction(-2, 3), Fraction(5, 7)]))
    return (n, m, a, b, c, u), ModelParams(alpha, noninteger(ds), noninteger(dt))


def _check_solve_route(point):
    face, params = point
    assert _outcome(lambda: solve_weights_from_relation(*face, params)) == _outcome(
        lambda: reference_solve_weights(*face, params)
    )


def _image_plus_one(o_m_apply):
    """Mutant: 1 added to the lowest numerator of the image column."""

    def mutant(*args):
        (image,), den = o_m_apply(*args)
        return [[image[0] + 1, *image[1:]]], den

    return mutant


def _basis_reversed(bareiss):
    """Mutant: the basis columns eliminated in reversed order."""

    def mutant(rows, pivots):
        rows[:] = [row[pivots - 1 :: -1] + row[pivots:] for row in rows]
        return bareiss(rows, pivots)

    return mutant


# One point per alpha of ``solve_points``, each with a weight table that is
# not a palindrome, so that reversing the basis changes it.
MUTANT_POINTS = [
    ((2, 1, 0, 2, 1, Fraction(7, 3)), ModelParams(Fraction(3, 2), Fraction(-2, 7), Fraction(3, 5))),
    ((3, 2, -1, 2, 2, Fraction(2)), ModelParams(Fraction(-2, 3), Fraction(1, 2), Fraction(-4, 3))),
    ((4, 3, 1, 1, 0, Fraction(-5, 4)), ModelParams(Fraction(5, 7), Fraction(7, 5), Fraction(1, 3))),
]


class TestSolveRouteAgainstReference:
    """The solve route runs one fraction-free elimination on integer columns;
    ``solve_exact`` on the public matrices (``reference_solve_weights``) is
    its reference, at non-unit alpha, with s and t of different denominators
    and u sometimes an integer.  Equal means the same table, or the same
    exception class and message."""

    @settings(max_examples=150, deadline=None)
    @given(solve_points())
    def test_matches_reference(self, point):
        _check_solve_route(point)

    @pytest.mark.parametrize(
        "name, make", [("_o_m_apply", _image_plus_one), ("_bareiss", _basis_reversed)], ids=["image+1", "basis-reversed"]
    )
    def test_mutants_fail(self, name, make, monkeypatch):
        monkeypatch.setattr(correspondence, name, make(getattr(correspondence, name)))
        for point in MUTANT_POINTS:
            with pytest.raises(AssertionError):
                _check_solve_route(point)

    def test_singular_basis_is_refused_as_by_solve_exact(self, monkeypatch):
        """With every intertwining polynomial made equal (test-local), the
        basis is singular: both routes raise SingularMatrixError("singular")."""
        roots = polyrep._intertwiner_roots

        def same_roots(n, a, b, *rest):
            return roots(n, 0, n, *rest)

        for module in (polyrep, correspondence):
            monkeypatch.setattr(module, "_intertwiner_roots", same_roots)
        for face, params in MUTANT_POINTS:
            assert _outcome(lambda: solve_weights_from_relation(*face, params)) == (SingularMatrixError, "singular")
            _check_solve_route((face, params))


class TestHypergeometricAtIntegerU:
    """At integer u the hypergeometric route declines on some faces where the
    linear-solve oracle has a value; it never gives another number."""

    def test_declines_or_matches_oracle(self):
        counts = Counter()
        alphas, ws = (Fraction(3, 2), Fraction(-2, 3)), (Fraction(1, 2), Fraction(-2, 3))
        for alpha, w, n, m, u in product(alphas, ws, (1, 2), (1, 2), range(-2, 3)):
            p = ModelParams(alpha, w, w)
            for a in range(-2, 3):
                for b in range(a - n, a + n + 1, 2):
                    for c in range(b - m, b + m + 1, 2):
                        for bp, expected in solve_weights_from_relation(n, m, a, b, c, u, p).items():
                            q = WeightQuery(n, m, a, b, bp, c, u)
                            got = _outcome(lambda: w_nm_hypergeometric(q, p))
                            assert got in (expected, _GAMMA), (q, p)
                            counts["value" if got == expected else "declined"] += 1
        # A route that declined less would lower the second count.
        assert counts == {"value": 5480, "declined": 1020}
