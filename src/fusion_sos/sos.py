"""Face weights of the height models attached to the seven-vertex family.

A face carries four heights

    a  b
    b' c

and a weight that is nonzero only under the adjacency condition: a-b and
b'-c lie in {-n, -n+2, ..., n}, while a-b' and b-c lie in {-m, ..., m}.
Three independent routes to the same numbers are implemented: closed-form
families for m = 1, a single-sum formula for general (n, m), and a
terminating hypergeometric series; :mod:`fusion_sos.correspondence` supplies
a fourth, first-principles route (an exact linear solve) that serves as the
oracle for the other three.  The series has one parameter table, for faces
with b + b' <= a + c (the boundary b + b' = a + c uses it directly); a face
with b + b' > a + c is that table at the reflected heights (-a, -b, -b', -c)
and -w, under which the weights are invariant.

All weights depend on the model constants only through w = (s + t)/2, which
must avoid the integers for the height-label denominators to stay nonzero.
That is the domain of the weights: the sum, hypergeometric and linear-solve
routes (and the height lattice sums built on them) refuse integer w on
entry through :func:`check_weight_domain`, with one
:class:`DegenerateParameterPoint`, before any arithmetic.  Every
denominator is still guarded explicitly and raises :class:`PoleError` when
hit; inside the domain those guards are checks on an invariant.  The gauge
family of :func:`gauge_weights` keeps integer w.

The sum and hypergeometric routes run on plain integers.  Every quantity
they form (theta, ladder factor, series parameter, gamma-ratio argument) is
an affine expression in u, w and half-integers, some halved once more.  Per
call they are held as integer numerators over one denominator
D = 2 lcm(2, den u, den w): then D u and D w are even, so the halved
parameters stay integral, a parameter is a nonpositive integer exactly when
its numerator is a nonpositive multiple of D, and Pochhammer products are
products of ints.  Each weight becomes one :class:`~fractions.Fraction` at
the end.

A spectral point is put over its denominator once, by whoever holds it:
:func:`check_ybe_sos` has three points per boundary, and each height-lattice
sum of :mod:`fusion_sos.lattice` has one.  The sum route keeps one cache,
:func:`_w_nm_sum_at`, keyed on nine ints, the face and (D, D u, D w): no
``Fraction`` is hashed, and one point has one key however u and w were
written.  The face-model Yang-Baxter check sums each side as an integer
numerator over an integer denominator and compares the two sides by
cross-multiplying.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .exactcore import DegeneratePointError, PoleError, ScalarLike, rat
from .vertex import ModelParams, up_steps


class DegenerateParameterPoint(DegeneratePointError, ValueError):
    """A face weight has no value here: w is an integer, or a series or
    gamma-ratio parameter hit a nonpositive integer."""


def check_weight_domain(params: ModelParams) -> None:
    """Refuse a point outside the domain of the face weights: integer w.

    There some height label h + w vanishes, and the weight routes would
    each fail at different faces, or not at all.  Raises
    :class:`DegenerateParameterPoint`.  w = (s + t)/2 is an integer exactly
    when den(s) den(t) (s + t) is a multiple of 2 den(s) den(t), which
    needs no ``Fraction``.
    """
    s, t = params.s, params.t
    den = s.denominator * t.denominator
    if (s.numerator * t.denominator + t.numerator * s.denominator) % (2 * den) == 0:
        raise DegenerateParameterPoint("w is an integer, outside the domain of the face weights")


def _admissible(n: int, m: int, a: int, b: int, bp: int, c: int) -> bool:
    """The face (a, b, b', c) of orders (n, m) is adjacent on all four edges:
    b to a and b' to c at distance n, a to b' and b to c at distance m."""
    return (
        up_steps(a, b, n) is not None
        and up_steps(c, bp, n) is not None
        and up_steps(bp, a, m) is not None
        and up_steps(c, b, m) is not None
    )


@dataclass(frozen=True)
class WeightQuery:
    """One face: fused orders (n, m), heights (a, b, b', c), spectral parameter u."""

    n: int
    m: int
    a: int
    b: int
    bprime: int
    c: int
    u: Fraction

    def __init__(self, n, m, a, b, bprime, c, u: ScalarLike):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "b", int(b))
        object.__setattr__(self, "bprime", int(bprime))
        object.__setattr__(self, "c", int(c))
        object.__setattr__(self, "u", rat(u))

    def is_valid(self) -> bool:
        return _admissible(self.n, self.m, self.a, self.b, self.bprime, self.c)


def _safe_div(num: Fraction, den: Fraction) -> Fraction:
    if den == 0:
        raise PoleError("vanishing height denominator")
    return num / den


def w11(q: WeightQuery, params: ModelParams) -> Fraction:
    """The elementary face weight (n = m = 1)."""
    if (q.n, q.m) != (1, 1):
        raise ValueError("w11 expects n = m = 1")
    if not q.is_valid():
        return Fraction(0)
    a, b, bp, c, u, w = q.a, q.b, q.bprime, q.c, q.u, params.w
    if abs(a - c) == 2:
        return u + 1
    l = c
    if b == l + 1 and bp == l + 1:
        return _safe_div(-u + l + w, l + w)
    if b == l - 1 and bp == l - 1:
        return _safe_div(u + l + w, l + w)
    if b == l + 1 and bp == l - 1:
        return _safe_div(u * (l + 1 + w), l + w)
    return _safe_div(u * (l - 1 + w), l + w)


def w_n1(q: WeightQuery, params: ModelParams) -> Fraction:
    """Closed-form families for m = 1, parametrized by (c, k) with a = c + k -+ 1."""
    if q.m != 1:
        raise ValueError("w_n1 expects m = 1")
    if not q.is_valid():
        return Fraction(0)
    n, a, b, bp, c, u, w = q.n, q.a, q.b, q.bprime, q.c, q.u, params.w
    k = a - b
    n_plus = Fraction(n + k, 2)
    n_minus = Fraction(n - k, 2)
    if b == c + 1:
        if bp == a + 1:
            return _safe_div(n_minus * (c + 1 - n_minus + w - u), a + w)
        return _safe_div((u + n_plus) * (c + 1 + n_plus + w), a + w)
    if bp == a - 1:
        return _safe_div(n_plus * (c - 1 + n_plus + w + u), a + w)
    return _safe_div((u + n_minus) * (c - 1 - n_minus + w), a + w)


def _poch(y: int, k: int, step: int) -> int:
    """prod_{j=0}^{k-1} (y + j * step) on integers."""
    out = 1
    for j in range(k):
        out *= y + j * step
    return out


def path_function_bruteforce(kappa_plus: int, kappa_minus: int, x: ScalarLike) -> Fraction:
    """Sum over all +-1 step paths from 0 to kappa_plus - kappa_minus.

    Each path contributes the product of 1/(x + height) over its visited
    heights (the start point excluded, the end point included).
    """
    x = rat(x)
    steps = kappa_plus + kappa_minus
    total = Fraction(0)
    for mask in range(1 << steps):
        ups = bin(mask).count("1")
        if ups != kappa_plus:
            continue
        height = 0
        term = Fraction(1)
        for i in range(steps):
            height += 1 if (mask >> i) & 1 else -1
            if x + height == 0:
                raise PoleError("path visits a pole of 1/(x + height)")
            term /= x + height
        total += term
    return total


def path_function_closed(kappa_plus: int, kappa_minus: int, x: ScalarLike) -> Fraction:
    """Closed form: binom(k+ + k-, k+) / (prod (x+i) * prod (x-j))."""
    x = rat(x)
    den = Fraction(1)
    for i in range(1, kappa_plus + 1):
        if x + i == 0:
            raise PoleError("pole at x + %d" % i)
        den *= x + i
    for j in range(1, kappa_minus + 1):
        if x - j == 0:
            raise PoleError("pole at x - %d" % j)
        den *= x - j
    return Fraction(comb(kappa_plus + kappa_minus, kappa_plus)) / den


def _over_common_denominator(u: Fraction, w: Fraction) -> tuple[int, int, int]:
    """The per-call denominator D = 2 lcm(2, den u, den w) and the integers D u, D w.

    D u and D w are even, so a halved affine form in u, w and half-integers
    is still an integer multiple of 1/D.
    """
    d = 2 * lcm(2, u.denominator, w.denominator)
    return d, u.numerator * (d // u.denominator), w.numerator * (d // w.denominator)


@lru_cache(maxsize=None)
def _w_nm_sum_at(n: int, m: int, a: int, b: int, bp: int, c: int, d: int, du: int, dw: int) -> Fraction:
    """The sum-route weight of an admissible face at u = du/d and w = dw/d,
    where (d, du, dw) is :func:`_over_common_denominator` of (u, w): the
    cache key is nine ints, and one spectral point has one key however its
    u and w were written."""
    # Every theta and ladder factor is held as D times its value.
    h = d // 2
    mu = b - c
    nu = a - b
    mu_prime = bp - a
    m_plus = (m - mu) // 2
    m_minus = (m + mu) // 2
    x = a * d + dw
    th1 = (n - nu) * h
    th2 = -du + (c + m_minus) * d - (n - nu) * h + dw
    th3 = du - m_plus * d + (n + nu) * h
    th4 = (c + mu) * d + (n + nu) * h + dw
    if x == 0:
        raise PoleError("a + w vanished")
    total_num, total_den = 0, 1
    for sig in range(-m_minus, m_minus + 1, 2):
        kp = (m_minus + sig) // 2
        km = (m_minus - sig) // 2
        t_shift = mu_prime - sig
        rp2 = m_plus + t_shift
        if rp2 % 2 or rp2 < 0 or rp2 > 2 * m_plus:
            continue
        rp = rp2 // 2
        rm = m_plus - rp
        th5 = du + (n - nu - sig - m_minus) * h
        th6 = (c + mu) * d - (n - nu - sig + m_minus) * h + dw
        th7 = (n + nu + sig + m_minus) * h
        th8 = du + (c + mu) * d + (n + nu + sig - m_minus) * h + dw
        num = (x + mu_prime * d) * comb(m_minus, kp) * comb(m_plus, rp)
        num *= _poch(th1, kp, -d) * _poch(th2, kp, d)
        num *= _poch(th3, km, -d) * _poch(th4, km, -d)
        num *= _poch(th5, rp, -d) * _poch(th6, rp, d)
        num *= _poch(th7, rm, -d) * _poch(th8, rm, -d)
        den = x
        den *= _poch(x + d, kp, d) * _poch(x - d, km, -d)
        den *= _poch(x + (sig + 1) * d, rp, d) * _poch(x + (sig - 1) * d, rm, -d)
        if den == 0:
            raise PoleError("height-ladder denominator vanished")
        total_num = total_num * den + num * total_den
        total_den *= den
    # Each term has 1 + 2K scaled factors above and 1 + K below, K = m_+ + m_-.
    return Fraction(total_num, total_den * d ** (m_plus + m_minus))


def _face_weight_at(n: int, m: int, a: int, b: int, bp: int, c: int, d: int, du: int, dw: int) -> Fraction:
    """The sum-route weight at a spectral point put over one denominator
    once by the caller, for callers that checked the domain on entry: zero
    off adjacency, else the cached :func:`_w_nm_sum_at`."""
    if not _admissible(n, m, a, b, bp, c):
        return Fraction(0)
    return _w_nm_sum_at(n, m, a, b, bp, c, d, du, dw)


def _face_weight(n: int, m: int, a: int, b: int, bp: int, c: int, u: Fraction, w: Fraction) -> Fraction:
    """:func:`_face_weight_at` at the spectral point (u, w)."""
    return _face_weight_at(n, m, a, b, bp, c, *_over_common_denominator(u, w))


def w_nm_sum(q: WeightQuery, params: ModelParams) -> Fraction:
    """General (n, m) face weight as a single sum over intermediate height drift."""
    check_weight_domain(params)
    return _face_weight(q.n, q.m, q.a, q.b, q.bprime, q.c, q.u, params.w)


def _gamma_ratio(top: int, bottom: int, d: int) -> tuple[int, int]:
    """Gamma(top/d)/Gamma(bottom/d) as (numerator, denominator), for arguments
    differing by an integer."""
    steps, rest = divmod(top - bottom, d)
    if rest:
        raise ValueError("gamma ratio needs an integer offset")
    if steps >= 0:
        val = _poch(bottom, steps, d)
        if val == 0:
            raise DegenerateParameterPoint("gamma ratio hit a pole/zero collision")
        return val, d**steps
    val = _poch(top, -steps, d)
    if val == 0:
        raise DegenerateParameterPoint("gamma ratio hit a pole/zero collision")
    return d**-steps, val


def _terminating_9f8(alphas, betas, d: int) -> tuple[int, int]:
    """Sum the series at unit argument up to the first vanishing upper factor.

    Parameters are D times their value; the sum is returned as
    (numerator, denominator).  Termination is driven by the nonpositive-integer
    upper parameters; if a lower parameter reaches zero strictly before
    termination the point is degenerate and is reported rather than silently
    cancelled.
    """
    kmax = None
    for aj in alphas:
        if aj % d == 0 and aj <= 0:
            k = -aj // d
            kmax = k if kmax is None else min(kmax, k)
    if kmax is None:
        raise DegenerateParameterPoint("series does not terminate")
    # The running sum and the current term share the denominator ``den``.
    total = 0
    term = 1
    den = 1
    for k in range(kmax + 1):
        total += term
        if k == kmax:
            break
        shift = k * d
        num = 1
        for aj in alphas:
            num *= aj + shift
        # Nine scaled upper factors over eight lower ones leave one factor D.
        step_den = (k + 1) * d
        for bj in betas:
            step_den *= bj + shift
        if step_den == 0:
            raise DegenerateParameterPoint("lower parameter vanished before termination")
        term *= num
        total *= step_den
        den *= step_den
    return total, den


def _hyper_table(n, m, a, b, bp, c, u: Fraction, w: Fraction) -> Fraction:
    """Prefactor, gamma ratios and 9F8 series of an admissible face with
    b + b' <= a + c.  The labels n_+-, m_+-, m'_+- and half are integers
    because the face is admissible."""
    d, du, dw = _over_common_denominator(u, w)
    h = d // 2
    n_p, n_m = (n + b - a) // 2, (n - b + a) // 2
    m_p, m_m = (m + c - b) // 2, (m - c + b) // 2
    mp_p, mp_m = (m + bp - a) // 2, (m - bp + a) // 2
    half = (b + bp - a - c) // 2
    alphas = (
        -m_m * d,
        -n_p * d,
        -mp_p * d,
        (a - m_m) * d + dw,
        -du + (c - n_p + m_m) * d + dw,
        ((a - m_m + 2) * d + dw) // 2,
        (a - mp_m) * d + dw,
        (n_m + 1) * d,
        du + (c - m_p + n_m + 1) * d + dw,
    )
    betas = (
        (a + 1) * d + dw,
        du + (n_m + 1 - m) * d,
        (c + n_m - m_p + 1) * d + dw,
        (1 - half) * d,
        (bp - b + a + c) * h + d + dw,
        ((a - m_m) * d + dw) // 2,
        -du - n_p * d,
        (c - m_p - n_p) * d + dw,
    )
    gammas = (
        ((a - mp_m) * d + dw, (a + 1) * d + dw),
        ((b + n_m + 1) * d + dw, (c + n_m - m_p + 1) * d + dw),
        ((a - m_m + 1) * d + dw, (bp - b + a + c) * h + d + dw),
        (du + (c - m_p + n_m + 1) * d + dw, du + (b + n_m - mp_m + 1) * d + dw),
        (du + (n_p + 1) * d, du + (n_p - mp_p + 1) * d),
        ((b + bp + c - a) * h - n_p * d + dw, (c - m_p - n_p) * d + dw),
        (du + (n_m - m_p + 1) * d, du + (n_m + 1 - m) * d),
    )
    num = (bp * d + dw) * comb(m_p, mp_p) * _poch(n_m + half + 1, -half, 1)
    den = d
    for top, bottom in gammas:
        g_num, g_den = _gamma_ratio(top, bottom, d)
        num *= g_num
        den *= g_den
    if num == 0:
        return Fraction(0)
    s_num, s_den = _terminating_9f8(alphas, betas, d)
    return Fraction(num * s_num, den * s_den)


def w_nm_hypergeometric(q: WeightQuery, params: ModelParams) -> Fraction:
    """Face weight as a terminating hypergeometric series with explicit prefactor.

    One parameter table serves every face.  It holds for b + b' <= a + c,
    the boundary b + b' = a + c included.  The weights are invariant under
    the height reflection (a, b, b', c; s, t) -> (-a, -b, -b', -c; -t, -s),
    which sends w to -w and swaps the two regimes, so a face with
    b + b' > a + c is the table at (-a, -b, -b', -c) and -w.

    Limit: at integer u a prefactor gamma ratio can vanish or diverge, and the
    route raises ``DegenerateParameterPoint("gamma ratio hit a pole/zero
    collision")`` where the sum and linear-solve routes have a value.
    """
    check_weight_domain(params)
    if not q.is_valid():
        return Fraction(0)
    # The table was validated entry by entry against the defining-relation
    # solver, on faces of both regimes; see the three-way agreement and
    # height-reflection tests.
    n, m, a, b, bp, c, u, w = q.n, q.m, q.a, q.b, q.bprime, q.c, q.u, params.w
    if b + bp > a + c:
        return _hyper_table(n, m, -a, -b, -bp, -c, u, -w)
    return _hyper_table(n, m, a, b, bp, c, u, w)


# -- Yang-Baxter over faces -------------------------------------------------


def _g_range(*constraints: tuple[int, int]) -> range:
    lo = max(center - reach for center, reach in constraints)
    hi = min(center + reach for center, reach in constraints)
    return range(lo, hi + 1)


def _sum_of_products(terms) -> tuple[int, int]:
    """The sum of x y z over the (x, y, z) of ``terms``, as an integer
    numerator over an integer denominator, with no gcd taken."""
    num, den = 0, 1
    for x, y, z in terms:
        top = x.numerator * y.numerator * z.numerator
        if top:
            bottom = x.denominator * y.denominator * z.denominator
            num, den = num * bottom + top * den, den * bottom
    return num, den


def _ybe_sides(k, n, l, u, v, wspec, boundary, w) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both sides of the face Yang-Baxter identity as (numerator,
    denominator) pairs.  Each of the three spectral points is put over one
    denominator once, and a term whose first factor is 0 is skipped."""
    a, b, c, d, e, f = boundary
    vw, uw, uv = (_over_common_denominator(x, w) for x in (v - wspec, u - wspec, u - v))
    lhs = _sum_of_products(
        (x, _face_weight_at(k, l, a, b, f, g, *uw), _face_weight_at(n, l, b, c, g, d, *uv))
        for g in _g_range((f, k), (d, n), (b, l))
        if (x := _face_weight_at(k, n, f, g, e, d, *vw))
    )
    rhs = _sum_of_products(
        (x, _face_weight_at(k, l, g, c, e, d, *uw), _face_weight_at(k, n, a, b, g, c, *vw))
        for g in _g_range((a, n), (c, k), (e, l))
        if (x := _face_weight_at(n, l, a, g, f, e, *uv))
    )
    return lhs, rhs


def check_ybe_sos(
    k: int,
    n: int,
    l: int,
    u: ScalarLike,
    v: ScalarLike,
    wspec: ScalarLike,
    boundary: tuple[int, int, int, int, int, int],
    params: ModelParams,
) -> bool:
    """Exact face-weight Yang-Baxter identity for the boundary (a, b, c, d, e, f).

    Both sides are finite sums over the internal height g; adjacency makes
    all out-of-range terms vanish, so empty sums compare as 0 = 0.  Each
    side is summed as an integer numerator over an integer denominator, and
    the two are compared by cross-multiplying.  Integer w is refused on
    entry (:func:`check_weight_domain`), even where both sums are empty, as
    on every other weight route.
    """
    check_weight_domain(params)
    (lhs, lhs_den), (rhs, rhs_den) = _ybe_sides(k, n, l, rat(u), rat(v), rat(wspec), boundary, params.w)
    return lhs * rhs_den == rhs * lhs_den


def sample_admissible_boundary(k: int, n: int, l: int, rng, spread: int = 3):
    """Random boundary labels satisfying every outer adjacency constraint.

    Retries until at least one side of the face identity has a nonzero term,
    so the returned tuple exercises the identity nontrivially.
    """
    while True:
        a = rng.randint(-spread, spread)
        b = a - rng.choice(range(-k, k + 1, 2))
        c = b - rng.choice(range(-n, n + 1, 2))
        d = c - rng.choice(range(-l, l + 1, 2))
        f = a - rng.choice(range(-l, l + 1, 2))
        e = f - rng.choice(range(-n, n + 1, 2))
        if up_steps(d, e, k) is None:
            continue
        has_term = any(
            up_steps(g, f, k) is not None
            and up_steps(d, g, n) is not None
            and up_steps(g, b, l) is not None
            for g in _g_range((f, k), (d, n), (b, l))
        ) or any(
            up_steps(g, a, n) is not None
            and up_steps(c, g, k) is not None
            and up_steps(e, g, l) is not None
            for g in _g_range((a, n), (c, k), (e, l))
        )
        if has_term:
            return (a, b, c, d, e, f)


# -- gauge-transformed elementary model --------------------------------------


def gauge_weights(q: WeightQuery, params: ModelParams) -> Fraction:
    """The exact square of the rescaled elementary weight, whose off-diagonal
    entries carry square roots; the float weight is :func:`gauge_w11_float`.

    The square is w11(q) w11(twin), where ``twin`` swaps b and b'.
    """
    if (q.n, q.m) != (1, 1):
        raise ValueError("gauge weights are defined for n = m = 1")
    twin = WeightQuery(1, 1, q.a, q.bprime, q.b, q.c, q.u)
    return w11(q, params) * w11(twin, params)


def gauge_w11_float(a: int, b: int, bp: int, c: int, u: float, w: float) -> float:
    """Double-precision gauge weight: the only float evaluation of the family.

    Raises :class:`PoleError` where l + w = 0 (l = c) and the face has a
    denominator, as :func:`w11` does, and refuses negative radicands.
    """
    if not _admissible(1, 1, a, b, bp, c):
        return 0.0
    if abs(a - c) == 2:
        return u + 1.0
    l = c
    if l + w == 0:
        raise PoleError("vanishing height denominator")
    if b == bp:
        return (-u + l + w) / (l + w) if b == l + 1 else (u + l + w) / (l + w)
    radicand = (l - 1.0 + w) * (l + 1.0 + w)
    if radicand < 0:
        raise ValueError("unsupported parameter region: negative radicand")
    return u * radicand**0.5 / (l + w)


def w0_model_float(a: int, b: int, bp: int, c: int, u: float) -> float:
    """The nonnegative-height specialization at w = 1 (square-root entries)."""
    if min(a, b, bp, c) < 0:
        return 0.0
    return gauge_w11_float(a, b, bp, c, u, 1.0)


def sos_ybe_residual_gauge(
    u: float,
    v: float,
    wspec: float,
    boundary: tuple[int, int, int, int, int, int],
    w: float,
    g_min: int | None = None,
) -> float:
    """|LHS - RHS| of the face identity for the gauge family, in floats.

    ``g_min`` restricts the internal height (used to drop the terms that
    leave the nonnegative-height model when w approaches 1).
    """
    a, b, c, d, e, f = boundary

    def weight(aa, bb, bbp, cc, uu):
        return gauge_w11_float(aa, bb, bbp, cc, uu, w)

    lhs = 0.0
    for g in _g_range((f, 1), (d, 1), (b, 1)):
        if g_min is not None and g < g_min:
            continue
        lhs += weight(f, g, e, d, v - wspec) * weight(a, b, f, g, u - wspec) * weight(b, c, g, d, u - v)
    rhs = 0.0
    for g in _g_range((a, 1), (c, 1)):
        if g_min is not None and g < g_min:
            continue
        rhs += weight(a, g, f, e, u - v) * weight(g, c, e, d, u - wspec) * weight(a, b, g, c, v - wspec)
    return abs(lhs - rhs)
