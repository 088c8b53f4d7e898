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
oracle for the other three.

All weights depend on the model constants only through w = (s + t)/2, which
must avoid the integers for the height-label denominators to stay nonzero.
Every denominator is still guarded explicitly and raises :class:`PoleError`
when hit, so degenerate parameter choices fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactcore import ScalarLike, rat
from .vertex import ModelParams, up_steps


class PoleError(ZeroDivisionError):
    """A weight denominator vanished (integer w or colliding heights)."""


class DegenerateParameterPoint(ValueError):
    """A lower series parameter hit a nonpositive integer before termination."""


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
        return (
            up_steps(self.a, self.b, self.n) is not None
            and up_steps(self.c, self.bprime, self.n) is not None
            and up_steps(self.bprime, self.a, self.m) is not None
            and up_steps(self.c, self.b, self.m) is not None
        )


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


def signed_pochhammer(y: ScalarLike, k: int, sign: int) -> Fraction:
    """prod_{j=0}^{k-1} (y + sign * j)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    y = rat(y)
    out = Fraction(1)
    for j in range(k):
        out *= y + sign * j
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


@lru_cache(maxsize=None)
def _w_nm_sum(n: int, m: int, a: int, b: int, bp: int, c: int, u: Fraction, w: Fraction) -> Fraction:
    mu = b - c
    nu = a - b
    mu_prime = bp - a
    m_plus = (m - mu) // 2
    m_minus = (m + mu) // 2
    x = a + w
    th1 = Fraction(n - nu, 2)
    th2 = -u + c + m_minus - Fraction(n - nu, 2) + w
    th3 = u - m_plus + Fraction(n + nu, 2)
    th4 = c + mu + Fraction(n + nu, 2) + w
    if x == 0:
        raise PoleError("a + w vanished")
    total = Fraction(0)
    for sig in range(-m_minus, m_minus + 1, 2):
        kp = (m_minus + sig) // 2
        km = (m_minus - sig) // 2
        t_shift = mu_prime - sig
        rp2 = m_plus + t_shift
        if rp2 % 2 or rp2 < 0 or rp2 > 2 * m_plus:
            continue
        rp = rp2 // 2
        rm = m_plus - rp
        th5 = u + Fraction(n - nu - sig - m_minus, 2)
        th6 = c + mu - Fraction(n - nu - sig + m_minus, 2) + w
        th7 = Fraction(n + nu + sig + m_minus, 2)
        th8 = u + c + mu + Fraction(n + nu + sig - m_minus, 2) + w
        num = (x + mu_prime) * comb(m_minus, kp) * comb(m_plus, rp)
        num *= signed_pochhammer(th1, kp, -1) * signed_pochhammer(th2, kp, 1)
        num *= signed_pochhammer(th3, km, -1) * signed_pochhammer(th4, km, -1)
        num *= signed_pochhammer(th5, rp, -1) * signed_pochhammer(th6, rp, 1)
        num *= signed_pochhammer(th7, rm, -1) * signed_pochhammer(th8, rm, -1)
        den = x
        den *= signed_pochhammer(x + 1, kp, 1) * signed_pochhammer(x - 1, km, -1)
        den *= signed_pochhammer(x + sig + 1, rp, 1) * signed_pochhammer(x + sig - 1, rm, -1)
        if den == 0:
            raise PoleError("height-ladder denominator vanished")
        total += num / den
    return total


def w_nm_sum(q: WeightQuery, params: ModelParams) -> Fraction:
    """General (n, m) face weight as a single sum over intermediate height drift."""
    if not q.is_valid():
        return Fraction(0)
    return _w_nm_sum(q.n, q.m, q.a, q.b, q.bprime, q.c, q.u, params.w)


def _gamma_ratio(top: Fraction, bottom: Fraction) -> Fraction:
    """Gamma(top)/Gamma(bottom) for arguments differing by an integer."""
    d = top - bottom
    if d.denominator != 1:
        raise ValueError("gamma ratio needs an integer offset")
    d = int(d)
    if d >= 0:
        val = signed_pochhammer(bottom, d, 1)
        if val == 0:
            raise DegenerateParameterPoint("gamma ratio hit a pole/zero collision")
        return val
    val = signed_pochhammer(top, -d, 1)
    if val == 0:
        raise DegenerateParameterPoint("gamma ratio hit a pole/zero collision")
    return Fraction(1) / val


def _terminating_9f8(alphas, betas) -> Fraction:
    """Sum the series at unit argument up to the first vanishing upper factor.

    Termination is driven by the nonpositive-integer upper parameters; if a
    lower parameter reaches zero strictly before termination the point is
    degenerate and is reported rather than silently cancelled.
    """
    kmax = None
    for aj in alphas:
        if aj.denominator == 1 and aj <= 0:
            k = -int(aj)
            kmax = k if kmax is None else min(kmax, k)
    if kmax is None:
        raise DegenerateParameterPoint("series does not terminate")
    total = Fraction(0)
    term = Fraction(1)
    for k in range(kmax + 1):
        total += term
        if k == kmax:
            break
        num = Fraction(1)
        for aj in alphas:
            num *= aj + k
        den = Fraction(k + 1)
        for bj in betas:
            den *= bj + k
        if den == 0:
            raise DegenerateParameterPoint("lower parameter vanished before termination")
        term *= num / den
    return total


def _hyper_low_branch(n, m, a, b, bp, c, u, w) -> Fraction:
    """Series and prefactor for the regime b + b' <= a + c."""
    n_p = Fraction(n + (b - a), 2)
    n_m = Fraction(n - (b - a), 2)
    m_p = Fraction(m + (c - b), 2)
    m_m = Fraction(m - (c - b), 2)
    mp_p = Fraction(m + (bp - a), 2)
    mp_m = Fraction(m - (bp - a), 2)
    half = Fraction(b + bp - a - c, 2)
    alphas = (
        -m_m,
        -n_p,
        -mp_p,
        a - m_m + w,
        -u + c - n_p + m_m + w,
        (a - m_m + w + 2) / 2,
        a - mp_m + w,
        n_m + 1,
        u + c - m_p + n_m + w + 1,
    )
    betas = (
        a + w + 1,
        u - m + n_m + 1,
        c + n_m - m_p + 1 + w,
        1 - half,
        Fraction(bp - b + a + c, 2) + w + 1,
        (a - m_m + w) / 2,
        -u - n_p,
        c - m_p - n_p + w,
    )
    coeff = (bp + w) * comb(int(m_p), int(mp_p))
    coeff *= _gamma_ratio(a - mp_m + w, a + w + 1)
    coeff *= signed_pochhammer(n_m + half + 1, int(-half), 1)
    coeff *= _gamma_ratio(b + n_m + 1 + w, c + n_m - m_p + 1 + w)
    coeff *= _gamma_ratio(a - m_m + w + 1, Fraction(bp - b + a + c, 2) + w + 1)
    coeff *= _gamma_ratio(u + c - m_p + n_m + w + 1, u + b + n_m - mp_m + w + 1)
    coeff *= _gamma_ratio(u + n_p + 1, u + n_p - mp_p + 1)
    coeff *= _gamma_ratio(Fraction(b + bp + c - a, 2) - n_p + w, c - m_p - n_p + w)
    coeff *= _gamma_ratio(u + n_m - m_p + 1, u - m + n_m + 1)
    if coeff == 0:
        return Fraction(0)
    return coeff * _terminating_9f8(alphas, betas)


def _hyper_high_branch(n, m, a, b, bp, c, u, w) -> Fraction:
    """Series and prefactor for the regime b + b' >= a + c."""
    n_p = Fraction(n + (b - a), 2)
    n_m = Fraction(n - (b - a), 2)
    m_p = Fraction(m + (c - b), 2)
    m_m = Fraction(m - (c - b), 2)
    mp_p = Fraction(m + (bp - a), 2)
    mp_m = Fraction(m - (bp - a), 2)
    half = Fraction(b + bp - a - c, 2)
    alphas = (
        -mp_m,
        -n_p + half,
        -m_p,
        a - mp_m + w,
        -u + b - n_p + mp_p + w,
        (bp - m_p + w + 2) / 2,
        bp - m_p + w,
        n_m + 1 + half,
        u + b - mp_m + n_m + w + 1,
    )
    betas = (
        Fraction(b + bp + a - c, 2) + w + 1,
        u - m_p - mp_m + n_m + 1,
        b + n_m - mp_m + 1 + w,
        1 + half,
        bp + w + 1,
        (bp - m_p + w) / 2,
        -u - n_p + half,
        b - mp_m - n_p + w,
    )
    coeff = Fraction(comb(int(m_m), int(mp_m)))
    coeff *= _gamma_ratio(a - mp_m + w, Fraction(b + bp + a - c, 2) + w + 1)
    # Falling product n_+ (n_+ - 1) ... (n_+ - half + 1).
    for j in range(int(half)):
        coeff *= n_p - j
    coeff *= _gamma_ratio(-u + b - n_p + mp_p + w, -u + c - n_p + m_m + w)
    coeff *= _gamma_ratio(u + n_m - m_p + 1, u - m_p - mp_m + n_m + 1)
    coeff *= _gamma_ratio(b + n_m + 1 + w, b + n_m - mp_m + 1 + w)
    coeff *= _gamma_ratio(bp - m_p + w + 1, bp + w)
    coeff *= _gamma_ratio(u + n_p - half + 1, u + n_p - mp_p + 1)
    coeff *= _gamma_ratio(Fraction(b + bp - a + c, 2) - n_p + w, b - mp_m - n_p + w)
    if coeff == 0:
        return Fraction(0)
    return coeff * _terminating_9f8(alphas, betas)


@lru_cache(maxsize=None)
def _w_nm_hyper(n: int, m: int, a: int, b: int, bp: int, c: int, u: Fraction, w: Fraction) -> Fraction:
    # The parameter tables were validated entry-by-entry against the
    # defining-relation solver; see the three-way agreement tests.  On the
    # regime boundary both branches apply and must agree.
    if b + bp < a + c:
        return _hyper_low_branch(n, m, a, b, bp, c, u, w)
    if b + bp > a + c:
        return _hyper_high_branch(n, m, a, b, bp, c, u, w)
    low = _hyper_low_branch(n, m, a, b, bp, c, u, w)
    high = _hyper_high_branch(n, m, a, b, bp, c, u, w)
    if low != high:
        raise DegenerateParameterPoint(
            "regime overlap mismatch at b + b' = a + c: %s vs %s" % (low, high)
        )
    return low


def w_nm_hypergeometric(q: WeightQuery, params: ModelParams) -> Fraction:
    """Face weight as a terminating hypergeometric series with explicit prefactor.

    At the boundary b + b' = a + c both parameter regimes apply; they are
    evaluated and checked against each other there.
    """
    if not q.is_valid():
        return Fraction(0)
    return _w_nm_hyper(q.n, q.m, q.a, q.b, q.bprime, q.c, q.u, params.w)


# -- Yang-Baxter over faces -------------------------------------------------


def _g_range(*constraints: tuple[int, int]) -> range:
    lo = max(center - reach for center, reach in constraints)
    hi = min(center + reach for center, reach in constraints)
    return range(lo, hi + 1)


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
    all out-of-range terms vanish, so empty sums compare as 0 = 0.
    """
    u, v, wspec = rat(u), rat(v), rat(wspec)
    a, b, c, d, e, f = boundary

    def weight(nn, mm, aa, bb, bbp, cc, uu):
        return w_nm_sum(WeightQuery(nn, mm, aa, bb, bbp, cc, uu), params)

    lhs = Fraction(0)
    for g in _g_range((f, k), (d, n), (b, l)):
        lhs += (
            weight(k, n, f, g, e, d, v - wspec)
            * weight(k, l, a, b, f, g, u - wspec)
            * weight(n, l, b, c, g, d, u - v)
        )
    rhs = Fraction(0)
    for g in _g_range((a, n), (c, k), (e, l)):
        rhs += (
            weight(n, l, a, g, f, e, u - v)
            * weight(k, l, g, c, e, d, u - wspec)
            * weight(k, n, a, b, g, c, v - wspec)
        )
    return lhs == rhs


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


def gauge_weights(q: WeightQuery, params: ModelParams, mode: str = "float"):
    """The rescaled elementary family whose off-diagonal entries carry square roots.

    ``mode="float"`` is :func:`gauge_w11_float` at float(u), float(w);
    ``mode="exact-squared"`` returns the exact square of the weight, which
    is rational and enough for identity checking.
    """
    if (q.n, q.m) != (1, 1):
        raise ValueError("gauge weights are defined for n = m = 1")
    if mode not in ("float", "exact-squared"):
        raise ValueError("mode must be 'float' or 'exact-squared'")
    if mode == "float":
        return gauge_w11_float(q.a, q.b, q.bprime, q.c, float(q.u), float(params.w))
    if not q.is_valid():
        return Fraction(0)
    a, b, bp, c, u, w = q.a, q.b, q.bprime, q.c, q.u, params.w
    if abs(a - c) == 2 or b == bp:
        plain = w11(q, params)
        return plain * plain
    # a == c, b != b': the square-root family.
    l = c
    if l + w == 0:
        raise PoleError("vanishing height denominator")
    return u * u * (l - 1 + w) * (l + 1 + w) / (l + w) ** 2


def gauge_w11_float(a: int, b: int, bp: int, c: int, u: float, w: float) -> float:
    """Double-precision gauge weight: the only float evaluation of the family.

    Raises :class:`PoleError` where l + w = 0 (l = c) and the face has a
    denominator, as :func:`w11` does, and refuses negative radicands.
    """
    if not (
        up_steps(a, b, 1) is not None
        and up_steps(c, bp, 1) is not None
        and up_steps(bp, a, 1) is not None
        and up_steps(c, b, 1) is not None
    ):
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
