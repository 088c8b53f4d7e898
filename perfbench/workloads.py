"""The four benchmark workloads: seeded inputs and the cases that run on them.

A workload is a fixed list of cases.  The seed only picks the rational
values; the shape of the list (which identities, which sizes, how many
cases) is the same at every seed, so run time depends on the program and
not on the luck of the draw.  Spectral parameters and w are drawn with
fixed denominators and a fixed magnitude band (``draw``): that keeps every
value in the documented domain (non-integer) and keeps entry sizes
comparable from seed to seed.
It does not avoid points where a route fails: the face-weight u values
always include a half-integer, where the hypergeometric route is known to
raise ``DegenerateParameterPoint``.  Such a refusal is a *decline*, not a
failure, only where the case still cross-checks at least two other routes
that agree (``Record.agree``), or where ``verify`` exits reporting that
degenerate point.  Declines are counted by route and reported beside the
failures; every other exception, a False identity and a disagreement
fail the case.

Every case calls the library through module attributes at call time, so
the wrappers that ``tracer`` installs see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import re
from fractions import Fraction
from math import gcd

from fusion_sos import correspondence, elevenvertex, fusion, lattice, sos, vertex

HALF = Fraction(1, 2)


class Record:
    """What one case produced: exact values, wrong answers, raised errors,
    and declines (documented degenerate-point refusals of one route)."""

    __slots__ = ("values", "wrong", "errors", "declined")

    def __init__(self):
        self.values = []
        self.wrong = []
        self.errors = []
        self.declined = []

    def call(self, fn, *args, declinable=False):
        """Call a library function; record and swallow any exception it raises.

        With ``declinable``, the caller cross-checks this route against
        others, so a ``DegenerateParameterPoint`` is recorded as a decline.
        """
        try:
            return fn(*args)
        except Exception as exc:  # failure accounting: every route is recorded, none stops the case
            name = type(exc).__name__
            declined = declinable and isinstance(exc, sos.DegenerateParameterPoint)
            (self.declined if declined else self.errors).append((_route(fn), name))
            self.values.append("!" + name)
            return None

    def identity(self, fn, *args):
        """Call an identity check that must return True."""
        ok = self.call(fn, *args)
        if ok is not None:
            self.values.append(bool(ok))
            if not ok:
                self.wrong.append(_route(fn) + " returned False")

    def expect(self, holds: bool, what: str):
        """Record a cross-check the harness computes itself."""
        self.values.append(holds)
        if not holds:
            self.wrong.append(what)

    def agree(self, what, values):
        """Record values from independent routes; those that exist must be
        equal, and at least two must exist."""
        self.values.extend(values)
        present = [v for v in values if v is not None]
        if len(present) < 2:
            self.errors.append((what, "fewer than two routes gave a value"))
        elif any(v != present[0] for v in present[1:]):
            self.wrong.append(what + " disagree")


def _route(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def draw(rng, den: int, span: int = 9) -> Fraction:
    """A rational with denominator exactly ``den`` and span/2 <= |x| < span.

    Entry sizes, and so the cost of exact arithmetic, grow with the bit
    length of u; a magnitude band keeps it within one bit at every seed.
    """
    while True:
        p = rng.randint(1 - span * den, span * den - 1)
        if gcd(p, den) == 1 and 2 * abs(p) >= span * den:
            return Fraction(p, den)


def _params(alpha: Fraction, w: Fraction) -> vertex.ModelParams:
    return vertex.ModelParams(alpha, w - HALF, w + HALF)


def _triples(total: int):
    return [
        (k, n, l)
        for k in range(1, total - 1)
        for n in range(1, total - 1)
        for l in range(1, total - 1)
        if k + n + l <= total
    ]


# Distinct denominators make u - v non-integer as well as u and v.
_PAIR_DENS = ((2, 3), (3, 4), (4, 5), (5, 2), (3, 7), (7, 2))


def _pair(rng, i: int):
    du, dv = _PAIR_DENS[i % len(_PAIR_DENS)]
    return draw(rng, du), draw(rng, dv)


# -- fused-ybe -------------------------------------------------------------


def fused_ybe(rng):
    """Fused Yang-Baxter for every triple with k+n+l <= 6, three fresh pairs
    each, plus eight shift-conjugation checks of the eleven-vertex family."""
    params = _params(draw(rng, 2, 3), draw(rng, 2, 3))
    cases = []
    for rep in range(3):
        for i, (k, n, l) in enumerate(_triples(6)):
            u, v = _pair(rng, rep * 20 + i)

            def ybe(k=k, n=n, l=l, u=u, v=v):
                rec = Record()
                rec.identity(fusion.check_fused_ybe, k, n, l, u, v, params)
                return rec

            cases.append((f"ybe {k},{n},{l}", ybe))
    for i, (n, m) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2)) * 2):
        u, v = _pair(rng, i)
        delta = draw(rng, 3, 3)

        def conj(n=n, m=m, u=u, v=v, delta=delta):
            rec = Record()
            base = rec.call(elevenvertex.similarity_fused, n, m, u, v, params)
            moved = rec.call(elevenvertex.similarity_fused, n, m, u + delta, v + delta, params)
            if base is not None and moved is not None:
                rec.expect(base == moved, "similarity_fused depends on more than u - v")
            if (n, m) == (1, 1) and base is not None:
                same = elevenvertex.r11v(u - v, params) == base
                rec.expect(same, "r11v differs from similarity_fused(1,1)")
            return rec

        cases.append((f"similarity {n},{m}", conj))
    return cases


# -- face-weights ----------------------------------------------------------


def face_weights(rng):
    """Face-model YBE with two spectral triples shared by many boundaries,
    three-way weight agreement over a height grid, and a few
    correspondence and independence checks."""
    params = _params(draw(rng, 2, 3), draw(rng, 2, 3))
    cases = []
    spectra = [
        (draw(rng, 3), draw(rng, 5), draw(rng, 4)),
        (draw(rng, 4), draw(rng, 7), draw(rng, 2)),
    ]
    for k, n, l in _triples(6):
        for u, v, wsp in spectra:
            for _ in range(12):
                bd = sos.sample_admissible_boundary(k, n, l, rng)

                def ybe(k=k, n=n, l=l, u=u, v=v, wsp=wsp, bd=bd):
                    rec = Record()
                    rec.identity(sos.check_ybe_sos, k, n, l, u, v, wsp, bd, params)
                    return rec

                cases.append((f"ybe-sos {k},{n},{l}", ybe))
    # With w a half-integer, a half-integer u near 0 puts u + w on the
    # integers, where the hypergeometric route raises
    # DegenerateParameterPoint for about 20 to 40 of the ~750 weights while
    # the other two routes agree.  Every seed includes such a u, so the
    # decline shows in every run instead of in a third of them.
    for u in (draw(rng, 2, 3), draw(rng, 3), draw(rng, 4)):
        for n, m in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
            for a in range(-2, 3):
                for b in range(a - n, a + n + 1, 2):
                    for c in range(b - m, b + m + 1, 2):

                        def three_way(n=n, m=m, a=a, b=b, c=c, u=u):
                            rec = Record()
                            table = rec.call(
                                correspondence.solve_weights_from_relation,
                                n, m, a, b, c, u, params,
                                declinable=True,
                            )
                            for bp in range(c - n, c + n + 1, 2):
                                q = sos.WeightQuery(n, m, a, b, bp, c, u)
                                rec.agree(
                                    f"weight routes at b'={bp}",
                                    [
                                        None if table is None else table[bp],
                                        rec.call(sos.w_nm_sum, q, params, declinable=True),
                                        rec.call(sos.w_nm_hypergeometric, q, params, declinable=True),
                                    ],
                                )
                            return rec

                        cases.append((f"weights {n},{m} u={u}", three_way))
    for i, (n, m) in enumerate(((1, 1), (2, 1), (1, 2), (2, 2)) * 2):
        a = rng.randint(-3, 3)
        b = a - rng.choice(range(-n, n + 1, 2))
        c = b - rng.choice(range(-m, m + 1, 2))
        u, v = _pair(rng, i)

        def corr(n=n, m=m, a=a, b=b, c=c, u=u, v=v):
            rec = Record()
            rec.identity(correspondence.check_vertex_sos_matrix, n, m, a, b, c, u, v, params)
            return rec

        cases.append((f"correspondence {n},{m}", corr))
    for i, n in enumerate((1, 2, 3, 4) * 2):
        u = draw(rng, 3 + i % 3)
        anchor = rng.randint(-4, 4)
        direction = ("outgoing", "incoming")[i % 2]

        def independent(n=n, u=u, anchor=anchor, direction=direction):
            rec = Record()
            family = rec.call(correspondence.intertwiner_set, n, u, anchor, direction, params)
            if family is not None:
                d = rec.call(correspondence.independence_determinant, family)
                if d is not None:
                    rec.values.append(d)
                    rec.expect(d != 0, "independence determinant vanished at non-integer w")
            return rec

        cases.append((f"independence {n}", independent))
    return cases


# -- lattice ---------------------------------------------------------------

# (N, M, n, m, denominator of u): row spaces of dimension (n+1)**N up to
# 128; the longer periods multiply dense transfer matrices whose entries
# reach ~100 bits.  The four 81-row sums share one denominator, so they
# cost about the same.  With 59 cases in all, the 95th percentile of the
# case times (``statistics.quantiles``, exclusive) is exactly the 57th of
# 59: the middle of the 81-row group, not a blend of it and the 128-row sum.
_TRANSFER = (
    (7, 1, 1, 1, 2),
    (4, 2, 2, 1, 3),
    (4, 2, 2, 1, 3),
    (4, 2, 2, 1, 3),
    (4, 2, 2, 1, 3),
    (5, 4, 1, 1, 2),
    (4, 4, 1, 2, 3),
    (3, 3, 2, 1, 4),
    (2, 3, 2, 2, 5),
    (3, 4, 1, 1, 7),
)
_BRUTE = (
    (2, 2, 1, 1),
    (3, 2, 1, 1),
    (2, 3, 1, 1),
    (3, 1, 1, 1),
    (1, 3, 1, 1),
    (2, 2, 2, 1),
    (2, 1, 2, 2),
    (4, 1, 1, 1),
)
# (N, n, m).  The 24 two-site (2, 2) checks cost about the same and hold
# the middle of the case times, so the median lands inside one block of
# like cases at every seed instead of between cases of different kinds.
_COMMUTE = ((5, 1, 1), (3, 2, 1), (4, 1, 2)) + ((2, 2, 2),) * 24
# (N, M, n, m, window width); even periods, so the height torus closes.
_SOS = (
    (2, 2, 1, 1, 5),
    (2, 2, 2, 1, 5),
    (2, 2, 1, 2, 5),
    (2, 2, 2, 2, 5),
    (2, 4, 1, 1, 3),
    (4, 2, 1, 1, 3),
)


def lattice_sums(rng):
    """Transfer-matrix partition sums, commuting transfer matrices,
    enumeration against the transfer route, and windowed height sums
    checked against the same sum shifted by one height with w - 1 (face
    weights depend on heights h only through h + w)."""
    alpha, w = draw(rng, 2, 3), draw(rng, 2, 3)
    params = _params(alpha, w)
    shifted = _params(alpha, w - 1)
    cases = []
    dens = (2, 3, 4, 5, 7)
    for N, M, n, m, den in _TRANSFER:
        spec = lattice.LatticeSpec(N, M, n, m, draw(rng, den))

        def transfer(spec=spec):
            rec = Record()
            z = rec.call(lattice.partition_vertex_transfer, spec, params)
            if z is not None:
                rec.values.append(z)
            return rec

        cases.append((f"transfer {N}x{M} ({n},{m})", transfer))
    for i, (N, n, m) in enumerate(_COMMUTE):
        u, v = _pair(rng, i)

        def commute(N=N, n=n, m=m, u=u, v=v):
            rec = Record()
            row = lattice.transfer_matrix_vertex
            tu = rec.call(row, lattice.LatticeSpec(N, 1, n, m, u), params)
            tv = rec.call(row, lattice.LatticeSpec(N, 1, n, m, v), params)
            if tu is not None and tv is not None:
                rec.expect(tu @ tv == tv @ tu, "T(u) and T(v) do not commute")
            return rec

        cases.append((f"commute {N} ({n},{m})", commute))
    for rep in range(2):
        for i, (N, M, n, m) in enumerate(_BRUTE):
            spec = lattice.LatticeSpec(N, M, n, m, draw(rng, dens[(i + rep) % 5]))

            def brute(spec=spec):
                rec = Record()
                rec.agree(
                    "enumeration and transfer matrix",
                    [
                        rec.call(lattice.partition_vertex_bruteforce, spec, params),
                        rec.call(lattice.partition_vertex_transfer, spec, params),
                    ],
                )
                return rec

            cases.append((f"enumerate {N}x{M} ({n},{m})", brute))
    for i, (N, M, n, m, width) in enumerate(_SOS):
        spec = lattice.LatticeSpec(N, M, n, m, draw(rng, dens[i % 5]))
        lo = rng.randint(-3, 1)

        def heights(spec=spec, lo=lo, width=width):
            rec = Record()
            rec.agree(
                "height sum and its shift",
                [
                    rec.call(lattice.partition_sos, spec, (lo, lo + width - 1), params),
                    rec.call(lattice.partition_sos, spec, (lo + 1, lo + width), shifted),
                ],
            )
            return rec

        cases.append((f"sos {N}x{M} ({n},{m})", heights))
    return cases


# -- verify-cli ------------------------------------------------------------

# Each round runs its fixed-size suites, then the cheap seeded ones; the
# last round runs only the cheap ones.  The three om calls are the slowest
# of the 39 calls, so the p95 (exclusive, the 38th of 39) is the middle om
# call; star-triangle and om carry over half the time and ybe-vertex does
# not dominate.
_CLI_ROUNDS = (
    (("om",), ("star-triangle",)),
    (("om",), ("weights",)),
    (("om",), ("star-triangle",), ("weights",)),
    (),
)
_CLI_LIGHT = (
    ("ybe-vertex", "--max-sum", "4", "--samples", "1"),
    ("ybe-sos", "--max-sum", "5", "--samples", "2"),
    ("correspondence", "--samples", "3", "--n", "1", "--m", "1"),
    ("ybe-sos", "--max-sum", "4", "--samples", "2"),
    ("correspondence", "--samples", "2", "--n", "2", "--m", "2"),
    ("ybe-vertex", "--max-sum", "4", "--samples", "1"),
    ("ybe-sos", "--max-sum", "5", "--samples", "2"),
    ("correspondence", "--samples", "3", "--n", "2", "--m", "1"),
)


# What ``verify`` prints when a DegenerateParameterPoint stops it: the
# messages are read from the library's source so that they follow it.
_DEGENERATE_ERRORS = tuple(
    "error: " + msg
    for msg in re.findall(r'DegenerateParameterPoint\(\s*"([^"%]+)', inspect.getsource(sos))
)


def verify_cli(rng):
    """``fusion-sos verify <suite>`` through ``cli.main``, stdout captured.

    Every call gets its own --seed, --alpha and --w, so no call can reuse
    another's cached operators: each pays the cold cost a CLI process pays.
    """
    cli = importlib.import_module("fusion_sos.cli")
    cases = []
    for r, heavy in enumerate(_CLI_ROUNDS):
        for i, suite in enumerate(heavy + _CLI_LIGHT):
            w = draw(rng, (2, 3, 5)[i % 3], 3)
            if suite[0] == "weights":
                # The suite evaluates at u = 7/3.  In the third round w lies
                # on u + Z, where the hypergeometric route raises and the CLI
                # exits with 2, so that decline shows at every seed; the
                # other weights call stays clean.
                w = Fraction(7, 3) + rng.randint(-3, 2) if r == 2 else draw(rng, 2, 3)
            argv = [
                "verify",
                *suite,
                "--seed",
                str(rng.randrange(1 << 30)),
                f"--alpha={draw(rng, 2, 3)}",
                f"--w={w}",
            ]

            def run(argv=argv):
                rec = Record()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = rec.call(cli.main, argv)
                rec.values.extend([code, out.getvalue(), err.getvalue()])
                if code == 1:
                    rec.wrong.append("cli.main reported a failed identity")
                elif code is not None and code != 0:
                    degenerate = err.getvalue().startswith(_DEGENERATE_ERRORS)
                    (rec.declined if degenerate else rec.errors).append(("cli.main", f"exit {code}"))
                return rec

            cases.append(("cli " + " ".join(argv[:2]), run))
    return cases


WORKLOADS = {
    "fused-ybe": fused_ybe,
    "face-weights": face_weights,
    "lattice": lattice_sums,
    "verify-cli": verify_cli,
}
