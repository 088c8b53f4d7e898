"""Command-line front end: matrix dumps, weight queries, verification suites.

Rationals are passed as "P/Q" or integer strings and serialized the same way,
so no precision is lost on the way in or out.  Exit codes: 0 success, 1 an
identity check failed, 2 a usage error (bad flags, malformed rationals, or an
adjacency-violating weight query) or any other ``ValueError`` or
``ZeroDivisionError`` -- among them a degenerate parameter point
(``PoleError``, ``DegenerateParameterPoint``, ``SingularMatrixError``).
When such an error stops a ``verify`` suite, a second stderr line names the
suite and the case that raised it.  141 (128 + SIGPIPE, as shells report a
process ended by a closed pipe) when the reader of stdout went away, as
``fusion-sos verify all | head -n 1`` does: stdout is pointed at
``os.devnull`` and the command ends quietly, without a traceback.

Where a mode picks the flags a command reads (``rmatrix --family``,
``partition --model``, the ``verify`` suite), ``_MODE_FLAGS`` lists each
mode's optional flags; any other flag given is a usage error, reported before
any value is checked.  No parser defines a flag that no mode reads, or a
format the command cannot print (``verify --format`` aside, not yet read).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import lattice as lattice_mod
from .correspondence import check_vertex_sos_matrix, solve_weights_from_relation
from .exactcore import rat_to_str
from .fusion import check_fused_ybe, check_fusion_orders, fuse_nm
from .polyrep import o_m_identity_check, star_triangle_check
from .sos import (
    WeightQuery,
    check_ybe_sos,
    sample_admissible_boundary,
    w_nm_hypergeometric,
    w_nm_sum,
)
from .vertex import ModelParams, r7v
from .elevenvertex import similarity_fused

USAGE_ERROR = 2
IDENTITY_FAILURE = 1
BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _alpha(args) -> Fraction:
    return Fraction(1) if args.alpha is None else _parse_rat(args.alpha)


def _params_from_args(args) -> ModelParams:
    alpha, w, s, t = _alpha(args), args.w, args.s, args.t
    if w is not None and (s is not None or t is not None):
        raise UsageError("give either --w or --s/--t, not both")
    if w is not None:
        wv = _parse_rat(w)
        return ModelParams(alpha, wv - Fraction(1, 2), wv + Fraction(1, 2))
    sv = _parse_rat(s) if s is not None else Fraction(0)
    tv = _parse_rat(t) if t is not None else Fraction(1)
    return ModelParams(alpha, sv, tv)


def _emit(payload: dict, fmt: str, csv_header: list[str] | None = None) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        print(",".join(csv_header))
        print(",".join(str(payload[k]) for k in csv_header))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


class _CaseError(Exception):
    """A ``ValueError`` or ``ZeroDivisionError`` raised by one case of a
    verify suite; the original error is the ``__cause__``."""


def _run_suite(name: str, cases, check) -> int:
    """Check each case in turn, formatting its line as it is checked, and
    count the failures.  The lines are written once the last case is
    checked, so a suite that raises prints none of them; its error is
    raised again as a :class:`_CaseError` that names the suite and case."""
    lines, failures = [], 0
    for number, case in enumerate(cases, 1):
        try:
            ok = check(case)
        except (ValueError, ZeroDivisionError) as exc:
            raise _CaseError(f"in suite {name}, case {number}: {case}") from exc
        failures += not ok
        lines.append(f"[{name}] {case}: {'pass' if ok else 'FAIL'}\n")
    sys.stdout.write("".join(lines))
    return failures


def _triples(max_sum: int) -> list[tuple[int, int, int]]:
    """All (k, n, l) with positive entries and k + n + l <= max_sum, lexicographic."""
    return [
        (k, n, l)
        for k in range(1, max_sum - 1)
        for n in range(1, max_sum - 1)
        for l in range(1, max_sum - 1)
        if k + n + l <= max_sum
    ]


def _random_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_spectral_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    # Fusion normalization degenerates at integer spectral values; sample
    # around those isolated points.
    while True:
        u = Fraction(rng.randint(-36, 36), rng.randint(2, 9))
        v = Fraction(rng.randint(-36, 36), rng.randint(2, 9))
        if u.denominator != 1 and v.denominator != 1 and (u - v).denominator != 1:
            return u, v


# -- subcommand handlers ------------------------------------------------------


def cmd_rmatrix(args) -> int:
    params = ModelParams(_alpha(args))
    if args.family == "seven":
        if args.u is None:
            raise UsageError("rmatrix --family seven needs --u")
        mat = r7v(_parse_rat(args.u), params)
    else:
        if args.d is None:
            raise UsageError("rmatrix --family eleven needs --d")
        n, m = (1 if x is None else x for x in (args.n, args.m))
        mat = similarity_fused(n, m, _parse_rat(args.d), Fraction(0), params)
    _emit({"family": args.family, "matrix": mat.to_jsonable()}, args.format)
    return 0


def cmd_fuse(args) -> int:
    params = ModelParams(_alpha(args))
    mat = fuse_nm(args.n, args.m, _parse_rat(args.u), params)
    _emit(
        {"n": args.n, "m": args.m, "u": args.u, "matrix": mat.to_jsonable()},
        args.format,
    )
    return 0


def cmd_weights(args) -> int:
    params = _params_from_args(args)
    query = WeightQuery(args.n, args.m, args.a, args.b, args.bprime, args.c, _parse_rat(args.u))
    header = ["n", "m", "a", "b", "bprime", "c", "u", "method", "value"]
    base = {
        "n": args.n,
        "m": args.m,
        "a": args.a,
        "b": args.b,
        "bprime": args.bprime,
        "c": args.c,
        "u": args.u,
        "method": args.method,
    }
    if not query.is_valid():
        base["value"] = "0"
        base["error"] = "invalid adjacency"
        _emit(base, args.format, csv_header=header + ["error"])
        return USAGE_ERROR
    if args.method == "sum":
        value = w_nm_sum(query, params)
    elif args.method == "hyper":
        value = w_nm_hypergeometric(query, params)
    else:
        value = solve_weights_from_relation(
            args.n, args.m, args.a, args.b, args.c, query.u, params
        )[args.bprime]
    base["value"] = rat_to_str(value)
    _emit(base, args.format, csv_header=header)
    return 0


def cmd_partition(args) -> int:
    params = _params_from_args(args)
    spec = lattice_mod.LatticeSpec(args.N, args.M, args.n, args.m, _parse_rat(args.u))
    if args.model == "vertex":
        value = lattice_mod.partition_vertex_transfer(spec, params)
        payload = {"model": "vertex", "value": rat_to_str(value)}
    else:
        if args.range is None:
            raise UsageError("partition --model sos needs --range LO..HI")
        try:
            lo, hi = (int(x) for x in args.range.split(".."))
        except ValueError as exc:
            raise UsageError("--range must look like LO..HI") from exc
        value = lattice_mod.partition_sos(spec, (lo, hi), params)
        payload = {"model": "sos", "value": rat_to_str(value), "range": args.range}
    payload["spec"] = {
        "N": args.N,
        "M": args.M,
        "n": args.n,
        "m": args.m,
        "u": args.u,
    }
    _emit(payload, args.format)
    return 0


# -- verification suites -------------------------------------------------------


def _suite_ybe_vertex(params: ModelParams, args) -> int:
    rng = random.Random(args.seed)
    cases = []
    for triple in _triples(args.max_sum):
        for _ in range(args.samples):
            cases.append((triple, *_random_spectral_pair(rng)))

    def check(case):
        (k, n, l), u, v = case[0], case[1], case[2]
        return check_fused_ybe(k, n, l, u, v, params)

    return _run_suite("ybe-vertex", cases, check)


def _suite_ybe_sos(params: ModelParams, args) -> int:
    rng = random.Random(args.seed)
    cases = []
    for triple in _triples(args.max_sum):
        for _ in range(args.samples):
            bd = sample_admissible_boundary(*triple, rng)
            spect = (_random_rat(rng), _random_rat(rng), _random_rat(rng))
            cases.append((triple, bd, spect))

    def check(case):
        (k, n, l), bd, (u, v, wsp) = case
        return check_ybe_sos(k, n, l, u, v, wsp, bd, params)

    return _run_suite("ybe-sos", cases, check)


def _suite_star_triangle(params: ModelParams, args) -> int:
    cases = [
        (k, l, shift)
        for k in range(4)
        for l in range(4)
        for shift in (Fraction(0), Fraction(2, 7), Fraction(-3, 5))
    ]

    def check(case):
        k, l, shift = case
        return star_triangle_check(k, l, shift, 8, params)

    return _run_suite("star-triangle", cases, check)


def _suite_om(params: ModelParams, args) -> int:
    cases = []
    for m in range(1, 4):
        for diff in range(-m, m + 1, 2):
            for u in range(m + 1):
                cases.append((m, diff, u))

    def check(case):
        m, diff, u = case
        b, c = 0, diff
        return o_m_identity_check(m, Fraction(u), b, c, params, 6)

    return _run_suite("om-identity", cases, check)


def _suite_correspondence(params: ModelParams, args) -> int:
    rng = random.Random(args.seed)
    cases = []
    for _ in range(args.samples):
        a = rng.randint(-3, 3)
        b = a - rng.choice(range(-args.n, args.n + 1, 2))
        c = b - rng.choice(range(-args.m, args.m + 1, 2))
        u, v = _random_spectral_pair(rng) if args.u is None else (args.u, args.v)
        cases.append((args.n, args.m, a, b, c, u, v))

    def check(case):
        return check_vertex_sos_matrix(*case, params)

    return _run_suite("correspondence", cases, check)


def _suite_weights(params: ModelParams, args) -> int:
    cases = []
    for (n, m) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for a in range(-2, 3):
            for b in range(a - n, a + n + 1, 2):
                for c in range(b - m, b + m + 1, 2):
                    cases.append((n, m, a, b, c))

    u = Fraction(7, 3)

    def check(case):
        n, m, a, b, c = case
        table = solve_weights_from_relation(n, m, a, b, c, u, params)
        for bp, expected in table.items():
            q = WeightQuery(n, m, a, b, bp, c, u)
            if w_nm_sum(q, params) != expected:
                return False
            if w_nm_hypergeometric(q, params) != expected:
                return False
        return True

    return _run_suite("weights-three-way", cases, check)


# The verify suites in the order ``verify all`` runs them, and the flags each reads.
_SUITES = {
    "ybe-vertex": (_suite_ybe_vertex, ("max_sum", "samples")),
    "ybe-sos": (_suite_ybe_sos, ("max_sum", "samples")),
    "star-triangle": (_suite_star_triangle, ()),
    "om": (_suite_om, ()),
    "correspondence": (_suite_correspondence, ("samples", "u", "v", "n", "m")),
    "weights": (_suite_weights, ()),
}


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    if (args.u is None) != (args.v is None):
        raise UsageError("give both --u and --v, or neither")
    # Every value is resolved and checked before the first suite prints.
    args.u, args.v = (None if x is None else _parse_rat(x) for x in (args.u, args.v))
    args.n, args.m = (1 if x is None else x for x in (args.n, args.m))
    args.max_sum = 5 if args.max_sum is None else args.max_sum
    args.samples = 3 if args.samples is None else args.samples
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.max_sum < 3:
        raise UsageError("--max-sum must be at least 3, the smallest k + n + l")
    check_fusion_orders(args.n, args.m)
    failures = sum(run(params, args) for name, (run, _) in _SUITES.items() if args.suite in (name, "all"))
    if failures:
        print(f"{failures} identity check(s) FAILED")
        return IDENTITY_FAILURE
    print("all identity checks passed")
    return 0


# Per command with modes: the argument that picks it, a refusal's verb for one flag
# (verify's has always said "apply"), how it names modes, and each mode's flags.
_MODE_FLAGS = {
    "rmatrix": ("family", "applies", "rmatrix --family {}", {"seven": ("u",), "eleven": ("d", "n", "m")}),
    "partition": ("model", "applies", "partition --model {}", {"vertex": ("alpha",), "sos": ("range", "w", "s", "t")}),
    "verify": ("suite", "apply", "the {} suite", {name: flags for name, (_, flags) in _SUITES.items()}),
}


def _refuse_unread_flags(args, selector, verb, where, modes) -> None:
    """Raise UsageError naming each flag given to a mode that does not read it."""
    every = dict.fromkeys(flag for flags in modes.values() for flag in flags)
    reads = modes.get(getattr(args, selector), every)  # verify all reads every flag
    refused = {}
    for flag in every:
        if flag not in reads and getattr(args, flag) is not None:
            readers = " or ".join(mode for mode, flags in modes.items() if flag in flags)
            refused.setdefault(where.format(readers), []).append("--" + flag.replace("_", "-"))
    messages = [f"{', '.join(names)} only {verb if len(names) == 1 else 'apply'} to {place}"
                for place, names in refused.items()]
    if messages:
        raise UsageError("; ".join(messages))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusion-sos",
        description="Exact computations for the seven-vertex / SOS model family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, formats=("json", "pretty"), with_s_t=True):
        p.add_argument("--alpha", help="model constant alpha (rational, nonzero; default 1)")
        if with_s_t:
            p.add_argument("--s", help="model constant s (rational)")
            p.add_argument("--t", help="model constant t (rational)")
            p.add_argument("--w", help="shortcut for (s+t)/2, setting s = w - 1/2, t = w + 1/2; not with --s/--t")
        p.add_argument("--format", choices=formats, default="json", help="output format")

    p_rm = sub.add_parser("rmatrix", help="dump an elementary or shifted-family matrix")
    p_rm.add_argument("--family", choices=("seven", "eleven"), default="seven")
    p_rm.add_argument("--u", default=None, help="spectral parameter (seven-vertex)")
    p_rm.add_argument("--d", default=None, help="spectral difference (eleven-vertex family)")
    p_rm.add_argument("--n", type=int, default=None, help="fusion order n (eleven-vertex family, default 1)")
    p_rm.add_argument("--m", type=int, default=None, help="fusion order m (eleven-vertex family, default 1)")
    add_params(p_rm, with_s_t=False)
    p_rm.set_defaults(handler=cmd_rmatrix)

    p_fuse = sub.add_parser("fuse", help="dump a fused operator matrix")
    p_fuse.add_argument("--n", type=int, required=True)
    p_fuse.add_argument("--m", type=int, required=True)
    p_fuse.add_argument("--u", required=True)
    add_params(p_fuse, with_s_t=False)
    p_fuse.set_defaults(handler=cmd_fuse)

    p_w = sub.add_parser("weights", help="evaluate one face weight")
    p_w.add_argument("--n", type=int, required=True)
    p_w.add_argument("--m", type=int, required=True)
    p_w.add_argument("--a", type=int, required=True)
    p_w.add_argument("--b", type=int, required=True)
    p_w.add_argument("--bprime", type=int, required=True)
    p_w.add_argument("--c", type=int, required=True)
    p_w.add_argument("--u", required=True)
    p_w.add_argument("--method", choices=("sum", "hyper", "solve"), default="sum")
    add_params(p_w, formats=("json", "csv", "pretty"))
    p_w.set_defaults(handler=cmd_weights)

    p_part = sub.add_parser("partition", help="small-lattice partition sums")
    p_part.add_argument("--model", choices=("vertex", "sos"), required=True)
    p_part.add_argument("--N", type=int, required=True)
    p_part.add_argument("--M", type=int, required=True)
    p_part.add_argument("--n", type=int, default=1)
    p_part.add_argument("--m", type=int, default=1)
    p_part.add_argument("--u", required=True)
    p_part.add_argument("--range", default=None, help="height window LO..HI (sos only)")
    add_params(p_part)
    p_part.set_defaults(handler=cmd_partition)

    p_ver = sub.add_parser("verify", help="run exact identity suites")
    p_ver.add_argument("suite", choices=(*_SUITES, "all"))
    p_ver.add_argument("--max-sum", type=int, help="bound on k+n+l for YBE suites (default 5)")
    p_ver.add_argument("--samples", type=int, help="random tuples per case (ybe and correspondence suites, default 3)")
    p_ver.add_argument("--seed", type=int, default=2024)
    p_ver.add_argument("--n", type=int, default=None, help="fusion order n (correspondence suite, default 1)")
    p_ver.add_argument("--m", type=int, default=None, help="fusion order m (correspondence suite, default 1)")
    p_ver.add_argument("--u", default=None, help="fixed spectral parameter (correspondence suite)")
    p_ver.add_argument("--v", default=None, help="fixed spectral parameter (correspondence suite)")
    add_params(p_ver, formats=("json", "csv", "pretty"))
    p_ver.set_defaults(handler=cmd_verify)

    return parser


# An option followed by a value that starts like a negative number, such as
# -1/3 or -2..2: argparse reads any such value but a plain negative number
# as an option name and refuses it.
_OPTION = re.compile(r"--[^=]+")
_NEGATIVE_VALUE = re.compile(r"-\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Pass ``--name VALUE`` as ``--name=VALUE`` when VALUE starts with ``-`` and a digit."""
    out = []
    for token in argv:
        if out and _OPTION.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        if args.command in _MODE_FLAGS:
            _refuse_unread_flags(args, *_MODE_FLAGS[args.command])
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; on /dev/null that
        # flush cannot fail and print a second error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _CaseError as exc:
        print(f"error: {exc.__cause__}", file=sys.stderr)
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
