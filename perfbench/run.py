"""fusion-sos benchmark.

    python3 perfbench/run.py --workload fused-ybe [--seed 2024] [--seconds 30] [--trace 0|1]

Run from the repository root.  Each repetition is a fresh child process
(``child.py``): one process, one thread, a closed loop that runs the
workload's fixed case list back to back from empty caches.  Repetitions
continue while the next one is expected to end within ``--seconds`` (at
least three run).

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
set-up time, wall time and peak RSS, and percentiles over the cases of
each case's median time across repetitions.  A machine that stalls one
repetition for a moment moves one sample of each case, not the tail.
``--trace 1`` alternates untraced and traced repetitions, runs the cold
``fuse_nm`` probe once, and reports the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.

Times are in reference seconds (``reference``): a repetition that ran
while the machine was 30 % slow counts at the speed a fixed batch of
Fraction arithmetic defines.  The child scales its case times by batches
it times between cases; this process scales set-up time and the cold
``fuse_nm`` probe by the median of three batches just before and three
just after the repetition, on the same CPU.  The measured medians are
printed and recorded beside them (``measured_*``, ``calibration_ms``).

Human-readable lines come first; the last stdout line is the JSON result.
Every repetition must produce the same exact-output digest, and no
identity may fail or disagree with its cross-check; otherwise the result
says ``"correct": false`` and the exit code is 1.  ``failed`` counts cases
with a False identity, a disagreement or an exception; documented
degenerate-point refusals that the case cross-checks (see ``workloads``)
are counted apart as declines.  A run that cannot measure (no
``src/fusion_sos``, a child crash or timeout) prints no result and exits
with 2.  A record of each run, with provenance, is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DEFAULT_SEED = 2024
MIN_REPS = 3
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure."""


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _code_sha256() -> str:
    """Hash of the library and benchmark sources: digests are comparable only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("fusion_sos/*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FUSION_SOS_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode]
    calibration = [reference.batch() for _ in range(3)]
    spawned = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} repetition of {workload} ran past the time budget") from exc
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(
            f"{mode} repetition of {workload} exited with {proc.returncode}:\n{err.strip()}"
        )
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result.get("ready", spawned) - spawned
    result["calibration_s"] = calibration + [reference.batch() for _ in range(3)]
    module = result.get("module")
    if module is not None and not Path(module).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fusion_sos was imported from {module}, not from {SRC}")
    return result


def _pct(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1]


def _speed(rep: dict) -> float:
    """Factor from measured to reference seconds for the set-up and probe
    of one repetition (the child scales its case times itself)."""
    return reference.factor(statistics.median(rep["calibration_s"]))


def case_medians(reps: list[dict]) -> list[float]:
    """Each case's median time over the repetitions, in reference seconds."""
    return sorted(statistics.median(times) for times in zip(*(r["case_s"] for r in reps)))


def end_to_end(reps: list[dict]) -> dict:
    cases = case_medians(reps)
    attempted = len(cases) * len(reps)
    out = {
        "setup_s": (statistics.median(r["setup_s"] * _speed(r) for r in reps), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "case_p50_ms": (statistics.median(cases) * 1e3, "ms"),
        "case_p95_ms": (_pct(cases, 95) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "failed_frac": (sum(r["failed"] for r in reps) / attempted, "1"),
        "declined_frac": (sum(r["declined"] for r in reps) / attempted, "1"),
        "measured_setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "measured_wall_s": (statistics.median(r["measured_wall_s"] for r in reps), "s"),
        "calibration_ms": (statistics.median(statistics.median(r["calibration_s"]) for r in reps) * 1e3, "ms"),
    }
    p99 = _pct(cases, 99)
    if sum(1 for t in cases if t > p99) >= 10:
        out["case_p99_ms"] = (p99 * 1e3, "ms")
    return out


def per_layer(plain: list[dict], traced: list[dict], probe: dict) -> dict:
    """Counts from the first traced repetition (they repeat exactly at one
    seed); times as medians over traced repetitions."""
    out = {}
    for name, first in traced[0]["layers"].items():
        out[f"{name}.calls"] = (first["calls"], "count")
        out[f"{name}.failed"] = (first["failed"], "count")
        self_s = statistics.median(r["layers"][name]["self_s"] for r in traced)
        out[f"{name}.self_s"] = (self_s, "s")
        if "distinct_frac" in first:
            out[f"{name}.distinct_frac"] = (first["distinct_frac"], "1")
        if "madds" in first:
            out[f"{name}.madds"] = (first["madds"], "count")
            out[f"{name}.max_entry_bits"] = (first["max_entry_bits"], "bit")
    out["case.declined"] = (traced[0]["declined"], "count")
    for shape, ms in probe["cold_ms"].items():
        out[f"fusion.fuse_nm.cold_ms.{shape}"] = (ms * _speed(probe), "ms")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "1")
    return out


def _select(computed: dict, wanted: list[dict]) -> dict:
    out = {}
    for spec in wanted:
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise BenchError(f"{spec['name']} is in {unit}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def _check(reps: list[dict], record: dict) -> list[str]:
    """Reasons the run is not correct; empty when it is."""
    problems = [w for r in reps for w in r["wrong"]]
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the exact-output digest: {sorted(digests)}")
    other = RESULTS / f"{record['workload']}-seed{record['seed']}-trace{1 - record['trace']}.json"
    try:
        earlier = json.loads(other.read_text())
    except (OSError, ValueError):
        earlier = None
    if (
        earlier is not None
        and earlier.get("code_sha256") == record["code_sha256"]
        and earlier.get("digest") != record["digest"]
    ):
        problems.append(f"digest differs from {other.name}: {earlier.get('digest')}")
    return problems


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Children inherit this: calibration and repetitions share one CPU, and
    # the two CPUs of a virtual machine can run at different speeds.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.perf_counter()
    deadline = start + BUDGET_S
    try:
        spec = json.loads(spec_path.read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (SRC / "fusion_sos" / "__init__.py").is_file():
            raise BenchError(f"no fusion_sos package under {SRC}")
        plain, traced, probe = [], [], None
        if args.trace:
            probe = _spawn(args.workload, args.seed, "probe", deadline)
        last = 0.0
        while len(plain) < MIN_REPS or time.perf_counter() - start + last < args.seconds:
            began = time.perf_counter()
            plain.append(_spawn(args.workload, args.seed, "plain", deadline))
            if args.trace:
                traced.append(_spawn(args.workload, args.seed, "traced", deadline))
            last = time.perf_counter() - began
        computed = end_to_end(plain)
        if args.trace:
            computed.update(per_layer(plain, traced, probe))
        metrics = _select(computed, spec["per_layer" if args.trace else "end_to_end"])
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reps = plain + traced
    failures, failed_kinds = Counter(), Counter()
    declines, declined_kinds = Counter(), Counter()
    for r in reps:
        failures.update(r["failed_by_route"])
        failed_kinds.update(r["failed_by_kind"])
        declines.update(r["declined_by_route"])
        declined_kinds.update(r["declined_by_kind"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "commit": _commit(),
        "code_sha256": _code_sha256(),
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "cases_per_repetition": len(plain[0]["case_s"]),
        "samples": sum(len(r["case_s"]) for r in plain),
        "digest": plain[0]["digest"],
        "failed_by_route": dict(failures),
        "failed_by_kind": dict(failed_kinds),
        "declined_by_route": dict(declines),
        "declined_by_kind": dict(declined_kinds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in computed.items()},
    }
    problems = _check(reps, record)
    record["correct"] = not problems
    record["problems"] = problems
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} python={record['python']} "
        f"nproc={record['nproc']} commit={record['commit']}"
    )
    print(
        f"# repetitions={len(plain)}+{len(traced)} traced, "
        f"cases/repetition={record['cases_per_repetition']}, case samples={record['samples']}"
    )
    for name, (value, unit) in computed.items():
        calls = computed.get(name.rsplit(".", 1)[0] + ".calls", (1,))[0]
        if calls and (args.trace or "." not in name):
            print(f"{name:48s} {value!r} {unit}")
    for route, n in sorted(failures.items()):
        print(f"failed calls {route}: {n}")
    for kind, n in sorted(failed_kinds.items()):
        print(f"failed cases {kind}: {n}")
    for route, n in sorted(declines.items()):
        print(f"declined calls {route}: {n}")
    for kind, n in sorted(declined_kinds.items()):
        print(f"declined cases {kind}: {n}")
    for problem in problems:
        print(f"NOT CORRECT: {problem}")
    print(f"# digest {record['digest']}  record {out_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": sum(len(r["case_s"]) for r in reps),
                "failed": sum(r["failed"] for r in reps),
                "metrics": metrics,
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
