"""One measured process: ``python3 child.py <workload> <seed> plain|traced|probe``.

``run.py`` starts a fresh interpreter per repetition, so every repetition
starts with empty caches, as a user's process does.  The process prints one
JSON object on its last stdout line.

- ``plain``: import, build the cases, run them back to back untraced.
  Between cases, at most every ``CALIBRATE_EVERY_S``, the process times a
  quarter of the reference batch (``reference.batch``); each case's time is
  scaled by the mean of the batch times just before and just after it, so
  case times are in reference seconds.
- ``traced``: the same, with ``tracer`` wrappers installed around the case
  loop only.
- ``probe``: cold build times of ``fuse_nm`` for a few (n, m), all caches
  cleared before each build.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from collections import Counter
from fractions import Fraction

import fusion_sos
import reference
import tracer
import workloads
from fusion_sos import fusion, vertex


def _clear_caches() -> None:
    for mod in tracer.library_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def probe(seed: int) -> dict:
    """Median cold build time of fuse_nm(n, m) over five fresh u values."""
    rng = random.Random(seed)
    params = vertex.ModelParams(Fraction(3, 2), Fraction(1, 3), Fraction(2, 3))
    times = {}
    for n, m in ((2, 2), (3, 2), (4, 1), (3, 3), (4, 2), (5, 1)):
        samples = []
        for den in (2, 3, 4, 5, 7):
            u = workloads.draw(rng, den)
            _clear_caches()
            t0 = time.perf_counter()
            fusion.fuse_nm(n, m, u, params)
            samples.append(time.perf_counter() - t0)
        times[f"{n}x{m}"] = sorted(samples)[len(samples) // 2] * 1e3
    return {"cold_ms": times, "module": fusion.__file__}


# About 5 ms of calibration per 100 ms of cases: the machine's speed is
# sampled often enough to follow changes within a repetition.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_STRIDE = 4


def measure(workload: str, seed: int, traced: bool) -> dict:
    cases = workloads.WORKLOADS[workload](random.Random(seed))
    ready = time.perf_counter()
    spans = tracer.Tracer() if traced else None
    if spans is not None:
        spans.install()
    times, pending, wrong = [], [], []
    by_route, by_kind = Counter(), Counter()
    declined_by_route, declined_by_kind = Counter(), Counter()
    digest = hashlib.sha256()
    clock = time.perf_counter
    measured = 0.0
    reference.batch(CALIBRATION_STRIDE)  # warm-up
    batch_s = reference.batch(CALIBRATION_STRIDE)
    calibrated = clock()

    def settle():
        """Scale the cases since the last batch by the mean of the batch
        times on either side of them."""
        nonlocal batch_s, calibrated
        after = reference.batch(CALIBRATION_STRIDE)
        speed = reference.factor((batch_s + after) / 2)
        times.extend(t * speed for t in pending)
        pending.clear()
        batch_s, calibrated = after, clock()

    try:
        for label, case in cases:
            t0 = clock()
            try:
                rec = case()
            except Exception as exc:  # a fault outside any recorded route still fails the case
                rec = workloads.Record()
                rec.errors.append(("case", type(exc).__name__))
                rec.values.append("!" + type(exc).__name__)
            pending.append(clock() - t0)
            measured += pending[-1]
            digest.update(repr((label, rec.values)).encode())
            by_route.update(f"{route} {exc}" for route, exc in rec.errors)
            declined_by_route.update(f"{route} {exc}" for route, exc in rec.declined)
            wrong.extend(f"{label}: {w}" for w in rec.wrong)
            if rec.errors or rec.wrong:
                by_kind[label.split()[0]] += 1
            elif rec.declined:
                declined_by_kind[label.split()[0]] += 1
            if clock() - calibrated >= CALIBRATE_EVERY_S:
                settle()
        settle()
    finally:
        if spans is not None:
            spans.remove()
    out = {
        "ready": ready,
        "wall_s": sum(times),
        "measured_wall_s": measured,
        "case_s": times,
        "digest": digest.hexdigest(),
        "wrong": wrong,
        "failed": sum(by_kind.values()),
        "failed_by_kind": dict(by_kind),
        "failed_by_route": dict(by_route),
        "declined": sum(declined_by_kind.values()),
        "declined_by_kind": dict(declined_by_kind),
        "declined_by_route": dict(declined_by_route),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "module": fusion_sos.__file__,
    }
    if spans is not None:
        speed = out["wall_s"] / measured
        out["layers"] = spans.report()
        for layer in out["layers"].values():
            layer["self_s"] *= speed
    return out


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    result = probe(seed) if mode == "probe" else measure(workload, seed, mode == "traced")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
