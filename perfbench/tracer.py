"""Per-layer spans, installed from outside the library.

``Tracer.install`` wraps every public function of every loaded
``fusion_sos`` module and rebinds each wrapper at every module attribute
that holds the original (``from .exactcore import mat_mul`` makes
``fusion.mat_mul`` a binding site too).  ``remove`` puts the originals
back.  Nothing under ``src/`` is edited.

Self time is a span's duration minus the spans of the wrapped calls made
inside it.  The wrapper's own bookkeeping runs inside the parent's child
interval, so it is charged to neither; what it still costs shows in the
traced run's ``trace.overhead_frac``.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

# Per-entry scalar conversions, called once for every entry of every
# matrix built: wrapping them would multiply the trace overhead, and they
# are not a layer of their own.
NOT_WRAPPED = frozenset({"exactcore.rat", "exactcore.rat_to_str"})

_SCALARS = (int, str, Fraction, type(None))


def _plain(x) -> bool:
    """True for arguments cheap to hash: scalars, tuples of them, and frozen
    dataclasses (ModelParams, WeightQuery, LatticeSpec) built from them."""
    if isinstance(x, _SCALARS):
        return True
    if isinstance(x, tuple):
        return all(_plain(y) for y in x)
    if dataclasses.is_dataclass(x) and x.__dataclass_params__.frozen:
        return all(_plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    return False


class LayerStats:
    __slots__ = ("calls", "self_s", "failed", "errors", "keys", "madds", "max_entry_bits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.errors = Counter()
        # Distinct argument keys, or None once an argument is not plain.
        self.keys = set()
        self.madds = 0
        self.max_entry_bits = 0

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s, "failed": self.failed}
        if self.keys is not None:
            out["distinct_frac"] = len(self.keys) / self.calls if self.calls else 0.0
        if self.errors:
            out["errors"] = dict(self.errors)
        if self.madds:
            out["madds"] = self.madds
            out["max_entry_bits"] = self.max_entry_bits
        return out


def _count_mat_mul(stats: LayerStats, args, result) -> None:
    """Multiply-adds mat_mul performs (it skips zeros on both sides) and the
    widest numerator or denominator among operands and product."""
    a, b = args
    row_nnz = [sum(1 for x in row if x) for row in b.entries]
    stats.madds += sum(row_nnz[j] for row in a.entries for j, x in enumerate(row) if x)
    bits = stats.max_entry_bits
    for mat in (a, b, result):
        for row in mat.entries:
            for x in row:
                if x:
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    stats.max_entry_bits = bits


_EXTRA = {"exactcore.mat_mul": _count_mat_mul}


def library_modules() -> list:
    """The loaded ``fusion_sos`` package and its submodules."""
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "fusion_sos"]


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = library_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or name in NOT_WRAPPED
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        for mod, attr, original in self._restore:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"could not restore {mod.__name__}.{attr}")
        self._restore.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats[name] = LayerStats()
        stack = self._stack
        clock = time.perf_counter
        extra = _EXTRA.get(name)

        def close(t0: float, args, kwargs, result, exc) -> None:
            t1 = clock()
            inner = stack.pop()
            stats.calls += 1
            stats.self_s += (t1 - t0) - inner
            if exc is not None:
                stats.failed += 1
                stats.errors[type(exc).__name__] += 1
            if stats.keys is not None:
                if _plain(args) and _plain(tuple(sorted(kwargs.items()))):
                    stats.keys.add((args, tuple(sorted(kwargs.items()))))
                else:
                    stats.keys = None
            if extra is not None and exc is None:
                extra(stats, args, result)
            if stack:
                stack[-1] += clock() - t0

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(t0, args, kwargs, None, exc)
                raise
            close(t0, args, kwargs, result, None)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        return {name: s.as_dict() for name, s in sorted(self.stats.items())}
