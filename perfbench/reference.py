"""Reference seconds: measured times divided by the machine's current speed.

A shared machine changes speed by tens of percent, from one second to the
next and for minutes at a time, and no run length averages that out.  So
the benchmark times a fixed batch of small-``Fraction`` arithmetic, the
operation that dominates ``fusion_sos``, next to the work it measures, and
scales each measured time by ``REFERENCE_S`` over the batch time.  The
batch uses only the standard library, so a change to ``fusion_sos`` does
not move it: only the speed of the machine cancels.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The full batch takes this long at reference speed.
REFERENCE_S = 0.02
_STEPS = 2500


def batch(stride: int = 1) -> float:
    """Seconds the full batch takes now, estimated from every ``stride``-th
    step: the steps sampled span the same operand sizes at every stride."""
    t0 = time.perf_counter()
    out = []
    for i in range(1, _STEPS + 1, stride):
        out.append(Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i % 13 + 2))
    return (time.perf_counter() - t0) * stride


def factor(batch_s: float) -> float:
    """Reference seconds per measured second at a measured batch time."""
    return REFERENCE_S / batch_s
