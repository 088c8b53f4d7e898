"""The library keeps a cache only where a benchmark workload hits it.

Hits are hits/calls over one pass of each ``perfbench`` workload at seed
2024, starting from empty caches.
"""

import importlib
import pkgutil

import fusion_sos

KEPT_CACHES = {
    # Keyed on nine ints: face-weights 1,491/5,547, lattice 1,498/1,784,
    # verify-cli 32/1,940.
    "fusion_sos.sos._w_nm_sum_at",
    # lattice 52/178, fused-ybe 39/331 (the (1, n) operators that the
    # (n, 1) factors swap are cached too), verify-cli 1/179.
    "fusion_sos.fusion._fuse_nm",
    # fused-ybe 175/454, lattice 54/147, verify-cli 8/210.
    "fusion_sos.vertex.r7v",
    # fused-ybe 8/12, verify-cli 2/4, face-weights 2/4, lattice 2/4.
    "fusion_sos.fusion.sym_basis",
    # fused-ybe 291/297, lattice 101/103, verify-cli 81/83, face-weights 8/10.
    "fusion_sos.fusion._peel_last",
    # face-weights 560/563, verify-cli 241/251 (one entry per (alpha, dim)).
    "fusion_sos.polyrep._delta_rows",
    # Keyed on seven ints, (n, c, alpha, s, t): face-weights 524/563,
    # verify-cli 106/164.
    "fusion_sos.correspondence._corner_basis",
}


def library_caches() -> set[str]:
    """Every function with ``cache_info`` in a fusion_sos module, named once
    by the module that defines it."""
    found = set()
    for info in pkgutil.iter_modules(fusion_sos.__path__):
        module = importlib.import_module(f"fusion_sos.{info.name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__:
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    return found


def test_cache_inventory():
    assert library_caches() == KEPT_CACHES
