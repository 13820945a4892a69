"""Source-problem answers computed without the game solvers.

Each reduction generator in ``recountgame.generators`` maps a classic
problem to a recount game whose answer must equal the source answer.  The
functions here decide the source problems directly, by bitmask enumeration
over the (small) inputs the benchmark generates, so a wrong solver verdict
cannot hide behind a matching wrong oracle.
"""

from __future__ import annotations


def _subset_sums(values):
    """Sum of every subset, indexed by its bitmask over ``values``."""
    sums = [0] * (1 << len(values))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def zero_subset_exists(values) -> bool:
    """Subset sum: does some non-empty subset of ``values`` sum to zero?"""
    return 0 in _subset_sums(list(values))[1:]


def equal_split_exists(values) -> bool:
    """Partition: can ``values`` be split into two parts of equal sum?"""
    values = list(values)
    total = sum(values)
    return total % 2 == 0 and total // 2 in _subset_sums(values)


def exact_cover_exists(elements, sets) -> bool:
    """Exact cover by 3-sets: do some of ``sets`` cover each element once?"""
    bit = {e: 1 << i for i, e in enumerate(sorted(set(elements)))}
    full = (1 << len(bit)) - 1
    masks = [sum(bit[e] for e in s) for s in sets]
    reachable = {0}
    for mask in masks:
        reachable |= {r | mask for r in reachable if not r & mask}
    return full in reachable


def independent_set_exists(num_nodes, edges, size) -> bool:
    """Independent set: is there a set of ``size`` pairwise non-adjacent nodes?"""
    adjacent = [0] * num_nodes
    for u, v in edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    for mask in range(1 << num_nodes):
        if bin(mask).count("1") != size:
            continue
        if all(not adjacent[u] & mask for u in range(num_nodes) if mask >> u & 1):
            return True
    return False
