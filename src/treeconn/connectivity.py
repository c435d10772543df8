"""Closed-form generalized connectivity of complete bipartite graphs.

kappa(S) for the canonical terminal set S_i decomposes by how many
non-terminal hub vertices each tree uses: a2 trees use one spare vertex
per side, a1 trees use a single hub (all hubs on one side), and a0 trees
live on the terminals alone.  The counts follow from two resources:
spare vertices outside S_i, and the i*(k-i) internal edges (both ends
terminals) that a0 and a1 trees consume.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    BipartiteOrder,
    ConstructionBugError,
    InvalidArgumentError,
    check_profile,
    terminal_range,
)


class KappaBreakdown(NamedTuple):
    """Composition of one maximum set of internally disjoint trees.

    ``a2`` trees use a spare vertex on each side, ``a1`` trees use one
    hub on ``a1_side``, "X" or "Y" (None when a1 = 0), ``a0`` trees use
    terminals only.  ``kappa`` is their sum.
    """

    a2: int
    a1: int
    a1_side: str | None
    a0: int
    kappa: int


def kappa_terminal(order: BipartiteOrder, k: int, i: int) -> KappaBreakdown:
    """kappa(S_i) with its (a2, a1, a0) composition.

    One budget recipe covers every i: pair up spare vertices while both
    sides have them (a2), spend leftover spares as single hubs (a1,
    capped by the internal edges each hub tree needs), and pack the
    remaining internal-edge budget into terminal-only trees (a0).  The
    one-sided profiles i = 0 and i = k degenerate to a (resp. b) star
    trees hubbed on the opposite side.
    """
    a, b = order.a, order.b
    check_profile(a, b, k, i)
    if i == 0:
        return KappaBreakdown(a2=0, a1=a, a1_side="X", a0=0, kappa=a)
    if i == k:
        return KappaBreakdown(a2=0, a1=b, a1_side="Y", a0=0, kappa=b)

    m = k - i
    spare_x = a - i
    spare_y = b - m
    a2 = min(spare_x, spare_y)
    if spare_y >= spare_x:
        side, a1 = "Y", min(spare_y - spare_x, i)
        cost = m
    else:
        side, a1 = "X", min(spare_x - spare_y, m)
        cost = i
    a0 = (i * m - a1 * cost) // (k - 1)
    return KappaBreakdown(
        a2=a2,
        a1=a1,
        a1_side=side if a1 > 0 else None,
        a0=a0,
        kappa=a2 + a1 + a0,
    )


def kappa_bipartite(order: BipartiteOrder, k: int) -> int:
    """The k-connectivity of the a-by-b complete bipartite graph.

    Three branches: k <= b - a + 2 gives a; otherwise the value depends
    on the parity of a - b + k.  At k = a + b this reduces to the
    spanning-tree packing number floor(ab / (a+b-1)).
    """
    a, b = order.a, order.b
    if not 2 <= k <= a + b:
        raise InvalidArgumentError(f"k={k} outside [2, {a + b}]")
    if k <= b - a + 2:
        return a
    d = a - b + k
    if d % 2 == 1:
        return (a + b - k + 1) // 2 + ((d - 1) * (b - a + k - 1)) // (4 * (k - 1))
    return (a + b - k) // 2 + (d * (b - a + k)) // (4 * (k - 1))


def min_terminal_index(order: BipartiteOrder, k: int) -> int:
    """Smallest i whose terminal set attains the k-connectivity.

    Ties occur (for even a - b + k the two central profiles agree), so
    this scans from the smallest valid i rather than returning a formula
    index.
    """
    target = kappa_bipartite(order, k)
    for i in terminal_range(order, k):
        if kappa_terminal(order, k, i).kappa == target:
            return i
    raise ConstructionBugError(f"no terminal set attains kappa for k={k} on {order.a}x{order.b}")
