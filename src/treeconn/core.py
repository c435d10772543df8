"""Basic types for complete bipartite graphs and their tree certificates.

The host graph is always a complete bipartite graph with parts X (size a)
and Y (size b), so it is never materialized: an edge is just a pair
(x-index, y-index) and membership is a range check.  All indices are
1-based on the public surface, so emitted certificates read like the
usual x_1..x_a / y_1..y_b labels.

The package's records, here and in the other modules, are immutable
NamedTuples: they compare, order and hash as the tuples of their fields,
and a field cannot be reassigned.  Every command builds the classes at
start-up, and a NamedTuple class costs a fraction of a dataclass.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence


class TreeconnError(Exception):
    """Base class for errors raised by this package."""


class InvalidArgumentError(TreeconnError, ValueError):
    """An argument is out of its documented domain."""


class InvalidTerminalSetError(InvalidArgumentError):
    """The requested (k, i) profile does not describe a terminal set."""


class NotConstructibleError(TreeconnError):
    """A requested certificate cannot be built from the given data."""


class ConstructionBugError(TreeconnError):
    """An internal guarantee of a construction failed; this is a bug."""


class InstanceTooLargeError(TreeconnError):
    """A brute-force guard was exceeded."""


class Side(str, Enum):
    """Which part of the bipartition a vertex belongs to."""

    X = "X"
    Y = "Y"


class Vertex(NamedTuple):
    """A vertex of the host graph, addressed as (side, 1-based index)."""

    side: Side
    index: int

    def __str__(self) -> str:
        return f"{self.side.value.lower()}{self.index}"


def xv(index: int) -> Vertex:
    """Vertex x_index."""
    return Vertex(Side.X, index)


def yv(index: int) -> Vertex:
    """Vertex y_index."""
    return Vertex(Side.Y, index)


class _BipartiteOrder(NamedTuple):
    a: int
    b: int
    swapped: bool = False


class BipartiteOrder(_BipartiteOrder):
    """Normalized part sizes of the host graph, with a <= b.

    ``swapped`` records that the caller named the larger part first, so
    emitters must swap side labels back when printing certificates.
    """

    # A NamedTuple body cannot define __new__, so the check lives in this subclass.
    __slots__ = ()

    def __new__(cls, a: int, b: int, swapped: bool = False) -> BipartiteOrder:
        if a < 1 or b < 1:
            raise InvalidArgumentError(f"part sizes must be positive, got ({a}, {b})")
        if a > b:
            raise InvalidArgumentError(f"expected a <= b, got ({a}, {b}); use normalize()")
        return super().__new__(cls, a, b, swapped)


def normalize(a_raw: int, b_raw: int) -> BipartiteOrder:
    """Order the two part sizes so a <= b, remembering whether they swapped.

    Downstream constructions all assume the normalized orientation; the
    ``swapped`` flag only affects how labels are printed, never values.
    """
    if a_raw < 1 or b_raw < 1:
        raise InvalidArgumentError(f"part sizes must be positive, got ({a_raw}, {b_raw})")
    if a_raw <= b_raw:
        return BipartiteOrder(a_raw, b_raw, swapped=False)
    return BipartiteOrder(b_raw, a_raw, swapped=True)


class Tree(NamedTuple):
    """An edge list over (x-index, y-index) pairs.

    The type itself stores whatever it is given; ``verify_family`` judges
    whether the edges are in range, acyclic, connected and cover what they
    must, so that invalid data (e.g. parsed from a corrupted certificate
    file) can be diagnosed rather than rejected at construction time.
    """

    edges: tuple[tuple[int, int], ...]


def transposed(edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Every edge (x, y) as (y, x), in the same order: the edge list in
    the labeling that exchanges the two parts."""
    return tuple(zip(map(itemgetter(1), edges), map(itemgetter(0), edges)))


def check_profile(a: int, b: int, k: int, i: int) -> None:
    """Raise unless 2 <= k <= a + b and max(0, k - b) <= i <= min(a, k).

    A valid (k, i) names S_i = {x_1..x_i} + {y_1..y_{k-i}}, to which every
    k-subset of the host is equivalent.  The sizes may come in either
    order; the i message names them as given.
    """
    if not 2 <= k <= a + b:
        raise InvalidTerminalSetError(f"k={k} outside [2, {a + b}]")
    lo, hi = max(0, k - b), min(a, k)
    if not lo <= i <= hi:
        raise InvalidTerminalSetError(f"i={i} outside [{lo}, {hi}] for k={k} on {a}x{b}")


def terminal_range(order: BipartiteOrder, k: int) -> range:
    """All valid i for the given k, smallest first."""
    if not 2 <= k <= order.a + order.b:
        raise InvalidArgumentError(f"k={k} outside [2, {order.a + order.b}]")
    return range(max(0, k - order.b), min(order.a, k) + 1)


class Violation(NamedTuple):
    """One named defect found by a verifier."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


class ValidationReport(NamedTuple):
    """Outcome of a structural check; an empty violation list means valid."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_kind(self) -> str | None:
        return self.violations[0].kind if self.violations else None

    def __bool__(self) -> bool:
        return self.ok


def _report(kind: str, detail: str) -> ValidationReport:
    return ValidationReport((Violation(kind, detail),))


def _vertex_id(order: BipartiteOrder, v: Vertex) -> int | None:
    """Union-find id of a vertex (x_s is s, y_s is a + s); None off the host."""
    if v.side is Side.X:
        return v.index if 1 <= v.index <= order.a else None
    return order.a + v.index if 1 <= v.index <= order.b else None


def _grow_tree(
    order: BipartiteOrder, edges: Sequence[tuple[int, int]]
) -> tuple[Violation | None, dict[int, int]]:
    """Union-find over one edge list, with x_s as s and y_t as a + t.

    Returns the first ``out-of-range``, ``cycle`` or ``disconnected``
    defect (checked in that order; a repeated edge closes a cycle) and the
    union-find's parent map, whose keys are exactly the tree's vertices.
    """
    a, b = order.a, order.b
    for x, y in edges:
        if not 1 <= x <= a or not 1 <= y <= b:
            return Violation("out-of-range", f"edge (x{x}, y{y}) outside {a}x{b}"), {}

    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in edges:
        w = a + y
        parent.setdefault(x, x)
        parent.setdefault(w, w)
        rx, ry = find(x), find(w)
        if rx == ry:
            return Violation("cycle", f"edge (x{x}, y{y}) closes a cycle"), parent
        parent[rx] = ry

    # An acyclic edge set on V vertices has V - |E| components.
    if edges and len(parent) != len(edges) + 1:
        return Violation("disconnected", "edge set splits into several components"), parent
    return None, parent


def _uncovered(
    order: BipartiteOrder,
    parent: dict[int, int],
    x_terminals: int,
    y_terminals: int,
    extras: Iterable[Vertex],
) -> Violation | None:
    """``missing-terminal`` for the smallest required vertex a tree lacks.

    Required are x_1..x_{x_terminals}, y_1..y_{y_terminals} and ``extras``.
    Each side's scan stops at its first gap, which lies within
    len(parent) + 1 steps, so a header claiming a huge host costs nothing.
    """
    missing = [v for v in extras if _vertex_id(order, v) not in parent]
    for side, count, offset in ((Side.X, x_terminals, 0), (Side.Y, y_terminals, order.a)):
        gap = next((s for s in range(1, count + 1) if offset + s not in parent), None)
        if gap is not None:
            missing.append(Vertex(side, gap))
    if not missing:
        return None
    if not parent:
        return Violation("missing-terminal", "tree has no edges")
    return Violation("missing-terminal", f"{min(missing)} not covered")


def verify_family(
    order: BipartiteOrder,
    trees: Sequence[Sequence[tuple[int, int]]],
    x_terminals: int,
    y_terminals: int,
    target: int,
    hubs: Sequence[Iterable[Vertex]] | None = None,
    classes: Sequence[str | None] | None = None,
) -> ValidationReport:
    """Check, in one pass, a maximum family of internally disjoint trees.

    The trees must connect S = {x_1..x_{x_terminals}} + {y_1..y_{y_terminals}}
    (all a + b vertices for a spanning-tree packing), share no edge, and
    meet only in S.  Violations are data, not exceptions; only the first
    is reported.  Each tree in turn must lie in the host
    (``out-of-range``), be acyclic, a repeated edge counting as a cycle
    (``cycle``), be connected (``disconnected``) and contain S and its
    entry of ``hubs``, the declared hub vertices (``missing-terminal``).
    Once every tree is sound, each declared class "A<j>" in ``classes``
    (``None`` declares nothing) must count the tree's vertices outside S,
    E + 1 - |S| for a tree of E edges (``class-mismatch``).  Across trees
    every edge, and every vertex outside S, has one owner: the first tree
    that used it.  The lexicographically smallest pair of trees that share
    anything is reported, as ``vertex-overlap`` with the smallest shared
    vertex outside S, or else ``edge-overlap`` with the smallest shared
    edge.  A sound family of fewer than ``target`` trees is
    ``not-maximum``.  Checks win in the order given here.  Work is linear
    in the number of edges given.
    """
    a = order.a
    terminal_count = x_terminals + y_terminals
    edge_owner: dict[tuple[int, int], int] = {}
    vertex_owner: dict[int, int] = {}
    # (first tree, second tree, 0 for a vertex or 1 for an edge, culprit)
    clash: tuple | None = None
    for index, edges in enumerate(trees):
        defect, parent = _grow_tree(order, edges)
        if defect is None:
            extras = hubs[index] if hubs is not None else ()
            defect = _uncovered(order, parent, x_terminals, y_terminals, extras)
        if defect is not None:
            return ValidationReport((defect,))
        for edge in edges:
            owner = edge_owner.setdefault(edge, index)
            if owner != index and (clash is None or (owner, index, 1, edge) < clash):
                clash = (owner, index, 1, edge)
        if len(parent) > terminal_count:  # the tree has vertices outside S
            for v in parent:
                if v <= x_terminals or a < v <= a + y_terminals:
                    continue
                owner = vertex_owner.setdefault(v, index)
                if owner != index and (clash is None or (owner, index, 0, v) < clash):
                    clash = (owner, index, 0, v)

    for index, (edges, declared) in enumerate(zip(trees, classes or ())):
        spares = len(edges) + 1 - terminal_count
        if declared is not None and declared != f"A{spares}":
            detail = f"tree {index} is declared {declared} but has {spares} vertices outside S"
            return _report("class-mismatch", detail)
    if clash is not None:
        first, second, rank, culprit = clash
        if rank == 0:
            vertex = xv(culprit) if culprit <= a else yv(culprit - a)
            return _report("vertex-overlap", f"trees {first} and {second} share {vertex}")
        x, y = culprit
        return _report("edge-overlap", f"trees {first} and {second} share edge (x{x}, y{y})")
    if len(trees) < target:
        return _report("not-maximum", f"{len(trees)} trees, the maximum is {target}")
    return ValidationReport()
