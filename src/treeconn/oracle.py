"""Ground truth for small instances, independent of the constructions.

Nothing here uses the residue ordering, the degree sequences or the
witness shapes, so the results can be used to validate the closed forms
and constructions.

``oracle_max_tree_set`` and ``oracle_kappa_k`` are exhaustive: trees are
enumerated and packings maximized by depth-first search.  Candidate
trees are restricted to those whose every leaf is a terminal.  This
loses nothing: pruning a non-terminal leaf from any tree keeps the
terminals connected and only shrinks its edge and vertex footprint, so
some maximum packing consists of leaf-pruned trees.

Both stages prune without changing any result.  The enumeration holds
every spare (non-terminal) vertex to degree at least 2 while it
recurses, so a tree with a spare leaf is never built.  The search checks
a child's free-edge and tightest-terminal bounds from its used edges
before it filters the child's compatible candidates, and skips a child
that cannot beat the best packing found so far.

The enumeration runs once per local graph.  Spare sets of one size that
induce the same subgraph, in local labels, share one list of trees: the
trees depend only on that subgraph, and each set maps them to its own
host edges.  On K_{a,b} that is one enumeration per count of X and Y
spares.  The list lives for one call; nothing is kept between calls.

``oracle_kappa_k`` needs each profile's count only up to the smallest
count so far, so it builds a profile's candidates one spare-count layer
at a time (0 spares, then 1, ...) and searches what it has built after
each layer, stopping at that ceiling.  A packing among some candidates
is a real packing, so a lower bound on the count; a count that reaches
the ceiling cannot move the minimum; and the last layer makes the full
search, so the minimum stays exact.  At k = a + b every vertex is a
terminal: no tree has a spare vertex, so any two trees meet only in S,
and the count is the maximum number of edge-disjoint spanning trees,
which the matroid partition below finds without enumerating a tree.
The vertex guard still comes first.

``oracle_spanning_packing`` enumerates nothing.  Edge-disjoint spanning
trees are bases of the graphic matroid, so it partitions the edges into
t forests of the largest total size by Edmonds' matroid partition
(Edmonds 1965; Roskind & Tarjan, Math. Oper. Res. 1985), in polynomial
time: t trees exist exactly when the forests reach t(n-1) edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .core import InstanceTooLargeError, InvalidArgumentError

MAX_TREE_SET_VERTICES = 10
MAX_PACKING_EDGE_COUNT = 400
MAX_KAPPA_VERTEX_COUNT = 8


@dataclass(frozen=True)
class SmallGraph:
    """A simple undirected graph on vertices 0..n-1 given by its edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise InvalidArgumentError(f"bad edge ({u}, {v}) on {self.n} vertices")
            seen.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


def complete_bipartite(a: int, b: int) -> SmallGraph:
    """K_{a,b} with the standard labeling: x_j -> j-1, y_j -> a+j-1."""
    if a < 1 or b < 1:
        raise InvalidArgumentError(f"part sizes must be positive, got ({a}, {b})")
    return SmallGraph(a + b, tuple((x, a + y) for x in range(a) for y in range(b)))


def bipartite_terminal_vertices(a: int, b: int, k: int, i: int) -> frozenset[int]:
    """Vertices of the canonical terminal set S_i under the standard labeling."""
    return frozenset(range(i)) | frozenset(range(a, a + (k - i)))


def _spanning_trees(
    n: int, edges: list[tuple[int, int]], spares: Iterable[int]
) -> list[tuple[int, ...]]:
    """Spanning trees of a graph, as increasing tuples of edge indices.

    Include/exclude recursion along the edge list: every tree is emitted
    exactly once, in lexicographic order, and none when the graph is
    disconnected.  The exclude branch is cut as soon as the remaining
    edges can no longer join the two ends of the excluded edge.

    Vertices listed in ``spares`` must end with degree at least 2, and
    only such trees are emitted.  A spare's slack is its chosen plus its
    undecided edges, less 2: the exclude branch is cut when a spare has
    no slack left.  A branch is also cut when the spares' missing degree
    exceeds twice the edges the tree still needs, since each edge adds
    one to the degree of two vertices.
    """
    m = len(edges)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []
    slack = [m] * n  # more than a non-spare vertex can lose
    need = [0] * n  # degree a spare still lacks
    for s in spares:
        slack[s] = sum(s in e for e in edges) - 2
        need[s] = 2
        if slack[s] < 0:
            return out

    def find(parent: list[int], v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def rejoinable(parent: list[int], idx: int, ru: int, rv: int) -> bool:
        """Whether edges idx.. join the components rooted at ru and rv."""
        trial = parent.copy()
        for j in range(idx, m):
            x, y = edges[j]
            rx, ry = find(trial, x), find(trial, y)
            if rx != ry:
                trial[rx] = ry
                if ru == rx:
                    ru = ry
                if rv == rx:
                    rv = ry
                if ru == rv:
                    return True
        return False

    def rec(idx: int, parent: list[int], comps: int, deficit: int) -> None:
        # Invariant: the remaining edges can still join all components, so
        # dropping an edge only needs its own two ends to be rejoined.
        if deficit > 2 * (comps - 1):
            return
        if comps == 1:
            out.append(tuple(chosen))
            return
        if m - idx < comps - 1:
            return
        u, v = edges[idx]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            merged = parent.copy()
            merged[ru] = rv
            need_u, need_v = need[u], need[v]
            if need_u:
                need[u] = need_u - 1
            if need_v:
                need[v] = need_v - 1
            chosen.append(idx)
            rec(idx + 1, merged, comps - 1, deficit - (need_u > 0) - (need_v > 0))
            chosen.pop()
            need[u] = need_u
            need[v] = need_v
        slack_u, slack_v = slack[u], slack[v]
        if slack_u and slack_v:
            slack[u] = slack_u - 1
            slack[v] = slack_v - 1
            if ru == rv or rejoinable(parent, idx + 1, ru, rv):
                rec(idx + 1, parent, comps, deficit)
            slack[u] = slack_u
            slack[v] = slack_v

    parent = list(range(n))
    comps = n
    for u, v in edges:
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    if comps == 1:
        rec(0, list(range(n)), n, sum(need))
    return out


@dataclass(slots=True)
class _Candidate:
    edge_mask: int
    extra_mask: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TreeSetResult:
    """Maximum count plus one maximum packing (trees as sorted edge tuples)."""

    count: int
    trees: tuple[tuple[tuple[int, int], ...], ...]


def _max_disjoint(
    candidates: list[_Candidate],
    k: int,
    edge_count: int,
    terminal_masks: list[int],
    ceiling: int | None = None,
) -> TreeSetResult:
    """Depth-first maximum packing of pairwise compatible candidates.

    Two candidates are compatible when they share no edge and no
    non-terminal vertex.  Pruning: remaining candidate count, free-edge
    budget (every later tree has at least as many edges as the next
    candidate, and at least k-1), and the free degree at the tightest
    terminal (every tree touches every terminal).  A child's edge and
    terminal bounds are checked from its used edges alone, before its
    list of compatible candidates is filtered; a child that would record
    a new best is always entered.  The search stops once the root bound
    is attained, and is a deterministic function of the candidate order.
    A ``ceiling`` of at least 1 caps the root bound, so the count
    returned is the smaller of the maximum and the ceiling.
    """
    candidates = sorted(candidates, key=lambda c: (len(c.edges), c.edges))
    root_bound = min(
        len(candidates),
        edge_count // (k - 1),
        min(mask.bit_count() for mask in terminal_masks),
    )
    if ceiling is not None:
        root_bound = min(root_bound, ceiling)
    best_count = 0
    best: tuple[tuple[tuple[int, int], ...], ...] = ()
    chosen: list[_Candidate] = []
    done = False

    def cap(used_edges: int, tree_edges: int) -> int:
        """Trees of at least ``tree_edges`` edges that still fit by free
        edges and by the tightest terminal."""
        free = edge_count - used_edges.bit_count()
        tightest = min((mask & ~used_edges).bit_count() for mask in terminal_masks)
        return min(free // tree_edges, tightest)

    def dfs(avail: list[_Candidate], used_edges: int, room: int) -> None:
        nonlocal best_count, best, done
        depth = len(chosen)
        if depth > best_count:
            best_count = depth
            best = tuple(c.edges for c in chosen)
            if best_count >= root_bound:
                done = True
                return
        if depth + min(len(avail), room) <= best_count:
            return
        for pos, cand in enumerate(avail):
            if depth + len(avail) - pos <= best_count:
                return
            if pos + 1 == len(avail):
                child_room = 0
            else:
                # avail is sorted by size, so no later tree is smaller than the next
                child_room = cap(used_edges | cand.edge_mask, len(avail[pos + 1].edges))
            if depth + 1 + child_room <= best_count:
                continue
            rest = [
                c
                for c in avail[pos + 1 :]
                if not (c.edge_mask & cand.edge_mask) and not (c.extra_mask & cand.extra_mask)
            ]
            chosen.append(cand)
            dfs(rest, used_edges | cand.edge_mask, child_room)
            chosen.pop()
            if done:
                return

    dfs(candidates, 0, cap(0, k - 1))
    return TreeSetResult(count=best_count, trees=best)


def _candidate_layers(graph: SmallGraph, terminals: frozenset[int]) -> Iterator[list[_Candidate]]:
    """Every subtree connecting the terminals whose leaves are all terminals,
    one layer per spare (non-terminal) vertex count: 0 spares, then 1, and so on.

    For each set of spares, the spanning trees of the induced subgraph
    are enumerated with every spare held to degree at least 2, so no
    tree with a spare leaf is built.  Local edge indices follow the
    order of ``graph.edges``, so a tree's edges map back to the host in
    sorted order.  A tree with s spares has |S| + s - 1 edges, so the
    layers come in increasing tree size.  A layer is built only when the
    caller asks for it.

    Spare sets that induce the same local graph share one enumeration,
    kept for the layer being built: ``_spanning_trees`` is a function of
    the vertex count, the local edges and the spares.  Within a layer the
    vertex count is fixed and the spares are always the last
    len(vertices) - |S| local vertices, so the same local edges give the
    same index tuples, and ``_candidates`` maps them to each set's own
    host edges.
    On K_{a,b}, spare sets with the same numbers of X and Y spares
    induce the same local graph.
    """
    spares = [v for v in range(graph.n) if v not in terminals]
    base = sorted(terminals)
    trees_of: dict[tuple, list[tuple[int, ...]]] = {}  # local edges -> trees
    for size in range(len(spares) + 1):
        layer: list[_Candidate] = []
        for extra_combo in combinations(spares, size):
            vertices = base + list(extra_combo)
            local = {v: idx for idx, v in enumerate(vertices)}
            sub_edges: list[tuple[int, int]] = []
            host_edges: list[tuple[int, int]] = []
            host_bits: list[int] = []
            for idx, (u, v) in enumerate(graph.edges):
                if u in local and v in local:
                    sub_edges.append((local[u], local[v]))
                    host_edges.append((u, v))
                    host_bits.append(1 << idx)
            if len(sub_edges) < len(vertices) - 1:
                continue
            key = tuple(sub_edges)
            if key not in trees_of:
                spare_range = range(len(base), len(vertices))
                trees_of[key] = _spanning_trees(len(vertices), sub_edges, spare_range)
            extra_mask = sum(1 << v for v in extra_combo)
            layer.extend(_candidates(trees_of[key], host_edges, host_bits, extra_mask))
        # no local holds the trees' index tuples while the caller searches
        trees_of.clear()
        yield layer


def _terminal_tree_candidates(graph: SmallGraph, terminals: frozenset[int]) -> list[_Candidate]:
    """Every layer of ``_candidate_layers``, in order, as one list."""
    return [cand for layer in _candidate_layers(graph, terminals) for cand in layer]


def _terminal_masks(graph: SmallGraph, terminals: frozenset[int]) -> list[int]:
    """Per terminal, in increasing order, the mask of its incident edges."""
    return [
        sum(1 << idx for idx, (u, v) in enumerate(graph.edges) if s in (u, v))
        for s in sorted(terminals)
    ]


def _candidates(
    trees: Iterable[tuple[int, ...]],
    host_edges: Sequence[tuple[int, int]],
    host_bits: Sequence[int],
    extra_mask: int,
) -> list[_Candidate]:
    """Trees given by increasing local edge indices, as candidates.

    Local edge j is host edge ``host_edges[j]`` with mask bit ``host_bits[j]``.
    """
    edge_of, bit_of = host_edges.__getitem__, host_bits.__getitem__
    return [_Candidate(sum(map(bit_of, t)), extra_mask, tuple(map(edge_of, t))) for t in trees]


def oracle_max_tree_set(graph: SmallGraph, terminals: Iterable[int]) -> TreeSetResult:
    """Exact maximum set of internally disjoint trees connecting the terminals.

    The trees are pairwise edge-disjoint, each contains every terminal,
    and any two intersect exactly in the terminal set.
    """
    if graph.n > MAX_TREE_SET_VERTICES:
        raise InstanceTooLargeError(f"{graph.n} vertices exceeds guard {MAX_TREE_SET_VERTICES}")
    terminals = frozenset(terminals)
    if len(terminals) < 2:
        raise InvalidArgumentError("need at least two terminals")
    if not terminals <= set(range(graph.n)):
        raise InvalidArgumentError("terminals outside vertex range")
    if not graph.is_connected():
        raise InvalidArgumentError("graph must be connected")
    candidates = _terminal_tree_candidates(graph, terminals)
    terminal_masks = _terminal_masks(graph, terminals)
    return _max_disjoint(candidates, len(terminals), len(graph.edges), terminal_masks)


def _forest_partition(n: int, edges: Sequence[tuple[int, int]], t: int) -> tuple[int, list[int]]:
    """Edmonds' matroid partition of ``edges`` into t disjoint forests.

    Returns the forests' total size and each edge's forest (-1 for
    none).  The size is t(n-1) exactly when t edge-disjoint spanning
    trees exist.  Edges are inserted in order, each by a
    breadth-first search for the shortest augmenting path in the
    exchange graph.  An edge f that would close a cycle in forest i
    labels every unlabelled edge on that cycle's path with f: f may
    replace it in forest i, and it must then move elsewhere.  The search
    ends at an edge that a forest other than its own takes without a
    cycle, and every edge on the path then moves at once; on a shortest
    path the moves keep every forest acyclic.  The forests' union is
    independent in the union matroid and only grows, so an edge that
    finds no path never fits later, and one pass over the edges is
    exact.  The pass stops once the forests hold t(n-1) edges, or once
    the edges left can no longer bring them there.
    """
    m = len(edges)
    owner = [-1] * m
    adjacency = [[{} for _ in range(n)] for _ in range(t)]  # [forest][vertex][neighbour] = edge
    views: list[tuple[list[int], ...] | None] = [None] * t
    goal = t * (n - 1)
    size = 0

    def view(i: int) -> tuple[list[int], ...]:
        """Forest i rooted in each component: (root, parent, parent edge,
        depth) per vertex, rebuilt after the forest changes."""
        rooted = views[i]
        if rooted is None:
            root, up, up_edge, depth = [-1] * n, [0] * n, [0] * n, [0] * n
            near = adjacency[i]
            for s in range(n):
                if root[s] >= 0:
                    continue
                root[s] = s
                stack = [s]
                while stack:
                    x = stack.pop()
                    below = depth[x] + 1
                    for y, g in near[x].items():
                        if root[y] < 0:
                            root[y], up[y], up_edge[y], depth[y] = s, x, g, below
                            stack.append(y)
            rooted = views[i] = (root, up, up_edge, depth)
        return rooted

    for e in range(m):
        if size == goal or size + m - e < goal:
            break
        label = {e: -1}  # edge -> the edge that would take its place
        queue = [e]
        for f in queue:  # grows while it is read: breadth-first
            u, v = edges[f]
            for sink in range(t):
                if owner[f] != sink and _label_cycle(view(sink), u, v, f, label, queue):
                    break
            else:
                continue
            g, into = f, sink
            while g >= 0:
                out = owner[g]
                p, q = edges[g]
                if out >= 0:
                    del adjacency[out][p][q], adjacency[out][q][p]
                    views[out] = None
                adjacency[into][p][q] = adjacency[into][q][p] = g
                views[into] = None
                owner[g] = into
                g, into = label[g], out
            size += 1
            break
    return size, owner


def _label_cycle(
    rooted: tuple[list[int], ...], u: int, v: int, f: int, label: dict[int, int], queue: list[int]
) -> bool:
    """True when the rooted forest takes edge (u, v) without a cycle;
    otherwise label with f, and queue, each unlabelled edge on the
    forest's u-v path."""
    root, up, up_edge, depth = rooted
    if root[u] != root[v]:
        return True
    while u != v:
        if depth[u] < depth[v]:
            u, v = v, u
        g = up_edge[u]
        if g not in label:
            label[g] = f
            queue.append(g)
        u = up[u]
    return False


def _spanning_packing(graph: SmallGraph) -> TreeSetResult:
    """Maximum set of edge-disjoint spanning trees of a graph on n >= 2
    vertices, trees in forest order.  Starts at the edge bound
    m // (n-1) and steps down while the forests fall short of it."""
    tree_edges = graph.n - 1
    t = len(graph.edges) // tree_edges
    while True:
        size, owner = _forest_partition(graph.n, graph.edges, t)
        if size == t * tree_edges:
            break
        t -= 1
    trees = [[] for _ in range(t)]
    for edge, forest in zip(graph.edges, owner):
        if forest >= 0:
            trees[forest].append(edge)
    return TreeSetResult(count=t, trees=tuple(map(tuple, trees)))


def oracle_spanning_packing(a: int, b: int) -> int:
    """Exact maximum number of edge-disjoint spanning trees of K_{a,b},
    by matroid partition (see ``_forest_partition``)."""
    if a < 1 or b < 1:
        raise InvalidArgumentError(f"part sizes must be positive, got ({a}, {b})")
    if a * b > MAX_PACKING_EDGE_COUNT:
        raise InstanceTooLargeError(f"{a * b} edges exceeds guard {MAX_PACKING_EDGE_COUNT}")
    return _spanning_packing(complete_bipartite(a, b)).count


def oracle_kappa_k(a: int, b: int, k: int) -> int:
    """Exact k-connectivity of K_{a,b} by minimizing over canonical terminal sets.

    All X vertices are interchangeable and likewise all Y vertices, so
    the canonical profiles S_i cover every k-subset up to relabeling.

    The profiles are taken in order, keeping ``best``, the smallest count
    so far.  Each profile's candidates are built one spare-count layer at
    a time (see ``_candidate_layers``), and after each non-empty layer
    every candidate built so far is searched, up to a ceiling of
    min(best, edges // (k-1), tightest terminal degree).  The profile is
    finished once the search reaches the ceiling, or after its last
    layer.  The minimum stays exact:

    - a packing among some of the candidates is a real packing, so it is
      a lower bound on the profile's count;
    - the ceiling is at most ``best``, and the edge and degree bounds hold
      for every packing, so the ceiling is below the profile's count only
      where ``best`` is too: stopping there leaves min(best, count) as it is;
    - the last layer makes the full search.

    Within one call, spare sets that induce the same local graph share
    one enumeration; the trees depend only on that graph, so the
    candidates are those of separate enumerations (see
    ``_candidate_layers``).

    At k = a + b every vertex is a terminal, so no tree has a spare
    vertex and any two trees meet exactly in S: the count is the maximum
    number of edge-disjoint spanning trees, which ``_spanning_packing``
    finds by matroid partition without enumerating a tree.  The vertex
    guard still applies first.
    """
    if a < 1 or b < 1:
        raise InvalidArgumentError(f"part sizes must be positive, got ({a}, {b})")
    if not 2 <= k <= a + b:
        raise InvalidArgumentError(f"k={k} outside [2, {a + b}]")
    if a + b > MAX_KAPPA_VERTEX_COUNT:
        raise InstanceTooLargeError(f"{a + b} vertices exceeds guard {MAX_KAPPA_VERTEX_COUNT}")
    graph = complete_bipartite(a, b)
    if k == a + b:
        return _spanning_packing(graph).count
    edge_count = len(graph.edges)
    best = edge_count  # no count exceeds it
    for i in range(max(0, k - b), min(a, k) + 1):
        terminals = bipartite_terminal_vertices(a, b, k, i)
        terminal_masks = _terminal_masks(graph, terminals)
        ceiling = min(
            best, edge_count // (k - 1), min(mask.bit_count() for mask in terminal_masks)
        )
        built: list[_Candidate] = []
        count = 0
        for layer in _candidate_layers(graph, terminals):
            if not layer:
                continue
            built += layer
            count = _max_disjoint(built, k, edge_count, terminal_masks, ceiling).count
            if count >= ceiling:
                break
        best = count  # never above the ceiling, so never above best
    return best
