"""Tests for the brute-force oracle."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import InstanceTooLargeError, InvalidArgumentError, oracle
from treeconn.connectivity import kappa_bipartite
from treeconn.core import BipartiteOrder, normalize, verify_family
from treeconn.packing import target_tree_count
from treeconn.oracle import (
    SmallGraph,
    TreeSetResult,
    bipartite_terminal_vertices,
    complete_bipartite,
    oracle_kappa_k,
    oracle_max_tree_set,
    oracle_spanning_packing,
    _Candidate,
    _candidate_layers,
    _candidates,
    _max_disjoint,
    _spanning_packing,
    _spanning_trees,
    _terminal_tree_candidates,
)


def complete_graph(n: int) -> SmallGraph:
    """K_n on vertices 0..n-1."""
    return SmallGraph(n, tuple(combinations(range(n), 2)))


def kappa_complete(n: int, k: int) -> int:
    """k-connectivity of the complete graph on n vertices: n - ceil(k/2)."""
    if not 2 <= k <= n:
        raise InvalidArgumentError(f"k={k} outside [2, {n}]")
    return n - (k + 1) // 2


def _assert_valid_tree_set(graph: SmallGraph, terminals: frozenset[int], trees) -> None:
    """Independent sanity check of a returned packing."""
    adjacency = {e for e in graph.edges}
    seen_edges: set[tuple[int, int]] = set()
    vertex_sets = []
    for tree in trees:
        assert set(tree) <= adjacency
        assert not seen_edges & set(tree)
        seen_edges |= set(tree)
        vertices = {v for e in tree for v in e}
        assert terminals <= vertices
        assert len(tree) == len(vertices) - 1
        # connectivity by flood fill
        adj: dict[int, list[int]] = {}
        for u, v in tree:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        stack = [next(iter(vertices))]
        reached = set(stack)
        while stack:
            for w in adj.get(stack.pop(), []):
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        assert reached == vertices
        vertex_sets.append(vertices)
    for p1 in range(len(vertex_sets)):
        for p2 in range(p1 + 1, len(vertex_sets)):
            assert vertex_sets[p1] & vertex_sets[p2] == terminals


class TestMaxTreeSet:
    def test_two_terminals_same_side(self):
        graph = complete_bipartite(2, 2)
        result = oracle_max_tree_set(graph, frozenset({0, 1}))
        assert result.count == 2
        _assert_valid_tree_set(graph, frozenset({0, 1}), result.trees)

    def test_three_by_three_mixed(self):
        graph = complete_bipartite(3, 3)
        terminals = bipartite_terminal_vertices(3, 3, 3, 1)
        result = oracle_max_tree_set(graph, terminals)
        assert result.count == 2
        _assert_valid_tree_set(graph, terminals, result.trees)

    def test_degree_bound_is_tight(self):
        # y1 has degree 2 in K_{2,3}, capping the answer at 2
        graph = complete_bipartite(2, 3)
        result = oracle_max_tree_set(graph, bipartite_terminal_vertices(2, 3, 3, 1))
        assert result.count == 2

    def test_deterministic(self):
        graph = complete_bipartite(3, 3)
        terminals = bipartite_terminal_vertices(3, 3, 4, 2)
        first = oracle_max_tree_set(graph, terminals)
        second = oracle_max_tree_set(graph, terminals)
        assert first == second

    def test_guard(self):
        with pytest.raises(InstanceTooLargeError):
            oracle_max_tree_set(complete_bipartite(5, 6), frozenset({0, 1}))

    def test_needs_two_terminals(self):
        with pytest.raises(InvalidArgumentError):
            oracle_max_tree_set(complete_bipartite(2, 2), frozenset({0}))

    def test_needs_connected_graph(self):
        with pytest.raises(InvalidArgumentError):
            oracle_max_tree_set(SmallGraph(4, ((0, 1), (2, 3))), frozenset({0, 1}))


class TestSpanningPacking:
    @pytest.mark.parametrize("a,b,expected", [(2, 2, 1), (3, 4, 2), (2, 5, 1), (4, 4, 2)])
    def test_values(self, a, b, expected):
        assert oracle_spanning_packing(a, b) == expected

    def test_guard(self):
        with pytest.raises(InstanceTooLargeError):
            oracle_spanning_packing(20, 21)

    def test_star_has_one_tree(self):
        assert oracle_spanning_packing(1, 20) == 1


def _connected_graph(data, max_n: int) -> SmallGraph:
    """A hypothesis-drawn connected graph: a random spanning tree plus any edges."""
    n = data.draw(st.integers(min_value=2, max_value=max_n), label="n")
    edges = {
        (data.draw(st.integers(min_value=0, max_value=v - 1), label=f"parent{v}"), v)
        for v in range(1, n)
    }
    pairs = list(combinations(range(n), 2))
    edges |= set(data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return SmallGraph(n, tuple(edges))


class TestMatroidPartition:
    """The packing oracle's matroid partition against the exhaustive search,
    and its trees against the certificate verifier."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_connected_graphs(self, data):
        graph = _connected_graph(data, 6)
        everything = frozenset(range(graph.n))
        result = _spanning_packing(graph)
        assert result.count == oracle_max_tree_set(graph, everything).count
        _assert_valid_tree_set(graph, everything, result.trees)

    def test_edge_bound_not_attained(self):
        # K_5 plus a pendant vertex: 11 edges on 6 vertices bound the count
        # by 2, but the pendant edge can serve only one tree.
        graph = SmallGraph(6, complete_graph(5).edges + ((4, 5),))
        assert len(graph.edges) // (graph.n - 1) == 2
        result = _spanning_packing(graph)
        assert result.count == 1
        assert oracle_max_tree_set(graph, range(6)).count == 1
        _assert_valid_tree_set(graph, frozenset(range(6)), result.trees)

    @pytest.mark.parametrize("b", range(1, 9))
    def test_trees_verify_as_packings(self, b):
        for a in range(1, b + 1):
            result = _spanning_packing(complete_bipartite(a, b))
            assert result.count == target_tree_count(a, b)
            # x_j is vertex j-1 and y_j is a+j-1: back to 1-based (x, y) pairs
            trees = [[(x + 1, y - a + 1) for x, y in tree] for tree in result.trees]
            report = verify_family(BipartiteOrder(a, b), trees, a, b, target_tree_count(a, b))
            assert report.ok, (a, b, report)


class TestKappaOracle:
    @pytest.mark.parametrize("a,b,k,expected", [(2, 2, 2, 2), (3, 3, 3, 2), (3, 3, 6, 1)])
    def test_values(self, a, b, k, expected):
        assert oracle_kappa_k(a, b, k) == expected

    def test_guard(self):
        with pytest.raises(InstanceTooLargeError):
            oracle_kappa_k(4, 5, 3)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidArgumentError):
            oracle_kappa_k(3, 3, 1)

    @pytest.mark.parametrize("k", [0, 1, 10])
    def test_bad_k_is_reported_before_the_guard(self, k):
        with pytest.raises(InvalidArgumentError, match=f"k={k} outside"):
            oracle_kappa_k(4, 5, k)

    def test_equals_minimum_of_full_searches(self):
        # every profile searched in full, in both orientations
        for total in range(2, 9):
            for a in range(1, total):
                b = total - a
                graph = complete_bipartite(a, b)
                for k in range(2, total + 1):
                    full = min(
                        oracle_max_tree_set(graph, bipartite_terminal_vertices(a, b, k, i)).count
                        for i in range(max(0, k - b), min(a, k) + 1)
                    )
                    assert oracle_kappa_k(a, b, k) == full, (a, b, k)

    def test_spanning_case_agrees_with_packing_oracle(self):
        # where both guards allow the instance; k = a + b goes through the
        # partition too, so the exhaustive search is the independent side
        for a, b in [(1, 5), (2, 2), (2, 3), (2, 4), (2, 6), (3, 3), (3, 5), (4, 4)]:
            value = oracle_kappa_k(a, b, a + b)
            assert value == oracle_spanning_packing(a, b)
            exhaustive = oracle_max_tree_set(complete_bipartite(a, b), range(a + b)).count
            assert value == exhaustive, (a, b)

    def test_all_terminals_enumerates_nothing(self, monkeypatch):
        def boom(*args):
            raise AssertionError("k = a + b must not enumerate or search")

        sizes = [(a, total - a) for total in range(2, 9) for a in range(1, total)]
        expected = {
            (a, b): oracle_max_tree_set(complete_bipartite(a, b), range(a + b)).count
            for a, b in sizes
        }
        monkeypatch.setattr(oracle, "_spanning_trees", boom)
        monkeypatch.setattr(oracle, "_max_disjoint", boom)
        for a, b in sizes:
            assert oracle_kappa_k(a, b, a + b) == expected[a, b], (a, b)
        with pytest.raises(InstanceTooLargeError):  # the guard still comes first
            oracle_kappa_k(4, 5, 9)


def _counting_spanning_trees(monkeypatch) -> list[int]:
    """Patch ``_spanning_trees`` to record each call's tree count."""
    counts: list[int] = []
    original = oracle._spanning_trees

    def counted(*args):
        trees = original(*args)
        counts.append(len(trees))
        return trees

    monkeypatch.setattr(oracle, "_spanning_trees", counted)
    return counts


class TestEnumerationMemo:
    def test_one_enumeration_per_spare_count_pair(self, monkeypatch):
        a, b, k, i = 4, 4, 4, 2
        graph = complete_bipartite(a, b)
        terminals = bipartite_terminal_vertices(a, b, k, i)
        x_spares = [v for v in range(a) if v not in terminals]
        y_spares = [v for v in range(a, a + b) if v not in terminals]
        # (X spares, Y spares) counts whose induced graph has enough edges
        distinct = {
            (sx, sy)
            for sx in range(len(x_spares) + 1)
            for sy in range(len(y_spares) + 1)
            if (i + sx) * (k - i + sy) >= k + sx + sy - 1
        }
        assert len(distinct) == 9
        counts = _counting_spanning_trees(monkeypatch)
        first = [c.edges for layer in _candidate_layers(graph, terminals) for c in layer]
        assert len(counts) == len(distinct)
        second = [c.edges for layer in _candidate_layers(graph, terminals) for c in layer]
        assert len(counts) == 2 * len(distinct)  # nothing survives the first call
        assert second == first

    def test_oracle_guard_round_enumerates_less(self, monkeypatch):
        # the 49 kappa_k instances of one oracle-guard round
        counts = _counting_spanning_trees(monkeypatch)
        for a in range(1, 8):
            for k in range(2, 9):
                assert oracle_kappa_k(a, 8 - a, k) == kappa_bipartite(normalize(a, 8 - a), k)
        assert len(counts) <= 295
        assert sum(counts) <= 14_269


class TestSmallGraph:
    def test_normalizes_edges(self):
        graph = SmallGraph(3, ((1, 0), (0, 1), (2, 0)))
        assert graph.edges == ((0, 1), (0, 2))

    def test_rejects_self_loops_and_range(self):
        with pytest.raises(InvalidArgumentError):
            SmallGraph(3, ((0, 0),))
        with pytest.raises(InvalidArgumentError):
            SmallGraph(3, ((0, 3),))

    def test_complete_graph_edge_count(self):
        assert len(complete_graph(6).edges) == 15


class TestKappaComplete:
    def test_pairwise_connectivity(self):
        assert kappa_complete(4, 2) == 3

    def test_three_terminals_on_six(self):
        assert kappa_complete(6, 3) == 4
        oracle = oracle_max_tree_set(complete_graph(6), frozenset({0, 1, 2}))
        assert oracle.count == 4

    def test_spanning_case_on_five(self):
        assert kappa_complete(5, 5) == 2
        oracle = oracle_max_tree_set(complete_graph(5), frozenset(range(5)))
        assert oracle.count == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            kappa_complete(4, 1)
        with pytest.raises(InvalidArgumentError):
            kappa_complete(4, 5)


# --- Exactness of the pruned enumeration and search -----------------------
#
# The reference below enumerates every spanning tree of every induced
# subgraph and then discards the trees with a spare leaf, and its search
# filters each child's candidate list before checking any bound.  The
# pruned oracle must return exactly what it returns.


def _reference_spanning_trees(n, edges):
    m = len(edges)
    out = []
    chosen = []

    def find(parent, v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def still_connectable(parent, idx, comps):
        trial = parent.copy()
        for j in range(idx, m):
            u, v = edges[j]
            ru, rv = find(trial, u), find(trial, v)
            if ru != rv:
                trial[ru] = rv
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(idx, parent, comps):
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
            chosen.append(idx)
            rec(idx + 1, merged, comps - 1)
            chosen.pop()
        if still_connectable(parent, idx + 1, comps):
            rec(idx + 1, parent, comps)

    rec(0, list(range(n)), n)
    return out


def _reference_candidates(graph, terminals):
    edge_index = {e: idx for idx, e in enumerate(graph.edges)}
    spares = [v for v in range(graph.n) if v not in terminals]
    base = sorted(terminals)
    out = []
    for size in range(len(spares) + 1):
        for extra_combo in combinations(spares, size):
            vertices = base + list(extra_combo)
            local = {v: idx for idx, v in enumerate(vertices)}
            sub_edges = [
                (local[u], local[v]) for u, v in graph.edges if u in local and v in local
            ]
            if len(sub_edges) < len(vertices) - 1:
                continue
            extra_mask = sum(1 << v for v in extra_combo)
            for tree in _reference_spanning_trees(len(vertices), sub_edges):
                degree = [0] * len(vertices)
                for idx in tree:
                    u, v = sub_edges[idx]
                    degree[u] += 1
                    degree[v] += 1
                if any(degree[local[v]] < 2 for v in extra_combo):
                    continue
                real = tuple(
                    sorted(
                        (vertices[sub_edges[idx][0]], vertices[sub_edges[idx][1]])
                        for idx in tree
                    )
                )
                out.append(
                    _Candidate(
                        edge_mask=sum(1 << edge_index[e] for e in real),
                        extra_mask=extra_mask,
                        edges=real,
                    )
                )
    return out


def _reference_max_disjoint(candidates, k, edge_count, terminal_masks):
    candidates = sorted(candidates, key=lambda c: (len(c.edges), c.edges))
    root_bound = min(
        len(candidates),
        edge_count // (k - 1),
        min(mask.bit_count() for mask in terminal_masks),
    )
    best_count = 0
    best = ()
    chosen = []
    done = False

    def dfs(avail, used_edges):
        nonlocal best_count, best, done
        if len(chosen) > best_count:
            best_count = len(chosen)
            best = tuple(c.edges for c in chosen)
            if best_count >= root_bound:
                done = True
                return
        free = edge_count - used_edges.bit_count()
        tightest = min((mask & ~used_edges).bit_count() for mask in terminal_masks)
        if len(chosen) + min(len(avail), free // (k - 1), tightest) <= best_count:
            return
        for pos, cand in enumerate(avail):
            if len(chosen) + len(avail) - pos <= best_count:
                return
            rest = [
                c
                for c in avail[pos + 1 :]
                if not (c.edge_mask & cand.edge_mask) and not (c.extra_mask & cand.extra_mask)
            ]
            chosen.append(cand)
            dfs(rest, used_edges | cand.edge_mask)
            chosen.pop()
            if done:
                return

    dfs(candidates, 0)
    return TreeSetResult(count=best_count, trees=best)


def _candidate_order(candidates):
    return sorted(candidates, key=lambda c: (len(c.edges), c.edges))


def _terminal_masks(graph, terminals):
    return [
        sum(1 << idx for idx, e in enumerate(graph.edges) if s in e) for s in sorted(terminals)
    ]


def _assert_matches_reference(graph, terminals):
    expected = _reference_candidates(graph, terminals)
    actual = _terminal_tree_candidates(graph, terminals)
    assert len(actual) == len(expected)
    assert _candidate_order(actual) == _candidate_order(expected)
    reference = _reference_max_disjoint(
        expected, len(terminals), len(graph.edges), _terminal_masks(graph, terminals)
    )
    assert oracle_max_tree_set(graph, terminals) == reference


class TestPrunedOracleIsExact:
    def test_every_profile_up_to_eight_vertices(self):
        for total in range(2, 9):
            for a in range(1, total // 2 + 1):
                b = total - a
                graph = complete_bipartite(a, b)
                for k in range(2, total + 1):
                    for i in range(max(0, k - b), min(a, k) + 1):
                        _assert_matches_reference(
                            graph, bipartite_terminal_vertices(a, b, k, i)
                        )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_graphs(self, n):
        graph = complete_graph(n)
        for size in range(2, n + 1):
            _assert_matches_reference(graph, frozenset(range(size)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_connected_graphs(self, data):
        graph = _connected_graph(data, 7)
        terminals = data.draw(
            st.lists(st.integers(min_value=0, max_value=graph.n - 1), min_size=2, unique=True),
            label="terminals",
        )
        _assert_matches_reference(graph, frozenset(terminals))

    @pytest.mark.parametrize("a,b", [(1, 5), (2, 3), (2, 5), (3, 3), (3, 4), (2, 8), (4, 4)])
    def test_spanning_packing_path(self, a, b):
        graph = complete_bipartite(a, b)
        edge_list = list(graph.edges)
        trees = _reference_spanning_trees(graph.n, edge_list)
        assert _spanning_trees(graph.n, edge_list, ()) == trees
        expected = [
            _Candidate(
                edge_mask=sum(1 << idx for idx in tree),
                extra_mask=0,
                edges=tuple(sorted(edge_list[idx] for idx in tree)),
            )
            for tree in trees
        ]
        bits = [1 << idx for idx in range(len(edge_list))]
        assert _candidates(trees, edge_list, bits, 0) == expected
        masks = _terminal_masks(graph, range(graph.n))
        reference = _reference_max_disjoint(expected, graph.n, len(edge_list), masks)
        assert _max_disjoint(expected, graph.n, len(edge_list), masks) == reference
        assert oracle_spanning_packing(a, b) == reference.count


class TestSearchCeiling:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_ceiling_caps_the_count(self, data):
        graph = _connected_graph(data, 6)
        terminals = frozenset(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=graph.n - 1), min_size=2, unique=True),
                label="terminals",
            )
        )
        ceiling = data.draw(st.integers(min_value=1, max_value=6), label="ceiling")
        candidates = _terminal_tree_candidates(graph, terminals)
        masks = _terminal_masks(graph, terminals)
        edge_count = len(graph.edges)
        full = _max_disjoint(candidates, len(terminals), edge_count, masks)
        capped = _max_disjoint(candidates, len(terminals), edge_count, masks, ceiling)
        assert capped.count == min(full.count, ceiling)
        assert len(capped.trees) == capped.count
        _assert_valid_tree_set(graph, terminals, capped.trees)


class TestTerminalArgument:
    def test_list_of_terminals_is_accepted(self):
        graph = complete_bipartite(2, 2)
        assert oracle_max_tree_set(graph, [0, 1]) == oracle_max_tree_set(
            graph, frozenset({0, 1})
        )

    def test_repeated_terminal_counts_once(self):
        with pytest.raises(InvalidArgumentError, match="need at least two terminals"):
            oracle_max_tree_set(complete_bipartite(2, 2), [0, 0])
