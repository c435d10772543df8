"""Tests for witness construction and verification."""

import pytest

from treeconn import (
    ConstructionBugError,
    InvalidArgumentError,
    build_witness,
    kappa_bipartite,
    normalize,
    verify_witness,
)
from treeconn.connectivity import kappa_terminal
from treeconn.core import Side, Tree, terminal_range, xv, yv
from treeconn.oracle import bipartite_terminal_vertices, complete_bipartite, oracle_max_tree_set
import treeconn.witness as witness_module
from treeconn.witness import (
    ClassifiedTree,
    SteinerWitness,
    TreeClass,
    build_a2_trees,
    build_internal_trees,
)


def _terminals(k: int, i: int) -> set:
    """The vertices of S_i: x_1..x_i and y_1..y_{k-i}."""
    return {xv(s) for s in range(1, i + 1)} | {yv(t) for t in range(1, k - i + 1)}


class TestTwoHubTrees:
    def test_single_pair(self):
        order = normalize(2, 3)
        trees = build_a2_trees(order, 3, 1, 1)
        assert len(trees) == 1
        assert trees[0].klass is TreeClass.A2
        assert trees[0].extras == frozenset({xv(2), yv(3)})
        assert set(trees[0].tree.edges) == {(2, 1), (2, 2), (1, 3), (2, 3)}

    def test_zero_count(self):
        order = normalize(2, 3)
        assert build_a2_trees(order, 3, 1, 0) == ()

    def test_edge_count_is_k_plus_one(self):
        order = normalize(3, 4)
        trees = build_a2_trees(order, 5, 2, 1)
        assert len(trees[0].tree.edges) == 6

    def test_rejects_excess_demand(self):
        order = normalize(2, 3)
        with pytest.raises(InvalidArgumentError):
            build_a2_trees(order, 3, 1, 2)


class TestInternalTrees:
    def test_single_terminal_only_tree(self):
        order = normalize(2, 3)
        trees = build_internal_trees(order, 3, 1, p=1, q=0, side=Side.X)
        assert len(trees) == 1
        assert trees[0].klass is TreeClass.A0
        assert set(trees[0].tree.edges) == {(1, 1), (1, 2)}

    def test_terminal_only_tree_spans_terminals(self):
        order = normalize(3, 4)
        trees = build_internal_trees(order, 5, 2, p=1, q=0, side=Side.X)
        assert len(trees[0].tree.edges) == 4
        edges = trees[0].tree.edges
        assert {xv(x) for x, _ in edges} | {yv(y) for _, y in edges} == _terminals(5, 2)

    def test_empty_request(self):
        order = normalize(2, 3)
        assert build_internal_trees(order, 3, 1, 0, 0, Side.X) == ()

    def test_rejects_budget_violation(self):
        order = normalize(3, 3)
        # S_1 with k=3 has an internal budget of 1*2 = 2 < 2*(k-1)
        with pytest.raises(InvalidArgumentError):
            build_internal_trees(order, 3, 1, p=2, q=0, side=Side.X)

    def test_rejects_one_sided_terminals(self):
        order = normalize(2, 3)
        with pytest.raises(InvalidArgumentError):
            build_internal_trees(order, 3, 0, p=1, q=0, side=Side.X)

    def test_one_sided_terminals_get_stars(self):
        # No same-side terminal to attach, so each hub tree is a star.
        order = normalize(3, 4)
        trees = build_internal_trees(order, 4, 0, p=0, q=3, side=Side.X)
        assert [ct.tree.edges for ct in trees] == [((c, 1), (c, 2), (c, 3), (c, 4)) for c in (1, 2, 3)]
        assert [ct.extras for ct in trees] == [frozenset({xv(c)}) for c in (1, 2, 3)]
        assert all(ct.klass is TreeClass.A1 for ct in trees)
        trees = build_internal_trees(order, 3, 3, p=0, q=4, side=Side.Y)
        assert [ct.tree.edges for ct in trees] == [((1, c), (2, c), (3, c)) for c in (1, 2, 3, 4)]
        assert [ct.extras for ct in trees] == [frozenset({yv(c)}) for c in (1, 2, 3, 4)]
        # Y hubs would each need an internal edge per Y terminal: none exist.
        with pytest.raises(InvalidArgumentError):
            build_internal_trees(order, 4, 0, p=0, q=3, side=Side.Y)

    def test_hub_trees_draw_from_ledger(self):
        order = normalize(3, 4)
        # S_1 with k=5: hubs on the X side, each attaching x1 by one internal edge
        trees = build_internal_trees(order, 5, 1, p=0, q=2, side=Side.X)
        assert [t.klass for t in trees] == [TreeClass.A1, TreeClass.A1]
        assert trees[0].extras == frozenset({xv(2)})
        assert trees[1].extras == frozenset({xv(3)})
        assert (1, 1) in trees[0].tree.edges
        assert (1, 2) in trees[1].tree.edges

    def test_overlapping_terminal_only_trees_are_a_bug(self, monkeypatch):
        # K_{4,4} internal graph: room for two disjoint spanning trees, but
        # a broken packer that returns one tree twice must not get through.
        order = normalize(4, 4)
        first = build_internal_trees(order, 8, 4, p=1, q=0, side=Side.X)[0].tree
        monkeypatch.setattr(witness_module, "build_tree", lambda *args: first)
        with pytest.raises(ConstructionBugError, match="share internal edges"):
            build_internal_trees(order, 8, 4, p=2, q=0, side=Side.X)

    def test_terminal_without_free_partners_is_a_bug(self, monkeypatch):
        # S_2 with k=5 on 3x4: one A0 tree and one X hub fit the budget of
        # 6 internal edges, but a lopsided A0 tree leaves x1 no partner.
        order = normalize(3, 4)
        lopsided = Tree(((1, 1), (1, 2), (1, 3), (2, 1)))
        monkeypatch.setattr(witness_module, "build_tree", lambda *args: lopsided)
        with pytest.raises(ConstructionBugError, match="terminal 1 on side X"):
            build_internal_trees(order, 5, 2, p=1, q=1, side=Side.X)


class TestBuildWitness:
    def test_spanning_profile_reduces_to_packing(self):
        order = normalize(3, 3)
        witness = build_witness(order, 6, 3)
        assert [ct.klass for ct in witness.trees] == [TreeClass.A0]

    def test_one_sided_profile_gets_stars(self):
        order = normalize(3, 3)
        witness = build_witness(order, 3, 0)
        assert len(witness.trees) == 3
        assert all(ct.klass is TreeClass.A1 for ct in witness.trees)
        assert [ct.extras for ct in witness.trees] == [
            frozenset({xv(1)}), frozenset({xv(2)}), frozenset({xv(3)}),
        ]

    def test_small_mixed_profile(self):
        order = normalize(2, 3)
        witness = build_witness(order, 3, 1)
        assert len(witness.trees) == 2
        assert sorted(ct.klass.value for ct in witness.trees) == ["A0", "A2"]
        assert verify_witness(order, witness).ok

    def test_three_by_four(self):
        order = normalize(3, 4)
        witness = build_witness(order, 5, 2)
        assert len(witness.trees) == 2
        assert sorted(ct.klass.value for ct in witness.trees) == ["A0", "A2"]


class TestVerifyWitness:
    def test_builder_output_verifies(self):
        order = normalize(2, 3)
        assert verify_witness(order, build_witness(order, 3, 1)).ok

    def test_shared_hub_is_vertex_overlap(self):
        order = normalize(3, 3)
        witness = build_witness(order, 3, 0)
        doubled = SteinerWitness(witness.k, witness.i, (witness.trees[0], witness.trees[0]))
        assert verify_witness(order, doubled).first_kind == "vertex-overlap"

    def test_shared_edge_is_edge_overlap(self):
        order = normalize(2, 2)
        first = ClassifiedTree(Tree(((1, 1), (1, 2), (2, 2))), TreeClass.A0, frozenset())
        second = ClassifiedTree(Tree(((1, 1), (2, 1), (2, 2))), TreeClass.A0, frozenset())
        witness = SteinerWitness(4, 2, (first, second))
        assert verify_witness(order, witness).first_kind == "edge-overlap"

    def test_cycle_is_bad_tree(self):
        order = normalize(2, 2)
        looped = ClassifiedTree(
            Tree(((1, 1), (1, 2), (2, 1), (2, 2))), TreeClass.A0, frozenset()
        )
        witness = SteinerWitness(4, 2, (looped,))
        assert verify_witness(order, witness).first_kind == "bad-tree"

    def test_missing_terminal_is_wrong_terminals(self):
        order = normalize(2, 2)
        stub = ClassifiedTree(Tree(((1, 1),)), TreeClass.A0, frozenset())
        witness = SteinerWitness(4, 2, (stub,))
        assert verify_witness(order, witness).first_kind == "wrong-terminals"

    def test_profile_must_fit_the_host(self):
        order = normalize(2, 2)
        witness = build_witness(normalize(3, 3), 6, 3)
        assert verify_witness(order, witness).first_kind == "wrong-terminals"

    def test_out_of_range_vertices_are_bad_trees(self):
        order = normalize(2, 2)
        witness = build_witness(normalize(3, 3), 3, 1)
        assert verify_witness(order, witness).first_kind == "bad-tree"


class TestWitnessSweep:
    def test_structure_and_counts_up_to_eight(self):
        for b in range(1, 9):
            for a in range(1, b + 1):
                order = normalize(a, b)
                for k in range(2, a + b + 1):
                    for i in terminal_range(order, k):
                        breakdown = kappa_terminal(order, k, i)
                        witness = build_witness(order, k, i)
                        assert verify_witness(order, witness).ok
                        by_class = {"A0": 0, "A1": 0, "A2": 0}
                        hubs = set()
                        hub_sides = set()
                        internal_used = 0
                        terminals = _terminals(witness.k, witness.i)
                        m = k - i
                        for ct in witness.trees:
                            by_class[ct.klass.value] += 1
                            assert not hubs & ct.extras
                            assert not ct.extras & terminals
                            hubs |= ct.extras
                            if ct.klass is TreeClass.A1:
                                hub_sides |= {v.side for v in ct.extras}
                            internal_used += sum(
                                1 for x, y in ct.tree.edges if x <= i and y <= m
                            )
                        assert by_class == {
                            "A0": breakdown.a0, "A1": breakdown.a1, "A2": breakdown.a2,
                        }
                        assert len(hub_sides) <= 1
                        expected_internal = breakdown.a0 * (k - 1)
                        if 0 < i < k:
                            expected_internal += breakdown.a1 * (i if breakdown.a1_side is Side.X else m)
                            assert internal_used == expected_internal
                            assert internal_used <= i * m
                        # unused spare vertices end up on at most one side
                        everything = {xv(s) for s in range(1, a + 1)} | {
                            yv(t) for t in range(1, b + 1)
                        }
                        unused = everything - terminals - hubs
                        assert len({v.side for v in unused}) <= 1

    def test_matches_oracle_on_tiny_hosts(self):
        for total in range(2, 7):
            for a in range(1, total // 2 + 1):
                b = total - a
                order = normalize(a, b)
                graph = complete_bipartite(a, b)
                for k in range(2, total + 1):
                    for i in terminal_range(order, k):
                        exact = oracle_max_tree_set(
                            graph, bipartite_terminal_vertices(a, b, k, i)
                        ).count
                        assert len(build_witness(order, k, i).trees) == exact

    def test_minimum_profile_matches_closed_form(self):
        for b in range(1, 9):
            for a in range(1, b + 1):
                order = normalize(a, b)
                for k in range(2, a + b + 1):
                    sizes = [
                        len(build_witness(order, k, i).trees) for i in terminal_range(order, k)
                    ]
                    assert min(sizes) == kappa_bipartite(order, k)
