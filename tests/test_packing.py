"""Tests for the spanning-tree packing construction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeconn import NotConstructibleError, build_packing, normalize
from treeconn.core import verify_family
from treeconn.oracle import oracle_spanning_packing
from treeconn.packing import (
    build_tree,
    degree_sequence,
    residue_ordering,
    target_tree_count,
    verify_shift_capacity,
)


class TestTargetTreeCount:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (3, 3, 1),  # two trees would need 10 of the 9 edges
            (3, 4, 2),
            (5, 6, 3),
            (1, 9, 1),  # the star has exactly one spanning tree
        ],
    )
    def test_values(self, a, b, expected):
        assert target_tree_count(a, b) == expected

    def test_at_least_one(self):
        for b in range(1, 30):
            for a in range(1, b + 1):
                assert target_tree_count(a, b) >= 1


class TestResidueOrdering:
    @pytest.mark.parametrize(
        "a,t,expected",
        [
            (5, 2, (1, 3, 5, 2, 4)),
            (4, 2, (1, 3, 2, 4)),  # two chains (1,3) and (2,4)
            (6, 4, (1, 5, 3, 2, 6, 4)),  # three-long chains
            (7, 1, (1, 2, 3, 4, 5, 6, 7)),
        ],
    )
    def test_examples(self, a, t, expected):
        assert residue_ordering(a, t) == expected

    @given(st.integers(1, 200), st.integers(1, 200))
    def test_is_permutation_starting_at_one(self, a, t):
        ordering = residue_ordering(a, t)
        assert ordering[0] == 1
        assert sorted(ordering) == list(range(1, a + 1))


class TestDegreeSequence:
    def test_uniform_case(self):
        dseq = degree_sequence(3, 4, 2)
        assert dseq.degrees == (2, 2, 2)
        assert dseq.anchors == (1, 2, 3, 4)
        # a + b - 1 = 2*3 + 0: no degree is raised to q + 1
        q, r = divmod(3 + 4 - 1, 3)
        assert (q, r) == (2, 0)
        assert dseq.degrees == (q,) * 3

    def test_single_heavy_degree(self):
        assert degree_sequence(4, 6, 2).degrees == (3, 2, 2, 2)
        assert degree_sequence(5, 7, 3).degrees == (3, 2, 2, 2, 2)

    def test_structural_invariants(self):
        for b in range(1, 21):
            for a in range(1, b + 1):
                for t in range(1, a + 1):
                    dseq = degree_sequence(a, b, t)
                    q, r = divmod(a + b - 1, a)
                    assert sum(dseq.degrees) == a + b - 1
                    assert all(d in (q, q + 1) for d in dseq.degrees)
                    assert sum(1 for d in dseq.degrees if d == q + 1) == r
                    assert dseq.anchors[0] == 1
                    assert dseq.anchors[-1] == b
                    for j, d in enumerate(dseq.degrees, start=1):
                        assert dseq.anchors[j] - dseq.anchors[j - 1] == d - 1


class TestShiftCapacity:
    def test_tight_fit(self):
        assert verify_shift_capacity(degree_sequence(3, 4, 2), 2)

    def test_violation(self):
        assert not verify_shift_capacity(degree_sequence(3, 4, 3), 3)

    def test_heavy_degree_fits(self):
        assert verify_shift_capacity(degree_sequence(5, 7, 3), 3)

    def test_matches_every_window_sum(self):
        # Widths past a wrap the degree sequence more than once.
        for a in range(1, 21):
            for b in range(1, 26):
                dseq = degree_sequence(a, b, target_tree_count(a, b))
                for t in range(1, 2 * a + 2):
                    widest = max(sum(dseq.degrees[(j + s) % a] for s in range(t)) for j in range(a))
                    assert verify_shift_capacity(dseq, t) == (widest <= b)


def _vertices(tree) -> set:
    """The endpoints of a tree's edges, tagged by side."""
    return {("x", x) for x, _ in tree.edges} | {("y", y) for _, y in tree.edges}


def _reference_edges(dseq, shift_index) -> tuple:
    """``build_tree``'s definition, edge by edge: row j takes the
    d_{shift_index+j-1} cyclically consecutive y-positions starting at the
    previous row's final position, and row 1 starts at anchor
    i_{shift_index-1} advanced by shift_index - 1."""
    a, b = dseq.a, dseq.b
    cursor = dseq.anchors[(shift_index - 1) % a] + (shift_index - 1)
    edges = []
    for row in range(1, a + 1):
        deg = dseq.degrees[(shift_index + row - 2) % a]
        edges.extend((row, (cursor + s - 1) % b + 1) for s in range(deg))
        cursor += deg - 1
    return tuple(edges)


class TestBuildTree:
    def test_first_tree_runs_left_to_right(self):
        tree = build_tree(degree_sequence(3, 4, 1), 1)
        assert tree.edges == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))

    def test_second_tree_is_shifted(self):
        tree = build_tree(degree_sequence(3, 4, 2), 2)
        assert set(tree.edges) == {(1, 3), (1, 4), (2, 4), (2, 1), (3, 1), (3, 2)}

    def test_third_tree_on_five_by_six(self):
        tree = build_tree(degree_sequence(5, 6, 3), 3)
        assert set(tree.edges) == {
            (1, 5), (1, 6), (2, 6), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4),
        }

    def test_rejects_capacity_violation(self):
        with pytest.raises(NotConstructibleError):
            build_tree(degree_sequence(3, 4, 3), 3)

    def test_matches_the_reference_rule_up_to_capacity(self):
        # Both orders of the sizes: witnesses pack internal graphs with a > b,
        # at any tree count up to the target.
        for a in range(1, 31):
            for b in range(1, 41):
                dseqs = {degree_sequence(a, b, t): t for t in range(1, target_tree_count(a, b) + 1)}
                for dseq, t in dseqs.items():
                    shift = 1
                    while verify_shift_capacity(dseq, shift):
                        assert build_tree(dseq, shift).edges == _reference_edges(dseq, shift)
                        shift += 1
                    assert shift > t
                    with pytest.raises(NotConstructibleError):
                        build_tree(dseq, shift)

    def test_transposed_host_still_packs(self):
        # rows may outnumber columns; needed when packing internal graphs
        dseq = degree_sequence(4, 3, 2)
        first = build_tree(dseq, 1)
        second = build_tree(dseq, 2)
        assert len(first.edges) == len(second.edges) == 6
        assert not set(first.edges) & set(second.edges)
        assert len(_vertices(first)) == len(_vertices(second)) == 7


class TestBuildPacking:
    def test_two_by_two_single_tree(self):
        packing = build_packing(normalize(2, 2))
        assert len(packing.trees) == 1

    def test_three_by_four(self):
        packing = build_packing(normalize(3, 4))
        assert len(packing.trees) == 2
        assert sum(len(t.edges) for t in packing.trees) == 12
        assert not set(packing.trees[0].edges) & set(packing.trees[1].edges)

    def test_five_by_six_uses_every_edge(self):
        packing = build_packing(normalize(5, 6))
        assert len(packing.trees) == 3
        used = set()
        for tree in packing.trees:
            used |= set(tree.edges)
        assert len(used) == 30

    def test_sound_over_small_range(self):
        for b in range(1, 16):
            for a in range(1, b + 1):
                order = normalize(a, b)
                packing = build_packing(order)
                assert len(packing.trees) == target_tree_count(a, b)
                used = set()
                for tree in packing.trees:
                    assert verify_family(order, [tree.edges], order.a, order.b, 0).ok
                    assert not used & set(tree.edges)
                    used |= set(tree.edges)

    def test_matches_oracle_on_tiny_hosts(self):
        for b in range(1, 5):
            for a in range(1, b + 1):
                assert len(build_packing(normalize(a, b)).trees) == oracle_spanning_packing(a, b)


def _is_cyclic_arc(positions: set[int], b: int) -> bool:
    if len(positions) == b:
        return True
    breaks = sum(1 for p in positions if (p % b) + 1 not in positions)
    return breaks == 1


class TestPerRowContiguity:
    def test_neighbor_runs_are_disjoint_arcs(self):
        for b in range(1, 13):
            for a in range(1, b + 1):
                t_max = target_tree_count(a, b)
                dseq = degree_sequence(a, b, t_max)
                packing = build_packing(normalize(a, b))
                for x in range(1, a + 1):
                    runs = [
                        {y for (row, y) in tree.edges if row == x} for tree in packing.trees
                    ]
                    for run in runs:
                        assert _is_cyclic_arc(run, b)
                    combined: set[int] = set()
                    for run in runs:
                        assert not combined & run
                        combined |= run
                    window = sum(dseq.degrees[(x - 1 + s) % a] for s in range(t_max))
                    assert len(combined) == window
