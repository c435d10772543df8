"""Tests for the bipartite base types and the per-tree checks of ``verify_family``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeconn import InvalidArgumentError, InvalidTerminalSetError, normalize
from treeconn.core import (
    BipartiteOrder,
    Side,
    Tree,
    ValidationReport,
    Violation,
    check_profile,
    verify_family,
    xv,
    yv,
)


class TestNormalize:
    def test_already_ordered(self):
        assert normalize(3, 4) == BipartiteOrder(3, 4, swapped=False)

    def test_swaps_larger_first(self):
        assert normalize(4, 3) == BipartiteOrder(3, 4, swapped=True)

    def test_single_edge_graph(self):
        assert normalize(1, 1) == BipartiteOrder(1, 1, swapped=False)

    @pytest.mark.parametrize("bad", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(InvalidArgumentError):
            normalize(*bad)

    @given(st.integers(1, 10_000), st.integers(1, 10_000))
    def test_idempotent(self, a_raw, b_raw):
        first = normalize(a_raw, b_raw)
        again = normalize(first.a, first.b)
        assert (again.a, again.b, again.swapped) == (first.a, first.b, False)

    def test_order_type_rejects_reversed_sizes(self):
        with pytest.raises(InvalidArgumentError):
            BipartiteOrder(5, 2)


@st.composite
def spanning_tree_instances(draw):
    """A random spanning tree of a random small host, by random attachment."""
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 6))
    order = BipartiteOrder(min(a, b), max(a, b))
    xs = [xv(s) for s in range(1, order.a + 1)]
    ys = [yv(s) for s in range(1, order.b + 1)]
    rest = draw(st.permutations(xs[1:] + ys))
    # the first attached vertex must be a y, since only x1 is placed so far
    first_y = next(pos for pos, v in enumerate(rest) if v.side is Side.Y)
    rest.insert(0, rest.pop(first_y))
    placed = {Side.X: [xs[0]], Side.Y: []}
    edges = []
    for v in rest:
        other = placed[Side.Y if v.side is Side.X else Side.X]
        pick = other[draw(st.integers(0, len(other) - 1))]
        edge = (v.index, pick.index) if v.side is Side.X else (pick.index, v.index)
        edges.append(edge)
        placed[v.side].append(v)
    return order, Tree(tuple(edges))


def _check_tree(order, tree, x_terminals=0, y_terminals=0):
    """``verify_family`` on one tree, with x_1..x_{x_terminals} and
    y_1..y_{y_terminals} required and no count to reach."""
    return verify_family(order, [tree.edges], x_terminals, y_terminals, 0)


class TestValidateTree:
    def test_path_is_valid(self):
        order = BipartiteOrder(2, 2)
        tree = Tree(((1, 1), (1, 2), (2, 2)))
        report = _check_tree(order, tree, 2, 2)
        assert report.ok

    def test_four_cycle(self):
        order = BipartiteOrder(2, 2)
        tree = Tree(((1, 1), (2, 1), (1, 2), (2, 2)))
        assert _check_tree(order, tree).first_kind == "cycle"

    def test_missing_terminal(self):
        order = BipartiteOrder(2, 2)
        tree = Tree(((1, 1),))
        report = _check_tree(order, tree, 2, 1)
        assert report.first_kind == "missing-terminal"

    def test_out_of_range(self):
        order = BipartiteOrder(2, 2)
        assert _check_tree(order, Tree(((1, 3),))).first_kind == "out-of-range"
        assert _check_tree(order, Tree(((3, 1),))).first_kind == "out-of-range"

    def test_duplicate_edge_counts_as_cycle(self):
        order = BipartiteOrder(2, 2)
        assert _check_tree(order, Tree(((1, 1), (1, 1)))).first_kind == "cycle"

    def test_disconnected(self):
        order = BipartiteOrder(2, 2)
        assert _check_tree(order, Tree(((1, 1), (2, 2)))).first_kind == "disconnected"

    def test_empty_tree_misses_terminals(self):
        order = BipartiteOrder(2, 2)
        assert _check_tree(order, Tree(()), 1, 0).first_kind == "missing-terminal"

    @given(spanning_tree_instances())
    def test_random_spanning_tree_validates(self, instance):
        order, tree = instance
        assert _check_tree(order, tree, order.a, order.b).ok

    @given(spanning_tree_instances())
    def test_random_tree_with_duplicated_edge_fails(self, instance):
        order, tree = instance
        doubled = Tree(tree.edges + (tree.edges[0],))
        assert _check_tree(order, doubled, order.a, order.b).first_kind == "cycle"


class TestCheckProfile:
    def test_rejects_i_beyond_part(self):
        with pytest.raises(InvalidTerminalSetError):
            check_profile(2, 5, 3, 3)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(InvalidTerminalSetError):
            check_profile(2, 3, 1, 0)
        with pytest.raises(InvalidTerminalSetError, match=r"^k=6 outside \[2, 5\]$"):
            check_profile(2, 3, 6, 2)

    def test_accepts_exactly_the_valid_range(self):
        # exhaustive over small hosts, in both orders of the sizes:
        # valid iff max(0, k-b) <= i <= min(a, k)
        for a in range(1, 11):
            for b in range(1, 11):
                for k in range(0, a + b + 3):
                    for i in range(-1, k + 2):
                        should_work = 2 <= k <= a + b and max(0, k - b) <= i <= min(a, k)
                        if should_work:
                            check_profile(a, b, k, i)
                        else:
                            with pytest.raises(InvalidTerminalSetError):
                                check_profile(a, b, k, i)


class TestValidationReport:
    def test_truth_is_ok(self):
        # `assert report` and `if report:` must fail on a failed report;
        # a dataclass without __bool__ would be truthy either way.
        assert ValidationReport()
        assert not ValidationReport((Violation("cycle", "edge (x1, y1) closes a cycle"),))
