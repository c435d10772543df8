"""Tests for the bipartite base types, the package's records and the
per-tree checks of ``verify_family``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeconn import InvalidArgumentError, InvalidTerminalSetError, build_packing, build_witness, normalize
from treeconn.cli import packing_document
from treeconn.connectivity import kappa_terminal
from treeconn.core import (
    BipartiteOrder,
    Side,
    Tree,
    ValidationReport,
    Vertex,
    Violation,
    check_profile,
    verify_family,
    xv,
    yv,
)
from treeconn.packing import degree_sequence


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


def _records():
    """One instance of each record type in the package, with one of its fields."""
    order = normalize(4, 3)
    packing = build_packing(order)
    witness = build_witness(order, 5, 2)
    document = packing_document(packing)
    return [
        (xv(1), "index"),
        (order, "swapped"),
        (packing.trees[0], "edges"),
        (Violation("cycle", "edge (x1, y1) closes a cycle"), "kind"),
        (ValidationReport(), "violations"),
        (kappa_terminal(order, 5, 2), "kappa"),
        (degree_sequence(3, 4, 2), "degrees"),
        (packing, "order"),
        (witness.trees[0], "klass"),
        (witness, "trees"),
        (document.trees[0], "tree_class"),
        (document, "kind"),
    ]


class TestRecords:
    @pytest.mark.parametrize(
        "record,name", _records(), ids=lambda value: value if isinstance(value, str) else type(value).__name__
    )
    def test_fields_are_read_only(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    def test_vertices_and_orders_are_keys(self):
        assert {xv(1): "x", yv(1): "y"}[Vertex(Side.X, 1)] == "x"
        assert xv(1) in frozenset({Vertex(Side.X, 1)})
        assert {normalize(4, 3): 1}[BipartiteOrder(3, 4, swapped=True)] == 1
        assert len(frozenset({normalize(4, 3), BipartiteOrder(3, 4, swapped=True), normalize(3, 4)})) == 2

    def test_vertices_sort_by_side_then_index(self):
        assert sorted([yv(1), xv(2), xv(1)]) == [xv(1), xv(2), yv(1)]

    def test_repr_names_the_fields(self):
        assert repr(normalize(4, 3)) == "BipartiteOrder(a=3, b=4, swapped=True)"
        assert repr(xv(1)) == "Vertex(side=<Side.X: 'X'>, index=1)"
        assert repr(Violation("cycle", "x")) == "Violation(kind='cycle', detail='x')"
        assert repr(ValidationReport()) == "ValidationReport(violations=())"
