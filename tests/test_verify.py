"""Tests for the one-pass family verifier behind ``verify`` and ``verify_witness``.

The verifier is compared against a naive reference written here: each
tree checked on its own by counting components, then every pair of trees
intersected, then the tree count.  Work must be bounded by the input, not
by the host size a certificate claims.
"""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeconn import build_packing, build_witness, normalize, verify_witness
from treeconn.cli import CertificateDocument, run, verify_document
from treeconn.connectivity import kappa_terminal
from treeconn.packing import target_tree_count
from treeconn.witness import SteinerWitness

# The reference names a vertex (side, index): x_s is ("x", s), y_t is ("y", t),
# so X sorts before Y, and "%s%d" % vertex prints it as the verifier does.


def _tree_vertices(edges) -> set:
    return {("x", x) for x, _ in edges} | {("y", y) for _, y in edges}


def _naive_tree_kind(a: int, b: int, edges: list, required: set) -> str | None:
    """The first per-tree defect kind, from component and edge counts."""
    if any(not (1 <= x <= a and 1 <= y <= b) for x, y in edges):
        return "out-of-range"
    vertices = _tree_vertices(edges)
    adjacent: dict = {v: set() for v in vertices}
    for x, y in edges:
        adjacent[("x", x)].add(("y", y))
        adjacent[("y", y)].add(("x", x))
    components, seen = 0, set()
    for start in vertices:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in adjacent[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
    # A forest on V vertices with c components has exactly V - c edges.
    if len(set(edges)) < len(edges) or len(edges) > len(vertices) - components:
        return "cycle"
    if components > 1:
        return "disconnected"
    if required - vertices:
        return "missing-terminal"
    return None


def naive_verify(order, k, i, trees) -> tuple[str | None, str | None]:
    """(kind, detail) of the first violation, or (None, None).

    Details are given for the overlap kinds only: the first pair of trees
    in lexicographic order that shares a non-terminal vertex or an edge.
    """
    a, b = order.a, order.b
    if k is None:
        terminals = {("x", s) for s in range(1, a + 1)} | {("y", t) for t in range(1, b + 1)}
        target = target_tree_count(a, b)
    else:
        terminals = {("x", s) for s in range(1, i + 1)} | {("y", t) for t in range(1, k - i + 1)}
        target = kappa_terminal(order, k, i).kappa
    for edges in trees:
        kind = _naive_tree_kind(a, b, edges, terminals)
        if kind is not None:
            if k is not None:
                kind = "wrong-terminals" if kind == "missing-terminal" else "bad-tree"
            return kind, None
    vertex_sets = [_tree_vertices(edges) for edges in trees]
    for p in range(len(trees)):
        for q in range(p + 1, len(trees)):
            shared = (vertex_sets[p] & vertex_sets[q]) - terminals
            if shared:
                return "vertex-overlap", "vertex-overlap: trees %d and %d share %s%d" % (p, q, *min(shared))
            shared_edges = set(trees[p]) & set(trees[q])
            if shared_edges:
                x, y = min(shared_edges)
                return "edge-overlap", f"edge-overlap: trees {p} and {q} share edge (x{x}, y{y})"
    if len(trees) < target:
        return "not-maximum", None
    return None, None


def _path(edges: list, start: tuple, goal: tuple) -> list:
    """Edges on the path from start to goal within a tree, or [] if none."""
    via = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        for x, y in edges:
            for here, there in ((("x", x), ("y", y)), (("y", y), ("x", x))):
                if here == v and there not in via:
                    via[there] = (v, (x, y))
                    stack.append(there)
    if goal not in via:
        return []
    out = []
    while via[goal] is not None:
        goal, edge = via[goal]
        out.append(edge)
    return out


# Overlap-making mutations are listed more than once: most hosts this small
# have only one or two trees, so overlaps are otherwise rare.
MUTATIONS = ("steal-edge", "steal-edge", "share-hub", "share-hub", "extra-tree", "extra-tree",
             "copy-tree", "swap-trees", "chord", "drop-edge", "drop-leaf", "drop-tree",
             "wild-edge")


def _mutate(draw, mutation: str, a: int, b: int, trees: list) -> None:
    """Plant one defect, keeping the touched trees trees where the defect allows."""
    pick = lambda seq: seq[draw(st.integers(0, len(seq) - 1))]  # noqa: E731
    indices = list(range(len(trees)))
    nonempty = [n for n in indices if trees[n]]
    if mutation in ("steal-edge", "share-hub", "copy-tree", "swap-trees") and len(trees) < 2:
        return
    if mutation == "steal-edge" and nonempty:
        p = pick(nonempty)
        q = pick([n for n in indices if n != p])
        edge = pick(trees[p])
        if edge not in trees[q]:
            # Adding the stolen edge closes a cycle in q; drop one of its edges.
            cycle = _path(trees[q], ("x", edge[0]), ("y", edge[1]))
            if cycle:
                trees[q].remove(pick(cycle))
            trees[q].append(edge)
    elif mutation == "share-hub" and nonempty:
        p = pick(nonempty)
        others = [n for n in nonempty if n != p]
        if not others:
            return
        q = pick(others)
        hub_side, hub = pick(sorted(_tree_vertices(trees[p])))
        partner = pick(sorted(index for side, index in _tree_vertices(trees[q]) if side != hub_side))
        edge = (hub, partner) if hub_side == "x" else (partner, hub)
        if edge not in trees[q]:
            trees[q].append(edge)
    elif mutation == "chord" and nonempty:
        t = pick(nonempty)
        xs = sorted({x for x, _ in trees[t]})
        ys = sorted({y for _, y in trees[t]})
        trees[t].append((pick(xs), pick(ys)))
    elif mutation == "drop-edge" and nonempty:
        t = pick(nonempty)
        trees[t].remove(pick(trees[t]))
    elif mutation == "drop-leaf" and nonempty:
        t = pick(nonempty)
        degree: dict = {}
        for x, y in trees[t]:
            degree["x", x] = degree.get(("x", x), 0) + 1
            degree["y", y] = degree.get(("y", y), 0) + 1
        leaves = [e for e in trees[t] if degree["x", e[0]] == 1 or degree["y", e[1]] == 1]
        if leaves:
            trees[t].remove(pick(leaves))
    elif mutation == "drop-tree" and trees:
        t = pick(indices)
        del trees[t]
    elif mutation == "copy-tree":
        p = pick(indices)
        q = pick([n for n in indices if n != p])
        trees[q] = list(trees[p])
    elif mutation == "extra-tree" and trees:
        p = pick(indices)
        trees.append(list(trees[p]))
    elif mutation == "swap-trees":
        p = pick(indices)
        q = pick([n for n in indices if n != p])
        trees[p], trees[q] = trees[q], trees[p]
    elif mutation == "wild-edge" and trees:
        t = pick(indices)
        trees[t].append((draw(st.integers(0, a + 1)), draw(st.integers(0, b + 1))))


@st.composite
def families(draw):
    """A maximum packing or witness on a host with a + b <= 8, normalized,
    with up to three planted defects; plus whether to present it swapped."""
    total = draw(st.integers(2, 8))
    a = draw(st.integers(1, total // 2))
    b = total - a
    order = normalize(a, b)
    if draw(st.booleans()):
        k = i = None
        trees = [list(t) for t in build_packing(order)]
    else:
        k = draw(st.integers(2, total))
        i = draw(st.integers(max(0, k - b), min(a, k)))
        witness = build_witness(order, k, i)
        trees = [list(edges) for edges in witness.trees]
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        _mutate(draw, mutation, a, b, trees)
    # A square host named either way reads the same, so only a < b can swap.
    return order, k, i, trees, a < b and draw(st.booleans())


def _document(order, k, i, trees, swap: bool) -> CertificateDocument:
    """The family as a certificate, named larger part first when ``swap``."""
    a, b = order.a, order.b
    if swap:
        trees = [[(y, x) for x, y in edges] for edges in trees]
        a, b, i = b, a, (None if k is None else k - i)
    return CertificateDocument("packing" if k is None else "witness", a, b, k, i,
                               tuple(tuple(edges) for edges in trees))


def _agrees(report, expected: tuple) -> None:
    kind, detail = expected
    assert report.first_kind == kind
    if detail is not None:
        assert str(report.violations[0]) == detail


class TestAgainstNaiveReference:
    @settings(max_examples=400, deadline=None)
    @given(families())
    def test_documents(self, family):
        order, k, i, trees, swap = family
        expected = naive_verify(order, k, i, trees)
        _agrees(verify_document(_document(order, k, i, trees, swap)), expected)

    @settings(max_examples=400, deadline=None)
    @given(families().filter(lambda family: family[1] is not None))
    def test_witnesses(self, family):
        order, k, i, trees, _ = family
        witness = SteinerWitness(k, i, tuple(tuple(edges) for edges in trees), ())
        _agrees(verify_witness(order, witness), naive_verify(order, k, i, trees))


class TestSmallestClashingPair:
    def test_later_pair_does_not_mask_earlier_one(self):
        # Trees 1 and 2 clash before tree 3 is read, but (0, 3) is the
        # smaller pair, as a pairwise scan would report.
        first, second = build_packing(normalize(3, 4))
        doc = CertificateDocument("packing", 3, 4, trees=(first, second, second, first))
        x, y = min(first)
        assert str(verify_document(doc).violations[0]) == (
            f"edge-overlap: trees 0 and 3 share edge (x{x}, y{y})")


# Headers claiming a = b = 10^9 over a body of a few dozen bytes.
HOSTILE = (
    '{"kind":"packing","a":1000000000,"b":1000000000,"trees":[{"edges":[[1,1]]}]}',
    '{"kind":"witness","a":1000000000,"b":1000000000,"k":1000000000,"i":500000000,'
    '"trees":[]}',
)


def _bounded(call) -> tuple:
    """(result, peak traced bytes, seconds) of one call."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = call()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak, seconds


class TestBoundedByInput:
    @pytest.mark.parametrize("body", HOSTILE)
    def test_huge_claims_rejected_quickly(self, capsys, tmp_path, body):
        assert len(body.encode()) < 100
        path = tmp_path / "hostile.json"
        path.write_text(body)
        code, peak, seconds = _bounded(lambda: run(["verify", "--input", str(path)]))
        assert code == 2
        assert capsys.readouterr().out == ""
        assert peak < 1 << 20
        assert seconds < 0.1

    def test_one_edge_witness_on_huge_host(self):
        order = normalize(10**9, 10**9)
        witness = SteinerWitness(10**9, 5 * 10**8, (((1, 1),),), ())
        report, peak, seconds = _bounded(lambda: verify_witness(order, witness))
        assert str(report.violations[0]) == "wrong-terminals: missing-terminal: x2 not covered"
        assert peak < 1 << 20
        assert seconds < 0.1
