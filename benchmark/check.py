"""Independent checks for treeconn outputs, linear in the size of the output.

Nothing here imports treeconn: the closed forms are written out from the
paper, and certificates are checked with a union-find of their own, so a
fault in the construction or in treeconn's verifier cannot hide itself.
"""

from __future__ import annotations

import json


def packing_count(a: int, b: int) -> int:
    """floor(ab/(a+b-1)): a spanning tree of K_{a,b} needs a+b-1 of its ab
    edges, and this edge-count bound is attained (Nash-Williams; Tutte)."""
    return (a * b) // (a + b - 1)


def kappa_closed_form(a: int, b: int, k: int) -> int:
    """kappa_k(K_{a,b}) for 2 <= k <= a+b, from the paper's main theorem."""
    a, b = min(a, b), max(a, b)
    if not 2 <= k <= a + b:
        raise ValueError(f"k={k} outside [2, {a + b}]")
    if k <= b - a + 2:
        return a
    if (a - b + k) % 2 == 0:
        return (a + b - k) // 2 + (a - b + k) * (b - a + k) // (4 * (k - 1))
    return (a + b - k + 1) // 2 + (a - b + k - 1) * (b - a + k - 1) // (4 * (k - 1))


class CertificateError(Exception):
    """A certificate breaks one rule; ``kind`` names the rule."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def _int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CertificateError("schema", f"{name} is not an integer")
    return value


def check_certificate(text: str, a: int, b: int, k: int | None = None) -> None:
    """Raise CertificateError unless ``text`` is a maximum certificate for
    K_{a,b} (a packing when k is None, else a witness for some k-set).

    a and b are in the caller's orientation, as the certificate prints
    them.  Each tree is checked for shape with its own union-find, then
    for coverage; across trees, every edge and every non-terminal vertex
    has one owner, each witness tree's class names its hub count, and the
    tree count equals the closed form.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CertificateError("schema", f"not JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("trees"), list):
        raise CertificateError("schema", "not an object with a 'trees' list")
    kind = "packing" if k is None else "witness"
    if doc.get("kind") != kind:
        raise CertificateError("header", f"kind {doc.get('kind')!r}, expected {kind!r}")
    if (_int(doc.get("a"), "a"), _int(doc.get("b"), "b")) != (a, b):
        raise CertificateError("header", f"sizes ({doc['a']}, {doc['b']}), expected ({a}, {b})")
    if a < 1 or b < 1:
        raise CertificateError("header", "part sizes must be positive")
    if k is None:
        x_terminals = y_terminals = 0
        target = packing_count(a, b)
    else:
        if _int(doc.get("k"), "k") != k:
            raise CertificateError("header", f"k={doc['k']}, expected {k}")
        i = _int(doc.get("i"), "i")
        if not max(0, k - b) <= i <= min(a, k):
            raise CertificateError("header", f"i={i} is not a profile of k={k}")
        x_terminals, y_terminals = i, k - i
        target = kappa_closed_form(a, b, k)

    edge_owner: dict[tuple[int, int], int] = {}
    vertex_owner: dict[int, int] = {}
    for index, tree in enumerate(doc["trees"]):
        if not isinstance(tree, dict) or not isinstance(tree.get("edges"), list):
            raise CertificateError("schema", f"tree {index} has no 'edges' list")
        parent: dict[int, int] = {}

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for edge in tree["edges"]:
            if not isinstance(edge, list) or len(edge) != 2:
                raise CertificateError("schema", f"tree {index} has a malformed edge")
            x, y = _int(edge[0], "x"), _int(edge[1], "y")
            if not (1 <= x <= a and 1 <= y <= b):
                raise CertificateError("out-of-range", f"tree {index} edge ({x}, {y})")
            # A repeat inside one tree is left to the union-find: a cycle.
            owner = edge_owner.setdefault((x, y), index)
            if owner != index:
                raise CertificateError("edge-overlap", f"trees {owner} and {index} share ({x}, {y})")
            u, w = x, a + y  # x_s is vertex s, y_t is vertex a+t
            parent.setdefault(u, u)
            parent.setdefault(w, w)
            ru, rw = find(u), find(w)
            if ru == rw:
                raise CertificateError("cycle", f"tree {index} edge ({x}, {y}) closes a cycle")
            parent[ru] = rw
        # Acyclic with V vertices and V-1 edges is exactly one component.
        if len(parent) != len(tree["edges"]) + 1:
            raise CertificateError("disconnected", f"tree {index} is not connected")

        if k is None:
            if len(parent) != a + b:
                raise CertificateError("coverage", f"tree {index} spans {len(parent)} of {a + b} vertices")
            if "class" in tree:
                raise CertificateError("schema", f"packing tree {index} declares a class")
            continue
        terminals = hubs = 0
        for v in parent:
            if v <= x_terminals or a < v <= a + y_terminals:
                terminals += 1
                continue
            hubs += 1
            owner = vertex_owner.setdefault(v, index)
            if owner != index:
                raise CertificateError("vertex-overlap", f"trees {owner} and {index} share a non-terminal")
        if terminals != k:
            raise CertificateError("coverage", f"tree {index} reaches {terminals} of {k} terminals")
        if tree.get("class") != f"A{hubs}":
            raise CertificateError("class", f"tree {index} declares {tree.get('class')!r} with {hubs} hubs")

    if len(doc["trees"]) != target:
        raise CertificateError("count", f"{len(doc['trees'])} trees, the closed form gives {target}")
