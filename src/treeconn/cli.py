"""Command-line front end: compute, construct, verify, and export certificates.

JSON is the interchange format (canonical key order, edges sorted within
each tree, byte-identical across runs); DOT is export-only.  When the
caller names the larger part first, certificates are emitted in the
caller's orientation, so their x/y labels survive the round trip.

Exit codes: 0 success, 1 invalid arguments or instance-too-large,
2 verification failure (verify subcommand only).

``pack``, ``witness`` and ``verify`` pause the cyclic garbage collector:
they make only acyclic tuples, lists and dicts, which reference counting
frees.  ``oracle`` keeps it on, as its recursive closures are cycles.

Each process runs one command, so what this module imports is paid by
every command.  ``oracle`` imports its module when it runs: it is the
package's largest, and no other command uses it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import NamedTuple, Sequence

from .connectivity import kappa_bipartite, kappa_terminal, min_terminal_index
from .core import (
    BipartiteOrder,
    InstanceTooLargeError,
    InvalidArgumentError,
    InvalidTerminalSetError,
    Side,
    ValidationReport,
    Violation,
    check_profile,
    normalize,
    transposed,
    verify_family,
)
from .packing import SpanningTreePacking, build_packing, target_tree_count
from .witness import SteinerWitness, build_witness, verify_witness_trees

DOT_PALETTE = (
    "#a6cee3", "#1f78b4", "#b2df8a", "#33a02c", "#fb9a99", "#e31a1c",
    "#fdbf6f", "#ff7f00", "#cab2d6", "#6a3d9a", "#ffff99", "#b15928",
)


class DocumentTree(NamedTuple):
    """One tree of a certificate document, as an edge list."""

    edges: tuple[tuple[int, int], ...]
    tree_class: str | None = None


class CertificateDocument(NamedTuple):
    """Serializable certificate: a packing or a witness, caller-oriented."""

    kind: str
    a: int
    b: int
    k: int | None = None
    i: int | None = None
    trees: tuple[DocumentTree, ...] = ()


def _flip(order: BipartiteOrder, k: int, i: int) -> int:
    """A profile's i in the other labeling: i counts X vertices, so it
    becomes k - i when the caller named the larger part first.  Self-inverse."""
    return k - i if order.swapped else i


def _flip_side(order: BipartiteOrder, side: Side | None) -> Side | None:
    """A part in the other labeling (see ``_flip``).  Self-inverse."""
    if side is None or not order.swapped:
        return side
    return Side.Y if side is Side.X else Side.X


def _oriented(order: BipartiteOrder, doc: CertificateDocument) -> CertificateDocument:
    """``doc`` in the other labeling: when the caller named the larger part
    first, a and b swap, every edge [x, y] becomes [y, x] and a witness's i
    becomes k - i.  Self-inverse.

    Each tree keeps its edge order; callers sort afterwards, in the labels
    they need: the document builders in the caller's, ``verify_document``
    in the normalized ones.
    """
    if not order.swapped:
        return doc
    return doc._replace(
        a=doc.b,
        b=doc.a,
        i=_flip(order, doc.k, doc.i) if doc.kind == "witness" else doc.i,
        trees=tuple(DocumentTree(transposed(t.edges), t.tree_class) for t in doc.trees),
    )


def _caller_document(order: BipartiteOrder, doc: CertificateDocument) -> CertificateDocument:
    """A normalized certificate in the caller's labels, each tree's edges sorted."""
    doc = _oriented(order, doc)
    return doc._replace(
        trees=tuple(DocumentTree(tuple(sorted(t.edges)), t.tree_class) for t in doc.trees)
    )


def packing_document(packing: SpanningTreePacking) -> CertificateDocument:
    """Certificate for a spanning-tree packing, in the caller's orientation."""
    order = packing.order
    trees = tuple(DocumentTree(t.edges) for t in packing.trees)
    return _caller_document(order, CertificateDocument("packing", order.a, order.b, trees=trees))


def witness_document(order: BipartiteOrder, witness: SteinerWitness) -> CertificateDocument:
    """Certificate for a witness, in the caller's orientation."""
    trees = tuple(DocumentTree(ct.tree.edges, ct.klass.value) for ct in witness.trees)
    k, i = witness.k, witness.i
    return _caller_document(order, CertificateDocument("witness", order.a, order.b, k, i, trees))


def emit_json(doc: CertificateDocument) -> str:
    """Canonical JSON: fixed key order, no whitespace, each tree's edges in
    document order (sorted, for documents this module makes)."""
    payload: dict = {"kind": doc.kind, "a": doc.a, "b": doc.b}
    if doc.k is not None:
        payload["k"] = doc.k
    if doc.i is not None:
        payload["i"] = doc.i
    trees = []
    for t in doc.trees:
        entry: dict = {}
        if t.tree_class is not None:
            entry["class"] = t.tree_class
        entry["edges"] = t.edges
        trees.append(entry)
    payload["trees"] = trees
    # Built here from ints, strings and tuples of ints: it cannot hold a cycle.
    return json.dumps(payload, separators=(",", ":"), check_circular=False)


def emit_dot(doc: CertificateDocument) -> str:
    """One undirected graph; per-tree edge colors; boxed terminals for witnesses."""
    terminal_names: set[str] = set()
    if doc.kind == "witness" and doc.k is not None and doc.i is not None:
        terminal_names = {f"x{s}" for s in range(1, doc.i + 1)} | {
            f"y{t}" for t in range(1, doc.k - doc.i + 1)
        }
    lines = ["graph certificate {"]
    for s in range(1, doc.a + 1):
        name = f"x{s}"
        lines.append(f"  {name} [shape=box];" if name in terminal_names else f"  {name};")
    for t in range(1, doc.b + 1):
        name = f"y{t}"
        lines.append(f"  {name} [shape=box];" if name in terminal_names else f"  {name};")
    for index, tree in enumerate(doc.trees):
        color = DOT_PALETTE[index % len(DOT_PALETTE)]
        for x, y in tree.edges:
            lines.append(f'  x{x} -- y{y} [color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> CertificateDocument:
    """Parse and schema-check a JSON certificate; malformed input raises."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and over-long integer literals;
        # RecursionError, nesting deeper than the parser's stack.
        raise InvalidArgumentError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidArgumentError("certificate must be a JSON object")
    kind = data.get("kind")
    if kind not in ("packing", "witness"):
        raise InvalidArgumentError("kind must be 'packing' or 'witness'")

    def int_field(name: str, required: bool) -> int | None:
        value = data.get(name)
        if value is None:
            if required:
                raise InvalidArgumentError(f"missing integer field '{name}'")
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidArgumentError(f"field '{name}' must be an integer")
        return value

    a = int_field("a", required=True)
    b = int_field("b", required=True)
    k = int_field("k", required=(kind == "witness"))
    i = int_field("i", required=(kind == "witness"))
    raw_trees = data.get("trees")
    if not isinstance(raw_trees, list):
        raise InvalidArgumentError("field 'trees' must be a list")
    trees = []
    for position, raw in enumerate(raw_trees):
        if not isinstance(raw, dict) or not isinstance(raw.get("edges"), list):
            raise InvalidArgumentError(f"tree {position} must be an object with an 'edges' list")
        tree_class = raw.get("class")
        if tree_class is not None and tree_class not in ("A0", "A1", "A2"):
            raise InvalidArgumentError(f"tree {position} has unknown class {tree_class!r}")
        edges = []
        for edge in raw["edges"]:
            # json.loads makes exact ints, so an exact type test rejects bools.
            if not (type(edge) is list and len(edge) == 2 and type(edge[0]) is int and type(edge[1]) is int):
                raise InvalidArgumentError(f"tree {position} has a malformed edge {edge!r}")
            edges.append((edge[0], edge[1]))
        trees.append(DocumentTree(edges=tuple(edges), tree_class=tree_class))
    return CertificateDocument(kind=kind, a=a, b=b, k=k, i=i, trees=tuple(trees))


def verify_document(doc: CertificateDocument) -> ValidationReport:
    """Re-validate a certificate document: sound trees, declared classes that
    match, and as many trees as the closed form allows (see ``verify_family``
    and ``verify_witness_trees``).  Each tree is read in sorted order in the
    normalized a <= b labels, which its violations name, so a certificate
    and its mirror image report the same violation.  A witness's k and i
    must be present, and are range-checked first, in the document's own
    labels."""
    order = normalize(doc.a, doc.b)
    if doc.kind == "witness":
        if doc.k is None or doc.i is None:
            raise InvalidArgumentError(f"missing integer field '{'k' if doc.k is None else 'i'}'")
        try:
            check_profile(doc.a, doc.b, doc.k, doc.i)
        except InvalidTerminalSetError as exc:
            return ValidationReport((Violation("wrong-terminals", str(exc)),))
    doc = _oriented(order, doc)
    trees = [sorted(t.edges) for t in doc.trees]
    classes = [t.tree_class for t in doc.trees]
    if doc.kind == "packing":
        target = target_tree_count(order.a, order.b)
        return verify_family(order, trees, order.a, order.b, target, classes=classes)
    return verify_witness_trees(order, doc.k, doc.i, trees, classes=classes)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_sizes(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=int, required=True, help="size of the first part")
    sub.add_argument("--b", type=int, required=True, help="size of the second part")


def _build_parser() -> argparse.ArgumentParser:
    # A literal, not __doc__, which python -OO strips.
    description = "Command-line front end: compute, construct, verify, and export certificates."
    parser = _Parser(prog="treeconn", description=description)
    commands = parser.add_subparsers(dest="command", required=True)

    kappa = commands.add_parser("kappa", help="k-connectivity, or one terminal profile's value")
    _add_sizes(kappa)
    kappa.add_argument("--k", type=int, required=True, help="number of terminals")
    kappa.add_argument("--i", type=int, default=None, help="terminals taken from the first part")
    kappa.add_argument("--breakdown", action="store_true", help="print the (a2, a1, a0) composition")
    kappa.set_defaults(func=_cmd_kappa)

    pack = commands.add_parser("pack", help="emit a maximum spanning-tree packing")
    _add_sizes(pack)
    pack.add_argument("--format", choices=("json", "dot"), default="json")
    pack.set_defaults(func=_cmd_pack)

    witness = commands.add_parser("witness", help="emit a maximum witness for one terminal set")
    _add_sizes(witness)
    witness.add_argument("--k", type=int, required=True)
    witness.add_argument("--i", type=int, default=None, help="default: a profile attaining kappa_k")
    witness.add_argument("--format", choices=("json", "dot"), default="json")
    witness.set_defaults(func=_cmd_witness)

    verify = commands.add_parser("verify", help="re-validate a JSON certificate")
    verify.add_argument("--input", required=True, help="path to a certificate file")
    verify.set_defaults(func=_cmd_verify)

    oracle = commands.add_parser(
        "oracle",
        help="exact values independent of the constructions: edge-disjoint spanning "
        "trees by matroid partition (ab <= 400), kappa_k by exhaustive search (a+b <= 8; "
        "k = a+b by matroid partition)",
    )
    _add_sizes(oracle)
    oracle.add_argument("--k", type=int, default=None, help="omit to count spanning trees")
    oracle.set_defaults(func=_cmd_oracle)

    table = commands.add_parser("table", help="kappa_k for every k, one line each")
    _add_sizes(table)
    table.set_defaults(func=_cmd_table)

    return parser


def _profile(order: BipartiteOrder, k: int, i_caller: int | None) -> int:
    """The normalized i for the caller's ``--i``, range-checked in the
    caller's labels; by default, the first profile that attains kappa_k."""
    if i_caller is None:
        return min_terminal_index(order, k)
    a, b = (order.b, order.a) if order.swapped else (order.a, order.b)
    check_profile(a, b, k, i_caller)
    return _flip(order, k, i_caller)


def _cmd_kappa(args: argparse.Namespace) -> int:
    order = normalize(args.a, args.b)
    if args.breakdown:
        i = _profile(order, args.k, args.i)
        breakdown = kappa_terminal(order, args.k, i)
        side = _flip_side(order, breakdown.a1_side)
        payload = {
            "i": _flip(order, args.k, i),
            "a2": breakdown.a2,
            "a1": breakdown.a1,
            "a1_side": side.value if side is not None else "none",
            "a0": breakdown.a0,
            "kappa": breakdown.kappa,
        }
        print(json.dumps(payload, separators=(",", ":")))
    elif args.i is not None:
        print(kappa_terminal(order, args.k, _profile(order, args.k, args.i)).kappa)
    else:
        print(kappa_bipartite(order, args.k))
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    doc = packing_document(build_packing(normalize(args.a, args.b)))
    emit = emit_json(doc) + "\n" if args.format == "json" else emit_dot(doc)
    sys.stdout.write(emit)
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    order = normalize(args.a, args.b)
    witness = build_witness(order, args.k, _profile(order, args.k, args.i))
    doc = witness_document(order, witness)
    emit = emit_json(doc) + "\n" if args.format == "json" else emit_dot(doc)
    sys.stdout.write(emit)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    report = verify_document(parse_document(text))
    if report.ok:
        print("ok")
        return 0
    print(report.violations[0], file=sys.stderr)
    return 2


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import oracle_kappa_k, oracle_spanning_packing

    if args.k is None:
        print(oracle_spanning_packing(args.a, args.b))
    else:
        print(oracle_kappa_k(args.a, args.b, args.k))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    order = normalize(args.a, args.b)
    for k in range(2, args.a + args.b + 1):
        print(f"{k}\t{kappa_bipartite(order, k)}")
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    paused = gc.isenabled() and args.command in ("pack", "witness", "verify")
    if paused:
        gc.disable()
    try:
        return args.func(args)
    except (InvalidArgumentError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if paused:
            gc.enable()


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
