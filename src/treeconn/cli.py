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

Each process runs one command, so what this module imports, and what
``run`` builds, is paid by every command.  ``oracle`` imports its module
when it runs: it is the package's largest, and no other command uses it.
A command builds only its own subparser (see ``_build_parser``).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from itertools import chain, repeat
from typing import NamedTuple, Sequence

from .connectivity import kappa_bipartite, kappa_terminal, min_terminal_index
from .core import (
    BipartiteOrder,
    InstanceTooLargeError,
    InvalidArgumentError,
    InvalidTerminalSetError,
    ValidationReport,
    Violation,
    check_profile,
    normalize,
    transposed,
    verify_family,
)
from .packing import build_packing, target_tree_count
from .witness import SteinerWitness, build_witness, verify_witness

DOT_PALETTE = (
    "#a6cee3", "#1f78b4", "#b2df8a", "#33a02c", "#fb9a99", "#e31a1c",
    "#fdbf6f", "#ff7f00", "#cab2d6", "#6a3d9a", "#ffff99", "#b15928",
)


class CertificateDocument(NamedTuple):
    """Serializable certificate: a packing or a witness, caller-oriented.

    ``trees`` holds edge tuples and ``classes`` the class each tree declares
    ("A0", "A1", "A2", or None, as in a packing), as ``verify_family`` takes
    them; a tree without an entry declares nothing.
    """

    kind: str
    a: int
    b: int
    k: int | None = None
    i: int | None = None
    trees: tuple[tuple[tuple[int, int], ...], ...] = ()
    classes: tuple[str | None, ...] = ()


def _flip(order: BipartiteOrder, k: int, i: int) -> int:
    """A profile's i in the other labeling: i counts X vertices, so it
    becomes k - i when the caller named the larger part first.  Self-inverse."""
    return k - i if order.swapped else i


def _flip_side(order: BipartiteOrder, side: str | None) -> str | None:
    """A part, "X" or "Y", in the other labeling (see ``_flip``).  Self-inverse."""
    if side is None or not order.swapped:
        return side
    return "Y" if side == "X" else "X"


def _oriented(order: BipartiteOrder, doc: CertificateDocument) -> CertificateDocument:
    """``doc`` in the other labeling, with each tree's edges sorted.

    When the caller named the larger part first, a and b swap, every edge
    [x, y] becomes [y, x] and a witness's i becomes k - i; applied twice,
    it gives back ``doc`` with its trees sorted.  This is the one place
    that swaps labels or sorts trees: the document builders call it to
    reach the caller's labels, ``verify_document`` the normalized ones.
    """
    trees = doc.trees
    if order.swapped:
        trees = map(transposed, trees)
        i = _flip(order, doc.k, doc.i) if doc.kind == "witness" else doc.i
        doc = doc._replace(a=doc.b, b=doc.a, i=i)
    return doc._replace(trees=tuple(tuple(sorted(edges)) for edges in trees))


def packing_document(order: BipartiteOrder, trees: Sequence[Sequence[tuple[int, int]]]) -> CertificateDocument:
    """Certificate for the packing ``trees`` of ``order``, in the caller's orientation."""
    doc = CertificateDocument("packing", order.a, order.b, trees=trees, classes=(None,) * len(trees))
    return _oriented(order, doc)


def witness_document(order: BipartiteOrder, witness: SteinerWitness) -> CertificateDocument:
    """Certificate for a witness, in the caller's orientation."""
    doc = CertificateDocument(
        "witness", order.a, order.b, witness.k, witness.i, witness.trees, witness.classes
    )
    return _oriented(order, doc)


def emit_json(doc: CertificateDocument) -> str:
    """Canonical JSON: fixed key order, no whitespace, each tree's edges in
    document order (sorted, for documents this module makes)."""
    payload: dict = {"kind": doc.kind, "a": doc.a, "b": doc.b}
    if doc.k is not None:
        payload["k"] = doc.k
    if doc.i is not None:
        payload["i"] = doc.i
    payload["trees"] = [
        {"edges": edges} if klass is None else {"class": klass, "edges": edges}
        for edges, klass in zip(doc.trees, chain(doc.classes, repeat(None)))
    ]
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
        for x, y in tree:
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
    trees, classes = [], []
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
        trees.append(tuple(edges))
        classes.append(tree_class)
    return CertificateDocument(kind, a, b, k, i, tuple(trees), tuple(classes))


def verify_document(doc: CertificateDocument) -> ValidationReport:
    """Re-validate a certificate document: sound trees, declared classes that
    match, and as many trees as the closed form allows (see ``verify_family``
    and ``verify_witness``, which take ``trees`` and ``classes`` as they
    are).  ``_oriented`` puts each tree in sorted order in the
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
    if doc.kind == "packing":
        target = target_tree_count(order.a, order.b)
        return verify_family(order, doc.trees, order.a, order.b, target, classes=doc.classes)
    return verify_witness(order, SteinerWitness(doc.k, doc.i, doc.trees, doc.classes))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_arguments(sub: argparse.ArgumentParser, command: str) -> None:
    """Register ``command``'s arguments on its subparser, in help order."""
    if command == "verify":
        sub.add_argument("--input", required=True, help="path to a certificate file")
        return
    sub.add_argument("--a", type=int, required=True, help="size of the first part")
    sub.add_argument("--b", type=int, required=True, help="size of the second part")
    if command == "kappa":
        sub.add_argument("--k", type=int, required=True, help="number of terminals")
        sub.add_argument("--i", type=int, default=None, help="terminals taken from the first part")
        sub.add_argument("--breakdown", action="store_true", help="print the (a2, a1, a0) composition")
    elif command == "witness":
        sub.add_argument("--k", type=int, required=True)
        sub.add_argument("--i", type=int, default=None, help="default: a profile attaining kappa_k")
    elif command == "oracle":
        sub.add_argument("--k", type=int, default=None, help="omit to count spanning trees")
    if command in ("pack", "witness"):
        sub.add_argument("--format", choices=("json", "dot"), default="json")


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """A parser with only the subparser that ``argv[0]`` names, or all six
    when it names none (``--help``, a typo).  With one, a fixed metavar lists
    every command in usage lines; with six, argparse lists them itself, and
    its errors name ``command``, where they would name a metavar."""
    # A literal, not __doc__, which python -OO strips.
    description = "Command-line front end: compute, construct, verify, and export certificates."
    parser = _Parser(prog="treeconn", description=description)
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _add_arguments(commands.add_parser(name, help=_COMMANDS[name][0]), name)
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
            "a1_side": side if side is not None else "none",
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
    order = normalize(args.a, args.b)
    doc = packing_document(order, build_packing(order))
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


# Each command's help and function, in the order that --help lists them.
_COMMANDS = {
    "kappa": ("k-connectivity, or one terminal profile's value", _cmd_kappa),
    "pack": ("emit a maximum spanning-tree packing", _cmd_pack),
    "witness": ("emit a maximum witness for one terminal set", _cmd_witness),
    "verify": ("re-validate a JSON certificate", _cmd_verify),
    "oracle": ("exact values independent of the constructions: edge-disjoint spanning trees by "
               "matroid partition (ab <= 400), kappa_k by exhaustive search (a+b <= 8; "
               "k = a+b by matroid partition)", _cmd_oracle),
    "table": ("kappa_k for every k, one line each", _cmd_table),
}


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch one CLI invocation and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    paused = gc.isenabled() and args.command in ("pack", "witness", "verify")
    if paused:
        gc.disable()
    try:
        return _COMMANDS[args.command][1](args)
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
