"""Explicit maximum sets of internally disjoint trees connecting S_i.

All trees come in three standard shapes: terminal-only trees (A0),
trees with a single non-terminal hub adjacent to every opposite-side
terminal (A1), and two-hub trees T_{u,v} whose hubs cover each side's
terminals and are joined by the edge uv (A2).  Exchange arguments show
that restricting to these shapes loses nothing, so the builder only ever
emits them; the verifier accepts any internally disjoint family.

Greedy order: as many A2 trees as spare vertex pairs allow, then single
hubs on whichever side has spares left, then terminal-only trees from
the remaining internal-edge budget.  The terminal-only trees are built
first; each single-hub tree then attaches every terminal on its hub's
side through that terminal's lowest-indexed internal edge left free.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, filterfalse, islice, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .connectivity import kappa_terminal
from .core import (
    BipartiteOrder,
    ConstructionBugError,
    InvalidArgumentError,
    InvalidTerminalSetError,
    Side,
    Tree,
    ValidationReport,
    Vertex,
    Violation,
    transposed,
    verify_family,
    xv,
    yv,
)
from .packing import build_tree, degree_sequence, verify_shift_capacity


class TreeClass(str, Enum):
    """How many non-terminal hubs a standard-structure tree uses."""

    A0 = "A0"
    A1 = "A1"
    A2 = "A2"


class ClassifiedTree(NamedTuple):
    """A tree of the witness together with its shape and hub vertices."""

    tree: Tree
    klass: TreeClass
    extras: frozenset[Vertex]


class SteinerWitness(NamedTuple):
    """A set of internally disjoint trees connecting the terminal set S_i
    with k terminals, i of them in X (see ``check_profile``)."""

    k: int
    i: int
    trees: tuple[ClassifiedTree, ...]


def build_a2_trees(order: BipartiteOrder, k: int, i: int, count: int) -> tuple[ClassifiedTree, ...]:
    """``count`` two-hub trees, pairing spare vertices in index order.

    Tree c uses hubs x_{i+c} and y_{(k-i)+c}: the x-hub covers every
    Y-terminal, the y-hub covers every X-terminal, and the hub-hub edge
    joins the two stars (without it the two stars would be a forest).
    No internal edges are consumed.
    """
    m = k - i
    supply = min(order.a - i, order.b - m)
    if not 0 <= count <= supply:
        raise InvalidArgumentError(f"requested {count} two-hub trees, only {supply} spare pairs")
    out = []
    for c in range(1, count + 1):
        u, v = i + c, m + c
        edges = tuple(chain(zip(repeat(u), range(1, m + 1)), zip(range(1, i + 1), repeat(v)), ((u, v),)))
        out.append(ClassifiedTree(tree=Tree(edges), klass=TreeClass.A2, extras=frozenset({xv(u), yv(v)})))
    return tuple(out)


def build_internal_trees(
    order: BipartiteOrder,
    k: int,
    i: int,
    p: int,
    q: int,
    side: Side,
    spare_offset: int = 0,
) -> tuple[ClassifiedTree, ...]:
    """p terminal-only trees followed by q single-hub trees on ``side``.

    Requires the budget p(k-1) + q*cost <= i(k-i), where cost is the
    number of same-side terminals each hub tree must attach through an
    internal edge (i for X hubs, k-i for Y hubs).

    Phase one packs p edge-disjoint spanning trees of the internal
    complete bipartite graph on (X-terminals, Y-terminals), reusing the
    packing machinery with its row side on ``side`` so the per-terminal
    usage there is a balanced window sum; phase two hands each hub tree
    one hub (skipping ``spare_offset`` spares already taken by two-hub
    trees).  Each same-side terminal lists its q lowest-indexed partners
    whose internal edge the terminal-only trees left free, and hub tree h
    attaches the terminal through the h-th of them.
    """
    m = k - i
    if p < 0 or q < 0:
        raise InvalidArgumentError(f"tree counts must be nonnegative, got p={p}, q={q}")
    cost = i if side is Side.X else m
    if p * (k - 1) + q * cost > i * m:
        raise InvalidArgumentError(
            f"budget exceeded: {p}*(k-1) + {q}*{cost} > {i * m} internal edges"
        )
    spare_total = (order.a - i) if side is Side.X else (order.b - m)
    if spare_offset + q > spare_total:
        raise InvalidArgumentError(f"need {q} spare hubs on side {side.value}, have {spare_total - spare_offset}")

    trees: list[ClassifiedTree] = []
    used: set[tuple[int, int]] = set()
    if p > 0:
        # Rows on the attachment side: its per-terminal edge usage across
        # the p trees is then a width-p window sum, balanced within one,
        # which is what leaves every terminal q free partners for phase two.
        rows, cols = (i, m) if side is Side.X else (m, i)
        dseq = degree_sequence(rows, cols, p)
        if not verify_shift_capacity(dseq, p):
            raise ConstructionBugError(f"internal packing capacity failed at p={p} for ({i}, {m})")
        for shift_index in range(1, p + 1):
            packed = build_tree(dseq, shift_index).edges
            real = packed if side is Side.X else transposed(packed)
            used.update(real)
            trees.append(ClassifiedTree(tree=Tree(real), klass=TreeClass.A0, extras=frozenset()))
        if len(used) != p * (k - 1):
            raise ConstructionBugError(f"the {p} terminal-only trees share internal edges")

    # The q lowest-indexed internal edges at each same-side terminal s
    # that the terminal-only trees left unused; hub tree h takes the h-th.
    free = []
    for s in range(1, cost + 1):
        at_s = zip(repeat(s), range(1, m + 1)) if side is Side.X else zip(range(1, i + 1), repeat(s))
        free.append(list(islice(filterfalse(used.__contains__, at_s), q)))
        if len(free[-1]) < q:
            raise ConstructionBugError(f"terminal {s} on side {side.value} has under {q} free internal edges")

    for h in range(q):
        if side is Side.X:
            hub = xv(i + spare_offset + h + 1)
            star = zip(repeat(hub.index), range(1, m + 1))
        else:
            hub = yv(m + spare_offset + h + 1)
            star = zip(range(1, i + 1), repeat(hub.index))
        edges = tuple(chain(star, map(itemgetter(h), free)))
        trees.append(ClassifiedTree(tree=Tree(edges), klass=TreeClass.A1, extras=frozenset({hub})))

    return tuple(trees)


def build_witness(order: BipartiteOrder, k: int, i: int) -> SteinerWitness:
    """A maximum internally disjoint tree set for S_i, sized by kappa_terminal.

    The A2 / A0 / A1 counts of the breakdown are realized directly.  A
    one-sided terminal set has only A1 trees: stars hubbed at every
    vertex of the other part, which attach no same-side terminal.
    """
    breakdown = kappa_terminal(order, k, i)
    side = breakdown.a1_side if breakdown.a1_side is not None else Side.X
    trees = build_a2_trees(order, k, i, breakdown.a2) + build_internal_trees(
        order, k, i, p=breakdown.a0, q=breakdown.a1, side=side, spare_offset=breakdown.a2
    )
    if len(trees) != breakdown.kappa:
        raise ConstructionBugError(f"built {len(trees)} trees, breakdown promises {breakdown.kappa}")
    return SteinerWitness(k=k, i=i, trees=trees)


def verify_witness_trees(
    order: BipartiteOrder,
    k: int,
    i: int,
    trees: Sequence[Sequence[tuple[int, int]]],
    hubs: Sequence[Iterable[Vertex]] | None = None,
    classes: Sequence[str | None] | None = None,
) -> ValidationReport:
    """``verify_witness`` on bare edge lists, with optional declared hubs
    and classes: ``verify_family`` over S_i with target kappa(S_i).

    Its per-tree kinds are renamed: ``bad-tree`` (not a tree / out of
    range) and ``wrong-terminals`` (a tree misses a terminal or a declared
    hub).  An invalid profile is also ``wrong-terminals``.  The other
    kinds, ``class-mismatch``, ``vertex-overlap``, ``edge-overlap`` and
    ``not-maximum``, pass through.
    """
    try:
        target = kappa_terminal(order, k, i).kappa
    except InvalidTerminalSetError as exc:
        return ValidationReport((Violation("wrong-terminals", str(exc)),))
    report = verify_family(order, trees, i, k - i, target, hubs, classes)
    kind = report.first_kind
    if kind in ("out-of-range", "cycle", "disconnected", "missing-terminal"):
        coarse = "wrong-terminals" if kind == "missing-terminal" else "bad-tree"
        return ValidationReport((Violation(coarse, str(report.violations[0])),))
    return report


def verify_witness(order: BipartiteOrder, witness: SteinerWitness) -> ValidationReport:
    """Check a witness: valid trees over S_i, classes that count their
    hubs, no shared edges, no shared hubs, and as many trees as
    kappa(S_i); see ``verify_witness_trees``."""
    return verify_witness_trees(
        order,
        witness.k,
        witness.i,
        [ct.tree.edges for ct in witness.trees],
        [ct.extras for ct in witness.trees],
        [ct.klass.value for ct in witness.trees],
    )
