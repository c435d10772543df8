"""Maximum edge-disjoint spanning tree packings of complete bipartite graphs.

The packing is built from a single degree sequence d_1..d_a with
d_1 + ... + d_a = a + b - 1: tree number l assigns to row x_j a run of
d_{l+j-1} cyclically consecutive y-positions, each row starting where the
previous one ended, and the whole of tree l+1 starting one position past
the corresponding run of tree l.  The trees are pairwise edge-disjoint
exactly when every cyclic window sum d_j + ... + d_{j+t-1} stays within b,
and the degree values are spread along a residue ordering of {1..a} chosen
so those window sums differ by at most one.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, repeat
from operator import sub
from typing import NamedTuple

from .core import (
    BipartiteOrder,
    InvalidArgumentError,
    NotConstructibleError,
)


def target_tree_count(a: int, b: int) -> int:
    """floor(ab / (a+b-1)): the edge-count optimum, always at least 1.

    A spanning tree needs a + b - 1 of the ab edges, and (a-1)(b-1) >= 0
    makes the quotient at least one.
    """
    if a < 1 or b < 1:
        raise InvalidArgumentError(f"part sizes must be positive, got ({a}, {b})")
    return (a * b) // (a + b - 1)


def residue_ordering(a: int, t: int) -> tuple[int, ...]:
    """Order {1..a} by stepping t at a time, group by group.

    With j = a / gcd(a, t) (the least j > 0 with j*t divisible by a), the
    ordering lists g, g+t, g+2t, ..., g+(j-1)t reduced into {1..a} modulo
    a, for g = 1, 2, ..., a/j.  When gcd(a, t) = 1 this is the single
    chain 1, t+1, 2t+1, ..., (a-1)t+1.
    """
    if a < 1 or t < 1:
        raise InvalidArgumentError(f"need a >= 1 and t >= 1, got ({a}, {t})")
    chain_len = a // math.gcd(a, t)
    out: list[int] = []
    for g in range(1, a // chain_len + 1):
        out.extend((g - 1 + s * t) % a + 1 for s in range(chain_len))
    return tuple(out)


class DegreeSequence(NamedTuple):
    """Row degrees d_1..d_a for one packing, plus their chaining anchors.

    ``anchors`` holds the chaining positions i_0..i_a with i_0 = 1 and
    i_j = i_{j-1} + d_j - 1, so i_a equals b: the sequence carries the
    column count of its host, and ``b`` reads it back.
    """

    degrees: tuple[int, ...]
    anchors: tuple[int, ...]

    @property
    def a(self) -> int:
        return len(self.degrees)

    @property
    def b(self) -> int:
        return self.anchors[-1]


def degree_sequence(a: int, b: int, t: int) -> DegreeSequence:
    """Degrees for packing spanning trees of the a-by-b host at shift t.

    With a + b - 1 = q*a + r, the positions named by the first r entries
    of residue_ordering(a, t) get degree q + 1 and all others get q.  The
    function is total in a and b; the packing of the host graph itself
    always uses a <= b, but transposed instances (a > b) occur when
    packing the internal graph of a terminal set.
    """
    if a < 1 or b < 1:
        raise InvalidArgumentError(f"part sizes must be positive, got ({a}, {b})")
    if t < 1:
        raise InvalidArgumentError(f"shift must be positive, got {t}")
    q, r = divmod(a + b - 1, a)
    degrees = [q] * a
    for position in residue_ordering(a, t)[:r]:
        degrees[position - 1] = q + 1
    anchors = [1]
    for d in degrees:
        anchors.append(anchors[-1] + d - 1)
    return DegreeSequence(degrees=tuple(degrees), anchors=tuple(anchors))


def verify_shift_capacity(dseq: DegreeSequence, t: int) -> bool:
    """True iff every width-t window sum is at most b = ``dseq.b``.

    The window sum at j is d_j + ... + d_{j+t-1}, subscripts wrapping
    mod a.  This is exactly the condition for the first t shifted trees
    to be pairwise edge-disjoint: the runs assigned to x_j across those
    trees chain into one arc of length equal to the window sum at j.
    """
    if t < 1:
        raise InvalidArgumentError(f"window width must be positive, got {t}")
    # A window of t = laps*a + rest wraps laps times, then sums rest more.
    laps, rest = divmod(t, dseq.a)
    prefix = list(accumulate(dseq.degrees + dseq.degrees[:rest], initial=0))
    return laps * prefix[dseq.a] + max(map(sub, prefix[rest:], prefix[: dseq.a])) <= dseq.b


def build_tree(dseq: DegreeSequence, shift_index: int) -> tuple[tuple[int, int], ...]:
    """Tree number ``shift_index`` (1-based) of the packing for ``dseq``.

    The host is a-by-b with a = ``dseq.a`` and b = ``dseq.b``.  Row j
    takes the d_{shift_index+j-1} cyclically consecutive y-positions
    starting at the previous row's final position; row 1 starts at anchor
    i_{shift_index-1} advanced by shift_index - 1.  The result has
    a + b - 1 edges covering all b y-positions, hence is a spanning tree.

    In closed form, with s = (shift_index - 1) mod a: the rows are 1..a,
    each repeated by the rotated degrees d_{s+1}..d_a, d_1..d_s, and edge
    e (0-based) of row x_e lies at y = (first + e - x_e) mod b + 1, where
    first = i_s + shift_index - 1.  Since e + 1 - x_e runs from 0 up to
    b - 1, the mod is an index into 1..b rotated to start at y(0).
    """
    a, b = dseq.a, dseq.b
    if shift_index < 1:
        raise InvalidArgumentError(f"shift index must be positive, got {shift_index}")
    if not verify_shift_capacity(dseq, shift_index):
        raise NotConstructibleError(
            f"window sums exceed b={b} at width {shift_index}; trees would overlap"
        )
    s = (shift_index - 1) % a
    rows = list(chain.from_iterable(map(repeat, range(1, a + 1), dseq.degrees[s:] + dseq.degrees[:s])))
    start = (dseq.anchors[s] + shift_index - 2) % b
    ys = tuple(range(1, b + 1))
    cols = map((ys[start:] + ys[:start]).__getitem__, map(sub, range(1, len(rows) + 1), rows))
    return tuple(zip(rows, cols))


def build_packing(order: BipartiteOrder) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The maximum packing: floor(ab/(a+b-1)) edge-disjoint spanning trees,
    each an edge tuple.

    The capacity check cannot fail at the target count (the window sums
    are balanced, so each is at most ceil(t'(a+b-1)/a) <= b).  ``build_tree``
    makes it for each tree, and would raise ``NotConstructibleError``; a
    failure there is a bug in the construction, not bad input.
    """
    t_max = target_tree_count(order.a, order.b)
    dseq = degree_sequence(order.a, order.b, t_max)
    return tuple(build_tree(dseq, l) for l in range(1, t_max + 1))
