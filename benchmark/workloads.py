"""Seeded operation lists for the three workloads.

One round is a fixed list of CLI invocations; a run repeats whole rounds,
so every run attempts the same mix and fails the same share of it.  Host
sizes are drawn by Latin hypercube sampling over continuous ranges: each
dimension is split into as many equal strata as there are draws, one draw
per stratum, so two seeds give near-identical cost distributions and no
reported percentile sits on a gap between cost clusters.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from check import kappa_closed_form, packing_count

# Per-side host sizes, shared by build-certs and verify-certs.
SIZE_LO, SIZE_HI = 40, 120
# Header sizes claimed by the hostile one-tree bodies in verify-certs.
HOSTILE_LO, HOSTILE_HI = 20_000, 100_000

Invoke = Callable[[list], tuple]  # argv -> (exit code, stdout, stderr)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what it must produce.

    ``cert`` holds (a, b, k) when stdout must be a maximum certificate
    (k is None for a packing); otherwise stdout must equal ``stdout``.
    """

    label: str
    argv: tuple[str, ...]
    rc: int
    stdout: str | None = None
    cert: tuple | None = None


@dataclass
class Round:
    """The operations of one round, and how a run reports their times.

    ``tail`` is the percentile reported as tail_ms.  At least ten distinct
    operations of the round lie beyond it, since repeats of one operation
    in later rounds are not new samples of the tail.  ``files`` maps each
    certificate written for verify-certs to (a, b, k, expected to pass).
    """

    ops: list[Op]
    tail: float
    files: dict


def strata(rng: random.Random, n: int, lo: float, hi: float, order=None) -> list[float]:
    """n values in [lo, hi), one uniform draw in each of n equal-width strata.

    ``order`` lists the strata in the order the values are returned;
    without it the order is shuffled by the seed.
    """
    if order is None:
        order = rng.sample(range(n), n)
    return [lo + (j + rng.random()) * (hi - lo) / n for j in order]


def hosts(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """n (smaller, larger, u) host draws; u in [0, 1) places k in its range.

    Which stratum of one dimension meets which of another is fixed by n
    alone, so the seed moves each draw only within its strata, and the
    cost of the round barely moves with the seed.
    """
    design = random.Random(n)
    xs = strata(rng, n, SIZE_LO, SIZE_HI + 1, range(n))
    ys = strata(rng, n, SIZE_LO, SIZE_HI + 1, design.sample(range(n), n))
    us = strata(rng, n, 0.0, 1.0, design.sample(range(n), n))
    return [(min(int(x), int(y)), max(int(x), int(y)), u) for x, y, u in zip(xs, ys, us)]


def orientations(rng: random.Random, n: int) -> list[bool]:
    """Exactly half True (larger part named first), in seeded order."""
    flags = [j % 2 == 1 for j in range(n)]
    rng.shuffle(flags)
    return flags


def k_in_range(p: int, q: int, u: float) -> int:
    return 2 + int(u * (p + q - 1))


def sized_argv(command: str, p: int, q: int, swap: bool, k: int | None = None) -> tuple:
    a, b = (q, p) if swap else (p, q)
    argv = (command, "--a", str(a), "--b", str(b))
    return argv + (("--k", str(k)) if k is not None else ())


def build_certs(seed: int, workdir: Path, invoke: Invoke) -> Round:
    """48 pack and 80 witness commands on hosts of 40-120 per side.

    Witness cost is flat until k passes about three quarters of a+b,
    where single-hub trees start to draw on the residual-edge ledger, and
    then climbs steeply; k = 2 + (1 - (1-u)^2)(a+b-2) puts half of the
    witnesses in that band, so the tail percentile falls inside it.  The
    tail is p80, not p90: the top tenth holds a dozen sparse, large
    witnesses, and on a shared host their p90 spread past the bound in
    runs whose p50 stayed within it.
    """
    rng = random.Random(seed)
    ops = []
    for command, count in (("pack", 48), ("witness", 80)):
        for (p, q, u), swap in zip(hosts(rng, count), orientations(rng, count)):
            k = k_in_range(p, q, 1 - (1 - u) ** 2) if command == "witness" else None
            argv = sized_argv(command, p, q, swap, k)
            ops.append(Op(command, argv, 0, cert=(int(argv[2]), int(argv[4]), k)))
    rng.shuffle(ops)
    return Round(ops, tail=80.0, files={})


def _certificate(invoke: Invoke, argv: tuple) -> dict:
    rc, out, err = invoke(list(argv))
    if rc != 0:
        raise RuntimeError(f"set-up command {' '.join(argv)} exited {rc}: {err.strip()}")
    return json.loads(out)


def _tree_path(edges: list, start: int, goal: int, a: int) -> list:
    """Edges on the path from start to goal in a tree (x_s is s, y_t is a+t)."""
    adjacent: dict[int, list] = {}
    for x, y in edges:
        adjacent.setdefault(x, []).append((a + y, (x, y)))
        adjacent.setdefault(a + y, []).append((x, (x, y)))
    via = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        for w, edge in adjacent.get(v, ()):
            if w not in via:
                via[w] = (v, edge)
                stack.append(w)
    path = []
    while via[goal] is not None:
        goal, edge = via[goal]
        path.append(edge)
    return path


def plant_shared_edge(doc: dict, rng: random.Random) -> dict:
    """The last tree takes one edge of the one before it, and drops one edge
    of the cycle that closes, so both stay spanning trees."""
    trees = doc["trees"]
    shared = rng.choice(trees[-2]["edges"])
    last = [tuple(e) for e in trees[-1]["edges"]]
    dropped = _tree_path(last, shared[0], doc["a"] + shared[1], doc["a"])[0]
    last.remove(dropped)
    trees[-1]["edges"] = sorted([list(e) for e in last] + [list(shared)])
    return doc


def plant_cycle(doc: dict, rng: random.Random) -> dict:
    """The last tree gains an edge between two of its own vertices, unused by
    every other tree when such an edge exists."""
    trees = doc["trees"]
    mine = {tuple(e) for e in trees[-1]["edges"]}
    used = {tuple(e) for t in trees for e in t["edges"]}
    xs = sorted({x for x, _ in mine})
    ys = sorted({y for _, y in mine})
    chords = [(x, y) for x in xs for y in ys if (x, y) not in mine]
    fresh = [e for e in chords if e not in used]
    # A star has no chord; its repeated edge is the cycle then.
    chord = rng.choice(fresh or chords or sorted(mine))
    trees[-1]["edges"] = sorted([list(e) for e in mine] + [list(chord)])
    return doc


def plant_shared_hub(doc: dict) -> dict | None:
    """Tree Q takes in a hub of tree P, through edges no tree uses: one edge
    from the hub to a vertex of Q, or else a path through a vertex no tree
    has.  P and Q move to the end.  None when neither exists."""
    a, b, i, k = doc["a"], doc["b"], doc["i"], doc["k"]
    trees = doc["trees"]
    vertex_sets = [{x for x, _ in t["edges"]} | {a + y for _, y in t["edges"]} for t in trees]
    used = set().union(*vertex_sets)

    def edge(u: int, v: int) -> list:  # vertex ids: x_s is s, y_t is a+t
        return [u, v - a] if u <= a else [v, u - a]

    for p, vertices in enumerate(vertex_sets):
        p_edges = {tuple(e) for e in trees[p]["edges"]}
        for hub in sorted(v for v in vertices if i < v <= a or v > a + k - i):
            other_side = range(a + 1, a + b + 1) if hub <= a else range(1, a + 1)
            fresh = next((v for v in other_side if v not in used), None)
            for q, q_vertices in enumerate(vertex_sets):
                if q == p:
                    continue
                direct = [v for v in sorted(q_vertices) if v in other_side
                          and tuple(edge(hub, v)) not in p_edges]
                if direct:
                    added = [edge(hub, direct[0])]
                elif fresh is not None:
                    own = min(v for v in q_vertices if v not in other_side)
                    added = [edge(own, fresh), edge(hub, fresh)]
                else:
                    continue
                planted = dict(trees[q], edges=sorted(trees[q]["edges"] + added))
                rest = [t for n, t in enumerate(trees) if n not in (p, q)]
                doc["trees"] = rest + [trees[p], planted]
                return doc
    return None


def drop_tree(doc: dict, position: int) -> dict:
    del doc["trees"][position]
    return doc


# Under-full certificates do not depend on the seed: verify accepts them
# today (the tree count is never checked), and every run fails them all.
UNDER_FULL = (
    (("pack", "--a", "60", "--b", "75"), -1),
    (("pack", "--a", "100", "--b", "45"), 0),
    (("witness", "--a", "75", "--b", "60", "--k", "60"), -1),
    (("witness", "--a", "50", "--b", "90", "--k", "100"), 0),
)


# The certificates of one verify-certs round: (command, defect, count).
VERIFY_GROUPS = (("pack", "valid", 10), ("pack", "shared-edge", 4), ("pack", "cycle", 2),
                 ("witness", "valid", 10), ("witness", "shared-hub", 4), ("witness", "cycle", 2))


def verify_slots() -> list[tuple[str, str, bool]]:
    """(command, defect, swap) of each certificate, in the order of the host
    strata they take.  The j-th of a group of n sits at (j + 1/2) / n along
    the host range, so every group spreads evenly over it; swap alternates
    within a group.  Nothing here depends on the seed."""
    slots = [((j + 0.5) / count, g, (command, defect, j % 2 == 1))
             for g, (command, defect, count) in enumerate(VERIFY_GROUPS) for j in range(count)]
    return [slot for _, _, slot in sorted(slots)]


def verify_certs(seed: int, workdir: Path, invoke: Invoke) -> Round:
    """40 verify commands: 20 valid certificates, 12 with one planted defect,
    4 hostile one-tree bodies and 4 under-full certificates.

    The 32 certificate hosts are one Latin hypercube over the whole round,
    and the hostile claims keep fixed strata and pairs, so the seed moves
    each size only inside a narrow stratum.
    """
    rng = random.Random(seed)
    files: dict = {}
    ops: list[Op] = []

    def add(label: str, doc: dict, rc: int, cert: tuple) -> None:
        path = workdir / f"{len(files):02d}-{label}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")))
        files[str(path)] = cert + (rc == 0,)
        expected = "ok\n" if rc == 0 else ""
        ops.append(Op(label, ("verify", "--input", str(path)), rc, stdout=expected))

    # Each defect sits in the last trees of its certificate, where today's
    # pairwise overlap loop reaches it last, so a rejection costs about as
    # much as an acceptance.
    slots = verify_slots()
    for (p, q, u), (command, defect, swap) in zip(hosts(rng, len(slots)), slots):
        if command == "pack":
            doc = _certificate(invoke, sized_argv(command, p, q, swap))
        else:
            # A shared hub needs two trees with room for it.  Witnesses have
            # that room up to k of about 0.84(a+b), so its k is drawn below
            # 0.8(a+b).
            k = k_in_range(p, q, 0.8 * u if defect == "shared-hub" else u)
            doc = _certificate(invoke, sized_argv(command, p, q, swap, k))
            if defect == "shared-hub":
                doc = plant_shared_hub(doc)
                if doc is None:
                    raise RuntimeError(f"witness {p}x{q} k={k} has no room for a shared hub")
        if defect == "shared-edge":
            doc = plant_shared_edge(doc, rng)
        elif defect == "cycle":
            doc = plant_cycle(doc, rng)
        label = f"{command}-{defect}"
        add(label, doc, 0 if defect == "valid" else 2, (doc["a"], doc["b"], doc.get("k")))

    # One packing claims the top of the range on both sides, so that peak
    # memory does not move with the seed.  The other claims are drawn in
    # fixed strata, paired low with high so that those three bodies claim
    # about as many vertices as each other.
    drawn = [int(c) for c in strata(rng, 6, HOSTILE_LO, HOSTILE_HI, range(6))]
    pairs = [(HOSTILE_HI, HOSTILE_HI), (drawn[0], drawn[5]), (drawn[4], drawn[1]),
             (drawn[2], drawn[3])]
    for n, (a, b) in enumerate(pairs):
        if n % 2 == 0:
            doc = {"kind": "packing", "a": a, "b": b, "trees": [{"edges": [[1, 1]]}]}
            cert = (a, b, None)
        else:
            k = min(a, b)
            doc = {"kind": "witness", "a": a, "b": b, "k": k, "i": k // 2,
                   "trees": [{"edges": [[1, 1]]}]}
            cert = (a, b, k)
        add("hostile", doc, 2, cert)

    for argv, position in UNDER_FULL:
        doc = drop_tree(_certificate(invoke, argv), position)
        add("under-full", doc, 2, (doc["a"], doc["b"], doc.get("k")))

    rng.shuffle(ops)
    return Round(ops, tail=75.0, files=files)


def oracle_guard(seed: int, workdir: Path, invoke: Invoke) -> Round:
    """Every oracle instance at the guards, both orientations, seeded order:
    kappa_k for a+b = 8 (all k) and spanning packings for 16 <= ab <= 20."""
    rng = random.Random(seed)
    ops = []
    for a in range(1, 8):
        for k in range(2, 9):
            argv = ("oracle", "--a", str(a), "--b", str(8 - a), "--k", str(k))
            ops.append(Op("oracle-kappa", argv, 0, stdout=f"{kappa_closed_form(a, 8 - a, k)}\n"))
    for a in range(1, 21):
        for b in range(1, 21):
            if 16 <= a * b <= 20:
                argv = ("oracle", "--a", str(a), "--b", str(b))
                ops.append(Op("oracle-spanning", argv, 0, stdout=f"{packing_count(a, b)}\n"))
    rng.shuffle(ops)
    return Round(ops, tail=85.0, files={})


WORKLOADS = {
    "build-certs": build_certs,
    "verify-certs": verify_certs,
    "oracle-guard": oracle_guard,
}
