"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (combinatorial equalities); the runtime budgets are
part of the criteria and asserted as stated.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import time

from treeconn import build_packing, build_witness, kappa_bipartite, normalize, verify_witness
from treeconn.cli import run
from treeconn.connectivity import kappa_terminal
from treeconn.core import terminal_range, verify_family
from treeconn.oracle import (
    bipartite_terminal_vertices,
    complete_bipartite,
    oracle_kappa_k,
    oracle_max_tree_set,
    oracle_spanning_packing,
)
from treeconn.packing import (
    degree_sequence,
    residue_ordering,
    target_tree_count,
    verify_shift_capacity,
)


def _report(number: int, title: str, failures: list, elapsed: float, budget: float | None) -> None:
    on_time = budget is None or elapsed <= budget
    status = "PASS" if not failures and on_time else "FAIL"
    suffix = f"{elapsed:.2f}s" + (f" of {budget:.0f}s budget" if budget is not None else "")
    print(f"[{status}] criterion {number}: {title} ({suffix})")
    assert not failures, failures[:5]
    assert on_time, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_packing_construction_soundness():
    started = time.perf_counter()
    failures = []
    for b in range(1, 41):
        for a in range(1, b + 1):
            order = normalize(a, b)
            packing = build_packing(order)
            if len(packing.trees) != (a * b) // (a + b - 1):
                failures.append((a, b, "count", len(packing.trees)))
            union = set()
            total_edges = 0
            for tree in packing.trees:
                report = verify_family(order, [tree.edges], order.a, order.b, 0)
                if not report.ok:
                    failures.append((a, b, report.first_kind))
                union |= set(tree.edges)
                total_edges += len(tree.edges)
            if len(union) != total_edges:
                failures.append((a, b, "shared edges"))
    _report(
        1,
        "spanning-tree packings are sized, spanning, and edge-disjoint for a <= b <= 40",
        failures,
        time.perf_counter() - started,
        5.0,
    )


def test_criterion_2_closed_form_matches_oracle():
    started = time.perf_counter()
    failures = []
    for total in range(2, 9):
        for a in range(1, total // 2 + 1):
            b = total - a
            order = normalize(a, b)
            graph = complete_bipartite(a, b)
            for k in range(2, total + 1):
                if kappa_bipartite(order, k) != oracle_kappa_k(a, b, k):
                    failures.append((a, b, k, "kappa"))
                for i in terminal_range(order, k):
                    exact = oracle_max_tree_set(
                        graph, bipartite_terminal_vertices(a, b, k, i)
                    ).count
                    if kappa_terminal(order, k, i).kappa != exact:
                        failures.append((a, b, k, i, "terminal"))
    _report(
        2,
        "closed forms equal the brute-force oracle for a + b <= 8, every k and profile",
        failures,
        time.perf_counter() - started,
        600.0,
    )


def test_criterion_2_extends_to_nine_vertices():
    # oracle_kappa_k stops at a + b = 8, so the minimum over profiles is taken here
    started = time.perf_counter()
    failures = []
    for a in range(1, 5):
        b = 9 - a
        order = normalize(a, b)
        graph = complete_bipartite(a, b)
        for k in range(2, 10):
            exact = {
                i: oracle_max_tree_set(graph, bipartite_terminal_vertices(a, b, k, i)).count
                for i in terminal_range(order, k)
            }
            for i, count in exact.items():
                if kappa_terminal(order, k, i).kappa != count:
                    failures.append((a, b, k, i, "terminal"))
            if kappa_bipartite(order, k) != min(exact.values()):
                failures.append((a, b, k, "kappa"))
    _report(
        2,
        "closed forms equal the brute-force oracle for a + b = 9, every k and profile",
        failures,
        time.perf_counter() - started,
        120.0,
    )


def test_criterion_3_packing_count_matches_oracle():
    started = time.perf_counter()
    failures = []
    for b in range(1, 21):
        for a in range(1, b + 1):
            if target_tree_count(a, b) != oracle_spanning_packing(a, b):
                failures.append((a, b))
    _report(
        3,
        "floor(ab/(a+b-1)) equals the matroid-partition packing for all a <= b <= 20",
        failures,
        time.perf_counter() - started,
        30.0,
    )


def test_criterion_4_witness_completeness():
    started = time.perf_counter()
    failures = []
    for b in range(1, 13):
        for a in range(1, b + 1):
            order = normalize(a, b)
            for k in range(2, a + b + 1):
                smallest = None
                for i in terminal_range(order, k):
                    witness = build_witness(order, k, i)
                    report = verify_witness(order, witness)
                    if not report.ok:
                        failures.append((a, b, k, i, report.first_kind))
                    expected = kappa_terminal(order, k, i).kappa
                    if len(witness.trees) != expected:
                        failures.append((a, b, k, i, "size"))
                    smallest = expected if smallest is None else min(smallest, expected)
                if smallest != kappa_bipartite(order, k):
                    failures.append((a, b, k, "minimum"))
    _report(
        4,
        "witnesses build, verify, and attain the closed form for a <= b <= 12",
        failures,
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_5_endpoint_identities_at_scale():
    started = time.perf_counter()
    failures = []
    for b in range(1, 201):
        for a in range(1, b + 1):
            order = normalize(a, b)
            if kappa_bipartite(order, 2) != a:
                failures.append((a, b, 2))
            if kappa_bipartite(order, a + b) != (a * b) // (a + b - 1):
                failures.append((a, b, a + b))
    _report(
        5,
        "kappa_2 = a and kappa_{a+b} = floor(ab/(a+b-1)) for a <= b <= 200",
        failures,
        time.perf_counter() - started,
        5.0,
    )


def test_criterion_6_degree_sequence_properties():
    started = time.perf_counter()
    failures = []
    for a in range(1, 61):
        for t in range(1, 61):
            ordering = residue_ordering(a, t)
            if sorted(ordering) != list(range(1, a + 1)):
                failures.append((a, t, "not a permutation"))
    for b in range(1, 61):
        for a in range(1, b + 1):
            for t in range(1, a + 1):
                degrees = degree_sequence(a, b, t).degrees
                # sliding width-t window sums differ by at most one
                current = sum(degrees[j % a] for j in range(t))
                lowest = highest = current
                for j in range(1, a):
                    current += degrees[(j + t - 1) % a] - degrees[j - 1]
                    lowest = min(lowest, current)
                    highest = max(highest, current)
                if highest - lowest > 1:
                    failures.append((a, b, t, "unbalanced"))
            t_max = target_tree_count(a, b)
            if not verify_shift_capacity(degree_sequence(a, b, t_max), t_max):
                failures.append((a, b, "capacity"))
    _report(
        6,
        "orderings are permutations; window sums are balanced and fit b at the target",
        failures,
        time.perf_counter() - started,
        None,
    )


def test_criterion_7_hand_checked_values():
    started = time.perf_counter()
    failures = []
    checks = [
        (3, 3, 3, 2),
        (3, 3, 6, 1),
        (2, 5, 2, 2),
        (2, 5, 3, 2),
        (2, 5, 4, 2),
        (2, 5, 5, 2),
    ]
    for a, b, k, expected in checks:
        order = normalize(a, b)
        if kappa_bipartite(order, k) != expected:
            failures.append((a, b, k, "closed form"))
        if oracle_kappa_k(a, b, k) != expected:
            failures.append((a, b, k, "oracle"))
    # K_{5,5} with k=4 is beyond the oracle guard; use verified witnesses
    order = normalize(5, 5)
    if kappa_bipartite(order, 4) != 4:
        failures.append((5, 5, 4, "closed form"))
    sizes = []
    for i in terminal_range(order, 4):
        witness = build_witness(order, 4, i)
        if not verify_witness(order, witness).ok:
            failures.append((5, 5, 4, i, "witness invalid"))
        sizes.append(len(witness.trees))
    if min(sizes) != 4:
        failures.append((5, 5, 4, "witness minimum", min(sizes)))
    _report(
        7,
        "hand-checked values for K_{3,3}, K_{2,5}, and K_{5,5}",
        failures,
        time.perf_counter() - started,
        None,
    )


def test_criterion_8_cli_round_trip(capsys, tmp_path):
    started = time.perf_counter()
    failures = []
    path = tmp_path / "certificate.json"
    for b in range(1, 21):
        for a in range(1, b + 1):
            code = run(["pack", "--a", str(a), "--b", str(b)])
            emitted = capsys.readouterr().out
            if code != 0:
                failures.append((a, b, "pack exit", code))
                continue
            path.write_text(emitted)
            code = run(["verify", "--input", str(path)])
            capsys.readouterr()
            if code != 0:
                failures.append((a, b, "verify exit", code))

    # byte-identical emission across repeated runs
    run(["pack", "--a", "11", "--b", "17"])
    first = capsys.readouterr().out
    run(["pack", "--a", "11", "--b", "17"])
    second = capsys.readouterr().out
    if first != second:
        failures.append(("pack output not byte-identical",))

    # a duplicated cross-tree edge must be diagnosed as edge-overlap
    run(["pack", "--a", "3", "--b", "4"])
    doc = json.loads(capsys.readouterr().out)
    edges = doc["trees"][1]["edges"]
    if [3, 2] not in edges or [1, 2] not in doc["trees"][0]["edges"]:
        failures.append(("unexpected construction; cannot corrupt",))
    else:
        edges.remove([3, 2])
        edges.append([1, 2])
        path.write_text(json.dumps(doc))
        code = run(["verify", "--input", str(path)])
        err = capsys.readouterr().err
        if code != 2:
            failures.append(("corrupted verify exit", code))
        if "edge-overlap" not in err:
            failures.append(("diagnostic missing edge-overlap", err))
    _report(
        8,
        "pack/verify round trips exit 0 for a <= b <= 20; corruption exits 2",
        failures,
        time.perf_counter() - started,
        None,
    )
