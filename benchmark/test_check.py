"""Tests of the benchmark's own checker and closed form.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_check.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import CertificateError, check_certificate, kappa_closed_form, packing_count
from treeconn.cli import run
from treeconn.oracle import oracle_kappa_k
from workloads import drop_tree, plant_cycle, plant_shared_edge, plant_shared_hub


def emitted(capsys, *argv: str) -> dict:
    assert run(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def rejects(doc: dict, a: int, b: int, k: int | None = None) -> str:
    with pytest.raises(CertificateError) as caught:
        check_certificate(json.dumps(doc), a, b, k)
    return caught.value.kind


@pytest.mark.parametrize("a, b", [(1, 1), (3, 4), (4, 3), (7, 7), (40, 57), (57, 40)])
def test_accepts_packings(capsys, a, b):
    check_certificate(json.dumps(emitted(capsys, "pack", "--a", str(a), "--b", str(b))), a, b)


@pytest.mark.parametrize("a, b, k", [(3, 4, 2), (3, 4, 7), (4, 3, 5), (20, 33, 9), (33, 20, 40), (25, 25, 50)])
def test_accepts_witnesses(capsys, a, b, k):
    doc = emitted(capsys, "witness", "--a", str(a), "--b", str(b), "--k", str(k))
    check_certificate(json.dumps(doc), a, b, k)


@pytest.mark.parametrize("a, b", [(30, 41), (41, 30), (12, 12)])
def test_rejects_planted_packing_defects(capsys, a, b):
    doc = emitted(capsys, "pack", "--a", str(a), "--b", str(b))
    rng = random.Random(0)
    assert rejects(plant_shared_edge(copy.deepcopy(doc), rng), a, b) == "edge-overlap"
    assert rejects(plant_cycle(copy.deepcopy(doc), rng), a, b) == "cycle"
    assert rejects(drop_tree(copy.deepcopy(doc), -1), a, b) == "count"


@pytest.mark.parametrize("a, b, k", [(30, 41, 5), (41, 30, 30), (30, 41, 40), (20, 20, 3)])
def test_rejects_planted_witness_defects(capsys, a, b, k):
    doc = emitted(capsys, "witness", "--a", str(a), "--b", str(b), "--k", str(k))
    assert rejects(plant_shared_hub(copy.deepcopy(doc)), a, b, k) == "vertex-overlap"
    assert rejects(plant_cycle(copy.deepcopy(doc), random.Random(0)), a, b, k) in ("cycle", "edge-overlap")
    assert rejects(drop_tree(copy.deepcopy(doc), 0), a, b, k) == "count"


def test_rejects_other_defects(capsys):
    doc = emitted(capsys, "witness", "--a", "6", "--b", "9", "--k", "5")
    bad_class = copy.deepcopy(doc)
    bad_class["trees"][0]["class"] = "A2" if doc["trees"][0]["class"] != "A2" else "A0"
    assert rejects(bad_class, 6, 9, 5) == "class"
    missing = copy.deepcopy(doc)
    missing["trees"][0]["edges"] = missing["trees"][0]["edges"][1:]
    assert rejects(missing, 6, 9, 5) in ("coverage", "disconnected")
    outside = copy.deepcopy(doc)
    outside["trees"][0]["edges"][0] = [7, 1]
    assert rejects(outside, 6, 9, 5) == "out-of-range"
    assert rejects(doc, 6, 9, 6) == "header"
    hostile = {"kind": "packing", "a": 10**9, "b": 10**9, "trees": [{"edges": [[1, 1]]}]}
    assert rejects(hostile, 10**9, 10**9) == "coverage"


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_form_matches_oracle(n):
    for a in range(1, n):
        for k in range(2, n + 1):
            assert kappa_closed_form(a, n - a, k) == oracle_kappa_k(a, n - a, k), (a, n - a, k)


def test_closed_form_endpoints():
    for a in range(1, 60):
        for b in range(a, 60):
            assert kappa_closed_form(a, b, 2) == a
            assert kappa_closed_form(a, b, a + b) == packing_count(a, b)
