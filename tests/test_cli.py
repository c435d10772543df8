"""Tests for the command-line interface and certificate documents."""

import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeconn import cli
from treeconn.cli import (
    CertificateDocument,
    emit_dot,
    emit_json,
    packing_document,
    parse_document,
    run,
    verify_document,
    witness_document,
)
from treeconn import InvalidArgumentError, build_packing, build_witness, normalize
from treeconn.core import terminal_range


def _run(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKappaCommand:
    def test_prints_value(self, capsys):
        code, out, _ = _run(capsys, "kappa", "--a", "3", "--b", "4", "--k", "7")
        assert code == 0
        assert out == "2\n"

    def test_breakdown_json(self, capsys):
        code, out, _ = _run(capsys, "kappa", "--a", "3", "--b", "4", "--k", "5", "--breakdown", "--i", "2")
        assert code == 0
        assert json.loads(out) == {"i": 2, "a2": 1, "a1": 0, "a1_side": "none", "a0": 1, "kappa": 2}

    def test_breakdown_defaults_to_minimizing_profile(self, capsys):
        code, out, _ = _run(capsys, "kappa", "--a", "3", "--b", "3", "--k", "3", "--breakdown")
        assert code == 0
        payload = json.loads(out)
        assert payload["i"] == 1 and payload["kappa"] == 2

    def test_single_profile_value(self, capsys):
        code, out, _ = _run(capsys, "kappa", "--a", "5", "--b", "5", "--k", "4", "--i", "0")
        assert code == 0
        assert out == "5\n"

    def test_swapped_orientation_flips_sides(self, capsys):
        # caller's first part is the larger one; i counts its vertices
        _, straight, _ = _run(capsys, "kappa", "--a", "3", "--b", "4", "--k", "5", "--breakdown", "--i", "1")
        _, swapped, _ = _run(capsys, "kappa", "--a", "4", "--b", "3", "--k", "5", "--breakdown", "--i", "4")
        left, right = json.loads(straight), json.loads(swapped)
        assert left["kappa"] == right["kappa"]
        assert left["a1_side"] == "X" and right["a1_side"] == "Y"

    def test_bad_arguments_exit_one(self, capsys):
        code, _, err = _run(capsys, "kappa", "--a", "0", "--b", "4", "--k", "2")
        assert code == 1
        assert "error" in err
        code, _, _ = _run(capsys, "kappa", "--a", "3", "--b", "3", "--k", "9")
        assert code == 1

    @pytest.mark.parametrize(
        "a,b,i,message",
        [
            (4, 3, 9, "i=9 outside [2, 4] for k=5 on 4x3"),
            (4, 3, 1, "i=1 outside [2, 4] for k=5 on 4x3"),
            (3, 4, 9, "i=9 outside [1, 3] for k=5 on 3x4"),
            (3, 4, 0, "i=0 outside [1, 3] for k=5 on 3x4"),
        ],
    )
    def test_bad_i_is_named_in_callers_labels(self, capsys, a, b, i, message):
        sizes = ("--a", str(a), "--b", str(b), "--k", "5", "--i", str(i))
        for command in (("kappa",), ("kappa", "--breakdown"), ("witness",)):
            code, out, err = _run(capsys, *command, *sizes)
            assert (code, out, err) == (1, "", f"error: {message}\n"), command

    @pytest.mark.parametrize(
        "command",
        [
            ("kappa",),
            ("kappa", "--i", "2"),
            ("kappa", "--breakdown"),
            ("kappa", "--breakdown", "--i", "2"),
            ("witness",),
            ("witness", "--i", "2"),
        ],
    )
    def test_bad_k_has_one_wording(self, capsys, command):
        # k's range [2, a+b] does not depend on which part is named first.
        code, out, err = _run(capsys, *command, "--a", "4", "--b", "3", "--k", "9")
        assert (code, out, err) == (1, "", "error: k=9 outside [2, 7]\n")

    def test_usage_error_exits_one(self, capsys):
        code, _, _ = _run(capsys, "kappa", "--a", "3")
        assert code == 1
        code, _, _ = _run(capsys, "nonsense")
        assert code == 1


class TestPackCommand:
    def test_golden_two_by_two(self, capsys):
        code, out, _ = _run(capsys, "pack", "--a", "2", "--b", "2")
        assert code == 0
        assert out == '{"kind":"packing","a":2,"b":2,"trees":[{"edges":[[1,1],[1,2],[2,2]]}]}\n'

    def test_byte_identical_runs(self, capsys):
        _, first, _ = _run(capsys, "pack", "--a", "7", "--b", "9")
        _, second, _ = _run(capsys, "pack", "--a", "7", "--b", "9")
        assert first == second

    def test_dot_output_colors_trees(self, capsys):
        code, out, _ = _run(capsys, "pack", "--a", "3", "--b", "4", "--format", "dot")
        assert code == 0
        edge_lines = [line for line in out.splitlines() if "--" in line]
        assert len(edge_lines) == 12
        colors = {line.split('color="')[1].split('"')[0] for line in edge_lines}
        assert len(colors) == 2
        for color in colors:
            assert sum(1 for line in edge_lines if color in line) == 6

    def test_single_tree_single_color(self, capsys):
        _, out, _ = _run(capsys, "pack", "--a", "2", "--b", "2", "--format", "dot")
        edge_lines = [line for line in out.splitlines() if "--" in line]
        assert len(edge_lines) == 3
        assert len({line.split('color="')[1].split('"')[0] for line in edge_lines}) == 1


def test_certificates_match_the_golden_digest(capsys):
    """The exit codes and certificates of ``pack`` and ``witness`` for
    1 <= a, b <= 7, both orders of the sizes, every k and every i, hash
    to one pinned SHA-1: certificates must stay byte-identical."""
    digest = hashlib.sha1()
    count = 0
    for a in range(1, 8):
        for b in range(1, 8):
            commands = [("pack", "--a", str(a), "--b", str(b))]
            for k in range(2, a + b + 1):
                for i in range(max(0, k - b), min(a, k) + 1):
                    commands.append(("witness", "--a", str(a), "--b", str(b), "--k", str(k), "--i", str(i)))
            for argv in commands:
                code, out, _ = _run(capsys, *argv)
                digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
                count += 1
    assert count == 1127
    assert digest.hexdigest() == "99f3781a532aceb4e35874da702c33c3edfd7e7c"


def test_large_certificates_match_their_digest(capsys):
    """``pack`` on every host with sides in {40, 97, 120, 200}, both orders,
    and ``witness`` on each at k in {2, (a+b)/2, 0.9(a+b), a+b}, once with
    the default profile and once with i near k/2, hash to one pinned SHA-1:
    the sizes the benchmark runs stay byte-identical too."""
    digest = hashlib.sha1()
    count = 0
    sizes = (40, 97, 120, 200)
    for a in sizes:
        for b in sizes:
            n = a + b
            commands = [("pack", "--a", str(a), "--b", str(b))]
            for k in sorted({2, n // 2, (9 * n) // 10, n}):
                witness = ("witness", "--a", str(a), "--b", str(b), "--k", str(k))
                commands += [witness, witness + ("--i", str(min(a, max(k - b, k // 2))))]
            for argv in commands:
                code, out, _ = _run(capsys, *argv)
                digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
                count += 1
    assert count == 144
    assert digest.hexdigest() == "eae81b492589f4d06f0b9c9bca4301b4563c49e6"


class TestWitnessCommand:
    def test_golden_witness(self, capsys):
        code, out, _ = _run(capsys, "witness", "--a", "2", "--b", "3", "--k", "3", "--i", "1")
        assert code == 0
        assert out == (
            '{"kind":"witness","a":2,"b":3,"k":3,"i":1,"trees":'
            '[{"class":"A2","edges":[[1,3],[2,1],[2,2],[2,3]]},'
            '{"class":"A0","edges":[[1,1],[1,2]]}]}\n'
        )

    def test_default_profile_attains_kappa(self, capsys):
        code, out, _ = _run(capsys, "witness", "--a", "3", "--b", "3", "--k", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["i"] == 1
        assert len(doc["trees"]) == 2

    def test_dot_boxes_terminals(self, capsys):
        _, out, _ = _run(capsys, "witness", "--a", "2", "--b", "3", "--k", "3", "--i", "1", "--format", "dot")
        edge_lines = [line for line in out.splitlines() if "--" in line]
        assert len(edge_lines) == 6
        boxed = {line.split()[0] for line in out.splitlines() if "shape=box" in line}
        assert boxed == {"x1", "y1", "y2"}

    def test_class_counts_match_breakdown(self, capsys):
        _, out, _ = _run(capsys, "witness", "--a", "5", "--b", "5", "--k", "4", "--i", "2")
        doc = json.loads(out)
        assert sum(1 for t in doc["trees"] if t["class"] == "A2") == 3
        assert sum(1 for t in doc["trees"] if t["class"] == "A0") == 1


class TestVerifyCommand:
    def test_round_trip(self, capsys, tmp_path):
        _, out, _ = _run(capsys, "pack", "--a", "3", "--b", "4")
        path = tmp_path / "pack.json"
        path.write_text(out)
        code, out, err = _run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert out == "ok\n"

    def test_swapped_round_trip(self, capsys, tmp_path):
        for args in (["pack", "--a", "6", "--b", "4"],
                     ["witness", "--a", "6", "--b", "4", "--k", "7"]):
            _, out, _ = _run(capsys, *args)
            path = tmp_path / "doc.json"
            path.write_text(out)
            code, _, _ = _run(capsys, "verify", "--input", str(path))
            assert code == 0

    def test_cross_tree_duplicate_edge(self, capsys, tmp_path):
        _, out, _ = _run(capsys, "pack", "--a", "3", "--b", "4")
        doc = json.loads(out)
        edges = doc["trees"][1]["edges"]
        assert [3, 2] in edges and [1, 2] in doc["trees"][0]["edges"]
        edges.remove([3, 2])
        edges.append([1, 2])  # steal an edge of tree 0; tree 1 stays a spanning tree
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert "edge-overlap" in err

    def test_duplicated_whole_tree(self, capsys, tmp_path):
        _, out, _ = _run(capsys, "pack", "--a", "3", "--b", "4")
        doc = json.loads(out)
        doc["trees"][1] = doc["trees"][0]
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert "edge-overlap" in err

    def test_shared_hub_in_witness(self, capsys, tmp_path):
        _, out, _ = _run(capsys, "witness", "--a", "3", "--b", "3", "--k", "3", "--i", "0")
        doc = json.loads(out)
        doc["trees"][1] = doc["trees"][0]
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert "vertex-overlap" in err

    @pytest.mark.parametrize("a, b", [(4, 6), (6, 4)])
    def test_relabelled_class_is_a_mismatch(self, capsys, tmp_path, a, b):
        _, out, _ = _run(capsys, "witness", "--a", str(a), "--b", str(b), "--k", "4")
        doc = json.loads(out)
        assert doc["trees"][0]["class"] == "A1"  # a star: one hub outside S
        doc["trees"][0]["class"] = "A2"
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "class-mismatch: tree 0 is declared A2 but has 1 vertices outside S\n"

    def test_class_mismatch_wins_over_count(self, capsys, tmp_path):
        _, out, _ = _run(capsys, "witness", "--a", "4", "--b", "6", "--k", "4")
        doc = json.loads(out)
        doc["trees"] = doc["trees"][:2]
        doc["trees"][1]["class"] = "A0"
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert err.startswith("class-mismatch: tree 1 ")

    @pytest.mark.parametrize("a, b", [(4, 6), (6, 4)])
    def test_missing_classes_are_allowed(self, capsys, tmp_path, a, b):
        _, out, _ = _run(capsys, "witness", "--a", str(a), "--b", str(b), "--k", "5")
        doc = json.loads(out)
        for tree in doc["trees"]:
            del tree["class"]
        path = tmp_path / "classless.json"
        path.write_text(json.dumps(doc))
        assert _run(capsys, "verify", "--input", str(path))[:2] == (0, "ok\n")

    @pytest.mark.parametrize("a, b", [(3, 4), (4, 3)])
    @pytest.mark.parametrize("declared", ["A1", "A2"])
    def test_packing_tree_class_is_checked(self, capsys, tmp_path, a, b, declared):
        _, out, _ = _run(capsys, "pack", "--a", str(a), "--b", str(b))
        doc = json.loads(out)
        doc["trees"][0]["class"] = declared  # a spanning tree has no vertex outside S
        path = tmp_path / "classed.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == f"class-mismatch: tree 0 is declared {declared} but has 0 vertices outside S\n"

    @pytest.mark.parametrize(
        "a,b,i,message",
        [
            (4, 3, 6, "i=6 outside [2, 4] for k=5 on 4x3"),
            (4, 3, -1, "i=-1 outside [2, 4] for k=5 on 4x3"),
            (3, 4, 6, "i=6 outside [1, 3] for k=5 on 3x4"),
            (3, 4, -1, "i=-1 outside [1, 3] for k=5 on 3x4"),
        ],
    )
    def test_bad_witness_i_is_named_in_document_labels(self, capsys, tmp_path, a, b, i, message):
        _, out, _ = _run(capsys, "witness", "--a", str(a), "--b", str(b), "--k", "5", "--i", "2")
        doc = json.loads(out)
        doc["i"] = i
        path = tmp_path / "bad-i.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "verify", "--input", str(path))
        assert (code, out, err) == (2, "", f"wrong-terminals: {message}\n")

    @pytest.mark.parametrize("a, b", [(3, 4), (4, 3)])
    def test_packing_tree_may_declare_a0(self, capsys, tmp_path, a, b):
        _, out, _ = _run(capsys, "pack", "--a", str(a), "--b", str(b))
        doc = json.loads(out)
        assert all("class" not in tree for tree in doc["trees"])
        path = tmp_path / "classless.json"
        path.write_text(json.dumps(doc))
        assert _run(capsys, "verify", "--input", str(path))[:2] == (0, "ok\n")
        doc["trees"][0]["class"] = "A0"
        path.write_text(json.dumps(doc))
        assert _run(capsys, "verify", "--input", str(path))[:2] == (0, "ok\n")

    def test_empty_packing_is_not_maximum(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"kind":"packing","a":3,"b":4,"trees":[]}')
        code, out, err = _run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("not-maximum")

    @pytest.mark.parametrize("args", [
        ["pack", "--a", "4", "--b", "6"],
        ["pack", "--a", "6", "--b", "4"],
        ["witness", "--a", "4", "--b", "6", "--k", "7"],
        ["witness", "--a", "6", "--b", "4", "--k", "7"],
        ["witness", "--a", "5", "--b", "3", "--k", "4", "--i", "4"],
    ])
    def test_one_tree_short_is_not_maximum(self, capsys, tmp_path, args):
        _, out, _ = _run(capsys, *args)
        doc = json.loads(out)
        assert len(doc["trees"]) >= 2
        for position in (0, -1):
            short = dict(doc, trees=[t for n, t in enumerate(doc["trees"])
                                     if n != position % len(doc["trees"])])
            path = tmp_path / "short.json"
            path.write_text(json.dumps(short))
            code, _, err = _run(capsys, "verify", "--input", str(path))
            assert code == 2
            assert err.startswith("not-maximum")

    def test_structural_defect_wins_over_count(self, capsys, tmp_path):
        _, out, _ = _run(capsys, "pack", "--a", "6", "--b", "8")
        doc = json.loads(out)
        assert len(doc["trees"]) == 3
        doc["trees"] = [doc["trees"][0], doc["trees"][0]]  # one short, and overlapping
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "verify", "--input", str(path))
        assert code == 2
        assert err.startswith("edge-overlap")

    def test_non_utf8_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{\x00")
        code, out, err = _run(capsys, "verify", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_deeply_nested_json_exits_one(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = _run(capsys, "verify", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = _run(capsys, "verify", "--input", str(tmp_path / "absent.json"))
        assert code == 1

    def test_rejects_dot_input(self, capsys, tmp_path):
        _, out, _ = _run(capsys, "pack", "--a", "2", "--b", "2", "--format", "dot")
        path = tmp_path / "pack.dot"
        path.write_text(out)
        code, _, err = _run(capsys, "verify", "--input", str(path))
        assert code == 1
        assert "error" in err


def _mirrored(doc: dict) -> dict:
    """A certificate named the other way round: a and b swap, i becomes
    k - i, every edge [x, y] becomes [y, x] (re-sorted); classes stay."""
    out = dict(doc, a=doc["b"], b=doc["a"])
    if "i" in doc:
        out["i"] = doc["k"] - doc["i"]
    out["trees"] = [dict(t, edges=sorted([y, x] for x, y in t["edges"])) for t in doc["trees"]]
    return out


MIRROR_SIZES = [(a, b) for b in range(2, 8) for a in range(1, b)]


class TestMirror:
    """Naming the larger part first mirrors every output, for every
    1 <= a < b <= 7, every k and every valid i."""

    def _verify(self, capsys, tmp_path, doc: dict):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "verify", "--input", str(path))
        return code, err

    def _check_certificate(self, capsys, tmp_path, straight: list, swapped: list):
        code, out, _ = _run(capsys, *straight)
        assert code == 0
        doc = json.loads(out)
        code, out, _ = _run(capsys, *swapped)
        assert code == 0
        mirror = json.loads(out)
        assert mirror == _mirrored(doc)
        assert self._verify(capsys, tmp_path, doc) == (0, "")
        assert self._verify(capsys, tmp_path, mirror) == (0, "")
        if len(doc["trees"]) >= 2:
            x, y = doc["trees"][0]["edges"][0]
            doc["trees"][1]["edges"].append([x, y])
            mirror["trees"][1]["edges"].append([y, x])
            straight_line = self._verify(capsys, tmp_path, doc)
            assert straight_line[0] == 2
            assert self._verify(capsys, tmp_path, mirror) == straight_line

    @pytest.mark.parametrize("a, b", MIRROR_SIZES)
    def test_pack(self, capsys, tmp_path, a, b):
        self._check_certificate(capsys, tmp_path, ["pack", "--a", str(a), "--b", str(b)],
                                ["pack", "--a", str(b), "--b", str(a)])

    @pytest.mark.parametrize("a, b", MIRROR_SIZES)
    def test_extra_edge_gets_one_violation_line(self, capsys, a, b):
        """Each edge a packing tree lacks, added to it, is reported by the
        same line whichever way the host is named."""
        _, out, _ = _run(capsys, "pack", "--a", str(a), "--b", str(b))
        doc = json.loads(out)
        mirror = _mirrored(doc)

        def line(certificate: dict, tree: int, edge: list) -> str:
            trees = [dict(t) for t in certificate["trees"]]
            trees[tree]["edges"] = trees[tree]["edges"] + [edge]
            extended = json.dumps(dict(certificate, trees=trees))
            return str(verify_document(parse_document(extended)).violations[0])

        for index, tree in enumerate(doc["trees"]):
            for edge in ([x, y] for x in range(1, a + 1) for y in range(1, b + 1)):
                if edge not in tree["edges"]:
                    straight = line(doc, index, edge)
                    assert straight.startswith("cycle: ")
                    assert line(mirror, index, edge[::-1]) == straight

    @pytest.mark.parametrize("a, b", MIRROR_SIZES)
    def test_witness_and_breakdown(self, capsys, tmp_path, a, b):
        order = normalize(a, b)
        for k in range(2, a + b + 1):
            for i in terminal_range(order, k):
                straight = ["--a", str(a), "--b", str(b), "--k", str(k), "--i", str(i)]
                swapped = ["--a", str(b), "--b", str(a), "--k", str(k), "--i", str(k - i)]
                self._check_certificate(capsys, tmp_path, ["witness", *straight], ["witness", *swapped])
                _, out, _ = _run(capsys, "kappa", *straight, "--breakdown")
                left = json.loads(out)
                _, out, _ = _run(capsys, "kappa", *swapped, "--breakdown")
                right = json.loads(out)
                side = {"X": "Y", "Y": "X", "none": "none"}[left["a1_side"]]
                assert right == dict(left, i=k - i, a1_side=side)


class TestOracleCommand:
    def test_spanning_count(self, capsys):
        code, out, _ = _run(capsys, "oracle", "--a", "3", "--b", "4")
        assert code == 0 and out == "2\n"

    def test_kappa_count(self, capsys):
        code, out, _ = _run(capsys, "oracle", "--a", "3", "--b", "3", "--k", "3")
        assert code == 0 and out == "2\n"

    def test_guard_exits_one(self, capsys):
        code, _, err = _run(capsys, "oracle", "--a", "21", "--b", "20")
        assert code == 1
        assert "guard" in err

    def test_bad_k_above_the_guard_names_k(self, capsys):
        code, out, err = _run(capsys, "oracle", "--a", "4", "--b", "5", "--k", "1")
        assert (code, out, err) == (1, "", "error: k=1 outside [2, 9]\n")


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """The collector state a caller sets before ``run``, restored afterwards."""
    enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorState:
    """``pack``, ``witness`` and ``verify`` pause the cyclic collector; every
    command leaves it as the caller set it, however it ends."""

    def test_every_exit_restores_it(self, capsys, tmp_path, caller_gc):
        _, out, _ = _run(capsys, "pack", "--a", "3", "--b", "4")
        (tmp_path / "pack.json").write_text(out)
        (tmp_path / "short.json").write_text('{"kind":"packing","a":3,"b":4,"trees":[]}')
        (tmp_path / "broken.json").write_text("{")
        for argv, expected in [
            (("pack", "--a", "5", "--b", "3"), 0),
            (("witness", "--a", "5", "--b", "3", "--k", "4"), 0),
            (("verify", "--input", str(tmp_path / "pack.json")), 0),
            (("pack", "--a", "0", "--b", "3"), 1),
            (("witness", "--a", "5", "--b", "3", "--k", "9"), 1),
            (("verify", "--input", str(tmp_path / "absent.json")), 1),
            (("verify", "--input", str(tmp_path / "broken.json")), 1),
            (("verify", "--input", str(tmp_path / "short.json")), 2),
            (("pack", "--a", "x", "--b", "3"), 1),
        ]:
            code, _, _ = _run(capsys, *argv)
            assert code == expected, argv
            assert gc.isenabled() is caller_gc, argv

    def test_an_escaping_exception_restores_it(self, monkeypatch, caller_gc):
        def fail(order):
            assert not gc.isenabled()
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_packing", fail)
        with pytest.raises(RuntimeError, match="boom"):
            run(["pack", "--a", "3", "--b", "4"])
        assert gc.isenabled() is caller_gc

    def test_oracle_leaves_it_alone(self, capsys, monkeypatch, caller_gc):
        # The oracle's recursive closures are cycles that only the collector frees.
        seen = []

        def stub(a, b, k):
            seen.append(gc.isenabled())
            return 7

        monkeypatch.setattr("treeconn.oracle.oracle_kappa_k", stub)
        assert _run(capsys, "oracle", "--a", "3", "--b", "3", "--k", "3")[:2] == (0, "7\n")
        assert seen == [caller_gc]
        assert gc.isenabled() is caller_gc


class TestTableCommand:
    def test_line_count_and_shape(self, capsys):
        code, out, _ = _run(capsys, "table", "--a", "3", "--b", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "2\t3"
        assert lines[-1] == "7\t2"


# One valid run per command; "{cert}" stands for a packing certificate's path.
_VALID_RUNS = {
    "kappa": ("--a", "3", "--b", "4", "--k", "5"),
    "pack": ("--a", "2", "--b", "3"),
    "witness": ("--a", "3", "--b", "4", "--k", "5"),
    "verify": ("--input", "{cert}"),
    "oracle": ("--a", "2", "--b", "3", "--k", "3"),
    "table": ("--a", "2", "--b", "3"),
}


def _parser_argvs():
    yield from ([], ["--help"], ["-h"], ["nonsense"])
    for command, valid in _VALID_RUNS.items():
        yield from (
            [command], [command, "--help"], [command, "-h"], [command, "--he"],
            [command, "--a", "x"], [command, "--format", "xml"], [command, *valid, "extra"],
            [command, "--bogus"], [command, *valid],
        )


class TestParser:
    """A command builds only its own subparser; with all six, every argv
    gives the same exit code, stdout and stderr."""

    @pytest.mark.parametrize("argv", list(_parser_argvs()), ids=lambda argv: "_".join(argv) or "no-args")
    def test_one_subparser_answers_as_all_six(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setenv("COLUMNS", "80")
        cert = tmp_path / "cert.json"
        cert.write_text(emit_json(packing_document(normalize(2, 3), build_packing(normalize(2, 3)))))
        argv = [str(cert) if arg == "{cert}" else arg for arg in argv]
        shipped = _run(capsys, *argv)
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: build([]))
        assert _run(capsys, *argv) == shipped

    def test_errors_name_the_command_argument(self, capsys):
        assert _run(capsys)[2].endswith(": error: the following arguments are required: command\n")
        assert "error: argument command: invalid choice: 'nonsense'" in _run(capsys, "nonsense")[2]

    @pytest.mark.parametrize(
        "argv,built",
        [
            (["kappa", "--a", "3", "--b", "4", "--k", "5"], 2),
            (["pack", "--a", "x"], 2),
            (["table", "--help"], 2),
            (["--help"], 7),
            (["nonsense"], 7),
            ([], 7),
        ],
    )
    def test_parsers_built_per_run(self, capsys, monkeypatch, argv, built):
        made = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        _run(capsys, *argv)
        assert len(made) == built


class TestDocumentLayer:
    def test_packing_document_round_trips(self):
        order = normalize(5, 3)
        doc = packing_document(order, build_packing(order))
        assert (doc.a, doc.b) == (5, 3)
        parsed = parse_document(emit_json(doc))
        assert parsed == doc
        assert verify_document(parsed).ok

    def test_witness_document_round_trips(self):
        order = normalize(4, 6)
        doc = witness_document(order, build_witness(order, 5, 2))
        parsed = parse_document(emit_json(doc))
        assert parsed == doc
        assert verify_document(parsed).ok

    def test_orienting_a_swapped_document_sorts_its_trees(self):
        order = normalize(5, 3)
        trees = build_packing(order)
        doc = CertificateDocument("packing", order.a, order.b, trees=trees, classes=(None,) * len(trees))
        caller = cli._oriented(order, doc)
        assert (caller.a, caller.b) == (5, 3)
        assert all(list(tree) == sorted(tree) for tree in caller.trees)
        assert sorted(caller.trees) == sorted(tuple(sorted((y, x) for x, y in tree)) for tree in trees)
        twice = cli._oriented(order, caller)
        assert twice == doc._replace(trees=tuple(tuple(sorted(tree)) for tree in trees))

    def test_orienting_a_swapped_witness_flips_its_profile(self):
        order = normalize(6, 4)
        witness = build_witness(order, 5, 2)
        doc = CertificateDocument("witness", order.a, order.b, 5, 2, witness.trees, witness.classes)
        caller = cli._oriented(order, doc)
        assert (caller.a, caller.b, caller.k, caller.i) == (6, 4, 5, 3)
        assert caller.classes == doc.classes
        assert all(list(tree) == sorted(tree) for tree in caller.trees)
        assert cli._oriented(order, caller) == doc._replace(trees=tuple(tuple(sorted(t)) for t in doc.trees))

    def test_rejects_malformed_documents(self):
        for text in (
            "not json",
            "[1,2]",
            '{"kind":"nope","a":1,"b":1,"trees":[]}',
            '{"kind":"packing","a":1,"trees":[]}',
            '{"kind":"packing","a":1,"b":"x","trees":[]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"edges":[[1]]}]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"edges":[[1,true]]}]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"edges":[[1.0,1]]}]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"edges":[["1",1]]}]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"edges":[[null,1]]}]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"edges":[[false,1]]}]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"edges":[[1,2,3]]}]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"edges":[{"x":1}]}]}',
            '{"kind":"packing","a":1,"b":1,"trees":[{"class":"A9","edges":[]}]}',
            '{"kind":"witness","a":2,"b":2,"trees":[]}',
        ):
            with pytest.raises(InvalidArgumentError):
                parse_document(text)

    def test_witness_profile_errors_are_reported(self):
        doc = CertificateDocument(
            kind="witness", a=2, b=2, k=3, i=3,
            trees=(((1, 1),),),
        )
        assert verify_document(doc).first_kind == "wrong-terminals"

    def test_witness_without_profile_is_rejected(self):
        # parse_document never builds one; the check must not be an assert,
        # which python -O strips.
        with pytest.raises(InvalidArgumentError, match=r"^missing integer field 'k'$"):
            verify_document(CertificateDocument("witness", 3, 4))
        with pytest.raises(InvalidArgumentError, match=r"^missing integer field 'i'$"):
            verify_document(CertificateDocument("witness", 3, 4, k=5))

    def test_emit_dot_is_deterministic(self):
        order = normalize(3, 4)
        doc = witness_document(order, build_witness(order, 5, 1))
        assert emit_dot(doc) == emit_dot(doc)


def test_top_level_exports_are_the_readme_library():
    """``treeconn.__all__``, less the error classes, is exactly what the
    README's Library code block imports from ``treeconn``, and the block
    runs."""
    import treeconn

    readme = (Path(treeconn.__file__).resolve().parents[2] / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    block = library.split("```python", 1)[1].split("```", 1)[0]
    documented = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "treeconn"
        for alias in node.names
    }
    errors = {name for name in treeconn.__all__ if name.endswith("Error")}
    assert errors == {
        "TreeconnError", "InvalidArgumentError", "InvalidTerminalSetError",
        "NotConstructibleError", "ConstructionBugError", "InstanceTooLargeError",
    }
    assert set(treeconn.__all__) - errors == documented
    assert all(hasattr(treeconn, name) for name in treeconn.__all__)
    exec(compile(block, "README.md", "exec"), {})


def _child_env(**extra):
    """The environment for a child Python that imports this treeconn."""
    import treeconn

    src = str(Path(treeconn.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


@pytest.mark.parametrize(
    "module,flags",
    [("treeconn", ()), ("treeconn.cli", ()), ("treeconn", ("-OO",)), ("treeconn.cli", ("-OO",))],
    ids=["treeconn", "treeconn.cli", "treeconn-OO", "treeconn.cli-OO"],
)
def test_python_dash_m_runs_the_cli(tmp_path, module, flags):
    path = tmp_path / "under-full.json"
    path.write_text('{"kind":"packing","a":3,"b":4,"trees":[]}')
    env = _child_env()

    def cli(*args, flags=flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", module, *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    done = cli("verify", "--input", str(path))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("not-maximum")
    done = cli("kappa", "--a", "3", "--b", "4", "--k", "5")
    assert (done.returncode, done.stdout) == (0, "2\n")
    done = cli("oracle", "--a", "3", "--b", "4", "--k", "5")
    assert (done.returncode, done.stdout) == (0, "2\n")
    # -OO strips docstrings; --help must not depend on them
    assert cli("--help").stdout == cli("--help", flags=()).stdout


def test_every_help_is_the_same_under_dash_OO():
    """-OO strips docstrings; no command's --help may depend on them."""
    env = _child_env(COLUMNS="80")
    commands = [[], ["kappa"], ["pack"], ["witness"], ["verify"], ["oracle"], ["table"]]
    probe = f"from treeconn.cli import run\nfor argv in {commands!r}: run([*argv, '--help'])"
    outputs = [
        subprocess.run(
            [sys.executable, *flags, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        ).stdout
        for flags in ((), ("-OO",))
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count("usage: treeconn") == len(commands)


def test_importing_the_cli_leaves_out_what_few_commands_use():
    """Every command pays for what ``treeconn.cli`` imports: the oracle
    loads only for ``oracle``, and neither ``dataclasses`` nor ``pathlib``
    loads at all."""
    env = _child_env()
    probe = "import sys, treeconn.cli; print(*sorted({'treeconn.oracle', 'dataclasses', 'pathlib'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")
