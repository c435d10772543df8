"""Per-layer timers and counters, wrapped around treeconn from the outside.

Each traced function is replaced by a wrapper in every treeconn module
that holds it, because ``cli`` and ``witness`` import ``validate_tree``,
``build_tree`` and the closed forms by name.  Methods are replaced on
their class.  A function that a later version of treeconn no longer has
is skipped, and its metrics read 0.

Coarse calls are kept as spans (operation, id, parent id, name, start,
end) and written out at the end of a run; the small, frequent ones
(ledger pops, ``edge_set`` builds, ``vertices``, the closed forms) are
only summed.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict

# name -> unit, in the order they are reported.
METRICS = {
    "packing.build_ms": "ms", "packing.tree_ms": "ms", "packing.edges": "count",
    "witness.build_ms": "ms", "witness.ledger_ms": "ms", "witness.ledger_pops": "count",
    "cli.emit_ms": "ms", "cli.emit_bytes": "B",
    "cli.parse_ms": "ms", "cli.parse_bytes": "B",
    "cli.verify_ms": "ms", "cli.verify_self_ms": "ms",
    "core.validate_ms": "ms", "core.validate_calls": "count", "core.edges_validated": "count",
    "core.edge_set_builds": "count",
    "core.vertices_ms": "ms", "core.claimed_vertices": "count",
    "oracle.ms": "ms", "oracle.search_ms": "ms", "oracle.enumerate_ms": "ms",
    "oracle.candidates": "count",
    "connectivity.ms": "ms", "connectivity.calls": "count",
    "python.gc_ms": "ms", "python.gc_collections": "count",
    "cli.run_ms": "ms",
}


def _utf8_len(text) -> int:
    return len(text.encode()) if isinstance(text, str) else 0


class Tracer:
    """Collects the per-layer metrics of the operations run while installed."""

    def __init__(self) -> None:
        self.ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op = -1
        # One frame per open traced call: [seconds in traced children, span id].
        self._frames: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []
        self._gc_start = 0.0

    def _timed(self, fn, metric: str, *, span: bool, count=None, self_metric=None, group=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if group is not None:
                tracer._depth[group] += 1
            parent = tracer._frames[-1][1] if tracer._frames else None
            span_id = len(tracer.spans) if span else parent
            if span:
                tracer.spans.append(None)  # filled in on return, keeping call order
            tracer._frames.append([0.0, span_id])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                children = tracer._frames.pop()[0]
                elapsed = end - start
                if tracer._frames:
                    tracer._frames[-1][0] += elapsed
                if group is None or tracer._depth[group] == 1:
                    tracer.ms[metric] += elapsed
                if group is not None:
                    tracer._depth[group] -= 1
                if self_metric is not None:
                    tracer.ms[self_metric] += elapsed - children
                if span:
                    tracer.spans[span_id] = (tracer.op, span_id, parent, metric, start, end)
            if count is not None:
                for name, measure in count.items():
                    tracer.counts[name] += measure(args, result)
            return result

        return wrapper

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer function that this treeconn has."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "treeconn"]
        mod = {name.split(".")[-1]: m for name, m in sys.modules.items() if name.startswith("treeconn.")}

        def wrap(module_name, attr, metric, **options):
            module = mod.get(module_name)
            original = getattr(module, attr, None)
            if callable(original):
                self._replace(modules, original, self._timed(original, metric, **options))

        def wrap_method(module_name, cls_name, attr, metric, **options):
            cls = getattr(mod.get(module_name), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(original, property):
                timed = self._timed(original.fget, metric, span=False, **options)
                self._undo.append((cls, attr, original))
                setattr(cls, attr, property(timed))
            elif callable(original):
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._timed(original, metric, span=False, **options))

        edges = lambda args, result: len(getattr(result, "edges", ()))
        length = lambda args, result: len(result) if result is not None else 0
        one = lambda args, result: 1
        wrap("packing", "build_packing", "packing.build_ms", span=True)
        wrap("packing", "build_tree", "packing.tree_ms", span=True, count={"packing.edges": edges})
        wrap("witness", "build_witness", "witness.build_ms", span=True)
        wrap_method("witness", "ResidualLedger", "take_lowest", "witness.ledger_ms",
                    count={"witness.ledger_pops": one})
        wrap("cli", "emit_json", "cli.emit_ms", span=True,
             count={"cli.emit_bytes": lambda args, result: _utf8_len(result)})
        wrap("cli", "parse_document", "cli.parse_ms", span=True,
             count={"cli.parse_bytes": lambda args, result: _utf8_len(args[0] if args else None)})
        wrap("cli", "verify_document", "cli.verify_ms", span=True, self_metric="cli.verify_self_ms")
        wrap("core", "validate_tree", "core.validate_ms", span=True,
             count={"core.validate_calls": one,
                    "core.edges_validated": lambda args, result: len(args[2].edges) if len(args) > 2 else 0})
        # edge_set is timed only so that verify's self time leaves it out.
        wrap_method("core", "Tree", "edge_set", "core.edge_set_ms",
                    count={"core.edge_set_builds": one})
        for cls_name in ("BipartiteOrder", "TerminalSet"):
            wrap_method("core", cls_name, "vertices", "core.vertices_ms",
                        count={"core.claimed_vertices": length})
        for attr in ("oracle_kappa_k", "oracle_spanning_packing"):
            wrap("oracle", attr, "oracle.ms", span=True, group="oracle")
        wrap("oracle", "_max_disjoint", "oracle.search_ms", span=True,
             count={"oracle.candidates": lambda args, result: len(args[0])})
        for attr in ("kappa_bipartite", "kappa_terminal", "min_terminal_index"):
            wrap("connectivity", attr, "connectivity.ms", span=False, group="connectivity",
                 count={"connectivity.calls": one})
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        # Only collections inside an operation count; the benchmark's own
        # gc.collect() between operations runs with no frame open.
        if not self._frames:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.ms["python.gc_ms"] += time.perf_counter() - self._gc_start
            self.counts["python.gc_collections"] += 1

    def run_op(self, op_index: int, call):
        """Run one operation under a root span, so that gc inside it counts."""
        self.op = op_index
        span_id = len(self.spans)
        self.spans.append(None)
        self._frames.append([0.0, span_id])
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._frames.pop()
            self.spans[span_id] = (op_index, span_id, None, "cli.run", start, time.perf_counter())

    def metrics(self, attempted: int, run_ms: float) -> dict:
        """Per-operation means over the attempted operations; cli.run_ms is
        ``run_ms``, the traced median operation time, estimated as the
        untraced p50_ms is."""
        out = {}
        for name, unit in METRICS.items():
            if name == "cli.run_ms":
                value = run_ms
            elif name == "oracle.enumerate_ms":
                value = (self.ms["oracle.ms"] - self.ms["oracle.search_ms"]) * 1000 / attempted
            elif unit == "ms":
                value = self.ms[name] * 1000 / attempted
            else:
                value = self.counts[name] / attempted
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span; start and end are perf_counter seconds."""
        keys = ("op", "id", "parent", "name", "start", "end")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
