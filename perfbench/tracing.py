"""Spans around vkbr's layers, recorded from outside the package.

``instrument`` replaces each traced function in every vkbr module namespace
that holds it, which is where its callers look it up, and each traced
LaurentPoly method on the class.  A span records its name, its parent
span, and its start and end; self time is a span's duration minus the
durations of its children.  Spans stay in memory until ``summary`` folds
them into per-name totals at the end of the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# span name -> (self-time metric, functions the span covers).  A function
# is (module, attribute), the attribute read on the module or, for
# "Class.method", on the class.
LAYERS = {
    "diagram.parse": ("diagram.parse_s", [("vkbr.diagram", "parse_diagram")]),
    "diagram.bracket": ("diagram.bracket_self_s", [("vkbr.diagram", "kauffman_bracket")]),
    "diagram.jones": ("diagram.jones_self_s", [("vkbr.diagram", "jones")]),
    "kernels.state_sweep": ("kernels.state_sweep_s", [("vkbr._kernels", "state_delta_sweep")]),
    "kernels.subgraph_sweep": (
        "kernels.subgraph_sweep_s", [("vkbr._kernels", "subgraph_sweep")]
    ),
    "ribbon.parse": ("ribbon.parse_s", [("vkbr.ribbon", "parse_ribbon")]),
    "ribbon.rank_poly": (
        "ribbon.rank_poly_self_s",
        [("vkbr.ribbon", "br_poly"), ("vkbr.ribbon", "signed_br_poly")],
    ),
    "ribbon.subgraph_stats": ("ribbon.subgraph_stats_s", [("vkbr.ribbon", "subgraph_stats")]),
    "ribbon.tutte": ("ribbon.tutte_s", [("vkbr.ribbon", "tutte_via_br")]),
    "build.switch_set": ("build.switch_set_s", [("vkbr.build", "find_switch_set")]),
    "build.graph": (
        "build.graph_s", [("vkbr.build", "build_ribbon"), ("vkbr.build", "build_signed")]
    ),
    "laurent.substitute": ("laurent.substitute_s", [("vkbr.laurent", "LaurentPoly.substitute")]),
    "laurent.mul": (
        "laurent.mul_s",
        [("vkbr.laurent", "LaurentPoly.__mul__"), ("vkbr.laurent", "LaurentPoly.__rmul__")],
    ),
    "laurent.pow": ("laurent.pow_s", [("vkbr.laurent", "LaurentPoly.__pow__")]),
    "verify.assembly": (
        "verify.assembly_self_s",
        [
            ("vkbr.verify", "bracket_from_graph"),
            ("vkbr.verify", "jones_from_graph"),
            ("vkbr.verify", "jones_via_tutte"),
        ],
    ),
    "verify.compare": ("verify.compare_s", [("vkbr.laurent", "LaurentPoly.__eq__")]),
}
# The span around each whole command line call.
ROOT = "cli"
ROOT_METRIC = "cli.self_s"


def _count_states(counts, args, result):
    counts["kernels.state_sweep.states"] += 1 << int(args[0])
    counts["kernels.out_bytes"] += result.nbytes


def _count_subgraphs(counts, args, result):
    counts["kernels.subgraph_sweep.subgraphs"] += 1 << int(args[1])
    counts["kernels.out_bytes"] += sum(a.nbytes for a in result)


COUNTERS = {
    "kernels.state_sweep": _count_states,
    "kernels.subgraph_sweep": _count_subgraphs,
}


class Tracer:
    """Span store for one process; spans nest by call order."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def summary(self):
        """(self seconds by name, span count by name, counters)."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for idx, name in enumerate(self.names):
            self_s[name] = self_s.get(name, 0.0) + (
                self.ends[idx] - self.starts[idx] - child[idx]
            )
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls, dict(self.counts)


def instrument(tracer: Tracer):
    """Install the spans of LAYERS; returns a function that removes them."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "vkbr"]
    undo = []
    for span, (_, targets) in LAYERS.items():
        for module_name, attr in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, tracer.wrap(original, span))
                undo.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore
