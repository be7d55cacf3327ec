"""Span recording for the benchmark's traced run.

The tracer wraps public ringlab functions from outside the package.  A
``from .ideals import maximal_ideals`` line leaves a second binding of
the same function object in the importing module, so :meth:`Tracer.patch`
replaces every binding of the function in every loaded ``ringlab``
module, not only the one in the defining module.  Calls inside the
defining module resolve the module global at call time and therefore
also reach the wrapper.

Spans are kept in memory and written once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (defining module, function, span name).  Functions sharing a span
#: name are counted as one layer.
TARGETS = (
    ("ringlab.rings", "element_classes", "rings.element_classes"),
    ("ringlab.ideals", "enumerate_ideals", "ideals.enumerate_ideals"),
    ("ringlab.ideals", "maximal_ideals", "ideals.maximal_ideals"),
    ("ringlab.ideals", "jacobson_radical", "ideals.jacobson_radical"),
    ("ringlab.ideals", "nilradical", "ideals.nilradical"),
    ("ringlab.group_algebra", "group_ring", "group_algebra.group_ring"),
    ("ringlab.group_algebra", "karpilovsky_radical", "group_algebra.karpilovsky_radical"),
    ("ringlab.classify", "is_weakly_nil_neat_definitional", "classify.wnn_definitional"),
    ("ringlab.classify", "is_weakly_nil_clean_definitional", "classify.wnc_definitional"),
    ("ringlab.classify", "weakly_nil_neat_group_ring_predicate", "classify.wnn_predicate"),
    ("ringlab.classify", "weakly_nil_clean_group_ring_predicate", "classify.wnc_predicate"),
    ("ringlab.classify", "is_nil_clean_criterion", "classify.criteria"),
    ("ringlab.classify", "is_nil_neat_criterion", "classify.criteria"),
    ("ringlab.classify", "weakly_nil_clean_criterion", "classify.criteria"),
    ("ringlab.classify", "weakly_nil_neat_criterion", "classify.criteria"),
    ("ringlab.expr", "evaluate", "expr.evaluate"),
    ("ringlab.expr", "evaluate_group_ring", "expr.evaluate_group_ring"),
    ("ringlab.sweep", "run_sweep", "sweep.run_sweep"),
    ("ringlab.cli", "main", "cli.main"),
)

#: Span names reported as layers, in report order.
LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


#: Work counts taken from a layer's result, per pass.
COUNTS = (
    "ideals.enumerate_ideals.ideals",
    "group_algebra.group_ring.elements",
    "group_algebra.group_ring.table_bytes",
)


def _count_ideals(tracer, result):
    tracer.counts[tracer.pass_index]["ideals.enumerate_ideals.ideals"] += len(result)


def _count_table(tracer, result):
    ring = result.ring
    counts = tracer.counts[tracer.pass_index]
    counts["group_algebra.group_ring.elements"] += ring.order
    counts["group_algebra.group_ring.table_bytes"] += 2 * ring.order**2 * ring.add.itemsize


ON_RESULT = {
    "ideals.enumerate_ideals": _count_ideals,
    "group_algebra.group_ring": _count_table,
}


class Tracer:
    """Records ``[name, start, end, parent, item, pass, nested]`` spans.

    ``parent`` is the index of the enclosing span or -1; ``nested`` is
    true when a span of the same name encloses this one (recursion), so
    that inclusive time is not counted twice.
    """

    def __init__(self, locate):
        self.spans: list[list] = []
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.pass_index = 0
        #: Maps the caller's frame to the item (pair or expression) a
        #: span belongs to.
        self.locate = locate
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def wrap(self, name, fn):
        tracer = self
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.locate(sys._getframe(1)), tracer.pass_index, tracer._open[name] > 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._open[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def patch(self) -> None:
        """Wrap every binding of every target in the ringlab modules."""
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "ringlab" or key.startswith("ringlab.")]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)

    def layers_by_pass(self) -> list[dict[str, float]]:
        """Per-layer calls, inclusive busy time, self time and work
        counts, one dict per traced pass."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        passes: dict[int, dict[str, float]] = {}
        for i, (name, start, end, parent, _, index, nested) in enumerate(self.spans):
            out = passes.get(index)
            if out is None:
                out = passes[index] = self._empty(index)
            out[f"{name}.calls"] += 1
            if not nested:
                out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
            out["trace.spans"] += 1
            if (name == "classify.wnc_definitional" and parent >= 0
                    and self.spans[parent][0] == "classify.wnn_definitional"):
                out["classify.quotients_scanned"] += 1
        return [passes[k] for k in sorted(passes)]

    def _empty(self, pass_index: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        out["classify.quotients_scanned"] = 0
        out["trace.spans"] = 0
        for key in COUNTS:
            out[key] = self.counts[pass_index][key]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "item",
                                            "pass", "nested"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def median_layers(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-pass layer value across the traced passes; a
    count stays a whole number."""
    return {key: (statistics.median if key.endswith("_s") else statistics.median_low)(
                 p[key] for p in per_pass)
            for key in per_pass[0]}
