"""Span tracing from outside the program.

A :class:`Tracer` wraps the public functions of the six ``paretoeval``
modules and rebinds each wrapper in every ``paretoeval`` module that holds
the original by name, so calls made through ``from .x import f`` are seen
too.  The point-dominance checks get a counting wrapper and no span: there
are millions of them per op, and their time falls to the caller.  Spans and
counts stay in memory; :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "paretoeval"
LAYERS = ("cli", "guidance", "preprocess", "core", "indicators", "doe")
PAIR_CHECKS = ("core.dominates", "core.weakly_dominates", "core.compare")


def _front_rows(counts: Counter, args: tuple, result) -> None:
    counts["core.front_rows_in"] += len(args[0])
    counts["core.front_rows_kept"] += len(result)


def _rows_read(counts: Counter, args: tuple, result) -> None:
    counts["cli.rows_read"] += len(result)


# Counts taken from a call's arguments and result, by span name.
AFTER = {
    "core.nondominated_front": _front_rows,
    "cli.load_solution_set": _rows_read,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span
    op: int


def public_functions() -> dict[str, types.FunctionType]:
    """``layer.name`` -> function, for each public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
            ):
                found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    """Records spans and counts for the ops run between install and restore."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._past: dict[int, Counter] = {}
        self._pairs = [0]
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, counts, after = self.spans, self._stack, self.counts, AFTER.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = clock()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _count_wrapper(self, fn):
        pairs = self._pairs

        def counted(*args, **kwargs):
            pairs[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in public_functions().items():
            if name in PAIR_CHECKS:
                wrappers[fn] = self._count_wrapper(fn)
            else:
                wrappers[fn] = self._span_wrapper(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def begin_op(self, op: int) -> None:
        """Attribute the spans and counts that follow to ``op``."""
        if self.op >= 0:
            self._past[self.op] = self._current_counts()
        self.op = op
        self.counts.clear()
        self._pairs[0] = 0

    def _current_counts(self) -> Counter:
        return self.counts + Counter({"core.pair_checks": self._pairs[0]})

    def op_counts(self, op: int) -> dict[str, int]:
        """Exact counts of one op: calls per span name plus the layer counts."""
        counts = self._current_counts() if op == self.op else self._past[op]
        calls = Counter(f"{s.name}_calls" for s in self.spans if s.op == op)
        return dict(sorted((calls + counts).items()))

    def self_times(self, op: int) -> tuple[dict[str, float], dict[str, float], float]:
        """Self and inclusive time per span name for one op, plus the time
        top-level spans cover.

        A span's self time is its duration minus the durations of its direct
        children; children of one span never overlap, since ops are serial.
        Inclusive time counts a span only when no ancestor has its name.
        """
        spans = self.spans
        child = defaultdict(float)
        for s in spans:
            if s.op == op and s.parent >= 0:
                child[s.parent] += s.end - s.start
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        covered = 0.0
        for i, s in enumerate(spans):
            if s.op != op:
                continue
            duration = s.end - s.start
            own[s.name] += duration - child[i]
            p = s.parent
            while p >= 0 and spans[p].name != s.name:
                p = spans[p].parent
            if p < 0:
                incl[s.name] += duration
            if s.parent < 0:
                covered += duration
        return dict(own), dict(incl), covered


def layer_metrics(tracer: Tracer, op: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced op that took ``wall`` seconds."""
    own, incl, covered = tracer.self_times(op)
    metrics: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        metrics[f"{name}_s"] = seconds
        metrics[f"{name}_incl_s"] = incl[name]
        metrics[f"{name.split('.', 1)[0]}.self_s"] += seconds
    metrics.update(tracer.op_counts(op))
    metrics["trace.unattributed_s"] = wall - covered
    return metrics
