"""Span tracing of kcoref layer boundaries, installed from outside the package.

The tracer replaces module-level functions (and one method) of the kcoref
package with wrappers that record a span per call: layer name, start, end,
parent span and root span, in integer nanoseconds. Calls inside kcoref
resolve these names through module globals at call time, so patching the
module attributes is enough; a function imported by name into another
kcoref module (``from .corpus import enumerate_candidate_spans``) is
replaced there too.

A target that no longer exists is reported as an absent layer and skipped,
so a traced run survives renames in the package. Counters run after the
wrapped call returns, inside a ``trace.count`` span of their own, so their
cost shows as tracing overhead instead of inflating a layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

COUNT_LAYER = "trace.count"

# Exceptions a counter may raise when the package changed the shape of the
# arguments it inspects; the count is lost, the run goes on.
COUNTER_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


class Tracer:
    """In-memory span list plus named counters, analysed after the run."""

    def __init__(self):
        # One row per span: [layer, start_ns, end_ns, parent, root].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.count_errors: dict[str, str] = {}

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        self.spans.append([layer, time.perf_counter_ns(), 0, parent, root])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    @contextlib.contextmanager
    def span(self, layer: str):
        idx = self.open(layer)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def wrap(self, layer: str, fn: Callable,
             counter: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                cidx = tracer.open(COUNT_LAYER)
                try:
                    counter(tracer, result, *args, **kwargs)
                except COUNTER_ERRORS as exc:
                    tracer.count_errors.setdefault(
                        layer, f"{type(exc).__name__}: {exc}")
                finally:
                    tracer.close(cidx)
            return result

        return wrapper

    # -- analysis ---------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_table(self) -> dict[str, tuple[int, int]]:
        """Layer -> (calls, summed self time in ns)."""
        table: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for row, own in zip(self.spans, self.self_times_ns()):
            entry = table[row[0]]
            entry[0] += 1
            entry[1] += own
        return {layer: (calls, ns) for layer, (calls, ns) in table.items()}

    def consistency_problems(self) -> list[str]:
        """Spans left open, escaping their parent, or with negative self time.

        Also checks that the self times of each root's tree sum exactly (in
        integer nanoseconds) to the root's duration.
        """
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        sums: dict[int, int] = defaultdict(int)
        for idx, (row, own) in enumerate(zip(self.spans,
                                             self.self_times_ns())):
            layer, start, end, parent, root = row
            sums[root] += own
            if parent >= 0:
                p_start, p_end = self.spans[parent][1:3]
                if start < p_start or end > p_end:
                    problems.append(f"span {idx} ({layer}) escapes its parent")
            if own < 0:
                problems.append(f"span {idx} ({layer}) has negative self time")
        for root, total in sums.items():
            _, start, end, _, _ = self.spans[root]
            if total != end - start:
                problems.append(f"root span {root}: self times sum to {total} "
                                f"ns, duration is {end - start} ns")
        return problems[:20]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("layer\tstart_ns\tend_ns\tparent\troot\n")
            for layer, start, end, parent, root in self.spans:
                handle.write(f"{layer}\t{start}\t{end}\t{parent}\t{root}\n")


@dataclass(frozen=True)
class Target:
    """A kcoref callable to wrap; `attr` may be dotted (``Tensor.backward``)."""

    module: str
    attr: str
    layer: str
    counter: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


def _resolve(target: Target):
    """(owner, name, function) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if not isinstance(owner, type):
            return None
    fn = vars(owner).get(name)
    if not callable(fn):
        return None
    return owner, name, fn


@contextlib.contextmanager
def installed(targets: list[Target],
              make_wrapper: Callable[[Target, Callable], Callable]):
    """Wrap every target that exists; yield the labels of those that do not.

    A module-level function is replaced wherever a module of its package
    holds it; a method is replaced on its class. Everything is restored on
    exit.
    """
    undo: list[tuple[object, str, object]] = []
    absent: list[str] = []
    package = targets[0].module.split(".")[0] if targets else ""
    modules = [mod for key, mod in sorted(sys.modules.items())
               if mod is not None and key.split(".")[0] == package]

    def replace(owner, name, new):
        undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    try:
        for target in targets:
            found = _resolve(target)
            if found is None:
                absent.append(target.label)
                continue
            owner, name, fn = found
            wrapped = make_wrapper(target, fn)
            if isinstance(owner, type):
                replace(owner, name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        replace(mod, key, wrapped)
        yield absent
    finally:
        for owner, name, old in reversed(undo):
            setattr(owner, name, old)


def traced(tracer: Tracer, targets: list[Target]):
    """Context manager: every existing target records spans into `tracer`."""
    return installed(targets, lambda t, fn: tracer.wrap(t.layer, fn,
                                                        t.counter))
