"""Per-layer tracing from outside the program.

A Tracer swaps module-level names (the ones ``pointssl.trainer`` and
``pointssl.pipeline`` call through, plus the benchmark's own PLY calls) for
timing wrappers while it is installed, and puts the originals back when it is
removed.  Each call records a span: name, start, end and parent span.  A
span's self time is its duration minus the durations of its direct children.

Observers turn the values a wrapped call receives and returns into work
counts (rows encoded, kNN edges, matched points, ...).  A name missing from
its module is reported as absent, and an observer that no longer fits the
values it is given is reported as broken; neither stops the run.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module.attr`` is reported as ``label``."""

    module: object
    attr: str
    label: str
    observe: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.absent = sorted(t.label for t in targets if not callable(getattr(t.module, t.attr, None)))
        self.broken: set[str] = set()
        # [name, start, end, parent index]; parent -1 marks an op's root span.
        self.spans: list[list] = []
        # Work counts and call counts cover only the spans before the freeze,
        # so a fixed number of ops yields the same counts on every run.
        self.counting = True
        self.counted_spans = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for t in self.targets:
            original = getattr(t.module, t.attr, None)
            if callable(original):
                self._saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self._wrap(original, t))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def freeze_counts(self) -> None:
        self.counting = False
        self.counted_spans = len(self.spans)

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        def wrapper(*args, **kwargs):
            result = self.call(target.label, fn, *args, **kwargs)
            if self.counting and target.observe is not None and target.label not in self.broken:
                try:
                    target.observe(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    self.broken.add(target.label)
            return result

        return wrapper

    def summary(self) -> tuple[dict[str, float], dict[str, float], int, int]:
        """Self ms per op over every traced op, calls per op over the counted ops,
        and the two op counts.  An op is a span without a parent."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        ops = counted_ops = 0
        for i, ((name, start, end, parent), children) in enumerate(zip(self.spans, child_time)):
            self_ms[name] += 1000.0 * (end - start - children)
            ops += parent < 0
            if i < self.counted_spans:
                calls[name] += 1
                counted_ops += parent < 0
        for name in self_ms:
            self_ms[name] /= max(ops, 1)
        for name in calls:
            calls[name] /= max(counted_ops, 1)
        return self_ms, calls, ops, counted_ops


# Observers: (counts, args, kwargs, result) -> None.  Keys are metric stems.

def observe_encode(counts, args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    rows = len(result.embeddings)
    counts["model.encode_features.rows"] += rows
    # Computed, not measured: two flops per weight per row, forward pass only.
    counts["model.encode_flops"] += 2 * rows * sum(w.size for w in params.weights)


def observe_sinkhorn(counts, args, kwargs, result):
    counts["sinkhorn.rows"] += result.shape[0]


def observe_knn(counts, args, kwargs, result):
    counts["geometry.knn_edges"] += result.num_edges


def observe_match(counts, args, kwargs, result):
    student = args[1] if len(args) > 1 else kwargs["student_positions"]
    counts["losses.matched"] += len(result)
    counts["losses.queried"] += len(student)


def observe_plane(counts, args, kwargs, result):
    counts["geometry.ransac_calls"] += 1
    if result is not None:
        counts["geometry.ransac_inlier_sum"] += result.inlier_ratio


def observe_sor(counts, args, kwargs, result):
    cloud = args[0] if args else kwargs["cloud"]
    counts["geometry.sor_input"] += cloud.num_valid
    counts["geometry.sor_removed"] += cloud.num_valid - result.num_valid


def observe_file(key: str) -> Callable:
    def observe(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[0] if args else kwargs["path"])

    return observe
