"""Spans and counts recorded around cpsdetect's entry points, from outside it.

The tracer replaces functions and methods of the already imported package
with wrappers. A span wrapper records (name, start, end, parent) plus the
number of autodiff tensors constructed so far at both ends; a count wrapper
only bumps a counter. A module-level function is replaced in every
``cpsdetect`` module that binds it, so ``from .x import y`` names, such as
``cpsdetect.pipeline.train_temporal``, are wrapped too. Entry points a later
version of the package no longer has are skipped and listed in ``absent``.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from typing import NamedTuple

# (layer name, module, attribute path, kind). kind is "span" or "count";
# "span+len" also counts the length of the result, "span+file" the size of
# the file named by the first argument.
ENTRY_POINTS = (
    ("pipeline.train", "cpsdetect.pipeline", "train_pipeline", "span"),
    ("pipeline.score_stream", "cpsdetect.pipeline", "score_stream", "span"),
    ("pipeline.segment_graphs", "cpsdetect.pipeline", "segment_graphs", "span"),
    ("pipeline.segment_features", "cpsdetect.pipeline", "segment_features", "span"),
    ("data.normalize", "cpsdetect.data", "fit_normalizer", "span"),
    ("data.normalize", "cpsdetect.data", "apply_normalizer", "span"),
    ("data.segment", "cpsdetect.data", "segment_stream", "span+len"),
    ("temporal.train", "cpsdetect.temporal", "train_temporal", "span"),
    ("temporal.encode", "cpsdetect.temporal", "TemporalEncoder.encode", "span"),
    ("graphgen.weighted_graph", "cpsdetect.graphgen", "weighted_graph", "span"),
    ("vgae.train", "cpsdetect.vgae", "train_vgae", "span"),
    ("vgae.encode", "cpsdetect.vgae", "VgaeEncoder.encode", "span"),
    ("vgae.encode", "cpsdetect.vgae", "VgaeEncoder.encode_normalized", "span"),
    ("svdd.train", "cpsdetect.svdd", "train_svdd", "span"),
    ("svdd.calibrate", "cpsdetect.svdd", "calibrate_threshold", "span"),
    ("svdd.scores", "cpsdetect.svdd", "SvddNet.scores", "span"),
    ("svdd.forward", "cpsdetect.svdd", "SvddNet.forward", "count"),
    ("autodiff.backward", "cpsdetect.autodiff", "Tensor.backward", "span"),
    ("autodiff.adam_step", "cpsdetect.autodiff", "Adam.step", "span"),
    ("autodiff.tensor", "cpsdetect.autodiff", "Tensor.__init__", "count"),
    ("checkpoint.save", "cpsdetect.checkpoint", "save_checkpoint", "span+file"),
    ("checkpoint.load", "cpsdetect.checkpoint", "load_checkpoint", "span"),
    ("metrics.evaluate", "cpsdetect.metrics", "evaluate_scores", "span"),
)

TENSORS = "autodiff.tensor"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    tensors_before: int
    tensors_after: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counts; ``install`` patches, ``uninstall`` restores.

    Read the spans only after the traced calls have returned, when each one
    is complete; spans refer to their parent by index.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()  # calls of count wrappers
        self.units: Counter[str] = Counter()  # what "span+len"/"span+file" measure
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span_wrapper(self, name: str, fn, measure=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        units = self.units

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            tensors = counts[TENSORS]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, tensors, counts[TENSORS])
            if measure is not None:
                units[name] += measure(args, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, kind: str, fn):
        if kind == "count":
            return self.count_wrapper(name, fn)
        measure = {"span": None,
                   "span+len": lambda args, result: len(result),
                   "span+file": lambda args, result: os.path.getsize(args[0])}[kind]
        return self.span_wrapper(name, fn, measure)

    # -- patching --------------------------------------------------------

    def install(self, entry_points=ENTRY_POINTS) -> None:
        for name, module_name, attribute, kind in entry_points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, leaf = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            wrapped = self._wrap(name, kind, original)
            if owner_name:
                self._set(owner, leaf, wrapped)
                continue
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("cpsdetect"):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- reading ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - child for span, child in zip(spans, covered)]

    def _outermost(self) -> list[bool]:
        """True for spans with no ancestor of the same name (no double count)."""
        spans = self.spans
        flags = []
        for span in spans:
            parent = span.parent
            while parent >= 0 and spans[parent].name != span.name:
                parent = spans[parent].parent
            flags.append(parent < 0)
        return flags

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls, total seconds and self seconds."""
        table: dict[str, dict[str, float]] = {}
        spans = self.spans
        for span, own, outer in zip(spans, self.self_times(), self._outermost()):
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["self_s"] += own
            if outer:
                row["calls"] += 1
                row["total_s"] += span.duration
        return table

    def children_of(self, name: str) -> tuple[float, dict[str, float]]:
        """Total time of the ``name`` spans and of their direct children, by name."""
        spans = self.spans
        roots = {i for i, span in enumerate(spans) if span.name == name}
        children: dict[str, float] = {}
        for span in spans:
            if span.parent in roots:
                children[span.name] = children.get(span.name, 0.0) + span.duration
        return sum(spans[i].duration for i in roots), children

    def wrapper_calls(self) -> tuple[int, int]:
        """(span wrapper calls, count-only wrapper calls) made so far."""
        return len(self.spans), sum(self.counts.values())


def estimate_overhead(tracer: Tracer, calls: int = 50_000) -> float:
    """Seconds the tracer's wrappers added, from a calibration of both kinds.

    Times ``calls`` invocations of a trivial function bare, behind a span
    wrapper and behind a count wrapper, and scales the per-call differences
    by the wrapper calls ``tracer`` recorded. Cache effects are not counted.
    """
    def bare(value, flag=False):
        return value

    probe = Tracer()
    variants = (bare, probe.span_wrapper("probe", bare), probe.count_wrapper("probe", bare))
    costs = []
    for fn in variants:
        best = float("inf")
        for _ in range(5):
            probe.spans.clear()
            start = time.perf_counter()
            for i in range(calls):
                fn(i, flag=True)
            best = min(best, time.perf_counter() - start)
        costs.append(best / calls)
    span_calls, count_calls = tracer.wrapper_calls()
    return (span_calls * max(costs[1] - costs[0], 0.0)
            + count_calls * max(costs[2] - costs[0], 0.0))
