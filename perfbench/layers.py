"""Per-layer spans for the traced run, recorded from outside the program.

Each wrapper times one call into a layer's public function and appends a
span ``(id, parent, layer, start, end)`` to an in-memory list; a call made
while another wrapped call is open becomes its child.  A layer's *self*
time is its spans' durations minus the part their child spans cover, so
``kernels.matrix_build`` time spent inside ``fuse_ball`` is not counted
twice.  Nothing inside ``src/`` changes: the wrappers replace attributes on
the program's classes and modules and :meth:`Tracer.uninstall` puts the
originals back.

Engine workers are separate processes.  Under the ``fork`` start method
they inherit the wrappers; there a wrapper opens a span of the program's
own tracer (``repro.obs.trace``), which the engine already ships back to
the driver with each task's result.  :class:`WorkerSpans` collects those
records on the driver, together with the engine's own ``fuse_ball`` spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.core.ball_index import PatternBallIndex
from repro.core.pattern_fusion import PatternFusion
from repro.db.transaction_db import TransactionDatabase
from repro.kernels import TidsetMatrix
from repro.obs import metrics, trace
from repro.store import PatternStore

# By module path: package attributes of the same names may be functions.
core_pattern_fusion = importlib.import_module("repro.core.pattern_fusion")
engine_parallel = importlib.import_module("repro.engine.parallel_fusion")

#: Prefix of the program-tracer spans the wrappers open inside engine workers.
WORKER_PREFIX = "perfbench."

#: The engine's own per-task span, shipped back from workers.
ENGINE_FUSE_SPAN = "fuse_ball"

#: Counters of the program's metrics registry read as before/after deltas.
COUNTERS = {
    "core.rounds": "repro_fusion_rounds_total",
    "core.seeds": "repro_fusion_seeds_total",
    "core.fused": "repro_fusion_fused_patterns_total",
    "core.dedup_dropped": "repro_fusion_dedup_dropped_total",
    "engine.pool_warmups": "repro_executor_pool_warmups_total",
    "engine.chunks": "repro_executor_chunks_total",
}


def counter_totals() -> dict[str, float]:
    """Current value of each :data:`COUNTERS` family, summed over labels."""
    totals = {}
    for key, name in COUNTERS.items():
        family = metrics.REGISTRY.get(name)
        totals[key] = (
            0.0 if family is None else float(sum(family.collect().values()))
        )
    return totals


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per layer from ``(id, parent, layer, start, end)`` spans.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.  Spans whose parent is not in the list are roots.
    """
    child_time: dict[Any, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, layer, start, end in spans:
        totals[layer] += (end - start) - child_time.get(span_id, 0.0)
    return dict(totals)


def root_time(spans: list[tuple]) -> float:
    """Total duration of the spans whose parent is not in the list."""
    ids = {span[0] for span in spans}
    return sum(end - start for _, parent, _, start, end in spans if parent not in ids)


class Tracer:
    """Installs the layer wrappers and keeps the spans they record.

    ``minsup`` is set by the workload before each fusion call: the ball
    query wrapper needs it to count the members a seed could fuse with.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.minsup: int | None = None
        self.bookkeeping_s = 0.0
        # Open spans, innermost last.  Every wrapped call the benchmark
        # makes runs on its main thread.
        self._stack: list[list] = []
        self._worker_layers: list[str] = []
        self._ids = itertools.count(1)
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(
        self, fn: Callable, layer: str, count: Callable | None = None
    ) -> Callable:
        """``fn`` timed as one ``layer`` span; ``count`` tallies its result.

        A call nested directly in a span of the same layer (for example
        ``from_patterns`` delegating to ``from_tidsets``) is part of that
        span, not a new one.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self.pid:
                return self._in_worker(fn, layer, args, kwargs)
            stack = self._stack
            if stack and stack[-1][2] == layer:
                return fn(*args, **kwargs)
            span = [next(self._ids), stack[-1][0] if stack else None, layer]
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span[0], span[1], layer, start, end))
                self.calls[layer] += 1
            if count is not None:
                began = time.perf_counter()
                count(self, args, kwargs, result)
                self.bookkeeping_s += time.perf_counter() - began
            return result

        return wrapper

    def _in_worker(self, fn: Callable, layer: str, args: tuple, kwargs: dict) -> Any:
        """A wrapped call in a forked engine worker: a program-tracer span.

        The engine's own ``fuse_ball`` span already times that layer here.
        """
        layers = self._worker_layers
        if layer == "core.fuse" or (layers and layers[-1] == layer):
            return fn(*args, **kwargs)
        layers.append(layer)
        try:
            with trace.span(WORKER_PREFIX + layer):
                return fn(*args, **kwargs)
        finally:
            layers.pop()

    def targets(self) -> list[tuple[Any, str, str, Callable | None]]:
        """(owner, attribute, layer, counter) for every wrapped public call.

        Functions imported by name are patched where they are looked up:
        ``fuse_ball`` and ``balls`` in both fusion drivers, ``map_chunks``
        in the engine driver.
        """
        return [
            (PatternFusion, "mine_initial_pool", "mining.phase1", _count_pool),
            (PatternBallIndex, "__init__", "core.index_build", None),
            (PatternBallIndex, "balls", "core.ball_query", _count_balls),
            (core_pattern_fusion, "balls", "core.ball_query", _count_balls),
            (engine_parallel, "balls", "core.ball_query", _count_balls),
            (core_pattern_fusion, "fuse_ball", "core.fuse", None),
            (engine_parallel, "fuse_ball", "core.fuse", None),
            (TidsetMatrix, "from_patterns", "kernels.matrix_build", None),
            (TidsetMatrix, "from_tidsets", "kernels.matrix_build", None),
            (TransactionDatabase, "closure_of_tidset", "db.closure", None),
            (engine_parallel, "map_chunks", "engine.map", None),
            (PatternStore, "save", "store.save", None),
            (PatternStore, "load", "store.load", None),
            (PatternStore, "open_matrix", "store.open", None),
        ]

    def install(self) -> None:
        """Replace every target with its wrapper; installing twice raises."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for owner, name, layer, count in self.targets():
            if isinstance(owner, type):
                original = owner.__dict__[name]
                if isinstance(original, staticmethod):
                    replacement: Any = staticmethod(
                        self.wrap(original.__func__, layer, count)
                    )
                else:
                    replacement = self.wrap(original, layer, count)
            else:
                original = getattr(owner, name)
                replacement = self.wrap(original, layer, count)
            self._installed.append((owner, name, original))
            setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Put every original attribute back, in reverse order."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class WorkerSpans:
    """A program-tracer sink keeping the span records of engine workers.

    Records minted in this process (the driver's own instrumentation) are
    dropped: the driver side is measured by :class:`Tracer` instead.
    """

    def __init__(self) -> None:
        self._driver = f"{os.getpid():x}-"
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        if record["span_id"].startswith(self._driver):
            return
        if record["name"] == ENGINE_FUSE_SPAN or record["name"].startswith(
            WORKER_PREFIX
        ):
            self.records.append(record)

    def spans(self) -> list[tuple]:
        """The records as ``(id, parent, layer, start, end)`` spans."""
        out = []
        for record in self.records:
            name = record["name"]
            layer = (
                "core.fuse" if name == ENGINE_FUSE_SPAN
                else name[len(WORKER_PREFIX):]
            )
            start = record["start"]
            out.append(
                (record["span_id"], record.get("parent_id"), layer,
                 start, start + record["elapsed"])
            )
        return out

    def busy_s(self) -> float:
        """Summed wall time of the engine's per-task spans across workers."""
        return sum(
            r["elapsed"] for r in self.records if r["name"] == ENGINE_FUSE_SPAN
        )

    @contextmanager
    def collecting(self) -> Iterator["WorkerSpans"]:
        """Enable the program tracer with this sink for the enclosed block."""
        previous = (trace.TRACER.enabled, list(trace.TRACER.sinks))
        trace.TRACER.configure(enabled=True, sinks=[self])
        try:
            yield self
        finally:
            trace.TRACER.configure(enabled=previous[0], sinks=previous[1])


def _count_pool(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["mining.pool_patterns"] += len(result)


def _count_balls(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    """Ball sizes, and the members whose seed intersection reaches minsup.

    ``fuse_ball`` can only ever accept those; the rest are certain rejects
    the greedy pass still shuffles.  Both call forms take the centers
    first: ``index.balls(centers, r)`` and ``balls(centers, pool, r)``.
    """
    centers = args[1] if isinstance(args[0], PatternBallIndex) else args[0]
    tracer.counts["core.ball_queries"] += len(centers)
    minsup = tracer.minsup
    for center, members in zip(centers, result):
        tracer.counts["core.ball_members"] += len(members)
        if minsup is None:
            continue
        tidset = center.tidset
        tracer.counts["core.viable_members"] += sum(
            1
            for member in members
            if member.items != center.items
            and (tidset & member.tidset).bit_count() >= minsup
        )
