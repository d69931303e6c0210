"""Span-based tracing: where did the time go, as a tree.

A span is one timed region — ``with trace.span("fuse_ball", ball=12):`` —
recorded as a plain dict (name, ids, monotonic-clock duration, wall-clock
start, attributes) and fanned to pluggable sinks.  Parenting is automatic
via a :mod:`contextvars` variable, so spans opened inside an enclosing span
form a tree without any explicit wiring, including across threads spawned
per-request by the serving layer.

Tracing is **disabled by default** and its disabled cost is one attribute
check returning a shared no-op span — the benchmark suite pins the overhead
as a fraction of a full Pattern-Fusion run.  Enable it with
:meth:`Tracer.configure`, the CLI's ``--trace`` / ``--trace-file`` flags, or
the ``REPRO_TRACE`` environment variable (``ring``, ``stderr``, or
``jsonl:/path/to/spans.jsonl``).

Spans cross process boundaries by value, not by magic: engine workers run
their chunk under :func:`capture` (a scoped tracer override collecting into
a buffer) and return the span dicts *alongside their results*; the driver
calls :meth:`Tracer.ingest`, which re-parents the batch's roots onto the
driver's currently active span and re-emits every span to the real sinks.
The same code path runs under the serial executor, so ``jobs=1`` traces are
shaped identically to ``jobs=N`` ones.

Every span record also carries a **trace id**: the id of the request (or
other unit of work) the span belongs to.  Root spans mint their own unless
an ambient trace id was installed with :func:`trace_context` — which is how
the serving layer propagates a client's ``X-Trace-Id`` header into every
span a request opens; child spans inherit their parent's, and
:meth:`Tracer.ingest` rewrites worker batches onto the driver's trace id,
so one request yields one stitched tree under one id even when the work
fanned across engine worker processes.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import sys
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from repro.obs import clock

__all__ = [
    "ENV_VAR",
    "JsonlSink",
    "RingBufferSink",
    "StderrSink",
    "TRACER",
    "Tracer",
    "annotate",
    "capture",
    "configure",
    "current_span_id",
    "current_trace_id",
    "span",
    "thread_span_name",
    "trace_context",
]

#: Environment variable enabling tracing at process start.
ENV_VAR = "REPRO_TRACE"

_CURRENT: ContextVar["_ActiveSpan | None"] = ContextVar(
    "repro_active_span", default=None
)
#: Ambient trace id for spans opened with no parent (see :func:`trace_context`).
_TRACE_ID: ContextVar[str | None] = ContextVar("repro_trace_id", default=None)
_IDS = itertools.count(1)
_UNSET = object()

#: thread ident → innermost open span on that thread.  Contextvars cannot be
#: read from *other* threads, so the sampling profiler
#: (:mod:`repro.obs.profile`) attributes samples through this registry
#: instead; it is maintained by span enter/exit (two dict writes, paid only
#: while tracing is enabled) and never locked — per-thread keys make the
#: dict operations race-free under the GIL.
_THREAD_SPANS: dict[int, "_ActiveSpan"] = {}


def _new_span_id() -> str:
    """Process-unique, fork-safe span id (pid disambiguates worker batches)."""
    return f"{os.getpid():x}-{next(_IDS):x}"


class RingBufferSink:
    """Keep the last ``capacity`` spans in memory (the default debug sink)."""

    def __init__(self, capacity: int = 4096) -> None:
        self._spans: deque[dict[str, Any]] = deque(maxlen=capacity)

    def emit(self, record: dict[str, Any]) -> None:
        self._spans.append(record)

    def spans(self) -> list[dict[str, Any]]:
        """A snapshot of the buffered spans, oldest first."""
        return list(self._spans)

    def drain(self) -> list[dict[str, Any]]:
        """Remove and return every buffered span, oldest first."""
        out = []
        while True:
            try:
                out.append(self._spans.popleft())
            except IndexError:
                return out

    def __len__(self) -> int:
        return len(self._spans)


class JsonlSink:
    """Append one JSON line per span to a file (the durable sink).

    Writes are buffered and flushed every :data:`FLUSH_EVERY` spans; the
    sink registers an ``atexit`` close at construction so short CLI runs
    (``repro mine --trace-file ...``) never lose their tail spans to an
    unflushed buffer at interpreter exit.
    """

    #: Spans between explicit flushes; the atexit close drains the rest.
    FLUSH_EVERY = 64

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle = None
        self._unflushed = 0
        atexit.register(self.close)

    def emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a")
            self._handle.write(line + "\n")
            self._unflushed += 1
            if self._unflushed >= self.FLUSH_EVERY:
                self._handle.flush()
                self._unflushed = 0

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._unflushed = 0

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._unflushed = 0


class StderrSink:
    """One compact human-readable line per span on stderr."""

    def emit(self, record: dict[str, Any]) -> None:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(record["attrs"].items())
        )
        sys.stderr.write(
            f"[span] {record['name']} {record['elapsed'] * 1000:.3f}ms"
            f" id={record['span_id']} parent={record['parent_id'] or '-'}"
            f"{' ' + attrs if attrs else ''}\n"
        )


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """One live span: context manager that emits its record on exit."""

    __slots__ = ("_tracer", "_record", "_token", "_start", "_prev_thread")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._record: dict[str, Any] = {
            "name": name,
            "span_id": _new_span_id(),
            "parent_id": None,
            "trace_id": None,
            "start": 0.0,
            "elapsed": 0.0,
            "attrs": attrs,
        }
        self._token = None
        self._start = 0.0
        self._prev_thread: "_ActiveSpan | None" = None

    @property
    def span_id(self) -> str:
        return self._record["span_id"]

    @property
    def trace_id(self) -> str | None:
        return self._record["trace_id"]

    @property
    def name(self) -> str:
        return self._record["name"]

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after it opened."""
        self._record["attrs"].update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        parent = _CURRENT.get()
        if parent is not None:
            self._record["parent_id"] = parent.span_id
            self._record["trace_id"] = parent.trace_id
        else:
            # A root span joins the ambient trace (the request's X-Trace-Id,
            # installed via trace_context) or starts a trace of its own.
            self._record["trace_id"] = _TRACE_ID.get() or self._record["span_id"]
        self._token = _CURRENT.set(self)
        ident = threading.get_ident()
        self._prev_thread = _THREAD_SPANS.get(ident)
        _THREAD_SPANS[ident] = self
        self._record["start"] = clock.wall()
        self._start = clock.monotonic()
        return self

    def __exit__(self, exc_type: type | None, *exc_info: object) -> bool:
        self._record["elapsed"] = clock.monotonic() - self._start
        if exc_type is not None:
            self._record["attrs"]["error"] = exc_type.__name__
        ident = threading.get_ident()
        if self._prev_thread is None:
            _THREAD_SPANS.pop(ident, None)
        else:
            _THREAD_SPANS[ident] = self._prev_thread
        self._prev_thread = None
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tracer._emit(self._record)
        return False


class Tracer:
    """The span factory: disabled by default, sinks pluggable at runtime."""

    def __init__(self) -> None:
        self.enabled = False
        self.sinks: list[Any] = []

    def configure(
        self,
        enabled: bool | None = None,
        sinks: list[Any] | None = None,
    ) -> "Tracer":
        """Switch tracing on/off and/or replace the sink list."""
        if sinks is not None:
            self.sinks = list(sinks)
        if enabled is not None:
            self.enabled = enabled
        return self

    def add_sink(self, sink: Any) -> None:
        self.sinks.append(sink)

    def span(self, name: str, **attrs: Any) -> "_ActiveSpan | _NullSpan":
        """A context manager timing the enclosed region (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def current_span_id(self) -> str | None:
        """Id of the innermost open span on this thread/task, if any."""
        active = _CURRENT.get()
        return None if active is None else active.span_id

    def _emit(self, record: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def ingest(
        self,
        records: list[dict[str, Any]],
        parent_id: Any = _UNSET,
        trace_id: Any = _UNSET,
    ) -> int:
        """Merge a batch of span records produced elsewhere (worker → driver).

        Roots of the batch — spans whose parent is not itself in the batch —
        are re-parented onto ``parent_id`` (default: the caller's currently
        active span), stitching the worker's subtree into the driver's
        trace.  Every record is also rewritten onto ``trace_id`` (default:
        the driver's current trace id), since workers minted their own —
        one request, one id, even across process boundaries.  No-op while
        tracing is disabled.  Returns the number of spans emitted.
        """
        if not self.enabled or not records:
            return 0
        if parent_id is _UNSET:
            parent_id = self.current_span_id()
        if trace_id is _UNSET:
            trace_id = current_trace_id()
        ids = {record["span_id"] for record in records}
        for record in records:
            rewrite: dict[str, Any] = {}
            if record.get("parent_id") not in ids:
                rewrite["parent_id"] = parent_id
            if trace_id is not None:
                rewrite["trace_id"] = trace_id
            if rewrite:
                record = dict(record, **rewrite)
            self._emit(record)
        return len(records)


#: The process-default tracer; all built-in instrumentation goes through it.
TRACER = Tracer()


def span(name: str, **attrs: Any) -> "_ActiveSpan | _NullSpan":
    """``TRACER.span`` — the one-liner instrumentation sites use."""
    if not TRACER.enabled:
        return _NULL_SPAN
    return _ActiveSpan(TRACER, name, attrs)


def current_span_id() -> str | None:
    """``TRACER.current_span_id`` as a module function."""
    return TRACER.current_span_id()


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open span, if any.

    Lets a library function report what it did on the span its caller
    opened around it, without taking the span as an argument.
    """
    active = _CURRENT.get()
    if active is not None:
        active.set(**attrs)


def current_trace_id() -> str | None:
    """The trace id the next root span would join, or of the open span.

    Inside a span tree this is the tree's trace id; otherwise it is the
    ambient id installed by :func:`trace_context`, if any.
    """
    active = _CURRENT.get()
    if active is not None:
        return active.trace_id
    return _TRACE_ID.get()


@contextmanager
def trace_context(trace_id: str | None) -> Iterator[None]:
    """Install ``trace_id`` as the ambient trace id for the enclosed block.

    Root spans opened inside join this trace instead of minting their own —
    the serving layer wraps each request handler in this with the client's
    (or a generated) ``X-Trace-Id``.  ``None`` restores default minting.
    """
    token = _TRACE_ID.set(trace_id)
    try:
        yield
    finally:
        _TRACE_ID.reset(token)


def thread_span_name(ident: int) -> str | None:
    """Name of the innermost open span on thread ``ident``, if any.

    The cross-thread read the sampling profiler needs: contextvars are
    invisible from other threads, so this consults the enter/exit-maintained
    :data:`_THREAD_SPANS` registry instead.  Returns ``None`` while the
    thread has no open span (or tracing is disabled).
    """
    active = _THREAD_SPANS.get(ident)
    return None if active is None else active.name


def configure(enabled: bool | None = None, sinks: list[Any] | None = None) -> Tracer:
    """Configure the default tracer (see :meth:`Tracer.configure`)."""
    return TRACER.configure(enabled=enabled, sinks=sinks)


@contextmanager
def capture(tracer: Tracer = TRACER) -> Iterator[RingBufferSink]:
    """Scoped override: trace into a private buffer, restoring state after.

    The engine's worker bodies wrap their per-task work in this so span
    batches can travel back to the driver as plain data — and because the
    override is also correct in-process, the serial executor produces the
    same shaped batches as real workers do.
    """
    sink = RingBufferSink()
    previous = (tracer.enabled, tracer.sinks)
    tracer.enabled, tracer.sinks = True, [sink]
    try:
        yield sink
    finally:
        tracer.enabled, tracer.sinks = previous


def configure_from_env(environ: dict[str, str] = os.environ) -> bool:
    """Apply the ``REPRO_TRACE`` setting; True when tracing got enabled.

    Recognised values: ``ring`` / ``1`` (in-memory ring buffer), ``stderr``
    (compact lines), ``jsonl:<path>`` (JSON-lines file).  Anything empty or
    ``0`` leaves tracing off.
    """
    value = environ.get(ENV_VAR, "").strip()
    if not value or value == "0":
        return False
    if value.startswith("jsonl:"):
        sink: Any = JsonlSink(value.partition(":")[2])
    elif value == "stderr":
        sink = StderrSink()
    elif value in ("1", "ring"):
        sink = RingBufferSink()
    else:
        raise ValueError(
            f"unrecognised {ENV_VAR}={value!r}; "
            "use 'ring', 'stderr', or 'jsonl:/path/to/spans.jsonl'"
        )
    TRACER.configure(enabled=True, sinks=TRACER.sinks + [sink])
    return True


configure_from_env()
