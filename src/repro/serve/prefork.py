"""The serving loop, run in-process or by N pre-forked worker processes.

:class:`WorkerServer` is the one accept loop: it feeds a **bounded**
request queue drained by a small handler-thread pool, and answers a raw
``503`` the instant the queue is full: backpressure by design, not by
timeout.  :class:`PatternServer` runs one in-process.

Python's GIL caps a :class:`PatternServer` at roughly one core; the
production tier forks instead.  The supervisor binds the
listening socket, builds **one** :class:`~repro.serve.app.PatternApp` and
warms its caches — including the store's mmap'd binary run matrices
(:mod:`repro.store.binfmt`) — then forks ``workers`` processes that
inherit the listening fd and the warm pages copy-on-write.  Each worker
runs a :class:`WorkerServer` on the shared socket (the kernel
load-balances accepts).

Supervision: the parent reaps children; an unexpected exit is logged,
counted (``repro_prefork_worker_restarts_total``), and answered with a
fresh fork, so a crashed worker costs one in-flight request, not the
deployment.  A worker that dies within ``crash_window`` seconds of its
spawn is crash-looping — a bad config or poisoned store would otherwise
turn the supervisor into a fork bomb — so its respawn is *delayed* with
exponential backoff (``backoff_base`` doubling up to ``backoff_cap``,
published as ``repro_prefork_respawn_backoff_seconds``) and the backoff
resets once a replacement survives the window.  ``SIGTERM``/``SIGINT``
drain gracefully — workers stop accepting, finish what's queued, and
exit; stragglers past the grace deadline are killed.

Fault injection (:mod:`repro.resilience.faults`): the supervisor consults
the active schedule at ``prefork.worker_start`` before each fork — its
counters live in the parent, so ``times=``-bounded kill rules stay
bounded across respawns — and ships the action into the child; workers
fire ``prefork.handler`` per dequeued request.

Observability: every process keeps its *own* metrics registry (reset at
worker start) and spools snapshots through
:class:`~repro.serve.metrics.MetricsSpool`, so ``GET /metrics`` served by
any worker renders the whole fleet with a ``worker="<i>"`` label per
series (the supervisor contributes restart counts as
``worker="supervisor"``).  The ``/debug/*`` endpoints ride the same spool:
``/debug/vars`` merges per-worker vitals documents, and ``/debug/profile``
fans out — the handling worker publishes a profile request, pokes its
siblings with ``SIGUSR1`` (pids come from the supervisor's spooled
``pids`` document), every process samples itself concurrently, and the
spooled results merge into one fleet-wide collapsed-stack profile.
Tracing passes through: ``--trace``/``--trace-file`` reach the workers,
each writing its own ``<file>.worker<i>`` JSON-lines file (inherited file
handles are never shared across the fork).

``repro serve [--workers N] --queue-depth M --threads T`` is the CLI
front door: ``--workers 0`` (the default) runs a :class:`PatternServer`.
"""

from __future__ import annotations

import os
import queue
import shutil
import signal
import socket
import tempfile
import threading
import time

import itertools

from repro.obs import clock, diag, metrics, trace
from repro.obs import profile as profile_mod
from repro.obs.logs import get_logger
from repro.resilience.faults import apply_action, schedule as fault_schedule
from repro.serve.app import PatternApp, _Handler
from repro.serve.metrics import MetricsSpool
from repro.store.store import PatternStore

__all__ = ["PatternServer", "PreforkServer", "WorkerServer"]

_LOG = get_logger("serve.prefork")

#: Accept timeout: how often workers re-check the drain flag (and the
#: supervisor's poll period for reaping children).
_ACCEPT_TIMEOUT = 0.5

#: The supervisor's id in the metrics spool.
_SUPERVISOR = "supervisor"

#: Extra seconds a profile fan-out waits for sibling results past the
#: sampling window itself (signal delivery + spool write slack).
_PROFILE_GRACE = 3.0

_PROFILE_IDS = itertools.count(1)

_CONNECTIONS = metrics.counter(
    "repro_prefork_connections_total", "Connections accepted by this worker"
)
_REJECTED = metrics.counter(
    "repro_prefork_rejected_total",
    "Connections answered 503 because the worker's request queue was full",
)
_QUEUE_DEPTH = metrics.gauge(
    "repro_prefork_queue_depth",
    "Requests waiting in this worker's bounded queue",
)
_QUEUE_WAIT = metrics.histogram(
    "repro_serve_queue_wait_seconds",
    "Seconds a request sat in the worker's bounded queue between "
    "accept-enqueue and handler start (503 tuning signal)",
)
_RESTARTS = metrics.counter(
    "repro_prefork_worker_restarts_total",
    "Workers respawned by the supervisor after an unexpected exit",
)
_WORKERS = metrics.gauge(
    "repro_prefork_workers", "Worker processes the supervisor maintains"
)
_RESPAWN_BACKOFF = metrics.gauge(
    "repro_prefork_respawn_backoff_seconds",
    "Largest crash-loop respawn backoff currently applied to any worker "
    "slot (0 when no slot is crash-looping)",
)

_REJECT_BODY = b'{"error": "server overloaded: request queue is full"}\n'
_REJECT_RESPONSE = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json\r\n"
    + f"Content-Length: {len(_REJECT_BODY)}\r\n".encode()
    + b"Retry-After: 1\r\n"
    b"Connection: close\r\n"
    b"\r\n" + _REJECT_BODY
)


class WorkerServer:
    """One worker: accept loop → bounded queue → handler-thread pool.

    This object is the ``server`` of every :class:`~repro.serve.app._Handler`
    it runs: it carries ``app`` and the hooks the handler calls
    (``render_metrics``, ``current_queue_wait`` and the ``debug_*``
    hooks).  ``queue_depth`` bounds the accepted-but-unhandled backlog —
    an accept that finds the queue full is answered with a canned ``503``
    and closed immediately, so overload degrades into fast rejections
    instead of unbounded memory and latency.
    """

    def __init__(
        self,
        sock: socket.socket,
        app: PatternApp,
        queue_depth: int = 64,
        threads: int = 8,
        worker_id: str = "0",
        spool: MetricsSpool | None = None,
        conn_timeout: float = 30.0,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if sock.gettimeout() is None:
            # The prefork parent sets this before forking; in-process users
            # need it too or drain() could wait on accept() forever.
            sock.settimeout(_ACCEPT_TIMEOUT)
        self.socket = sock
        self.app = app
        self.queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self.worker_id = str(worker_id)
        self.spool = spool
        self.conn_timeout = conn_timeout
        self._n_threads = threads
        self._threads: list[threading.Thread] = []
        self._draining = threading.Event()
        # Per-handler-thread state the access log reads back mid-request.
        self._local = threading.local()
        diag.ensure_trace_ring()

    # ------------------------------------------------------------------
    # The _Handler server interface
    # ------------------------------------------------------------------

    def render_metrics(self) -> str:
        """``GET /metrics``: the whole fleet via the spool, or just us."""
        if self.spool is None:
            return metrics.REGISTRY.render()
        return self.spool.render_merged(self.worker_id)

    def current_queue_wait(self) -> float | None:
        """Queue wait of the request the calling handler thread is serving."""
        return getattr(self._local, "queue_wait", None)

    # ------------------------------------------------------------------
    # /debug/* (fleet-wide via the spool; self-only without one)
    # ------------------------------------------------------------------

    def debug_vars_extra(self) -> dict:
        return {
            "worker": self.worker_id,
            "queue_depth": self.queue.qsize(),
            "queue_capacity": self.queue.maxsize,
            "handler_threads": self._n_threads,
            "draining": self._draining.is_set(),
            "query_cache": self.app.query_cache.stats(),
            "run_cache": self.app.run_cache.stats(),
        }

    def debug_vars_by_worker(self) -> dict:
        """``/debug/vars``: every worker's spooled vitals, ours refreshed."""
        mine = diag.debug_vars(extra=self.debug_vars_extra())
        if self.spool is None:
            return {self.worker_id: mine}
        self.spool.put_doc(f"vars-{self.worker_id}", mine)
        merged = self.spool.read_docs("vars")
        merged[self.worker_id] = mine
        return merged

    def debug_trace(self, limit: int) -> dict:
        """``/debug/trace``: the handling worker's ring (spans don't spool)."""
        spans = diag.recent_spans(limit)
        return {
            "worker": self.worker_id,
            "tracing_enabled": trace.TRACER.enabled,
            "count": len(spans),
            "spans": spans,
        }

    def debug_profile(self, seconds: float, hz: float) -> dict:
        """``/debug/profile``: sample the whole fleet, merge via the spool.

        The handling worker publishes the request, SIGUSR1s its siblings
        (each samples itself and spools the result), samples itself for
        the same window, then collects and merges whatever arrived by the
        deadline — a missing sibling degrades the merge, never hangs it.
        """
        siblings = self._sibling_pids()
        request_id = None
        if siblings and self.spool is not None:
            request_id = f"{os.getpid():x}-{next(_PROFILE_IDS):x}"
            self.spool.put_doc(
                "profile-request",
                {
                    "id": request_id,
                    "seconds": seconds,
                    "hz": hz,
                    "requester": self.worker_id,
                },
            )
            for pid in siblings.values():
                try:
                    os.kill(pid, signal.SIGUSR1)
                except (ProcessLookupError, PermissionError):
                    continue
        own = profile_mod.profile_for(seconds, hz)
        docs = [own.to_dict()]
        workers = [self.worker_id]
        if request_id is not None:
            deadline = time.monotonic() + seconds + _PROFILE_GRACE
            found: dict = {}
            while set(siblings) - set(found) and time.monotonic() < deadline:
                time.sleep(0.05)
                found = self.spool.read_docs(f"profile-{request_id}")
            for worker_id in sorted(found):
                docs.append(found[worker_id])
                workers.append(worker_id)
        merged = profile_mod.merge_profile_dicts(docs)
        return {
            "seconds": seconds,
            "hz": hz,
            "workers": workers,
            "n_samples": merged.n_samples,
            "phases": merged.phase_samples(),
            "collapsed": merged.collapsed(),
        }

    def _sibling_pids(self) -> dict[str, int]:
        """Live sibling workers from the supervisor's spooled pids doc."""
        if self.spool is None:
            return {}
        doc = self.spool.read_doc("pids")
        if not isinstance(doc, dict):
            return {}
        own = os.getpid()
        return {
            worker_id: pid
            for worker_id, pid in doc.items()
            if isinstance(pid, int) and pid != own and worker_id != self.worker_id
        }

    def handle_profile_signal(self) -> None:
        """SIGUSR1: a sibling wants a fleet profile — answer off-thread."""
        threading.Thread(
            target=self._answer_profile_request,
            name=f"repro-worker-{self.worker_id}-profile",
            daemon=True,
        ).start()

    def _answer_profile_request(self) -> None:
        if self.spool is None:
            return
        request = self.spool.read_doc("profile-request")
        if not isinstance(request, dict) or "id" not in request:
            return
        try:
            prof = profile_mod.profile_for(
                float(request.get("seconds", 1.0)),
                float(request.get("hz", profile_mod.DEFAULT_HZ)),
            )
        except ValueError:
            return
        self.spool.put_doc(
            f"profile-{request['id']}-{self.worker_id}", prof.to_dict()
        )

    def _flush_vars(self) -> None:
        if self.spool is not None:
            self.spool.put_doc(
                f"vars-{self.worker_id}",
                diag.debug_vars(extra=self.debug_vars_extra()),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Stop accepting; finish queued work, then let serve_forever return."""
        self._draining.set()

    def serve_forever(self) -> None:
        """Accept until drained (blocking; the worker process's main loop)."""
        for index in range(self._n_threads):
            thread = threading.Thread(
                target=self._handler_loop,
                name=f"repro-worker-{self.worker_id}-h{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.spool is not None:
            # Publish this worker's (zeroed) series immediately: a scrape
            # right after startup already shows every worker.
            self.spool.flush(self.worker_id)
            self._flush_vars()
        try:
            while not self._draining.is_set():
                try:
                    conn, addr = self.socket.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break  # listener closed under us: treat as drain
                _CONNECTIONS.inc()
                try:
                    self.queue.put_nowait((conn, addr, clock.monotonic()))
                except queue.Full:
                    self._reject(conn)
                else:
                    _QUEUE_DEPTH.set(self.queue.qsize())
        finally:
            # Sentinels queue *behind* any pending connections, so queued
            # requests are finished before the handler threads exit.
            for _ in self._threads:
                self.queue.put(None)
            for thread in self._threads:
                thread.join(timeout=self.conn_timeout)
            if self.spool is not None:
                self.spool.flush(self.worker_id)
                self._flush_vars()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reject(self, conn: socket.socket) -> None:
        _REJECTED.inc()
        try:
            conn.sendall(_REJECT_RESPONSE)
        except OSError:
            pass  # the client gave up first; the rejection stands
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - double close is fine
                pass

    def _handler_loop(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            conn, addr, enqueued = item
            wait = clock.monotonic() - enqueued
            _QUEUE_WAIT.observe(wait)
            self._local.queue_wait = wait
            try:
                # Injection point for chaos tests: a `raise` here costs one
                # request (caught just below), a `kill` costs the worker —
                # either way the fleet, not the client pool, absorbs it.
                fault_schedule().fire("prefork.handler")
                conn.settimeout(self.conn_timeout)
                _Handler(conn, addr, self)
            except Exception:
                _LOG.exception("handler crashed on a connection from %s", addr)
            finally:
                self._local.queue_wait = None
                try:
                    conn.close()
                except OSError:
                    pass
                if self.spool is not None:
                    if self.spool.maybe_flush(self.worker_id):
                        self._flush_vars()


class PatternServer(PatternApp):
    """A :class:`PatternApp` served by one in-process :class:`WorkerServer`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port` —
    the tests and the ``repro serve`` banner do).  Use as a context
    manager, or call :meth:`start` / :meth:`close` explicitly.  For
    multi-process serving see :class:`PreforkServer`.
    """

    def __init__(
        self,
        store: PatternStore,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
        allow_mine: bool = True,
        queue_depth: int = 64,
        threads: int = 8,
    ) -> None:
        super().__init__(store, cache_size=cache_size, allow_mine=allow_mine)
        self._worker = WorkerServer(
            socket.create_server((host, port)), self,
            queue_depth=queue_depth, threads=threads, worker_id="self",
        )
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._worker.socket.getsockname()[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        return self._worker.socket.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PatternServer":
        """Serve on a daemon thread and return immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._worker.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the main thread until SIGTERM/SIGINT; drains, then closes."""
        previous = {
            signum: signal.signal(
                signum, lambda signum, frame: self._worker.drain()
            )
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            self._worker.serve_forever()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)  # type: ignore[arg-type]
            self.close()

    def close(self) -> None:
        """Drain the queued requests, then release the socket."""
        self._worker.drain()
        if self._thread is not None:
            self._thread.join(timeout=self._worker.conn_timeout)
            self._thread = None
        self._worker.socket.close()

    def __enter__(self) -> "PatternServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PreforkServer:
    """Supervisor for a fleet of forked :class:`WorkerServer` processes.

    Construction binds the socket (``port=0`` for ephemeral; read
    :attr:`url` back).  :meth:`serve_forever` warms the shared
    :class:`PatternApp`, forks the workers, and supervises until SIGTERM/
    SIGINT, returning after a graceful drain — the ``repro serve
    --workers N`` path.  POSIX only (``os.fork``).
    """

    def __init__(
        self,
        store: PatternStore,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_depth: int = 64,
        threads: int = 8,
        cache_size: int = 256,
        allow_mine: bool = True,
        warm: bool = True,
        grace: float = 10.0,
        trace_stderr: bool = False,
        trace_file: str | os.PathLike[str] | None = None,
        crash_window: float = 5.0,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
    ) -> None:
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "pre-forked serving needs os.fork (POSIX); "
                "use PatternServer on this platform"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if crash_window < 0:
            raise ValueError(f"crash_window must be >= 0, got {crash_window}")
        if backoff_base <= 0:
            raise ValueError(f"backoff_base must be > 0, got {backoff_base}")
        if backoff_cap < backoff_base:
            raise ValueError(
                f"backoff_cap must be >= backoff_base, got {backoff_cap}"
            )
        self.store = store
        self.workers = workers
        self.queue_depth = queue_depth
        self.threads = threads
        self.grace = grace
        self.crash_window = crash_window
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.trace_stderr = trace_stderr
        self.trace_file = None if trace_file is None else os.fspath(trace_file)
        self._warm = warm
        self.app = PatternApp(store, cache_size=cache_size, allow_mine=allow_mine)
        self._socket = socket.create_server((host, port), backlog=128)
        self._socket.settimeout(_ACCEPT_TIMEOUT)
        self._pids: dict[int, int] = {}  # pid -> worker index
        self._spawned_at: dict[int, float] = {}  # index -> monotonic spawn time
        self._backoff: dict[int, float] = {}  # index -> current backoff seconds
        self._respawn_at: dict[int, float] = {}  # index -> due monotonic time
        self._spool: MetricsSpool | None = None
        self._stop = False
        self._started = False

    @property
    def host(self) -> str:
        return self._socket.getsockname()[0]

    @property
    def port(self) -> int:
        return self._socket.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Ask the supervision loop to drain and return (signal-safe)."""
        self._stop = True

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Warm, fork, and supervise until stopped; drains before returning."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        warmed = self.app.warm() if self._warm else 0
        self._spool = MetricsSpool(tempfile.mkdtemp(prefix="repro-serve-spool-"))
        _WORKERS.set(self.workers)
        _RESTARTS.inc(0)  # the series exists (at 0) before any crash
        self._spool.flush(_SUPERVISOR)
        _LOG.info(
            "prefork supervisor up",
            extra={
                "pid": os.getpid(), "url": self.url, "workers": self.workers,
                "queue_depth": self.queue_depth, "warmed_runs": warmed,
            },
        )
        previous = {
            signum: signal.signal(signum, self._handle_stop)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            for index in range(self.workers):
                self._spawn(index)
            self._publish_pids()
            while not self._stop:
                self._respawn_due()
                try:
                    pid, status = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    # Every child is dead; only crash-loop backoffs remain.
                    if not self._respawn_at:  # pragma: no cover - all gone
                        break
                    time.sleep(0.05)
                    continue
                if pid == 0:
                    time.sleep(0.05)
                    continue
                index = self._pids.pop(pid, None)
                if index is None or self._stop:
                    continue
                _RESTARTS.inc()
                lifetime = time.monotonic() - self._spawned_at.get(index, 0.0)
                if lifetime < self.crash_window:
                    # Crash loop: delay the respawn, doubling per quick death.
                    backoff = min(
                        self.backoff_cap,
                        max(self.backoff_base, 2 * self._backoff.get(index, 0.0)),
                    )
                    self._backoff[index] = backoff
                    self._respawn_at[index] = time.monotonic() + backoff
                    _LOG.warning(
                        "worker crash-looped; respawn delayed",
                        extra={
                            "worker": index, "died_pid": pid, "status": status,
                            "lifetime_seconds": round(lifetime, 3),
                            "backoff_seconds": backoff,
                        },
                    )
                else:
                    # A full crash_window of service clears the slot's record.
                    self._backoff.pop(index, None)
                    _LOG.warning(
                        "worker died; respawning",
                        extra={"worker": index, "died_pid": pid, "status": status},
                    )
                    self._spawn(index)
                    self._publish_pids()
                _RESPAWN_BACKOFF.set(max(self._backoff.values(), default=0.0))
                self._spool.flush(_SUPERVISOR)
        finally:
            self._shutdown(previous)

    def _respawn_due(self) -> None:
        """Fork replacements whose crash-loop backoff has elapsed, and reset
        the backoff of any slot whose worker has outlived the crash window."""
        now = time.monotonic()
        due = [i for i, at in self._respawn_at.items() if at <= now]
        for index in due:
            del self._respawn_at[index]
            self._spawn(index)
        if due:
            self._publish_pids()
        settled = False
        for index in list(self._backoff):
            if index in self._respawn_at:
                continue
            spawned = self._spawned_at.get(index)
            if spawned is not None and now - spawned >= self.crash_window:
                del self._backoff[index]
                settled = True
        if settled:
            _RESPAWN_BACKOFF.set(max(self._backoff.values(), default=0.0))
            if self._spool is not None:
                self._spool.flush(_SUPERVISOR)

    def _publish_pids(self) -> None:
        """Spool worker-id → pid so any worker can SIGUSR1 its siblings."""
        if self._spool is not None:
            self._spool.put_doc(
                "pids", {str(index): pid for pid, index in self._pids.items()}
            )

    def _handle_stop(self, signum: int, frame: object) -> None:
        self._stop = True

    def _spawn(self, index: int) -> None:
        # Consulted in the parent so `times=`-bounded kill rules count every
        # spawn, no matter how many children the faults themselves destroy.
        start_fault = fault_schedule().check("prefork.worker_start")
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                if start_fault is not None:
                    apply_action(start_fault)
                self._worker_main(index)
            except BaseException:
                _LOG.exception("worker crashed", extra={"worker": index})
                code = 1
            finally:
                # Never return into the supervisor's (or the CLI's) stack.
                os._exit(code)
        self._pids[pid] = index
        self._spawned_at[index] = time.monotonic()

    def _configure_worker_tracing(self, index: int) -> None:
        """Per-worker trace sinks: own files, never the parent's handles.

        An inherited :class:`~repro.obs.trace.JsonlSink` would share the
        supervisor's (lazily opened) file handle across processes and
        interleave torn lines, so each worker replaces every JSONL path —
        inherited or passed via ``trace_file`` — with its own
        ``<stem>.worker<i><ext>`` sink.  ``trace_stderr``/``trace_file``
        also *enable* tracing in the worker, which is the
        ``--trace``/``--trace-file`` pass-through.
        """
        sinks = [
            sink for sink in trace.TRACER.sinks
            if not isinstance(sink, trace.JsonlSink)
        ]
        enabled = trace.TRACER.enabled
        paths = [
            sink.path for sink in trace.TRACER.sinks
            if isinstance(sink, trace.JsonlSink)
        ]
        if self.trace_file is not None:
            paths.append(self.trace_file)
        for path in dict.fromkeys(paths):
            root, ext = os.path.splitext(path)
            sinks.append(trace.JsonlSink(f"{root}.worker{index}{ext or '.jsonl'}"))
            enabled = True
        if self.trace_stderr:
            if not any(isinstance(sink, trace.StderrSink) for sink in sinks):
                sinks.append(trace.StderrSink())
            enabled = True
        trace.TRACER.configure(enabled=enabled, sinks=sinks)

    def _worker_main(self, index: int) -> None:
        # Ctrl-C goes to the whole foreground process group; workers ignore
        # it and drain on the SIGTERM the supervisor sends instead.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # Fresh per-worker series: the registry structure is inherited from
        # the fork, the counts must not be (they'd double-report the warm).
        metrics.REGISTRY.reset()
        self._configure_worker_tracing(index)
        worker = WorkerServer(
            self._socket,
            self.app,
            queue_depth=self.queue_depth,
            threads=self.threads,
            worker_id=str(index),
            spool=self._spool,
        )
        signal.signal(signal.SIGTERM, lambda signum, frame: worker.drain())
        signal.signal(
            signal.SIGUSR1, lambda signum, frame: worker.handle_profile_signal()
        )
        try:
            worker.serve_forever()
        finally:
            # Workers leave via os._exit, which skips atexit — flush the
            # trace file here or the tail spans are lost.
            for sink in trace.TRACER.sinks:
                close = getattr(sink, "close", None)
                if close is not None:
                    close()

    def _shutdown(self, previous: dict[int, object]) -> None:
        for pid in list(self._pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                self._pids.pop(pid, None)
        deadline = time.monotonic() + self.grace
        while self._pids and time.monotonic() < deadline:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                self._pids.clear()
                break
            if pid:
                self._pids.pop(pid, None)
            else:
                time.sleep(0.05)
        for pid in list(self._pids):  # pragma: no cover - needs a hung worker
            _LOG.warning(
                "worker missed the drain deadline; killing",
                extra={"killed_pid": pid, "grace_seconds": self.grace},
            )
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        self._pids.clear()
        self._socket.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)  # type: ignore[arg-type]
        if self._spool is not None:
            shutil.rmtree(self._spool.root, ignore_errors=True)
