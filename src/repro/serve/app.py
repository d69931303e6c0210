"""The pattern server: a zero-dependency JSON API over a pattern store.

Routes (all responses JSON, except the Prometheus text of ``/metrics``):

======  =================  ====================================================
GET     ``/health``        store size, format version, cache telemetry
GET     ``/metrics``       the process metrics registry, Prometheus text format
GET     ``/miners``        the registry listing (``repro miners --json``)
GET     ``/runs``          metadata summary of every stored run
GET     ``/runs/<id>``     one run's metadata + patterns (``?limit=N``)
POST    ``/mine``          mine through the store cache; body
                           ``{"dataset": ..., "miner": ..., "config": {...}}``
                           (``dataset`` one of ``BUILTIN_DATASETS``;
                           optional ``n`` in 2..``MAX_MINE_N``, ``seed``)
POST    ``/query``         evaluate a query; body
                           ``{"run": id, "query": {...}}``
GET     ``/debug/vars``    live-process vitals (RSS, GC, threads, uptime,
                           queue depths, kernel backend) per worker
GET     ``/debug/trace``   recent spans from the debug ring (``?limit=N``)
POST    ``/debug/profile`` on-demand sampling profile of the live server
                           (``?seconds=S&hz=H``), collapsed-stack output
======  =================  ====================================================

Every request is measured: a ``repro_http_requests_total`` counter split by
method/route/status, a per-route latency histogram, an in-flight gauge, one
structured access-log line (logger ``repro.serve.access``), and an
``X-Request-Id`` response header (the client's, when it sent one).  Route
labels are normalised (``/runs/<id>`` → ``/runs/{id}``; unknown paths →
``other``) so label cardinality stays bounded under hostile traffic.

Requests also carry **trace context**: the ``X-Trace-Id`` header (generated
when absent, always echoed back) is installed as the ambient trace id for
the handler, so the per-request span — and every span the request opens,
including engine worker batches ingested mid-request — lands in one
stitched tree under that id, across threads and processes alike.

The HTTP-free core is :class:`PatternApp`: dispatch, validation, and two
in-process LRUs in front of the disk — loaded runs (payload with the
run's tidset matrix, mapped once from its ``patterns.bin`` and scanned by
every distance ball of the run, and a prebuilt
:class:`repro.store.index.InvertedItemIndex`) and hot query results.  Both
caches are safe because the store is content-addressed and append-only: a
run id's content can never change under a cached entry (deleting a run
*under* the cache is detected and answered 404, with the entry dropped).
Both servers in :mod:`repro.serve.prefork` host the app through one
serving loop, :class:`~repro.serve.prefork.WorkerServer` (accept, a bounded
queue, a handler-thread pool, 503 on overflow): :class:`PatternServer`
runs one in-process, and the pre-forked tier runs one per worker process.

Pattern records on the wire carry ``items``, ``size``, ``support``, and the
``tidset`` as hex — everything needed to rebuild the exact in-memory
:class:`repro.mining.results.Pattern`, so HTTP clients lose nothing over
local ones.
"""

from __future__ import annotations

import itertools
import json
import os
from http.server import BaseHTTPRequestHandler
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, urlparse

from repro.api.pipeline import BUILTIN_DATASETS, load_dataset
from repro.api.registry import get_miner_spec, miner_names
from repro.mining.results import Pattern
from repro.obs import clock, metrics, profile, trace
from repro.obs.logs import get_logger
from repro.store.cache import LRUCache, mine_cached
from repro.store.format import FORMAT_VERSION
from repro.store.index import InvertedItemIndex
from repro.store.query import Query, run_query
from repro.store.store import PatternStore, StoredRun

if TYPE_CHECKING:
    from repro.serve.prefork import WorkerServer

__all__ = ["PatternApp", "pattern_record"]

#: Default number of pattern records embedded in /mine and /runs/<id> bodies.
DEFAULT_LIMIT = 50

_REQUESTS = metrics.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, normalised route, and status",
    ("method", "route", "status"),
)
_REQUEST_SECONDS = metrics.histogram(
    "repro_http_request_seconds",
    "HTTP request latency by normalised route",
    ("route",),
)
_IN_FLIGHT = metrics.gauge(
    "repro_http_in_flight_requests", "Requests currently being handled"
)

_ACCESS_LOG = get_logger("serve.access")

_REQUEST_IDS = itertools.count(1)

#: The fixed route vocabulary for metric labels (see module docstring).
_ROUTES = frozenset(
    {
        "/", "/health", "/metrics", "/miners", "/runs", "/mine", "/query",
        "/debug/vars", "/debug/trace", "/debug/profile",
    }
)

#: Largest request body the server reads; a bigger one is refused with a
#: 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20

#: Largest ``n`` a ``/mine`` body may ask of the diag family: Diag_n is
#: n rows of n - 1 items, so n is bounded before anything is built.  The
#: paper's largest Diag is n = 40.
MAX_MINE_N = 1000

#: Hard ceilings for on-demand profiling requests (seconds, hz).
MAX_PROFILE_SECONDS = 30.0
MAX_PROFILE_HZ = 2000.0


def _route_of(path: str) -> str:
    """Normalise a request path to a bounded metric label."""
    parts = [part for part in path.split("/") if part]
    normalised = "/" + "/".join(parts)
    if normalised in _ROUTES:
        return normalised
    if len(parts) == 2 and parts[0] == "runs":
        return "/runs/{id}"
    return "other"


def _next_request_id() -> str:
    return f"{os.getpid():x}-{next(_REQUEST_IDS):x}"


def pattern_record(pattern: Pattern) -> dict[str, Any]:
    """One pattern as a lossless JSON record (tidset as hex)."""
    return {
        "items": list(pattern.sorted_items()),
        "size": pattern.size,
        "support": pattern.support,
        "tidset": f"{pattern.tidset:x}",
    }


class _ApiError(Exception):
    """An error with an HTTP status and a message fit for the JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _run_summary(meta: dict[str, Any]) -> dict[str, Any]:
    dataset = meta.get("dataset") or {}
    return {
        "run_id": meta["run_id"],
        "miner": meta.get("miner"),
        "algorithm": meta.get("algorithm"),
        "minsup": meta.get("minsup"),
        "n_patterns": meta.get("n_patterns"),
        "fingerprint": dataset.get("fingerprint"),
        "elapsed_seconds": meta.get("elapsed_seconds"),
        "created": meta.get("created"),
    }


class PatternApp:
    """The HTTP-free serving core: dispatch, validation, and the LRUs.

    One app instance is shared by every handler thread of a worker loop
    — and, in the pre-forked tier, by every worker *process* (built and
    warmed before the fork so the caches' pages are inherited
    copy-on-write).  ``allow_mine=False`` turns ``/mine`` off for
    read-only deployments; otherwise ``/mine`` mines only the built-in
    datasets (``BUILTIN_DATASETS``), never a server-side file.
    """

    def __init__(
        self,
        store: PatternStore,
        cache_size: int = 256,
        allow_mine: bool = True,
    ) -> None:
        self.store = store
        self.allow_mine = allow_mine
        self.query_cache = LRUCache(cache_size)
        # Loaded runs are far heavier than query results but far fewer; a
        # small fixed bound keeps the hot working set resident.
        self.run_cache = LRUCache(max(8, cache_size // 16))

    def warm(self) -> int:
        """Preload runs (payload + index) into the run cache, newest-id last.

        The pre-forked server calls this once in the supervisor so every
        forked worker starts with the working set hot and page-shared.
        Stops at the run cache's capacity; returns the number warmed.
        """
        warmed = 0
        for run_id in self.store.run_ids():
            if warmed >= self.run_cache.capacity:
                break
            try:
                self._load_run(run_id)
            except _ApiError:  # pragma: no cover - raced delete during warm
                continue
            warmed += 1
        return warmed

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------

    def handle(
        self, method: str, path: str, query: dict[str, list[str]],
        body: dict[str, Any] | None,
    ) -> tuple[int, dict[str, Any] | list[Any]]:
        """Dispatch one request; returns (status, JSON-ready payload)."""
        parts = [part for part in path.split("/") if part]
        if method == "GET":
            if parts in ([], ["health"]):
                return 200, self._health()
            if parts == ["miners"]:
                return 200, [
                    get_miner_spec(name).describe() for name in miner_names()
                ]
            if parts == ["runs"]:
                return 200, [_run_summary(meta) for meta in self.store.metas()]
            if len(parts) == 2 and parts[0] == "runs":
                return 200, self._run_detail(parts[1], _limit_of(query))
        elif method == "POST":
            if parts == ["query"]:
                return 200, self._query(body or {})
            if parts == ["mine"]:
                return 200, self._mine(body or {})
        else:
            raise _ApiError(405, f"method {method} not supported")
        raise _ApiError(404, f"no route for {method} /{'/'.join(parts)}")

    def _health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            # The answering process — in the pre-forked tier this tells the
            # client (and the supervision tests) *which worker* served it.
            "pid": os.getpid(),
            "format": FORMAT_VERSION,
            "runs": len(self.store),
            "streams": self.store.stream_names(),
            "mine_enabled": self.allow_mine,
            "query_cache": self.query_cache.stats(),
            "run_cache": self.run_cache.stats(),
        }

    def _load_run(self, run_id: str) -> tuple[StoredRun, InvertedItemIndex]:
        cached = self.run_cache.get(run_id)
        if cached is not None:
            if run_id in self.store:
                return cached
            # The run was deleted on disk under the cache: drop the entry
            # and answer 404 — not a 500 from the stale load below.
            self.run_cache.invalidate(run_id)
            raise _ApiError(404, f"run {run_id} was deleted from the store")
        try:
            run = self.store.load(run_id)
        except KeyError as exc:
            raise _ApiError(404, str(exc.args[0])) from None
        except FileNotFoundError:
            # meta.json exists but patterns.bin does not: a partial delete,
            # or a run from before the binary format.
            self.run_cache.invalidate(run_id)
            raise _ApiError(
                404,
                f"run {run_id} is missing its payload on disk; a run written "
                "before the binary format needs `repro store migrate`",
            ) from None
        entry = (run, InvertedItemIndex(run.patterns))
        self.run_cache.put(run_id, entry)
        return entry

    def _run_detail(self, run_id: str, limit: int | None) -> dict[str, Any]:
        run, _ = self._load_run(run_id)
        shown = run.patterns if limit is None else run.patterns[:limit]
        detail = dict(run.meta)
        detail["patterns"] = [pattern_record(p) for p in shown]
        detail["patterns_shown"] = len(shown)
        return detail

    def _query(self, body: dict[str, Any]) -> dict[str, Any]:
        run_id = body.get("run")
        if not isinstance(run_id, str):
            raise _ApiError(400, "body must carry a 'run' id string")
        query_dict = body.get("query", {})
        if not isinstance(query_dict, dict):
            raise _ApiError(400, "'query' must be an object")
        try:
            query = Query.from_dict(query_dict)
        except (TypeError, ValueError) as exc:
            raise _ApiError(400, f"invalid query: {exc}") from None
        cache_key = (run_id, json.dumps(query.to_dict(), sort_keys=True))
        cached = self.query_cache.get(cache_key)
        if cached is not None:
            return cached
        run, index = self._load_run(run_id)
        try:
            matches = run_query(
                run.patterns, query, index=index, matrix=run.matrix
            )
        except KeyError as exc:
            raise _ApiError(404, str(exc.args[0])) from None
        response = {
            "run": run_id,
            "query": query.to_dict(),
            "count": len(matches),
            "patterns": [pattern_record(p) for p in matches],
        }
        self.query_cache.put(cache_key, response)
        return response

    def _mine(self, body: dict[str, Any]) -> dict[str, Any]:
        if not self.allow_mine:
            raise _ApiError(403, "mining is disabled on this server")
        miner = body.get("miner")
        if not isinstance(miner, str):
            raise _ApiError(400, "body must carry a 'miner' name string")
        dataset = body.get("dataset")
        # Names only: a path would make the server read (and echo in its
        # parse error) any file it can open.
        if dataset not in BUILTIN_DATASETS:
            raise _ApiError(
                400,
                "'dataset' must be a built-in dataset name "
                f"({', '.join(BUILTIN_DATASETS)}), got {dataset!r}",
            )
        config = body.get("config", {})
        if not isinstance(config, dict):
            raise _ApiError(400, "'config' must be an object of miner knobs")
        limit = body.get("limit", DEFAULT_LIMIT)
        if not _is_int(limit):
            raise _ApiError(400, f"'limit' must be an integer, got {limit!r}")
        n = body.get("n", 40)
        if not _is_int(n) or not 2 <= n <= MAX_MINE_N:
            raise _ApiError(
                400, f"'n' must be an integer in 2..{MAX_MINE_N}, got {n!r}"
            )
        seed = body.get("seed", 7)
        if not _is_int(seed):
            raise _ApiError(400, f"'seed' must be an integer, got {seed!r}")
        try:
            spec = get_miner_spec(miner)
            miner_config = spec.config_type.from_dict(config)
            db = load_dataset(dataset, n=n, seed=seed)
        except (TypeError, ValueError) as exc:
            raise _ApiError(400, str(exc)) from None
        outcome = mine_cached(self.store, miner, db, miner_config)
        result = outcome.result
        return {
            "run": outcome.run_id,
            "cached": outcome.hit,
            "miner": miner,
            "algorithm": result.algorithm,
            "minsup": result.minsup,
            "count": len(result),
            "patterns": [pattern_record(p) for p in result.patterns[:limit]],
        }


def _is_int(value: Any) -> bool:
    """A JSON integer (``bool`` subclasses ``int`` but is not one here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _query_number(
    query: dict[str, list[str]], key: str, default: float, maximum: float
) -> float:
    values = query.get(key)
    if not values:
        return default
    try:
        value = float(values[-1])
    except ValueError:
        raise _ApiError(400, f"{key} must be a number, got {values[-1]!r}") from None
    if not value > 0:
        raise _ApiError(400, f"{key} must be positive, got {value!r}")
    return min(value, maximum)


def _handle_debug(
    server: "WorkerServer", method: str, path: str,
    query: dict[str, list[str]],
) -> tuple[int, dict[str, Any]]:
    """Dispatch one ``/debug/*`` request against the *server* layer.

    Debug endpoints live on the server, not the app: they report
    process-level state (queue depths, the metrics spool, sibling
    workers) the HTTP-free :class:`PatternApp` knows nothing about.  With
    a metrics spool the worker's ``debug_*`` hooks answer for the whole
    pre-forked fleet.
    """
    parts = [part for part in path.split("/") if part]
    if method == "GET" and parts == ["debug", "vars"]:
        return 200, {"workers": server.debug_vars_by_worker()}
    if method == "GET" and parts == ["debug", "trace"]:
        values = query.get("limit")
        try:
            limit = int(values[-1]) if values else 100
        except ValueError:
            raise _ApiError(
                400, f"limit must be an integer, got {values[-1]!r}"
            ) from None
        return 200, server.debug_trace(limit)
    if method == "POST" and parts == ["debug", "profile"]:
        seconds = _query_number(query, "seconds", 1.0, MAX_PROFILE_SECONDS)
        hz = _query_number(query, "hz", profile.DEFAULT_HZ, MAX_PROFILE_HZ)
        return 200, server.debug_profile(seconds, hz)
    raise _ApiError(404, f"no debug route for {method} /{'/'.join(parts)}")


def _limit_of(query: dict[str, list[str]]) -> int | None:
    values = query.get("limit")
    if not values:
        return DEFAULT_LIMIT
    try:
        limit = int(values[-1])
    except ValueError:
        raise _ApiError(400, f"limit must be an integer, got {values[-1]!r}") from None
    return None if limit < 0 else limit


class _Handler(BaseHTTPRequestHandler):
    """Parse HTTP, delegate to :meth:`PatternApp.handle`, write JSON."""

    server: "WorkerServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:
        pass  # structured access logging happens in _dispatch instead

    def _respond(
        self, status: int, payload: dict[str, Any] | list[Any],
        request_id: str | None = None,
        trace_id: str | None = None,
    ) -> None:
        body = json.dumps(payload, indent=2).encode() + b"\n"
        self._write(status, body, "application/json", request_id, trace_id)

    def _write(
        self, status: int, body: bytes, content_type: str,
        request_id: str | None,
        trace_id: str | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        if trace_id is not None:
            self.send_header("X-Trace-Id", trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        route = _route_of(parsed.path)
        request_id = self.headers.get("X-Request-Id") or _next_request_id()
        # The trace id stitches everything this request causes — handler
        # span, engine worker batches, prefork hops — into one tree; a
        # client that sends none gets the request id as the trace root.
        trace_id = self.headers.get("X-Trace-Id") or request_id
        started = clock.monotonic()
        run_id: str | None = None
        is_scrape = method == "GET" and route == "/metrics"
        with _IN_FLIGHT.track(), trace.trace_context(trace_id), trace.span(
            "http_request", method=method, route=route, request_id=request_id
        ) as span:
            if is_scrape:
                status, payload = 200, None
            else:
                status, payload = self._handle_json(method, parsed)
                if isinstance(payload, dict):
                    maybe_run = payload.get("run") or payload.get("run_id")
                    if isinstance(maybe_run, str):
                        run_id = maybe_run
            span.set(status=status)
            # Account the request *before* the response bytes go out: a
            # client that has read its response is guaranteed to see the
            # request in an immediately following scrape or access-log read
            # (only the response write itself goes unmeasured).
            elapsed = clock.monotonic() - started
            _REQUESTS.inc(method=method, route=route, status=str(status))
            _REQUEST_SECONDS.observe(elapsed, route=route)
            extra = {
                "method": method,
                "route": route,
                "path": parsed.path,
                "status": status,
                "duration_ms": round(elapsed * 1000, 3),
                "request_id": request_id,
                "trace_id": trace_id,
            }
            queue_wait = self.server.current_queue_wait()
            if queue_wait is not None:
                extra["queue_wait_ms"] = round(queue_wait * 1000, 3)
            if run_id is not None:
                extra["run_id"] = run_id
            _ACCESS_LOG.info(
                "%s %s -> %d", method, parsed.path, status, extra=extra
            )
            if is_scrape:
                # The scrape endpoint renders text, not JSON, and bypasses
                # the app dispatch (it must work even if the app is wedged).
                # Rendering after self-accounting means a scrape sees itself.
                self._write(
                    status,
                    self.server.render_metrics().encode(),
                    "text/plain; version=0.0.4; charset=utf-8",
                    request_id,
                    trace_id,
                )
            else:
                self._respond(status, payload, request_id, trace_id)

    def _handle_json(
        self, method: str, parsed: Any
    ) -> tuple[int, dict[str, Any] | list[Any]]:
        """Parse the body, run the app dispatch, map errors to JSON."""
        body: dict[str, Any] | None = None
        if method == "POST":
            declared = (self.headers.get("Content-Length") or "0").strip()
            # Either way the body is left unread, so the connection cannot
            # find the next request: answer, then close it.
            if not (declared.isascii() and declared.isdigit()):
                self.close_connection = True
                return 400, {"error": f"invalid Content-Length {declared!r}"}
            length = int(declared)
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                return 413, {
                    "error": f"request body of {length} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte limit"
                }
            raw = self.rfile.read(length) if length else b""
            try:
                body = json.loads(raw) if raw else {}
            except json.JSONDecodeError as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}
            if not isinstance(body, dict):
                return 400, {"error": "JSON body must be an object"}
        try:
            parts = [part for part in parsed.path.split("/") if part]
            if parts[:1] == ["debug"]:
                # Debug endpoints target the server layer, not the app.
                return _handle_debug(
                    self.server, method, parsed.path, parse_qs(parsed.query)
                )
            return self.server.app.handle(
                method, parsed.path, parse_qs(parsed.query), body
            )
        except _ApiError as exc:
            return exc.status, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive 500
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("POST")
