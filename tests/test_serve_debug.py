"""The /debug/* diagnostics endpoints, in both serve modes.

Single-process coverage drives a live :class:`PatternServer` (vars shape,
trace ring, on-demand profile, 404/400 paths, X-Trace-Id echo); the
in-process :class:`WorkerServer` checks the queue-wait histogram and its
access-log field without forking; and one real ``repro serve --workers 2``
subprocess proves the fleet behaviours — merged ``/debug/vars`` and the
SIGUSR1-fanned ``/debug/profile`` whose collapsed stacks name both
workers' serve frames.
"""

import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.datasets import diag_plus
from repro.obs import trace
from repro.serve import PatternApp, PatternServer, WorkerServer
from repro.store import PatternStore, mine_cached

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def request(url, method="GET", headers=None):
    req = urllib.request.Request(url, method=method, headers=headers or {})
    with urllib.request.urlopen(req, timeout=30) as response:
        return response.status, dict(response.headers), response.read().decode()


def get_json(url, method="GET", headers=None):
    status, response_headers, body = request(url, method, headers)
    return status, response_headers, json.loads(body)


def _populate(root) -> PatternStore:
    store = PatternStore(root)
    mine_cached(
        store, "pattern_fusion", diag_plus(),
        minsup=20, k=10, initial_pool_max_size=2, seed=0,
    )
    return store


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    store = _populate(tmp_path_factory.mktemp("debug-store"))
    with PatternServer(store, port=0) as server:
        yield server


@pytest.fixture()
def restored_tracer():
    previous = (trace.TRACER.enabled, list(trace.TRACER.sinks))
    yield trace.TRACER
    trace.TRACER.enabled, trace.TRACER.sinks = previous


class TestDebugVars:
    def test_vars_reports_process_vitals(self, served):
        status, _, doc = get_json(served.url + "/debug/vars")
        assert status == 200
        vars_doc = doc["workers"]["self"]
        assert vars_doc["pid"] == os.getpid()
        assert vars_doc["uptime_seconds"] >= 0
        assert vars_doc["rss_bytes"] > 0
        assert vars_doc["threads"]["count"] >= 1
        assert vars_doc["gc"]["counts"]
        assert "query_cache" in vars_doc and "run_cache" in vars_doc
        assert vars_doc["kernel_backend"] == "numpy"

    def test_unknown_debug_route_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            request(served.url + "/debug/nope")
        assert excinfo.value.code == 404
        assert "no debug route" in json.loads(excinfo.value.read())["error"]

    def test_wrong_method_on_debug_profile_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            request(served.url + "/debug/profile")  # GET, must be POST
        assert excinfo.value.code == 404


class TestDebugTrace:
    def test_trace_disabled_reports_empty(self, served):
        status, _, doc = get_json(served.url + "/debug/trace")
        assert status == 200
        assert doc["tracing_enabled"] is False

    def test_trace_shows_request_spans_when_enabled(
        self, served, restored_tracer
    ):
        trace.TRACER.configure(enabled=True)
        request(served.url + "/health", headers={"X-Trace-Id": "dbg-t1"})
        status, _, doc = get_json(served.url + "/debug/trace?limit=50")
        assert status == 200
        assert doc["tracing_enabled"] is True
        probe = [
            span for span in doc["spans"] if span["trace_id"] == "dbg-t1"
        ]
        assert probe and probe[0]["name"] == "http_request"

    def test_trace_limit_bounds_output(self, served, restored_tracer):
        trace.TRACER.configure(enabled=True)
        for _ in range(5):
            request(served.url + "/health")
        status, _, doc = get_json(served.url + "/debug/trace?limit=2")
        assert status == 200
        assert doc["count"] == 2 and len(doc["spans"]) == 2

    def test_bad_limit_400(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            request(served.url + "/debug/trace?limit=abc")
        assert excinfo.value.code == 400


class TestDebugProfile:
    def test_on_demand_profile_returns_collapsed_stacks(self, served):
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                request(served.url + "/health")

        load = threading.Thread(target=churn, daemon=True)
        load.start()
        try:
            status, _, doc = get_json(
                served.url + "/debug/profile?seconds=0.5&hz=199", method="POST"
            )
        finally:
            stop.set()
            load.join(timeout=10)
        assert status == 200
        assert doc["workers"] == ["self"]
        assert doc["n_samples"] > 0
        assert doc["hz"] == 199
        # The live server's own frames show up in the collapsed output.
        assert re.search(r"(app|serve|_Handler|socketserver)", doc["collapsed"])

    def test_bad_profile_params_400(self, served):
        for query in ("seconds=abc", "seconds=-1", "hz=0"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                request(
                    served.url + f"/debug/profile?{query}", method="POST"
                )
            assert excinfo.value.code == 400

    def test_profile_seconds_is_capped(self, served):
        from repro.serve.app import MAX_PROFILE_SECONDS

        started = time.monotonic()
        status, _, doc = get_json(
            served.url + "/debug/profile?seconds=0.2&hz=67", method="POST"
        )
        assert status == 200
        assert time.monotonic() - started < MAX_PROFILE_SECONDS
        assert doc["seconds"] == 0.2


class TestTraceIdHeader:
    def test_trace_id_echoed_when_sent(self, served):
        _, headers, _ = request(
            served.url + "/health", headers={"X-Trace-Id": "abc-123"}
        )
        assert headers["X-Trace-Id"] == "abc-123"

    def test_trace_id_generated_when_absent(self, served):
        _, headers, _ = request(served.url + "/health")
        assert headers.get("X-Trace-Id")
        # With no client trace id the request id roots the trace.
        assert headers["X-Trace-Id"] == headers["X-Request-Id"]

    def test_request_spans_carry_the_client_trace_id(
        self, served, restored_tracer
    ):
        sink = trace.RingBufferSink()
        trace.TRACER.configure(enabled=True, sinks=[sink])
        request(served.url + "/runs", headers={"X-Trace-Id": "stitch-1"})
        # The handler emits its span record *after* the response bytes go
        # out, so the client can observe the response before the span lands
        # in the sink — poll briefly instead of asserting immediately.
        deadline = time.monotonic() + 5
        matching: list = []
        while time.monotonic() < deadline and not matching:
            matching = [
                span for span in sink.spans() if span["trace_id"] == "stitch-1"
            ]
            if not matching:
                time.sleep(0.02)
        assert matching
        assert all(span["trace_id"] == "stitch-1" for span in matching)


class TestWorkerServerQueueWait:
    def test_queue_wait_observed_and_logged(self, tmp_path):
        from repro.serve.prefork import _QUEUE_WAIT

        store = _populate(tmp_path / "store")
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        worker = WorkerServer(
            listener, PatternApp(store), queue_depth=8, threads=1,
            worker_id="w0", conn_timeout=10.0,
        )
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("repro.serve.access")
        handler = Capture(level=logging.INFO)
        previous_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        thread = threading.Thread(target=worker.serve_forever, daemon=True)
        thread.start()
        observed_before = _QUEUE_WAIT.count()
        try:
            url = f"http://127.0.0.1:{port}"
            status, _, doc = get_json(url + "/debug/vars")
            assert status == 200
            assert doc["workers"]["w0"]["queue_depth"] >= 0
            assert doc["workers"]["w0"]["queue_capacity"] == 8
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
            worker.drain()
            thread.join(timeout=15)
            listener.close()
        assert _QUEUE_WAIT.count() > observed_before
        record = next(r for r in records if r.route == "/debug/vars")
        assert record.queue_wait_ms >= 0


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="prefork serving needs os.fork (POSIX)"
)
class TestPreforkDebug:
    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        store = _populate(tmp_path_factory.mktemp("prefork-debug-store"))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store.root),
                "--workers", "2", "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        banner = proc.stdout.readline()
        match = re.search(r"on (http://[\d.]+:\d+)", banner)
        assert match, f"no server url in banner: {banner!r}"
        yield match.group(1)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)

    def _touch_both_workers(self, url):
        pids = set()
        deadline = time.monotonic() + 15
        while len(pids) < 2 and time.monotonic() < deadline:
            _, _, doc = get_json(url + "/health")
            pids.add(doc["pid"])
        assert len(pids) == 2
        return pids

    def test_debug_vars_merges_both_workers(self, fleet):
        worker_pids = self._touch_both_workers(fleet)
        deadline = time.monotonic() + 15
        workers = {}
        while time.monotonic() < deadline:
            _, _, doc = get_json(fleet + "/debug/vars")
            workers = doc["workers"]
            # Sibling vars docs publish on the post-request flush cadence.
            if {"0", "1"} <= set(workers):
                break
            time.sleep(0.3)
        assert {"0", "1"} <= set(workers)
        assert {workers["0"]["pid"], workers["1"]["pid"]} == worker_pids
        for worker_id in ("0", "1"):
            assert workers[worker_id]["rss_bytes"] > 0
            assert workers[worker_id]["queue_capacity"] >= 1

    def test_debug_profile_fans_out_and_merges(self, fleet):
        self._touch_both_workers(fleet)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                request(fleet + "/runs")

        load = threading.Thread(target=churn, daemon=True)
        load.start()
        try:
            status, _, doc = get_json(
                fleet + "/debug/profile?seconds=1&hz=199", method="POST"
            )
        finally:
            stop.set()
            load.join(timeout=10)
        assert status == 200
        assert set(doc["workers"]) == {"0", "1"}  # the whole fleet merged
        assert doc["n_samples"] > 0
        # Acceptance: the merged collapsed stacks name a serve frame.
        assert re.search(
            r"(prefork|WorkerServer|_Handler|app\.)", doc["collapsed"]
        )

    def test_trace_id_echoes_through_any_worker(self, fleet):
        for index in range(6):
            _, headers, _ = request(
                fleet + "/health", headers={"X-Trace-Id": f"fleet-{index}"}
            )
            assert headers["X-Trace-Id"] == f"fleet-{index}"
