"""The pre-forked serving tier: fan-out, supervision, drain, backpressure.

Process-level behaviour is tested against a real ``repro serve --workers
2`` subprocess (the exact production entry point): requests land on
distinct worker pids, ``GET /metrics`` merges per-worker series, a
SIGKILLed worker is respawned and counted, and SIGTERM drains to a clean
exit.  The bounded-queue 503 is deterministic only in-process, where the
test can hold the single handler thread hostage and watch the queue
fill — so that one drives :class:`WorkerServer` with no fork, both on its
own and inside the default :class:`PatternServer`.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.datasets import diag_plus
from repro.serve import PatternApp, PatternServer, WorkerServer
from repro.store import PatternStore, mine_cached

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="prefork serving needs os.fork (POSIX)"
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def _get(url, path, timeout=10):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.status, response.read().decode()


def _populate(root) -> PatternStore:
    store = PatternStore(root)
    mine_cached(
        store, "pattern_fusion", diag_plus(),
        minsup=20, k=10, initial_pool_max_size=2, seed=0,
    )
    return store


def _launch(store_root, *extra, env_extra=None, workers=2):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--store", str(store_root),
            "--workers", str(workers), "--queue-depth", "8", "--port", "0",
            *extra,
        ],
        # stderr carries an access-log line per request; never share an
        # undrained pipe with it or the server blocks mid-test.
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    banner = proc.stdout.readline()
    match = re.search(r"on (http://[\d.]+:\d+)", banner)
    assert match, f"no server url in banner: {banner!r}"
    return proc, match.group(1)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One `repro serve --workers 2` subprocess shared by the module."""
    store = _populate(tmp_path_factory.mktemp("prefork-store"))
    proc, url = _launch(store.root)
    yield proc, url
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)


def _worker_pids(url, rounds=20):
    pids = set()
    for _ in range(rounds):
        status, body = _get(url, "/health")
        assert status == 200
        pids.add(json.loads(body)["pid"])
    return pids


class TestPrefork:
    def test_requests_spread_across_worker_processes(self, served):
        proc, url = served
        # On a busy host one worker can take a long run of requests in a
        # row; keep asking until both have answered or the deadline passes.
        deadline = time.monotonic() + 30
        pids: set = set()
        while len(pids) < 2 and time.monotonic() < deadline:
            pids |= _worker_pids(url, rounds=1)
        assert len(pids) == 2  # both forked workers answer
        assert proc.pid not in pids  # the supervisor never serves

    def test_concurrent_clients_all_succeed(self, served):
        _, url = served
        errors = []

        def client():
            try:
                for _ in range(10):
                    status, body = _get(url, "/runs")
                    assert status == 200 and json.loads(body)
            except Exception as exc:  # surfaced below: threads swallow
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_metrics_merge_per_worker_series(self, served):
        _, url = served
        deadline = time.monotonic() + 15
        labels: set = set()
        while time.monotonic() < deadline:
            _worker_pids(url, rounds=8)  # traffic for both workers
            _, body = _get(url, "/metrics")
            labels = set(re.findall(r'worker="([^"]+)"', body))
            # Snapshots are amortised (~0.5s): poll until every process
            # has published post-traffic series.
            if {"0", "1", "supervisor"} <= labels:
                break
            time.sleep(0.3)
        assert {"0", "1", "supervisor"} <= labels
        assert 'repro_prefork_worker_restarts_total{worker="supervisor"}' in body

    def test_killed_worker_is_respawned_and_counted(self, served):
        _, url = served
        victim = min(_worker_pids(url))
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 15
        restarts = 0.0
        while time.monotonic() < deadline:
            _, body = _get(url, "/metrics")
            series = [
                line for line in body.splitlines()
                if line.startswith("repro_prefork_worker_restarts_total{")
            ]
            if series and float(series[0].rsplit(" ", 1)[1]) >= 1:
                restarts = float(series[0].rsplit(" ", 1)[1])
                break
            time.sleep(0.2)
        assert restarts >= 1
        # The fleet is whole again: two live workers, neither the victim.
        deadline = time.monotonic() + 15
        pids: set = set()
        while time.monotonic() < deadline:
            pids = _worker_pids(url)
            if len(pids) == 2 and victim not in pids:
                break
            time.sleep(0.2)
        assert len(pids) == 2
        assert victim not in pids


class TestCrashLoopThrottle:
    def test_start_killed_workers_respawn_with_backoff(self, tmp_path):
        """Three spawn-time kills: the fleet still recovers, under backoff.

        ``kill@prefork.worker_start:first=1,times=3`` murders the first
        three spawned workers the instant they start — the crash-loop case
        the throttle exists for.  The supervisor must keep respawning (with
        growing, gauge-visible delay) until the schedule is exhausted and
        end up with a whole fleet, then still drain cleanly on SIGTERM.
        """
        store = _populate(tmp_path / "store")
        proc, url = _launch(
            store.root,
            env_extra={"REPRO_FAULTS": "kill@prefork.worker_start:first=1,times=3"},
        )
        try:
            deadline = time.monotonic() + 30
            pids: set = set()
            while time.monotonic() < deadline:
                try:
                    pids = _worker_pids(url, rounds=8)
                except OSError:
                    time.sleep(0.2)  # both initial workers may be dead still
                    continue
                if len(pids) == 2:
                    break
                time.sleep(0.2)
            assert len(pids) == 2, "fleet never recovered from the crash loop"

            deadline = time.monotonic() + 15
            body = ""
            while time.monotonic() < deadline:
                _, body = _get(url, "/metrics")
                if "repro_prefork_respawn_backoff_seconds" in body:
                    break
                time.sleep(0.3)
            assert "repro_prefork_respawn_backoff_seconds" in body
            restarts = re.search(
                r"repro_prefork_worker_restarts_total\{[^}]*\} (\d+)", body
            )
            assert restarts and int(restarts.group(1)) >= 3
            injected = re.search(
                r'repro_faults_injected_total\{[^}]*'
                r'point="prefork\.worker_start"[^}]*\} (\d+)',
                body,
            )
            assert injected and int(injected.group(1)) == 3  # schedule bounded
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
        assert proc.returncode == 0

    def test_throttle_knob_validation(self, tmp_path):
        from repro.serve.prefork import PreforkServer

        store = _populate(tmp_path / "store")
        for kwargs in (
            {"crash_window": -1.0},
            {"backoff_base": 0.0},
            {"backoff_base": 2.0, "backoff_cap": 1.0},
        ):
            with pytest.raises(ValueError):
                PreforkServer(store, port=0, **kwargs)


class TestDrain:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_sigterm_drains_to_clean_exit(self, tmp_path, workers):
        store = _populate(tmp_path / "store")
        proc, url = _launch(store.root, workers=workers)
        status, _ = _get(url, "/health")
        assert status == 200
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained and stopped" in out
        # The socket is really gone.
        with pytest.raises(OSError):
            _get(url, "/health", timeout=2)


def _bare_worker(store):
    """A WorkerServer on its own listener: (worker, port, start, stop)."""
    listener = socket.create_server(("127.0.0.1", 0))
    worker = WorkerServer(
        listener, PatternApp(store),
        queue_depth=1, threads=1, conn_timeout=5.0,
    )
    thread = threading.Thread(target=worker.serve_forever, daemon=True)

    def stop():
        worker.drain()
        thread.join(timeout=15)
        listener.close()
        assert not thread.is_alive()

    return worker, listener.getsockname()[1], thread.start, stop


def _default_server(store):
    """The WorkerServer inside ``repro serve``'s default PatternServer."""
    server = PatternServer(store, port=0, queue_depth=1, threads=1)
    return server._worker, server.port, server.start, server.close


class TestBackpressure:
    @pytest.mark.parametrize("serve", [_bare_worker, _default_server])
    def test_full_queue_answers_503(self, tmp_path, serve):
        """Deterministic in-process overload: one handler thread, queue of 1."""
        store = _populate(tmp_path / "store")
        worker, port, start, stop = serve(store)
        from repro.serve.prefork import _CONNECTIONS

        accepted_before = _CONNECTIONS.value()
        start()
        try:
            # The blocker sends nothing: the lone handler thread sits in
            # the request read until we close the connection.
            blocker = socket.create_connection(("127.0.0.1", port))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not (
                _CONNECTIONS.value() >= accepted_before + 1
                and worker.queue.empty()
            ):
                time.sleep(0.01)  # until the handler picked the blocker up
            assert worker.queue.empty()
            filler = socket.create_connection(("127.0.0.1", port))
            while not worker.queue.full() and time.monotonic() < deadline:
                time.sleep(0.01)  # filler parked in the bounded queue
            assert worker.queue.full()

            overflow = socket.create_connection(("127.0.0.1", port))
            overflow.settimeout(10)
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = overflow.recv(4096)
                if not chunk:
                    break
                response += chunk
            assert response.startswith(b"HTTP/1.1 503")
            assert b"Retry-After" in response
            assert b"queue is full" in response
            overflow.close()
            blocker.close()
            filler.close()
        finally:
            stop()
