"""The serving side of the benchmark: boot ``repro serve`` and drive it.

The server is the production entry point, ``repro serve --workers 2``, in a
subprocess.  Load comes from one client process with at most
:data:`CONNECTIONS` connections at a time, each request on a fresh TCP
connection so the kernel spreads accepts over both workers:

* the **open loop** sends request ``i`` when it is due at
  ``start + i / rate``, or as soon as a connection frees up after that; a
  request's latency runs from its due time, so a stall also counts
  against the requests queued behind it;
* the **closed loop** keeps both connections busy back to back and counts
  completions, which measures capacity.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Request shapes per block of 20, shuffled within the block: about 50%
#: run listings, 35% inverted-index queries and 15% distance-ball queries.
#: Fixed proportions keep the mix identical from seed to seed.
BLOCK = ("run",) * 10 + ("index",) * 7 + ("ball",) * 3

#: Client connections open at once, in both loops.
CONNECTIONS = 2

#: Banner line ``repro serve`` prints once it listens.
_BANNER_URL = re.compile(r"on http://([\d.]+):(\d+)")


class Server:
    """A ``repro serve --workers 2`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, store: Path, env: dict[str, str]) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--store", str(store),
                "--workers", "2", "--port", "0", "--no-mine",
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            # One access-log line per request: an undrained pipe would
            # fill up and block the server.
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self.process.stdout.readline()
        match = _BANNER_URL.search(banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def wait_ready(self) -> None:
        """Block until ``GET /health`` answers 200 (at most a minute)."""
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _ = request(self.host, self.port, "GET", "/health")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /health")
            time.sleep(0.02)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def server_env(root: Path, tmpdir: Path) -> dict[str, str]:
    """The server's environment: the checkout's sources, temp files inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmpdir)
    env.pop("REPRO_TRACE", None)
    return env


def request(
    host: str, port: int, method: str, path: str, body: Any = None
) -> tuple[int, Any]:
    """One request on a fresh connection; returns (status, decoded JSON)."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw) if raw else None
        except ValueError:
            decoded = raw.decode(errors="replace")
        return response.status, decoded
    finally:
        connection.close()


def scrape(host: str, port: int) -> str:
    """The fleet-wide Prometheus exposition from ``GET /metrics``."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request("GET", "/metrics")
        return connection.getresponse().read().decode()
    finally:
        connection.close()


def series_total(exposition: str, name: str, **labels: str) -> float:
    """Sum of one metric's series (all workers) whose labels include ``labels``."""
    total = 0.0
    for line in exposition.splitlines():
        if not line.startswith(name):
            continue
        head, _, value = line.rpartition(" ")
        metric, _, label_text = head.partition("{")
        if metric != name:
            continue
        found = dict(re.findall(r'(\w+)="([^"]*)"', label_text))
        if all(found.get(key) == wanted for key, wanted in labels.items()):
            total += float(value)
    return total


def histogram_mean(before: str, after: str, name: str, **labels: str) -> float:
    """Mean observation of a histogram between two scrapes (0 when none)."""
    count = series_total(after, name + "_count", **labels) - series_total(
        before, name + "_count", **labels
    )
    total = series_total(after, name + "_sum", **labels) - series_total(
        before, name + "_sum", **labels
    )
    return total / count if count else 0.0


def make_requests(
    rng: random.Random,
    n: int,
    runs: dict[str, list],
    big_run: str,
    minsup: int,
    n_items: int,
) -> list[dict[str, Any]]:
    """``n`` requests drawn from ``rng`` in shuffled blocks of :data:`BLOCK`.

    Ball queries target the big run, where each costs a pattern-ball index
    over the whole pool; listings and index queries spread over every run.
    """
    run_ids = sorted(runs)
    big = runs[big_run]
    out: list[dict[str, Any]] = []
    while len(out) < n:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            run_id = rng.choice(run_ids)
            if kind == "run":
                out.append({"kind": "run", "run": run_id, "limit": 50})
            elif kind == "index":
                query: dict[str, Any] = {
                    "contains": sorted(rng.sample(range(n_items), rng.randint(1, 3))),
                    "min_support": rng.randint(minsup, 3 * minsup),
                    "min_size": rng.randint(1, 3),
                    "top": rng.randint(10, 50),
                }
                out.append({"kind": "index", "run": run_id, "query": query})
            else:
                center = rng.choice(big)
                query = {
                    "center": sorted(center.items),
                    "radius": round(rng.uniform(0.05, 0.3), 3),
                    "top": 50,
                }
                out.append({"kind": "ball", "run": big_run, "query": query})
    return out[:n]


def send(host: str, port: int, req: dict[str, Any]) -> tuple[int, Any]:
    """Issue one benchmark request."""
    if req["kind"] == "run":
        return request(host, port, "GET", f"/runs/{req['run']}?limit={req['limit']}")
    return request(
        host, port, "POST", "/query", {"run": req["run"], "query": req["query"]}
    )


def _on_connections(loop: Callable[[], None]) -> None:
    """Run ``loop`` on :data:`CONNECTIONS` threads and wait for all of them."""
    threads = [threading.Thread(target=loop) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    host: str, port: int, requests: list[dict[str, Any]], rate: float
) -> list[dict[str, Any]]:
    """Send ``requests`` on a fixed schedule of ``rate`` per second.

    Returns one outcome per request with its due, send and completion
    times (seconds from the schedule's start), status and decoded body.
    """
    outcomes: list[dict[str, Any]] = [{} for _ in requests]
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter() + 0.05

    def connection_loop() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = index / rate
            delay = start + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter() - start
            try:
                status, body = send(host, port, requests[index])
            except OSError as error:
                status, body = 0, str(error)
            done = time.perf_counter() - start
            outcomes[index] = {
                "due": due, "sent": sent, "done": done,
                "status": status, "body": body,
            }

    _on_connections(connection_loop)
    return outcomes


def closed_loop(
    host: str, port: int, requests: list[dict[str, Any]], seconds: float
) -> tuple[int, float, list[tuple[int, int, Any]]]:
    """Keep every connection busy back to back for about ``seconds``.

    Returns (completed requests, elapsed seconds, per-request outcomes as
    ``(request index, status, body)``).
    """
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    outcomes: list[tuple[int, int, Any]] = []
    start = time.perf_counter()
    finished = [start]

    def connection_loop() -> None:
        while time.perf_counter() - start < seconds:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                status, body = send(host, port, requests[index])
            except OSError as error:
                status, body = 0, str(error)
            with lock:
                outcomes.append((index, status, body))
                finished[0] = max(finished[0], time.perf_counter())

    _on_connections(connection_loop)
    return len(outcomes), finished[0] - start, outcomes


def cache_hit_ratio(host: str, port: int) -> float:
    """Query-cache hits ÷ lookups, summed over the workers ``/health`` reaches."""
    per_worker: dict[int, dict[str, int]] = {}
    for _ in range(40):
        status, body = request(host, port, "GET", "/health")
        if status == 200:
            per_worker[body["pid"]] = body["query_cache"]
        if len(per_worker) >= 2:
            break
    hits = sum(stats["hits"] for stats in per_worker.values())
    lookups = hits + sum(stats["misses"] for stats in per_worker.values())
    return hits / lookups if lookups else 0.0
