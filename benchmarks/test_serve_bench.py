"""Serving tier benchmarks: binary cold open + prefork query latency.

The acceptance bench of the zero-copy format and the pre-forked tier, at
the paper's Replace-sim pool scale (a 2,000-pattern pool of 4,395-bit
tidsets):

* **Cold open** — time-to-ready for one stored run: a v1 text parse
  (:func:`~repro.store.decode_patterns` of the pool's ``patterns.txt``
  encoding, the payload stores held before the binary format) vs the
  binary format's full decode vs its mmap'd matrix open
  (:meth:`PatternStore.open_matrix`, which parses only the
  header/meta/pattern table and *maps* the tidset words).  The mmap open
  is the number the prefork supervisor pays per run at warm.
* **Query latency** — p50/p99 of ``GET /runs/<id>`` against a real
  ``repro serve --workers 2`` subprocess at 1, 4, and 16 concurrent
  clients, plus saturation throughput at the highest level.

Everything here is hand-timed (concurrent clients and subprocess servers
don't fit pytest-benchmark's one-callable shape) and lands in
``BENCH_serve.json`` through the ``bench_records`` fixture — committing
that file is what tracks serving perf across PRs.  In-test assertions
stay loose (ordering sanity only): hard thresholds would flake on shared
CI runners; the committed trajectory carries the real numbers.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from benchmarks.conftest import REPO_ROOT, run_once
from repro.experiments.bench_io import BenchRecord, latency_summary
from repro.mining.results import MiningResult, Pattern
from repro.store import PatternStore, decode_patterns, encode_patterns

N_BITS = 4395      # Replace-sim transaction count: one bit per transaction
POOL_SIZE = 2000   # acceptance floor for the served pool
CONCURRENCY = (1, 4, 16)
REQUESTS_PER_CLIENT = 30
DETAIL_LIMIT = 50  # patterns returned per GET /runs/<id> request

_needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="prefork serving needs os.fork (POSIX)"
)


def _scale_pool() -> MiningResult:
    """A POOL_SIZE-pattern pool of mixed-density N_BITS tidsets."""
    rng = random.Random(11)
    patterns = []
    for index in range(POOL_SIZE):
        mask = rng.getrandbits(N_BITS) | 1  # never empty
        for _ in range(index % 3):  # thin some rows: density 50/25/12.5%
            mask &= rng.getrandbits(N_BITS)
        patterns.append(
            Pattern(items=frozenset({index, POOL_SIZE + index}), tidset=mask | 1)
        )
    return MiningResult(
        algorithm="synthetic-scale", minsup=1, patterns=patterns
    )


@pytest.fixture(scope="module")
def bench_store(request, tmp_path_factory) -> tuple[Path, str]:
    """A store holding one run at acceptance scale; (root, run_id)."""

    def build():
        root = tmp_path_factory.mktemp("serve-bench-store")
        store = PatternStore(root)
        run_id = store.save(_scale_pool(), miner="synthetic-scale")
        return root, run_id

    return run_once(request, "serve-bench-store", build)


def _best_of(fn, rounds: int = 3) -> float:
    """Best-of-N wall time for one callable (cold-open shape: min, not mean)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_cold_open(bench_store, bench_records, tmp_path):
    """Time-to-ready per format; the mmap open must beat the v1 parse."""
    root, run_id = bench_store
    store = PatternStore(root)
    scale = {"pool": POOL_SIZE, "n_bits": N_BITS}

    text_path = tmp_path / "patterns.txt"
    text_path.write_text(encode_patterns(store.load(run_id).patterns))

    v1 = _best_of(lambda: decode_patterns(text_path.read_text()))
    full = _best_of(lambda: store.load(run_id))
    mmap_open = _best_of(lambda: store.open_matrix(run_id))

    bench_records.append(BenchRecord("cold_open[v1]", v1, dict(scale)))
    bench_records.append(BenchRecord("cold_open[binary]", full, dict(scale)))
    bench_records.append(
        BenchRecord(
            "cold_open[binary-mmap]",
            mmap_open,
            {**scale, "speedup_vs_v1": v1 / mmap_open},
        )
    )
    # Loose ordering sanity only; the committed trajectory carries the ratio.
    assert mmap_open < v1
    # Whatever the clock says, the payloads must agree bit for bit.
    a = decode_patterns(text_path.read_text())
    b = store.load(run_id).patterns
    assert [(p.items, p.tidset) for p in a[:20]] == (
        [(p.items, p.tidset) for p in b[:20]]
    )


@pytest.fixture(scope="module")
def served(request, bench_store):
    """A real `repro serve --workers 2` subprocess; yields (url, run_id)."""

    def boot():
        root, run_id = bench_store
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(root), "--workers", "2",
                "--queue-depth", "64", "--port", "0",
            ],
            # stderr carries one access-log line per request: it must not
            # share an undrained pipe or the server blocks mid-benchmark.
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        banner = proc.stdout.readline()
        match = re.search(r"on (http://[\d.]+:\d+)", banner)
        assert match, f"no server url in banner: {banner!r}"
        url = match.group(1)
        # One warm-up round trip per worker-ish; steadies the first sample.
        for _ in range(4):
            _get(url, f"/runs/{run_id}?limit=1")
        return proc, url, run_id

    proc, url, run_id = run_once(request, "serve-bench-server", boot)

    def stop():
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)

    request.addfinalizer(stop)
    return url, run_id


def _get(url: str, path: str) -> bytes:
    with urllib.request.urlopen(url + path, timeout=30) as response:
        assert response.status == 200
        return response.read()


def _fan_out(url: str, path: str, clients: int, requests: int) -> list[float]:
    """Per-request wall times from `clients` threads, `requests` each."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []

    def client(slot: int) -> None:
        try:
            for _ in range(requests):
                start = time.perf_counter()
                _get(url, path)
                latencies[slot].append(time.perf_counter() - start)
        except BaseException as exc:  # surfaced below: threads swallow
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"client errors: {errors[:3]}"
    return [sample for per_client in latencies for sample in per_client]


@_needs_fork
@pytest.mark.parametrize("clients", CONCURRENCY)
def test_bench_query_latency(served, bench_records, clients):
    """p50/p99 of GET /runs/<id> at 1/4/16 concurrent clients."""
    url, run_id = served
    samples = _fan_out(
        url, f"/runs/{run_id}?limit={DETAIL_LIMIT}", clients, REQUESTS_PER_CLIENT
    )
    summary = latency_summary(samples)
    bench_records.append(
        BenchRecord(
            f"query_latency[c={clients}]",
            summary["p50"],
            {**summary, "clients": clients, "limit": DETAIL_LIMIT,
             "pool": POOL_SIZE},
        )
    )
    assert summary["n"] == clients * REQUESTS_PER_CLIENT
    assert summary["p50"] <= summary["p99"] <= summary["max"]


@_needs_fork
def test_bench_saturation_throughput(served, bench_records):
    """Sustained requests/second with the client fleet at max concurrency."""
    url, run_id = served
    clients = max(CONCURRENCY)
    path = f"/runs/{run_id}?limit={DETAIL_LIMIT}"
    start = time.perf_counter()
    samples = _fan_out(url, path, clients, 25)
    elapsed = time.perf_counter() - start
    throughput = len(samples) / elapsed
    bench_records.append(
        BenchRecord(
            f"saturation[c={clients}]",
            elapsed / len(samples),  # seconds per request at saturation
            {"clients": clients, "requests": len(samples),
             "throughput_rps": throughput, "limit": DETAIL_LIMIT},
        )
    )
    assert throughput > 0
