"""Load-testing the pre-forked serving tier, end to end.

The story this example tells:

1. mine a pool and persist it (``meta.json`` + the mmap-able ``patterns.bin``);
2. launch the production entry point — ``repro serve --workers 2`` — as a
   real subprocess and wait for its banner;
3. fleet concurrent clients against it at increasing concurrency, printing
   a p50/p90/p99 latency table from the shared
   :func:`repro.experiments.bench_io.latency_summary` helper;
4. scrape ``GET /metrics`` to see the per-worker series merged into one
   exposition, then SIGTERM the server and watch it drain cleanly.

Run with ``PYTHONPATH=src python examples/load_test.py``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro import PatternStore, mine_cached
from repro.datasets import diag_plus
from repro.experiments.bench_io import latency_summary

# 1. A store with one Pattern-Fusion run. `save` writes meta.json and one
#    payload, patterns.bin (mmap-able binary).
root = Path(tempfile.mkdtemp(prefix="repro-load-test-")) / "runs"
store = PatternStore(root)
outcome = mine_cached(
    store, "pattern_fusion", diag_plus(),
    minsup=20, k=10, initial_pool_max_size=2, seed=0,
)
print(f"mined run {outcome.run_id}: {len(outcome.result)} patterns")
print(f"on disk: {json.dumps(store.run_info(outcome.run_id)['files'])}")
print()

# 2. The production entry point, exactly as deployed: pre-forked workers
#    inherit the listening socket and the supervisor's warm caches.
env = dict(os.environ)
env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + (
    os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
)
server = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--store", str(root),
     "--workers", "2", "--queue-depth", "64", "--port", "0"],
    # stderr carries one access-log line per request — don't let it share
    # an undrained pipe or the server will block mid-load-test.
    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
)
banner = server.stdout.readline()
url = re.search(r"on (http://[\d.]+:\d+)", banner).group(1)
print(banner.strip())
print()


def fleet(clients: int, requests: int) -> list[float]:
    """Per-request latencies from `clients` concurrent threads."""
    samples: list[list[float]] = [[] for _ in range(clients)]

    def client(slot: int) -> None:
        for _ in range(requests):
            start = time.perf_counter()
            with urllib.request.urlopen(
                f"{url}/runs/{outcome.run_id}?limit=10", timeout=30
            ) as response:
                response.read()
            samples[slot].append(time.perf_counter() - start)

    threads = [
        threading.Thread(target=client, args=(s,)) for s in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for per_client in samples for sample in per_client]


# 3. The latency table, via the same summary helper the BENCH suites use.
print(f"{'CLIENTS':>7}  {'N':>5}  {'P50 MS':>8}  {'P90 MS':>8}  {'P99 MS':>8}")
for clients in (1, 4, 16):
    summary = latency_summary(fleet(clients, requests=25))
    print(
        f"{clients:>7}  {summary['n']:>5}  {summary['p50'] * 1e3:>8.2f}  "
        f"{summary['p90'] * 1e3:>8.2f}  {summary['p99'] * 1e3:>8.2f}"
    )
print()

# 4. One scrape shows the whole fleet: each series carries a worker label,
#    the supervisor contributes the restart counter.
time.sleep(0.6)  # let the amortised per-worker snapshots land
with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
    exposition = response.read().decode()
workers = sorted(set(re.findall(r'worker="([^"]+)"', exposition)))
print(f"metric series from workers: {workers}")
for line in exposition.splitlines():
    if line.startswith("repro_prefork_"):
        print(f"  {line}")
print()

server.send_signal(signal.SIGTERM)
out, _ = server.communicate(timeout=30)
print(f"server exit {server.returncode}: {out.strip().splitlines()[-1]}")
