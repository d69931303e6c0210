"""Telemetry walkthrough: metrics, spans, and the /metrics scrape endpoint.

The story this example tells:

1. mine with span tracing on and read the span tree a run produces —
   including the ``fuse_ball`` spans shipped back from engine workers;
2. inspect the metrics the run incremented, then render them exactly as a
   Prometheus scrape would see them;
3. serve a store and scrape ``GET /metrics`` over HTTP like a collector
   would, with request counters/latency histograms accumulating live;
4. switch structured logging to JSON mode and watch the server's access
   log records come out machine-parseable.

Run with ``PYTHONPATH=src python examples/observability.py``.
"""

import io
import json
import tempfile
import urllib.request
from pathlib import Path

from repro import PatternServer, PatternStore, mine_cached
from repro.core import PatternFusionConfig, pattern_fusion
from repro.datasets import diag_plus
from repro.obs import logs, metrics, trace

# 1. Trace a parallel run. Workers capture their spans and return them with
#    their results; the driver stitches them into one tree, so jobs=2 looks
#    exactly like a serial trace.
sink = trace.RingBufferSink()
trace.configure(enabled=True, sinks=[sink])
config = PatternFusionConfig(k=10, initial_pool_max_size=2, seed=0)
result = pattern_fusion(diag_plus(), 20, config, jobs=2)
trace.configure(enabled=False, sinks=[])

spans = sink.spans()
by_id = {s["span_id"]: s for s in spans}
print(f"mined {len(result.patterns)} patterns; {len(spans)} spans recorded")
for record in spans:
    if record["name"] in ("pattern_fusion", "fusion_round"):
        attrs = " ".join(f"{k}={v}" for k, v in sorted(record["attrs"].items()))
        print(f"  {record['name']:<16} {record['elapsed'] * 1000:8.2f}ms  {attrs}")
fuse = [s for s in spans if s["name"] == "fuse_ball"]
rounds = {by_id[s["parent_id"]]["attrs"]["iteration"] for s in fuse}
print(f"  {len(fuse)} fuse_ball spans, parented under rounds {sorted(rounds)}")
print()

# 2. The same run incremented the always-on counters. Render the registry
#    the way GET /metrics serves it (Prometheus text exposition format).
print("fusion counters after the run:")
for name in ("repro_fusion_rounds_total", "repro_fusion_fused_patterns_total"):
    print(f"  {name} = {metrics.REGISTRY.get(name).value()}")
sample = [
    line for line in metrics.render().splitlines()
    if line.startswith("repro_fusion_") and "_total" in line
]
print("as a scrape would see it:")
print("  " + "\n  ".join(sample[:4]))
print()

# 3. Serve a store and scrape /metrics over HTTP. Request counters and
#    per-route latency histograms accumulate as requests arrive.
root = Path(tempfile.mkdtemp(prefix="repro-obs-")) / "runs"
store = PatternStore(root)
mine_cached(store, "pattern_fusion", diag_plus(),
            minsup=20, k=10, initial_pool_max_size=2, seed=0)
with PatternServer(store, port=0) as server:
    urllib.request.urlopen(server.url + "/health").read()
    urllib.request.urlopen(server.url + "/runs").read()
    with urllib.request.urlopen(server.url + "/metrics") as response:
        content_type = response.headers["Content-Type"]
        scrape = response.read().decode()
print(f"GET /metrics -> {content_type}")
print("  " + "\n  ".join(
    line for line in scrape.splitlines()
    if line.startswith("repro_http_requests_total")
))
print()

# 4. Structured logging: one JSON object per record, extras preserved —
#    the serving layer's access log uses exactly this.
stream = io.StringIO()
logs.setup_logging("info", json_mode=True, stream=stream)
logs.get_logger("serve.access").info(
    "GET /runs -> 200",
    extra={"route": "/runs", "status": 200, "duration_ms": 1.42},
)
record = json.loads(stream.getvalue())
logs.setup_logging("warning")  # back to a quiet default
print("one access-log record, JSON mode:")
print("  " + json.dumps(record, sort_keys=True))
