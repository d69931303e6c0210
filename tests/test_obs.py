"""Telemetry layer tests: metrics registry, span tracing, and logging.

Covers the exposure-format contract (Prometheus text 0.0.4), thread-safety
under concurrent writers, histogram ``le``-inclusive bucket edges, span
parenting via contextvars — including spans shipped back from engine
workers and stitched into the driver's trace — and the hard invariant that
tracing never changes mined pools.
"""

from __future__ import annotations

import io
import json
import logging
import threading

import pytest

from repro.core import PatternFusionConfig, pattern_fusion
from repro.datasets import diag, diag_plus
from repro.mining.results import Stopwatch
from repro.obs import logs, metrics, trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import TRACER, JsonlSink, RingBufferSink
from repro.streaming import IncrementalPatternFusion, ReplaySource


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def traced():
    """Enable the process tracer into a private ring buffer, then restore."""
    sink = RingBufferSink()
    previous = (TRACER.enabled, list(TRACER.sinks))
    TRACER.configure(enabled=True, sinks=[sink])
    yield sink
    TRACER.configure(enabled=previous[0], sinks=previous[1])


class TestCounter:
    def test_inc_and_value(self, registry):
        requests = registry.counter("requests_total", "Requests", ("route",))
        requests.inc(route="/mine")
        requests.inc(3, route="/mine")
        requests.inc(route="/query")
        assert requests.value(route="/mine") == 4
        assert requests.value(route="/query") == 1
        assert requests.value(route="/never") == 0

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("ticks_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_label_set_must_match_exactly(self, registry):
        counter = registry.counter("hits_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(kind="a", extra="b")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("fine_name", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("pool_size")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12

    def test_track_context_manager(self, registry):
        in_flight = registry.gauge("in_flight")
        with in_flight.track():
            assert in_flight.value() == 1
            with in_flight.track():
                assert in_flight.value() == 2
        assert in_flight.value() == 0


class TestHistogramBuckets:
    def test_edges_are_le_inclusive(self, registry):
        h = registry.histogram("latency", buckets=(0.1, 1.0))
        h.observe(0.1)    # exactly on an edge -> that bucket (le semantics)
        h.observe(0.05)   # below the first edge
        h.observe(0.5)
        h.observe(7.0)    # beyond every edge -> +Inf only
        per_bucket, total, count = h.collect()[()]
        assert per_bucket == [2, 1, 1]  # le=0.1, le=1.0, overflow
        assert count == 4
        assert total == pytest.approx(0.1 + 0.05 + 0.5 + 7.0)
        assert h.count() == 4
        assert h.sum() == pytest.approx(7.65)

    def test_rendered_buckets_are_cumulative(self, registry):
        h = registry.histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 7.0):
            h.observe(value)
        lines = h.render()
        assert 'latency_bucket{le="0.1"} 1' in lines
        assert 'latency_bucket{le="1"} 2' in lines
        assert 'latency_bucket{le="+Inf"} 3' in lines
        assert "latency_count 3" in lines

    def test_timer_observes_duration(self, registry):
        h = registry.histogram("timed", buckets=(10.0,))
        with h.time():
            pass
        assert h.count() == 1
        assert 0.0 <= h.sum() < 10.0

    def test_bucket_validation(self, registry):
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("empty", buckets=())
        with pytest.raises(ValueError, match="duplicate"):
            registry.histogram("dupes", buckets=(1.0, 1.0))


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        first = registry.counter("same_total", "help", ("a",))
        second = registry.counter("same_total", "different help", ("a",))
        assert first is second

    def test_kind_mismatch_raises(self, registry):
        registry.counter("clash")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("clash")

    def test_label_mismatch_raises(self, registry):
        registry.counter("labeled_total", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("labeled_total", labelnames=("b",))

    def test_reset_zeroes_but_keeps_registrations(self, registry):
        counter = registry.counter("kept_total")
        counter.inc(5)
        registry.reset()
        assert registry.get("kept_total") is counter
        assert counter.value() == 0

    def test_module_default_registry_has_instrumentation(self):
        # Importing the instrumented modules registered their families.
        import repro  # noqa: F401 - triggers all instrumentation imports

        names = metrics.REGISTRY.names()
        assert "repro_fusion_rounds_total" in names
        assert "repro_http_requests_total" in names
        assert "repro_store_saves_total" in names


class TestPrometheusRendering:
    def test_full_exposition_format(self, registry):
        c = registry.counter("app_requests_total", "Total requests", ("code",))
        c.inc(2, code="200")
        c.inc(code="500")
        text = registry.render()
        assert "# HELP app_requests_total Total requests" in text
        assert "# TYPE app_requests_total counter" in text
        assert 'app_requests_total{code="200"} 2' in text
        assert 'app_requests_total{code="500"} 1' in text
        assert text.endswith("\n")

    def test_label_value_escaping(self, registry):
        c = registry.counter("odd_total", labelnames=("path",))
        c.inc(path='a"b\\c\nd')
        assert 'odd_total{path="a\\"b\\\\c\\nd"} 1' in registry.render()

    def test_families_render_in_name_order(self, registry):
        registry.counter("zzz_total").inc()
        registry.counter("aaa_total").inc()
        text = registry.render()
        assert text.index("aaa_total") < text.index("zzz_total")

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""


class TestConcurrentWriters:
    def test_counter_increments_are_exact(self, registry):
        counter = registry.counter("hammer_total", labelnames=("worker",))
        threads_n, per_thread = 8, 5000

        def hammer(worker):
            for _ in range(per_thread):
                counter.inc(worker=str(worker % 2))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = counter.value(worker="0") + counter.value(worker="1")
        assert total == threads_n * per_thread

    def test_histogram_observations_are_exact(self, registry):
        h = registry.histogram("hammer_seconds", buckets=(0.5,))
        threads_n, per_thread = 8, 2000

        def hammer():
            for _ in range(per_thread):
                h.observe(0.25)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count() == threads_n * per_thread
        assert h.sum() == pytest.approx(0.25 * threads_n * per_thread)


class TestSpans:
    def test_disabled_tracer_returns_shared_null_span(self):
        assert not TRACER.enabled
        assert trace.span("anything") is trace.span("else")
        with trace.span("noop") as s:
            s.set(key="value")  # must be a silent no-op
        assert trace.current_span_id() is None

    def test_parenting_via_contextvar(self, traced):
        with trace.span("outer") as outer:
            with trace.span("inner"):
                pass
        records = traced.spans()
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer_rec = records
        assert inner["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None

    def test_attrs_and_error_recording(self, traced):
        with pytest.raises(RuntimeError):
            with trace.span("work", size=3) as s:
                s.set(result=7)
                raise RuntimeError("boom")
        (record,) = traced.spans()
        assert record["attrs"] == {"size": 3, "result": 7, "error": "RuntimeError"}
        assert record["elapsed"] >= 0.0

    def test_capture_isolates_and_restores(self, traced):
        with trace.capture() as sink:
            with trace.span("inside"):
                pass
        assert [r["name"] for r in sink.spans()] == ["inside"]
        assert traced.spans() == []  # nothing leaked to the outer sink
        with trace.span("after"):
            pass
        assert [r["name"] for r in traced.spans()] == ["after"]

    def test_ingest_reparents_batch_roots(self, traced):
        with trace.capture() as sink:
            with trace.span("task"):
                with trace.span("step"):
                    pass
            batch = sink.drain()
        with trace.span("driver"):
            assert TRACER.ingest(batch) == 2
        by_name = {r["name"]: r for r in traced.spans()}
        driver_id = by_name["driver"]["span_id"]
        assert by_name["task"]["parent_id"] == driver_id  # root re-parented
        assert by_name["step"]["parent_id"] == by_name["task"]["span_id"]

    def test_jsonl_sink_round_trips(self, traced, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlSink(path)
        TRACER.add_sink(sink)
        with trace.span("persisted", n=1):
            pass
        sink.close()
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert record["name"] == "persisted"
        assert record["attrs"] == {"n": 1}


class TestEngineSpanMerge:
    """Worker spans ship back with results and join the driver's trace."""

    CONFIG = PatternFusionConfig(k=6, initial_pool_max_size=2, seed=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fuse_ball_spans_reach_driver_trace(self, traced, jobs):
        pattern_fusion(diag(8), 6, self.CONFIG, jobs=jobs)
        records = traced.spans()
        by_id = {r["span_id"]: r for r in records}
        fuse_spans = [r for r in records if r["name"] == "fuse_ball"]
        assert fuse_spans, "no fuse_ball spans captured"
        query_spans = [r for r in records if r["name"] == "ball_queries"]
        assert query_spans, "no ball_queries spans captured"
        for record in fuse_spans + query_spans:
            parent = by_id.get(record["parent_id"])
            assert parent is not None, "worker span not stitched into trace"
            assert parent["name"] == "fusion_round"
        assert any(r["name"] == "pattern_fusion" for r in records)

    def test_serial_and_parallel_traces_have_same_shape(self, traced):
        families = [
            metrics.REGISTRY.get(f"repro_fusion_{name}_total")
            for name in ("seeds", "fused_patterns", "dedup_dropped")
        ]

        def shape(jobs):
            traced.drain()
            before = [dict(family.collect()) for family in families]
            pattern_fusion(diag(8), 6, self.CONFIG, jobs=jobs)
            deltas = [
                {key: value - old.get(key, 0) for key, value in family.collect().items()}
                for family, old in zip(families, before)
            ]
            spans = sorted(
                (
                    r["attrs"]["seed_index"],
                    r["attrs"].get("fused"),
                    r["attrs"]["tidset_changes"],
                    r["attrs"]["accepted"],
                    r["attrs"]["levels"],
                    r["attrs"]["closures"],
                    r["attrs"]["ball"],
                    r["attrs"]["counted_words"],
                    r["attrs"]["settled"],
                    r["attrs"]["distinct"],
                )
                for r in traced.spans()
                if r["name"] == "fuse_ball"
            )
            # The ball_queries spans are per chunk, so their number depends
            # on jobs; their per-round sums of seeds and members do not.
            records = traced.spans()
            rounds = {
                r["span_id"]: r["attrs"]["iteration"]
                for r in records
                if r["name"] == "fusion_round"
            }
            per_round = {iteration: [0, 0, 0] for iteration in rounds.values()}
            for r in records:
                if r["name"] == "ball_queries":
                    assert set(r["attrs"]) == {"seeds", "members", "distinct"}
                    sums = per_round[rounds[r["parent_id"]]]
                    sums[0] += r["attrs"]["seeds"]
                    sums[1] += r["attrs"]["members"]
                    sums[2] += r["attrs"]["distinct"]
            return spans, deltas, sorted(per_round.items())

        serial, parallel = shape(1), shape(2)
        assert serial == parallel
        assert all(sum(delta.values()) > 0 for delta in serial[1][:2])
        # The greedy counters are live: passes accept members and shrink T,
        # and every ball counts and closes at least one running tidset.
        assert sum(span[2] for span in serial[0]) > 0
        assert sum(span[3] for span in serial[0]) > 0
        assert all(span[4] > 0 and span[5] > 0 for span in serial[0])
        assert {span[8] for span in serial[0]} <= {0, 1}
        # The seed's level comes from the ball query; every other level
        # scans at most each word of each distinct member tidset gathered,
        # and those are at most the members but the seed.
        n_words = max(1, -(-len(diag(8)) // 64))
        assert sum(span[7] for span in serial[0]) > 0
        assert all(
            span[7] <= (span[4] - 1) * span[9] * n_words
            and span[9] <= span[6] - 1
            for span in serial[0]
        )
        # The ball_queries spans count members natively; per round their
        # sums are equal at both job counts: the seeds drawn and the summed
        # ball sizes, each seed in its own ball.  Over the run the members
        # are the sum of the fuse_ball spans' balls.
        # Each seed is compared with every distinct tidset of the pool.
        assert serial[2]
        assert all(
            members >= seeds > 0 and distinct > 0 and distinct % seeds == 0
            for _, (seeds, members, distinct) in serial[2]
        )
        assert sum(sums[0] for _, sums in serial[2]) == len(serial[0])
        assert sum(sums[1] for _, sums in serial[2]) == sum(
            span[6] for span in serial[0]
        )

    def test_tracing_never_changes_the_pool(self):
        def pool_key(result):
            return sorted((p.sorted_items(), p.tidset) for p in result.patterns)

        plain = pattern_fusion(diag(8), 6, self.CONFIG, jobs=2)
        previous = (TRACER.enabled, list(TRACER.sinks))
        TRACER.configure(enabled=True, sinks=[RingBufferSink()])
        try:
            traced_run = pattern_fusion(diag(8), 6, self.CONFIG, jobs=2)
        finally:
            TRACER.configure(enabled=previous[0], sinks=previous[1])
        assert pool_key(traced_run) == pool_key(plain)
        assert traced_run.iterations == plain.iterations


class TestStreamDecisionCounters:
    def test_slides_record_decision_and_reason(self):
        decisions = metrics.REGISTRY.get("repro_stream_slide_decisions_total")
        before = dict(decisions.collect())
        db = diag_plus(n=12, extra_rows=8, extra_width=10)
        rows = [sorted(row) for row in db.transactions]
        driver = IncrementalPatternFusion(
            capacity=14, minsup=4,
            config=PatternFusionConfig(k=6, initial_pool_max_size=2, seed=3),
        )
        driver.run(ReplaySource(rows, batch_size=4))

        def delta(decision, reason):
            key = (decision, reason)
            return decisions.collect().get(key, 0) - before.get(key, 0)

        assert delta("rebuild", "cold_start") == 1  # the first slide
        total = sum(
            delta(*key)
            for key in {("rebuild", "cold_start"), ("refuse", "invalidated"),
                        ("refuse", "policy_always"), ("carry", "validated")}
        )
        assert total == driver.slides


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as watch:
            pass
        assert watch.elapsed >= 0.0

    def test_emits_named_span_when_tracing(self, traced):
        with Stopwatch("mine_phase"):
            pass
        (record,) = traced.spans()
        assert record["name"] == "mine_phase"
        assert record["elapsed"] >= 0.0


class TestLogging:
    def teardown_method(self):
        logs.setup_logging("warning")  # restore a quiet default

    def test_json_mode_emits_parseable_lines_with_extras(self):
        stream = io.StringIO()
        logs.setup_logging("info", json_mode=True, stream=stream)
        logs.get_logger("serve.access").info(
            "GET /mine -> 200", extra={"route": "/mine", "status": 200}
        )
        (line,) = stream.getvalue().splitlines()
        record = json.loads(line)
        assert record["msg"] == "GET /mine -> 200"
        assert record["logger"] == "repro.serve.access"
        assert record["level"] == "info"
        assert record["route"] == "/mine"
        assert record["status"] == 200

    def test_text_mode_appends_extras(self):
        stream = io.StringIO()
        logs.setup_logging(logging.INFO, json_mode=False, stream=stream)
        logs.get_logger("engine").info("pool ready", extra={"size": 42})
        output = stream.getvalue()
        assert "repro.engine: pool ready" in output
        assert "size=42" in output

    def test_level_filtering(self):
        stream = io.StringIO()
        logs.setup_logging("warning", stream=stream)
        logs.get_logger("quiet").info("dropped")
        logs.get_logger("quiet").warning("kept")
        assert "dropped" not in stream.getvalue()
        assert "kept" in stream.getvalue()
