"""The sampling profiler and trace-context plumbing it rides on.

Attribution is tested deterministically: a busy-loop thread runs inside a
named span, so nearly every sample of that thread must land in that phase.
Lifecycle (idempotent start/stop), serialization (to_dict/from_dict,
merge), the collapsed-stack format, and an overhead smoke bound run
alongside the trace-id propagation tests — ambient ``trace_context``,
per-thread span registry, and ``Tracer.ingest`` rewriting worker batches
onto the driver's trace id (including real ``jobs=2`` engine workers).
"""

import threading
import time

import pytest

from repro.obs import profile, trace


@pytest.fixture()
def restored_tracer():
    """Snapshot and restore the global tracer around a test."""
    previous = (trace.TRACER.enabled, list(trace.TRACER.sinks))
    yield trace.TRACER
    trace.TRACER.enabled, trace.TRACER.sinks = previous


def busy_wait(seconds: float) -> int:
    """A pure-Python hot loop the sampler can't miss."""
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(i * i for i in range(100))
    return total


class TestSamplingProfiler:
    def test_busy_loop_is_attributed_to_its_span(self, restored_tracer):
        trace.configure(enabled=True, sinks=[trace.RingBufferSink()])

        def worker():
            with trace.span("busy_phase"):
                busy_wait(0.4)

        profiler = profile.SamplingProfiler(hz=199)
        profiler.start()
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        result = profiler.stop()
        phases = result.phase_samples()
        assert phases.get("busy_phase", 0) >= 10
        # The busy thread's samples overwhelmingly carry the span's name.
        busy_stacks = [
            (stack, count) for (phase, stack), count in result.stacks.items()
            if phase == "busy_phase"
        ]
        assert any("test_obs_profile.busy_wait" in stack
                   for stack, _ in busy_stacks)

    def test_unattributed_samples_without_tracing(self):
        profiler = profile.SamplingProfiler(hz=199)
        profiler.start()
        thread = threading.Thread(target=busy_wait, args=(0.25,))
        thread.start()
        thread.join()
        result = profiler.stop()
        assert result.n_samples > 0
        assert set(result.phase_samples()) == {profile.UNATTRIBUTED}

    def test_start_is_idempotent(self):
        profiler = profile.SamplingProfiler(hz=97)
        profiler.start()
        first_thread = profiler._thread
        profiler.start()  # no-op: same sampling session continues
        assert profiler._thread is first_thread
        profiler.stop()

    def test_stop_is_idempotent_and_without_start(self):
        profiler = profile.SamplingProfiler(hz=97)
        assert profiler.stop().n_samples == 0  # never started: empty profile
        profiler.start()
        busy_wait(0.05)
        first = profiler.stop()
        second = profiler.stop()
        assert not profiler.running
        assert second.stacks == first.stacks  # second stop changes nothing

    def test_profiler_is_reusable_for_sequential_sessions(self):
        profiler = profile.SamplingProfiler(hz=199)
        profiler.start()
        busy_wait(0.1)
        first = profiler.stop()
        profiler.start()
        second = profiler.stop()
        assert first.n_ticks > 0
        assert second.n_ticks <= first.n_ticks  # fresh profile, not appended

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError):
            profile.SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            profile.SamplingProfiler(hz=-5)

    def test_profiling_contextmanager_binds_result(self):
        with profile.profiling(hz=199) as profiler:
            thread = threading.Thread(target=busy_wait, args=(0.2,))
            thread.start()
            thread.join()
        assert not profiler.running
        assert profiler.result.n_samples > 0

    def test_profile_for_blocks_and_samples(self):
        thread = threading.Thread(target=busy_wait, args=(0.5,))
        thread.start()
        started = time.perf_counter()
        result = profile.profile_for(0.25, hz=199)
        elapsed = time.perf_counter() - started
        thread.join()
        assert elapsed >= 0.25
        assert result.n_samples > 0

    def test_overhead_smoke_at_default_rate(self):
        """Sampling at 67 Hz must not meaningfully slow a busy loop.

        A generous 1.5x smoke bound — the committed BENCH_profile.json
        pins the real <3% number at fusion scale.
        """

        def timed_run() -> float:
            started = time.perf_counter()
            busy_wait(0.3)
            return time.perf_counter() - started

        baseline = min(timed_run() for _ in range(2))
        profiler = profile.SamplingProfiler(hz=profile.DEFAULT_HZ)
        profiler.start()
        profiled = min(timed_run() for _ in range(2))
        profiler.stop()
        assert profiled < baseline * 1.5


class TestProfileFormat:
    def make_profile(self) -> profile.Profile:
        return profile.Profile(
            hz=67.0, duration=1.0, n_ticks=67,
            stacks={
                ("fuse", ("a.main", "b.fuse_ball")): 40,
                ("fuse", ("a.main", "b.closure")): 20,
                ("-", ("a.main",)): 7,
            },
        )

    def test_collapsed_stacks_are_flamegraph_lines(self):
        collapsed = self.make_profile().collapsed()
        lines = collapsed.splitlines()
        assert lines[0] == "fuse;a.main;b.fuse_ball 40"
        assert "fuse;a.main;b.closure 20" in lines
        assert "-;a.main 7" in lines

    def test_collapsed_without_phase_prefix(self):
        collapsed = self.make_profile().collapsed(phase_prefix=False)
        assert collapsed.splitlines()[0] == "a.main;b.fuse_ball 40"

    def test_phase_and_self_time_tables(self):
        prof = self.make_profile()
        assert prof.phase_samples() == {"fuse": 60, "-": 7}
        assert prof.self_times() == {
            "b.fuse_ball": 40, "b.closure": 20, "a.main": 7,
        }
        table = prof.phase_table()
        assert "fuse" in table and "%" in table
        assert "b.fuse_ball" in prof.table()

    def test_dict_round_trip(self):
        prof = self.make_profile()
        clone = profile.Profile.from_dict(prof.to_dict())
        assert clone.stacks == prof.stacks
        assert clone.hz == prof.hz
        assert clone.n_ticks == prof.n_ticks

    def test_merge_adds_counts_and_keeps_max_duration(self):
        prof = self.make_profile()
        other = profile.Profile(
            hz=67.0, duration=2.0, n_ticks=10,
            stacks={("fuse", ("a.main", "b.fuse_ball")): 5,
                    ("serve", ("c.handle",)): 3},
        )
        merged = profile.merge_profile_dicts([prof.to_dict(), other.to_dict()])
        assert merged.stacks[("fuse", ("a.main", "b.fuse_ball"))] == 45
        assert merged.stacks[("serve", ("c.handle",))] == 3
        assert merged.duration == 2.0  # concurrent windows: max, not sum
        assert merged.n_ticks == 77

    def test_merge_of_nothing_is_empty(self):
        merged = profile.merge_profile_dicts([])
        assert merged.n_samples == 0


class TestThreadSpanRegistry:
    def test_thread_span_name_sees_other_threads(self, restored_tracer):
        trace.configure(enabled=True, sinks=[trace.RingBufferSink()])
        seen = {}
        release = threading.Event()
        entered = threading.Event()

        def worker():
            with trace.span("outer"), trace.span("inner"):
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(5)
        seen["during"] = trace.thread_span_name(thread.ident)
        release.set()
        thread.join()
        seen["after"] = trace.thread_span_name(thread.ident)
        assert seen["during"] == "inner"  # the *innermost* open span
        assert seen["after"] is None  # registry entry removed on exit

    def test_registry_restores_outer_span(self, restored_tracer):
        trace.configure(enabled=True, sinks=[trace.RingBufferSink()])
        ident = threading.get_ident()
        with trace.span("outer"):
            with trace.span("inner"):
                assert trace.thread_span_name(ident) == "inner"
            assert trace.thread_span_name(ident) == "outer"
        assert trace.thread_span_name(ident) is None


class TestTraceContext:
    def test_root_span_joins_ambient_trace(self, restored_tracer):
        sink = trace.RingBufferSink()
        trace.configure(enabled=True, sinks=[sink])
        with trace.trace_context("req-1"):
            assert trace.current_trace_id() == "req-1"
            with trace.span("root"):
                with trace.span("child"):
                    pass
        assert trace.current_trace_id() is None
        spans = sink.spans()
        assert {record["trace_id"] for record in spans} == {"req-1"}

    def test_root_span_mints_own_trace_without_context(self, restored_tracer):
        sink = trace.RingBufferSink()
        trace.configure(enabled=True, sinks=[sink])
        with trace.span("root") as root:
            assert root.trace_id == root.span_id
        assert sink.spans()[0]["trace_id"] == sink.spans()[0]["span_id"]

    def test_ingest_rewrites_worker_batches_onto_driver_trace(
        self, restored_tracer
    ):
        with trace.capture() as buffer:
            with trace.span("worker_root"):
                with trace.span("worker_child"):
                    pass
        batch = buffer.drain()
        # The worker minted its own trace id; the driver's must win.
        sink = trace.RingBufferSink()
        trace.configure(enabled=True, sinks=[sink])
        with trace.trace_context("req-9"):
            with trace.span("driver"):
                trace.TRACER.ingest(batch)
        assert {record["trace_id"] for record in sink.spans()} == {"req-9"}

    def test_engine_jobs2_spans_share_one_trace_id(self, restored_tracer):
        """A jobs=2 fusion run inside a request context yields ONE trace."""
        from repro.api import get_miner_spec, load_dataset

        sink = trace.RingBufferSink()
        trace.configure(enabled=True, sinks=[sink])
        spec = get_miner_spec("pattern_fusion")
        miner = spec.cls(spec.config_type.from_dict({
            "minsup": 20, "k": 10, "initial_pool_max_size": 2,
            "seed": 0, "jobs": 2,
        }))
        with trace.trace_context("req-fuse-1"):
            with trace.span("http_request"):
                miner.fuse(load_dataset("diag", n=40, seed=7))
        spans = sink.spans()
        assert len(spans) > 3  # driver phases + worker batches all landed
        assert {record["trace_id"] for record in spans} == {"req-fuse-1"}
