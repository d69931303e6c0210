"""Fault injection, retry policy, and supervised chunk dispatch.

Three layers, tested bottom-up: the deterministic :class:`FaultSchedule`
(spec grammar, hit counting, seeded probability, byte corruption), the
:class:`RetryPolicy` backoff math, and :func:`run_supervised` against both
a scripted fake pool (failure-kind unit tests) and the real
:class:`ParallelExecutor` (worker kills, injected raises, warm-up kills,
exhaustion).  The headline property — a kill-per-round fusion run is
bit-identical to serial — is pinned at the bottom, plus the ``repro
chaos`` CLI front door over the same drill.
"""

from concurrent.futures import Future

import pytest

from repro.cli import main
from repro.core import PatternFusionConfig, pattern_fusion
from repro.engine import ParallelExecutor, SerialExecutor
from repro.engine.executor import map_chunks, split_chunks
from repro.resilience import (
    FaultInjected,
    FaultSchedule,
    RetryPolicy,
    fault_points,
    set_fault_schedule,
)
from repro.resilience.supervised import run_supervised


# Worker bodies must be top-level so the process pool can pickle them by
# reference.
def _square_chunk(chunk):
    return [x * x for x in chunk]


def _raise_valueerror_chunk(chunk):
    raise ValueError("real bug, not a fault")


@pytest.fixture
def install_faults():
    """Install a schedule for the test; restore the previous one after."""
    previous = set_fault_schedule(FaultSchedule.parse(""))

    def install(spec: str) -> FaultSchedule:
        sched = FaultSchedule.parse(spec)
        set_fault_schedule(sched)
        return sched

    yield install
    set_fault_schedule(previous)


class TestFaultScheduleParsing:
    def test_defaults(self):
        sched = FaultSchedule.parse("kill@executor.chunk")
        assert len(sched.rules) == 1
        rule = sched.rules[0]
        assert (rule.action, rule.point) == ("kill", "executor.chunk")
        assert (rule.first, rule.every, rule.times) == (1, 1, None)
        assert rule.max_attempt == 1

    def test_options_and_multiple_rules(self):
        sched = FaultSchedule.parse(
            "kill@executor.chunk:first=2,every=3,times=4,exit=7;"
            "delay@store.write:ms=250;"
            "raise@prefork.handler:p=0.5,seed=9,max_attempt=0"
        )
        kill, delay, raise_ = sched.rules
        assert (kill.first, kill.every, kill.times, kill.exit_code) == (2, 3, 4, 7)
        assert delay.ms == 250
        assert (raise_.p, raise_.seed, raise_.max_attempt) == (0.5, 9, 0)

    def test_empty_spec_is_falsy_noop(self):
        sched = FaultSchedule.parse("")
        assert not sched
        assert sched.check("executor.chunk") is None

    @pytest.mark.parametrize("spec", [
        "explode@executor.chunk",          # unknown action
        "kill-executor.chunk",             # missing @
        "kill@executor.chunk:first",       # option without =
        "kill@executor.chunk:volume=11",   # unknown option
        "kill@executor.chunk:first=0",     # first < 1
        "raise@x:p=1.5",                   # p out of range
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultSchedule.parse(spec)


class TestFaultScheduleFiring:
    def test_first_every_times_schedule(self):
        sched = FaultSchedule.parse("raise@p:first=2,every=2,times=2")
        fired = [sched.check("p") is not None for _ in range(8)]
        assert fired == [False, True, False, True, False, False, False, False]

    def test_first_matching_rule_wins(self):
        sched = FaultSchedule.parse("delay@p:times=1;raise@p")
        assert sched.check("p").kind == "delay"
        assert sched.check("p").kind == "raise"

    def test_other_points_unaffected(self):
        sched = FaultSchedule.parse("raise@p:first=1,times=1")
        assert sched.check("q") is None
        assert sched.check("p") is not None

    def test_max_attempt_gates_retries(self):
        # Default max_attempt=1: retries (attempt >= 2) run clean and do
        # not advance the hit counter.
        sched = FaultSchedule.parse("raise@p:first=1,times=2")
        assert sched.check("p", attempt=1) is not None
        assert sched.check("p", attempt=2) is None
        assert sched.check("p", attempt=1) is not None

    def test_max_attempt_zero_lifts_the_cap(self):
        sched = FaultSchedule.parse("raise@p:max_attempt=0")
        assert all(
            sched.check("p", attempt=attempt) is not None
            for attempt in (1, 2, 3, 9)
        )

    def test_probability_rules_are_deterministic(self):
        spec = "raise@p:p=0.4,seed=11"
        a = FaultSchedule.parse(spec)
        b = FaultSchedule.parse(spec)
        hits_a = [a.check("p") is not None for _ in range(64)]
        hits_b = [b.check("p") is not None for _ in range(64)]
        assert hits_a == hits_b
        assert any(hits_a) and not all(hits_a)  # p strictly between 0 and 1

    def test_reset_replays_the_schedule(self):
        sched = FaultSchedule.parse("raise@p:first=3,times=1")
        first = [sched.check("p") is not None for _ in range(4)]
        sched.reset()
        second = [sched.check("p") is not None for _ in range(4)]
        assert first == second == [False, False, True, False]

    def test_corrupting_flips_one_deterministic_byte(self):
        data = bytes(range(64))
        spec = "corrupt@store.read:times=1,seed=5"
        one = FaultSchedule.parse(spec).corrupting("store.read", data)
        two = FaultSchedule.parse(spec).corrupting("store.read", data)
        assert one == two != data
        assert sum(a != b for a, b in zip(one, data)) == 1

    def test_corrupting_passthrough_without_match(self):
        data = b"pristine"
        assert FaultSchedule.parse("").corrupting("store.read", data) == data

    def test_apply_raise(self):
        sched = FaultSchedule.parse("raise@p")
        with pytest.raises(FaultInjected):
            sched.fire("p")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "delay@p:ms=1")
        sched = FaultSchedule.from_env()
        assert sched.rules[0].action == "delay"
        assert sched.rules[0].ms == 1

    def test_registered_points_documented(self):
        points = fault_points()
        for point in ("executor.chunk", "executor.warmup", "fusion.round",
                      "store.write", "store.read", "checkpoint.save",
                      "prefork.worker_start", "prefork.handler"):
            assert point in points


class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_base": -1.0},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
        {"chunk_deadline": 0.0},
        {"reshard_after": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_first_attempt_never_waits(self):
        assert RetryPolicy().delay(1) == 0.0

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.0
        )
        assert policy.delay(2) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.2)
        assert policy.delay(4) == pytest.approx(0.3)  # capped
        assert policy.delay(9) == pytest.approx(0.3)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5, seed=3)
        delays = {policy.delay(2, salt=4) for _ in range(5)}
        assert len(delays) == 1
        (delay,) = delays
        assert 0.1 <= delay <= 0.1 * 1.5
        # Different salts decorrelate, same policy reproduces.
        assert policy.delay(2, salt=5) != delay
        assert RetryPolicy(backoff_base=0.1, jitter=0.5, seed=3).delay(
            2, salt=4
        ) == delay


class _ScriptedPool:
    """A fake pool whose submit() resolves chunks via a scripted callable."""

    def __init__(self, script):
        self.script = script

    def submit(self, invoke, fn, chunk, action):
        future: Future = Future()
        try:
            future.set_result(self.script(fn, chunk, action))
        except BaseException as error:  # noqa: BLE001 - routed into the future
            future.set_exception(error)
        return future


def _supervise(script, chunks, policy=None, faults=None, resets=None):
    pool = _ScriptedPool(script)
    return run_supervised(
        pool_factory=lambda: pool,
        reset_pool=lambda kill=False: resets.append(kill) if resets is not None else None,
        fn=_square_chunk,
        chunks=chunks,
        policy=policy or RetryPolicy(backoff_base=0.0, jitter=0.0),
        faults=faults,
        serial_fn=_square_chunk,
        invoke=lambda fn, chunk, action: fn(chunk),
        sleep=lambda seconds: None,
    )


class TestRunSupervised:
    def test_clean_run_returns_ordered_results(self):
        chunks = split_chunks(range(10), 3)
        out = _supervise(lambda fn, chunk, action: fn(chunk), chunks)
        assert out == [_square_chunk(chunk) for chunk in chunks]

    def test_transient_fault_is_retried_without_recompute(self):
        chunks = [[1, 2], [3, 4], [5, 6]]
        calls: dict[tuple, int] = {}

        def script(fn, chunk, action):
            key = tuple(chunk)
            calls[key] = calls.get(key, 0) + 1
            if key == (3, 4) and calls[key] == 1:
                raise FaultInjected("injected")
            return fn(chunk)

        out = _supervise(script, chunks)
        assert out == [[1, 4], [9, 16], [25, 36]]
        # The healthy chunks ran exactly once: banked, never recomputed.
        assert calls == {(1, 2): 1, (3, 4): 2, (5, 6): 1}

    def test_repeated_failure_reshards_to_halves(self):
        chunks = [[1, 2, 3, 4]]
        seen: list[tuple] = []

        def script(fn, chunk, action):
            seen.append(tuple(chunk))
            if len(chunk) == 4:
                raise FaultInjected("poisoned whole")
            return fn(chunk)

        policy = RetryPolicy(
            backoff_base=0.0, jitter=0.0, reshard_after=1, max_attempts=4
        )
        out = _supervise(script, chunks, policy=policy)
        assert out == [[1, 4, 9, 16]]  # halves concatenated back in order
        assert (1, 2) in seen and (3, 4) in seen

    def test_exhausted_chunk_falls_back_to_serial(self):
        def script(fn, chunk, action):
            raise FaultInjected("always")

        policy = RetryPolicy(
            backoff_base=0.0, jitter=0.0, max_attempts=2, reshard_after=9
        )
        out = _supervise(script, [[2, 3]], policy=policy)
        assert out == [[4, 9]]  # serial_fn completed it in the driver

    def test_deadline_expiry_kills_and_retries(self):
        state = {"hung": False}

        class HangOncePool:
            def submit(self, invoke, fn, chunk, action):
                future: Future = Future()
                if not state["hung"]:
                    state["hung"] = True
                    return future  # never resolves: simulated hang
                future.set_result(fn(chunk))
                return future

        resets: list[bool] = []
        pool = HangOncePool()
        out = run_supervised(
            pool_factory=lambda: pool,
            reset_pool=lambda kill: resets.append(kill),
            fn=_square_chunk,
            chunks=[[5]],
            policy=RetryPolicy(
                backoff_base=0.0, jitter=0.0, chunk_deadline=0.05
            ),
            faults=None,
            serial_fn=_square_chunk,
            invoke=lambda fn, chunk, action: fn(chunk),
            sleep=lambda seconds: None,
        )
        assert out == [[25]]
        assert resets == [True]  # hung pool was hard-terminated

    def test_real_fn_exceptions_propagate_unchanged(self):
        def script(fn, chunk, action):
            raise ValueError("real bug, not a fault")

        with pytest.raises(ValueError, match="real bug"):
            _supervise(script, [[1], [2]])

    def test_driver_consults_faults_and_ships_actions(self):
        faults = FaultSchedule.parse("raise@executor.chunk:first=1,times=1")
        shipped: list = []

        def script(fn, chunk, action):
            shipped.append(action)
            if action is not None and action.kind == "raise":
                raise FaultInjected("applied")
            return fn(chunk)

        out = _supervise(
            script, [[1], [2]], faults=faults,
        )
        assert out == [[1], [4]]
        kinds = [action.kind for action in shipped if action is not None]
        assert kinds == ["raise"]  # exactly one dispatch drew the fault


def _pool_key(patterns):
    return sorted((p.sorted_items(), p.tidset) for p in patterns)


class TestExecutorRecovery:
    """Real process pools under injected kills/raises: no degrade, same bits."""

    def test_chunk_kills_recover_with_identical_results(self, install_faults):
        items = list(range(40))
        serial = map_chunks(SerialExecutor(), _square_chunk, items)
        install_faults("kill@executor.chunk:first=1,every=2")
        with ParallelExecutor(
            2, retry=RetryPolicy(backoff_base=0.0, jitter=0.0)
        ) as executor:
            out = map_chunks(executor, _square_chunk, items)
            assert out == serial
            assert executor._degraded is False

    def test_injected_raises_recover(self, install_faults):
        items = list(range(12))
        install_faults("raise@executor.chunk:first=1,times=2")
        with ParallelExecutor(
            2, retry=RetryPolicy(backoff_base=0.0, jitter=0.0)
        ) as executor:
            out = map_chunks(executor, _square_chunk, items)
        assert out == [x * x for x in items]

    def test_warmup_kill_recovers(self, install_faults):
        install_faults("kill@executor.warmup:first=1,times=1")
        with ParallelExecutor(
            2, retry=RetryPolicy(backoff_base=0.0, jitter=0.0)
        ) as executor:
            out = map_chunks(executor, _square_chunk, list(range(8)))
            assert out == [x * x for x in range(8)]
            assert executor._degraded is False

    def test_exhaustion_degrades_to_serial_per_chunk_only(self, install_faults):
        # Every dispatch of every attempt dies; the driver finishes the work.
        install_faults("kill@executor.chunk:max_attempt=0")
        with ParallelExecutor(
            2,
            retry=RetryPolicy(
                backoff_base=0.0, jitter=0.0, max_attempts=2, reshard_after=9
            ),
        ) as executor:
            out = map_chunks(executor, _square_chunk, list(range(6)))
            assert out == [x * x for x in range(6)]
            assert executor._degraded is False  # per-chunk fallback, not global

    def test_worker_valueerror_propagates(self, install_faults):
        with ParallelExecutor(2) as executor:
            with pytest.raises(ValueError, match="real bug"):
                map_chunks(
                    executor, _raise_valueerror_chunk, list(range(8))
                )


class TestRecoveryDeterminism:
    """The acceptance property: kill-per-round fusion == serial, bit for bit."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fusion_pool_identical_under_kill_schedule(
        self, quest_db, install_faults, jobs
    ):
        config = PatternFusionConfig(k=10, seed=7)
        reference = pattern_fusion(quest_db, 6, config, jobs=1)
        install_faults("kill@executor.chunk:first=1,every=2")
        chaotic = pattern_fusion(quest_db, 6, config, jobs=jobs)
        assert _pool_key(chaotic.patterns) == _pool_key(reference.patterns)
        assert chaotic.iterations == reference.iterations


class TestChaosCli:
    def test_list_points(self, capsys):
        assert main(["chaos", "--list-points"]) == 0
        out = capsys.readouterr().out
        assert "executor.chunk" in out and "prefork.worker_start" in out

    def test_requires_dataset_and_faults(self, capsys):
        assert main(["chaos", "--minsup", "2"]) == 2
        assert main(["chaos", "--dataset", "diag", "--minsup", "2"]) == 2
        assert main(
            ["chaos", "--dataset", "diag", "--minsup", "2", "--faults", "nope"]
        ) == 2

    def test_kill_schedule_passes_against_reference(self, capsys):
        code = main([
            "chaos", "--dataset", "quest", "--minsup", "6", "--k", "10",
            "--seed", "7", "--jobs", "2",
            "--faults", "kill@executor.chunk:first=1,every=2",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out
        assert "repro_faults_injected_total" in out
