"""Fault injection and the engine's chunk retry loop.

Two layers, tested bottom-up: the deterministic :class:`FaultSchedule`
(spec grammar, hit counting, seeded probability, byte corruption), and
:func:`~repro.engine.executor.supervised_dispatch` against both a scripted
fake pool (failure-kind unit tests) and the real :class:`ParallelExecutor`
(worker kills, injected raises, warm-up kills, exhaustion after the fixed
``MAX_ATTEMPTS``).  The headline property — a kill-per-round fusion run is
bit-identical to serial — is pinned at the bottom, plus the ``repro
chaos`` CLI front door over the same drill.
"""

from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import PatternFusionConfig, pattern_fusion
from repro.engine import ParallelExecutor, SerialExecutor
from repro.engine.executor import (
    MAX_ATTEMPTS,
    map_chunks,
    split_chunks,
    supervised_dispatch,
)
from repro.obs import metrics
from repro.resilience import (
    FaultInjected,
    FaultSchedule,
    fault_points,
    set_fault_schedule,
)


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

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=200),
        cuts=st.lists(st.integers(0, 200), max_size=4),
        seed=st.integers(0, 2**32),
    )
    def test_corrupting_pieces_flips_the_joined_byte(self, data, cuts, seed):
        """Split anywhere, the pieces get the byte the joined data gets;
        every other piece is passed through as it is."""
        bounds = [0, *sorted(min(cut, len(data)) for cut in cuts), len(data)]
        pieces = [data[a:b] for a, b in zip(bounds, bounds[1:])]
        spec = f"corrupt@store.write:times=1,seed={seed}"
        got = FaultSchedule.parse(spec).corrupting_pieces("store.write", pieces)
        assert b"".join(got) == FaultSchedule.parse(spec).corrupting(
            "store.write", data
        )
        assert sum(new is not old for new, old in zip(got, pieces)) == 1

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


class _ScriptedPool:
    """A fake pool whose submit() resolves a chunk in-process, at once."""

    def submit(self, invoke, chunk, action):
        future: Future = Future()
        try:
            future.set_result(invoke(chunk, action))
        except BaseException as error:  # noqa: BLE001 - routed into the future
            future.set_exception(error)
        return future


def _supervise(script, chunks, faults=None):
    """Dispatch ``chunks`` with ``script(chunk, action)`` as the worker entry."""
    pool = _ScriptedPool()
    return supervised_dispatch(
        chunks,
        pool_factory=lambda: pool,
        reset_pool=lambda: None,
        invoke=script,
        serial_fn=_square_chunk,
        faults=faults,
    )


class TestRunSupervised:
    """:func:`supervised_dispatch` on the scripted pool."""

    def test_clean_run_returns_ordered_results(self):
        chunks = split_chunks(range(10), 3)
        out = _supervise(lambda chunk, action: _square_chunk(chunk), chunks)
        assert out == [_square_chunk(chunk) for chunk in chunks]

    def test_transient_fault_is_retried_without_recompute(self):
        chunks = [[1, 2], [3, 4], [5, 6]]
        calls: dict[tuple, int] = {}

        def script(chunk, action):
            key = tuple(chunk)
            calls[key] = calls.get(key, 0) + 1
            if key == (3, 4) and calls[key] == 1:
                raise FaultInjected("injected")
            return _square_chunk(chunk)

        out = _supervise(script, chunks)
        assert out == [[1, 4], [9, 16], [25, 36]]
        # The healthy chunks ran exactly once: banked, never recomputed.
        assert calls == {(1, 2): 1, (3, 4): 2, (5, 6): 1}

    def test_exhausted_chunk_falls_back_to_serial(self):
        tries: list[tuple] = []

        def script(chunk, action):
            tries.append(tuple(chunk))
            raise FaultInjected("always")

        out = _supervise(script, [[2, 3]])
        assert out == [[4, 9]]  # serial_fn completed it in the driver
        assert tries == [(2, 3)] * MAX_ATTEMPTS

    def test_real_fn_exceptions_propagate_unchanged(self):
        def script(chunk, action):
            raise ValueError("real bug, not a fault")

        with pytest.raises(ValueError, match="real bug"):
            _supervise(script, [[1], [2]])

    def test_driver_consults_faults_and_ships_actions(self):
        faults = FaultSchedule.parse("raise@executor.chunk:first=1,times=1")
        shipped: list = []

        def script(chunk, action):
            shipped.append(action)
            if action is not None and action.kind == "raise":
                raise FaultInjected("applied")
            return _square_chunk(chunk)

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
        with ParallelExecutor(2) as executor:
            out = map_chunks(executor, _square_chunk, items)
            assert out == serial
            assert executor._degraded is False

    def test_injected_raises_recover(self, install_faults):
        items = list(range(12))
        install_faults("raise@executor.chunk:first=1,times=2")
        with ParallelExecutor(2) as executor:
            out = map_chunks(executor, _square_chunk, items)
        assert out == [x * x for x in items]

    def test_warmup_kill_recovers(self, install_faults):
        install_faults("kill@executor.warmup:first=1,times=1")
        with ParallelExecutor(2) as executor:
            out = map_chunks(executor, _square_chunk, list(range(8)))
            assert out == [x * x for x in range(8)]
            assert executor._degraded is False

    def test_exhaustion_degrades_to_serial_per_chunk_only(self, install_faults):
        # Every dispatch of every attempt dies; the driver finishes the work.
        install_faults("kill@executor.chunk:max_attempt=0")
        with ParallelExecutor(2) as executor:
            out = map_chunks(executor, _square_chunk, list(range(6)))
            assert out == [x * x for x in range(6)]
            assert executor._degraded is False  # per-chunk fallback, not global

    def test_fixed_attempt_count_on_real_pools(self, install_faults):
        # Two chunks of three, each raising on every try: both fail
        # MAX_ATTEMPTS = 3 times (6 failures), are re-sent twice each (4
        # retries), and then run in the driver (2 serial fallbacks).
        def read():
            return (
                metrics.REGISTRY.get("repro_chunk_failures_total").value(kind="fault"),
                metrics.REGISTRY.get("repro_retries_total").value(),
                metrics.REGISTRY.get("repro_chunk_serial_fallbacks_total").value(),
            )

        install_faults("raise@executor.chunk:max_attempt=0")
        before = read()
        with ParallelExecutor(2) as executor:
            out = map_chunks(executor, _square_chunk, list(range(6)))
        after = read()
        assert out == [x * x for x in range(6)]
        assert tuple(b - a for a, b in zip(before, after)) == (6, 4, 2)

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
