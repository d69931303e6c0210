"""Tests for incremental Pattern-Fusion: agreement, determinism, telemetry."""

from __future__ import annotations

import pytest

from repro.core import PatternFusion, PatternFusionConfig
from repro.datasets import diag_plus
from repro.engine import make_executor
from repro.streaming import (
    IncrementalPatternFusion,
    ReplaySource,
    SlidingWindowDatabase,
    slide_seed,
)

CONFIG = PatternFusionConfig(k=6, initial_pool_max_size=2, seed=3)


def _stream_rows():
    """Diag+ rows in arrival order: diagonal explosion first, block after."""
    db = diag_plus(n=12, extra_rows=8, extra_width=10)
    return [sorted(row) for row in db.transactions]


def _pool_key(patterns):
    return [(p.sorted_items(), p.tidset) for p in patterns]


def _assert_outcome(driver, stats):
    """Supports are the window's, and the slide's pool is the cold run's."""
    snapshot = driver.window.snapshot()
    assert all(p.tidset == snapshot.tidset(p.items) for p in driver.patterns)
    config = CONFIG.reseeded(slide_seed(CONFIG.seed, stats.index))
    cold = PatternFusion(snapshot, stats.minsup, config).run()
    assert _pool_key(driver.patterns) == _pool_key(cold.patterns)


class TestColdAgreement:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_full_replay_matches_cold_run_on_final_window(self, jobs):
        # After a fully-replayed stream the pool is bit-identical to
        # pattern_fusion run once on the final window with the final
        # slide's scheduled seed, whatever the job count.
        with make_executor(jobs) as executor:
            driver = IncrementalPatternFusion(
                capacity=14, minsup=4, config=CONFIG, executor=executor,
            )
            driver.run(ReplaySource(_stream_rows(), batch_size=4))
        cold_config = CONFIG.reseeded(slide_seed(CONFIG.seed, driver.slides - 1))
        with make_executor(1) as executor:
            cold = PatternFusion(
                driver.window.snapshot(), 4, cold_config, executor=executor
            ).run()
        assert _pool_key(driver.patterns) == _pool_key(cold.patterns)

    def test_maintained_initial_pool_equals_cold_phase1(self):
        from repro.mining.levelwise import mine_up_to_size

        driver = IncrementalPatternFusion(capacity=14, minsup=4, config=CONFIG)
        previous = set()
        for batch in ReplaySource(_stream_rows(), batch_size=4):
            stats = driver.slide(batch)
            mined = mine_up_to_size(
                driver.window.snapshot(), 4, CONFIG.initial_pool_max_size
            ).patterns
            assert _pool_key(driver.initial_pool) == _pool_key(mined)
            itemsets = {p.items for p in mined}
            assert stats.initial_births == len(itemsets - previous)
            assert stats.initial_deaths == len(previous - itemsets)
            previous = itemsets
        assert driver.slides > 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_slide_equals_a_cold_run(self, jobs):
        # The subsystem's core guarantee: every slide's pool is
        # bit-identical to a cold pattern_fusion run on that slide's window
        # with that slide's scheduled seed, whatever the job count.
        rows = _stream_rows()
        with make_executor(jobs) as executor:
            driver = IncrementalPatternFusion(
                capacity=14, minsup=4, config=CONFIG, executor=executor
            )
            for index, batch in enumerate(ReplaySource(rows, batch_size=5)):
                driver.slide(batch)
                cold_config = CONFIG.reseeded(slide_seed(CONFIG.seed, index))
                cold = PatternFusion(
                    driver.window.snapshot(), 4, cold_config
                ).run()
                assert _pool_key(driver.patterns) == _pool_key(cold.patterns)
        assert driver.slides == 4  # 20 rows in batches of 5


class TestDeterminism:
    def test_jobs_do_not_change_any_slide(self):
        def trajectory(jobs):
            with make_executor(jobs) as executor:
                driver = IncrementalPatternFusion(
                    capacity=14, minsup=4, config=CONFIG, executor=executor
                )
                report = driver.run(ReplaySource(_stream_rows(), batch_size=4))
            return (
                _pool_key(driver.patterns),
                report.largest_trajectory(),
                report.pool_sizes(),
            )

        assert trajectory(1) == trajectory(2)

    def test_slide_seed_schedule_is_stable_and_decorrelated(self):
        assert slide_seed(3, 0) == slide_seed(3, 0)
        assert slide_seed(3, 0) != slide_seed(3, 1)
        assert slide_seed(3, 0) != slide_seed(4, 0)
        assert slide_seed(None, 0) == slide_seed(0, 0)
        with pytest.raises(ValueError):
            slide_seed(3, -1)


class TestIncrementalMechanics:
    def test_stable_stream_refuses_to_the_cold_pool(self):
        # Identical batches neither bear nor kill patterns; the slide still
        # runs Pattern-Fusion cold, and its pool has the window's supports.
        row = [0, 1, 2, 3]
        driver = IncrementalPatternFusion(capacity=None, minsup=2, config=CONFIG)
        _assert_outcome(driver, driver.slide([row, row]))
        second = driver.slide([row, row])
        assert second.initial_births == 0 and second.initial_deaths == 0
        assert second.births == 0 and second.deaths == 0
        _assert_outcome(driver, second)
        assert all(p.support == 4 for p in driver.patterns)

    def test_departing_items_record_deaths(self):
        driver = IncrementalPatternFusion(capacity=4, minsup=2, config=CONFIG)
        _assert_outcome(driver, driver.slide([[0, 1], [0, 1], [0, 1], [0, 1]]))
        assert driver.patterns
        stats = driver.slide([[2, 3], [2, 3], [2, 3], [2, 3]])
        # The whole window turned over: every old pattern died.
        assert stats.deaths >= 1
        _assert_outcome(driver, stats)
        assert all(p.items <= frozenset([2, 3]) for p in driver.patterns)
        assert driver.largest(1)[0].items == frozenset([2, 3])

    def test_batch_larger_than_capacity_rebuilds(self):
        driver = IncrementalPatternFusion(capacity=3, minsup=2, config=CONFIG)
        driver.slide([[0, 1], [0, 1], [0, 1]])
        stats = driver.slide([[4, 5], [4, 5], [4, 5], [4, 5]])
        assert stats.window_size == 3
        _assert_outcome(driver, stats)
        assert driver.largest(1)[0].items == frozenset([4, 5])

    def test_out_of_band_append_rebuilds(self):
        driver = IncrementalPatternFusion(capacity=None, minsup=1, config=CONFIG)
        driver.slide([[0, 1], [0, 1]])
        driver.window.append([2])  # behind the driver's back
        stats = driver.slide([[0, 1]])
        assert stats.initial_births >= 1  # {2} is frequent
        _assert_outcome(driver, stats)

    def test_out_of_band_evict_rebuilds_with_correct_supports(self):
        # Evicting behind the driver's back moves the window's oldest row;
        # the slide still counts every support on the window as it is.
        driver = IncrementalPatternFusion(capacity=None, minsup=1, config=CONFIG)
        driver.slide([[0, 1], [0, 1]])
        driver.window.evict()
        stats = driver.slide([[0, 1]])
        _assert_outcome(driver, stats)
        assert all(p.support == 2 for p in driver.patterns)

    def test_threshold_drop_rebuilds(self):
        # A relative threshold over a window shrunk out-of-band qualifies
        # patterns with no arrival support; the slide's pool must hold them.
        window = SlidingWindowDatabase()
        driver = IncrementalPatternFusion(
            capacity=None, minsup=0.6, config=CONFIG, window=window
        )
        driver.slide([[0, 1]] * 3 + [[2]] * 2)  # minsup_abs = 3
        for _ in range(3):
            window.evict()  # shrink out-of-band: two rows remain
        stats = driver.slide([])
        assert stats.minsup == 2
        assert frozenset([2]) in {p.items for p in driver.initial_pool}
        _assert_outcome(driver, stats)

    def test_telemetry_shape(self):
        driver = IncrementalPatternFusion(capacity=10, minsup=2, config=CONFIG)
        report = driver.run(ReplaySource(_stream_rows(), batch_size=6))
        assert len(report) == len(_stream_rows()) // 6 + 1
        for stats in report:
            assert stats.window_size <= 10
            assert stats.pool_size >= 0
            assert stats.seconds >= 0.0
            assert stats.largest_size >= 0
        formatted = report.format()
        assert "slide" in formatted and "births" in formatted
        assert "drift report" in report.summary()
        dicts = report.as_dicts()
        assert len(dicts) == len(report)
        assert dicts[0]["index"] == 0

    def test_max_slides_stops_early(self):
        driver = IncrementalPatternFusion(capacity=10, minsup=2, config=CONFIG)
        report = driver.run(
            ReplaySource(_stream_rows(), batch_size=2), max_slides=3
        )
        assert len(report) == 3

    def test_empty_stream_empty_pool(self):
        driver = IncrementalPatternFusion(capacity=5, minsup=2, config=CONFIG)
        stats = driver.slide([])
        assert stats.pool_size == 0
        assert driver.patterns == []
