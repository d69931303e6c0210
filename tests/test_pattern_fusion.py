"""Tests for the full Pattern-Fusion algorithm (Algorithms 1 and 2)."""

import pytest

from repro.core import PatternFusion, PatternFusionConfig, pattern_fusion
from repro.datasets import diag, diag_plus, quest_like
from repro.db import TransactionDatabase
from repro.mining import closed_patterns, mine_up_to_size


class TestBasicContract:
    def test_returns_at_most_k(self, quest_db):
        result = pattern_fusion(
            quest_db, 10, PatternFusionConfig(k=5, initial_pool_max_size=2, seed=0)
        )
        assert len(result) <= 5

    def test_all_results_frequent(self, quest_db):
        minsup = 10
        result = pattern_fusion(
            quest_db, minsup, PatternFusionConfig(k=8, seed=1)
        )
        for p in result.patterns:
            assert quest_db.support(p.items) >= minsup
            assert p.tidset == quest_db.tidset(p.items)

    def test_closed_when_closure_enabled(self, quest_db):
        result = pattern_fusion(
            quest_db, 10, PatternFusionConfig(k=8, close_fused=True, seed=2)
        )
        for p in result.patterns:
            assert quest_db.is_closed(p.items)

    def test_deterministic_given_seed(self, quest_db):
        config = PatternFusionConfig(k=6, seed=123)
        a = pattern_fusion(quest_db, 10, config)
        b = pattern_fusion(quest_db, 10, config)
        assert {p.items for p in a.patterns} == {p.items for p in b.patterns}

    def test_small_pool_returned_unchanged(self, tiny_db):
        # Initial pool below K: no iteration happens.
        result = pattern_fusion(
            tiny_db, 2, PatternFusionConfig(k=1000, initial_pool_max_size=2, seed=0)
        )
        assert result.iterations == 0
        pool = mine_up_to_size(tiny_db, 2, 2)
        assert {p.items for p in result.patterns} == pool.itemsets()

    def test_explicit_initial_pool(self, quest_db):
        runner = PatternFusion(quest_db, 10, PatternFusionConfig(k=5, seed=3))
        pool = runner.mine_initial_pool()
        result = runner.run(initial_pool=pool)
        assert result.initial_pool_size == len(pool)


class TestPaperBehaviours:
    def test_finds_colossal_block_in_diag_plus(self):
        """The introduction's 60×39 example: the size-39 block must be found
        while the Diag40 noise drowns complete miners."""
        db = diag_plus()
        result = pattern_fusion(
            db, 20, PatternFusionConfig(k=10, initial_pool_max_size=2, seed=0)
        )
        largest = result.largest(1)[0]
        assert largest.items == frozenset(range(40, 79))
        assert largest.support == 20

    def test_diag40_reaches_maximal_size(self):
        """On Diag40 at minsup 20, every returned pattern should reach the
        maximal size 20 (support n − |α| = 20)."""
        db = diag(40)
        result = pattern_fusion(
            db, 20, PatternFusionConfig(k=20, initial_pool_max_size=2, seed=1)
        )
        assert result.patterns
        assert all(p.size == 20 for p in result.patterns)

    def test_lemma5_min_size_non_decreasing(self):
        """Lemma 5: the minimum pattern size in the pool never decreases."""
        db = diag(30)
        result = pattern_fusion(
            db, 15, PatternFusionConfig(k=15, initial_pool_max_size=2, seed=2)
        )
        mins = [s.min_pattern_size for s in result.history]
        assert mins == sorted(mins)

    def test_history_iterations_consistent(self, quest_db):
        result = pattern_fusion(quest_db, 10, PatternFusionConfig(k=5, seed=4))
        assert len(result.history) == result.iterations
        for index, stats in enumerate(result.history, start=1):
            assert stats.iteration == index
            assert stats.seeds_drawn <= stats.pool_size_before

    def test_recovers_planted_closed_pattern(self):
        """A single planted block must be recovered exactly."""
        rows = [[0, 1, 2, 3, 4, 5, 6, 7]] * 30 + [[8, 9]] * 30 + [[0, 8]] * 5
        db = TransactionDatabase(rows, n_items=10)
        result = pattern_fusion(
            db, 10, PatternFusionConfig(k=4, initial_pool_max_size=2, seed=5)
        )
        mined = {p.items for p in result.patterns}
        assert frozenset(range(8)) in mined

    def test_approximates_closed_set_on_quest(self, quest_db):
        """Every top closed pattern should be near something mined."""
        from repro.evaluation import approximation_error

        complete = closed_patterns(quest_db, 10)
        result = pattern_fusion(
            quest_db, 10, PatternFusionConfig(k=20, seed=6)
        )
        top = complete.largest(10)
        assert approximation_error(result.patterns, top) < 0.5


class TestTermination:
    def test_max_iterations_guard(self, quest_db):
        config = PatternFusionConfig(k=2, max_iterations=1, seed=7)
        result = pattern_fusion(quest_db, 10, config)
        assert result.iterations <= 1
        assert len(result) <= 2  # truncated to K if the guard fired

    def test_elitism_keeps_largest(self):
        """With elitism, the largest pattern never regresses across runs of
        increasing iteration budget."""
        db = diag_plus()
        sizes = []
        for max_iterations in (1, 2, 4, 8):
            config = PatternFusionConfig(
                k=10, initial_pool_max_size=2, seed=0,
                max_iterations=max_iterations,
            )
            result = pattern_fusion(db, 20, config)
            sizes.append(result.largest(1)[0].size)
        assert sizes == sorted(sizes)

    def test_elitism_off_still_terminates(self, quest_db):
        config = PatternFusionConfig(k=5, elitism=False, seed=8)
        result = pattern_fusion(quest_db, 10, config)
        assert len(result) <= 5


class TestResultAdapters:
    def test_as_mining_result(self, quest_db):
        result = pattern_fusion(quest_db, 10, PatternFusionConfig(k=5, seed=9))
        mining = result.as_mining_result()
        assert mining.algorithm == "pattern-fusion"
        assert mining.minsup == result.minsup
        assert len(mining) == len(result)

    def test_largest_ordering(self, quest_db):
        result = pattern_fusion(quest_db, 10, PatternFusionConfig(k=10, seed=10))
        top = result.largest(len(result.patterns))
        sizes = [p.size for p in top]
        assert sizes == sorted(sizes, reverse=True)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"tau": 0.0},
            {"tau": 1.5},
            {"initial_pool_max_size": 0},
            {"fusion_trials": 0},
            {"max_candidates_per_seed": 0},
            {"max_iterations": 0},
            {"stagnation_rounds": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            PatternFusionConfig(**kwargs)

    def test_defaults_valid(self):
        config = PatternFusionConfig()
        assert config.k == 100
        assert config.tau == 0.5


class TestPatternFusionKnobs:
    """The itemset twin of the sequence miner's knob test: every
    ``pattern_fusion`` knob changes the pool or the round count, or is an
    execution knob."""

    BASE = dict(minsup=6, k=10, tau=0.5, initial_pool_max_size=2, seed=8)
    # One other value per knob; each changes the pool or the round count
    # on the planted itemset database.
    CHANGED = dict(
        minsup=7, k=4, tau=0.9, initial_pool_max_size=1, fusion_trials=1,
        max_candidates_per_seed=1, close_fused=False, elitism=False,
        max_iterations=1, seed=9,
    )
    # An itemset round fuses every seed into closed supersets of itself, so
    # a pool whose size histogram stands still has stopped changing at all
    # and ends on the fixpoint test first.  The same miner shows the knob
    # on the sequence database of the sequence knob test.
    SEQUENCE_BASE = dict(minsup=6, k=5, tau=0.3, initial_pool_max_size=2, seed=8)
    SEQUENCE_CHANGED = dict(stagnation_rounds=1)

    @staticmethod
    def output(db, **knobs):
        from repro.api import create_miner

        result = create_miner("pattern_fusion", **knobs).fuse(db)
        ordered = result.kind.ordered
        pool = sorted(
            (p.sequence if ordered else p.sorted_items(), p.tidset)
            for p in result.patterns
        )
        return pool, result.iterations

    def test_every_knob_is_live(self, quest_db):
        from repro.api import create_miner
        from tests.test_sequences import _knob_db

        config_type = create_miner("pattern_fusion").config_type
        knobs = set(config_type.knob_names())
        assert knobs == (
            set(self.CHANGED) | set(self.SEQUENCE_CHANGED)
            | set(config_type.EXECUTION_KNOBS)
        )
        for db, base_knobs, changed in (
            (quest_db, self.BASE, self.CHANGED),
            (_knob_db(), self.SEQUENCE_BASE, self.SEQUENCE_CHANGED),
        ):
            base = self.output(db, **base_knobs)
            for name, value in changed.items():
                assert self.output(db, **{**base_knobs, name: value}) != base, (
                    name
                )
