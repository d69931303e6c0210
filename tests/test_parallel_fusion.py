"""Parallel/serial agreement tests for the Pattern-Fusion driver.

The engine's headline guarantee: for a fixed config seed the final pool is
identical for every worker count.  These tests pin that across the three
dataset families the paper uses (synthetic QUEST-style, Diag-style,
Replace-sim-style) and a sequence database, check ``jobs`` against an
explicit executor and no executor at all, and pin the round's RNG stream to
a golden digest.
"""

import pytest

from repro.cli import _pool_digest
from repro.core import PatternFusion, PatternFusionConfig, pattern_fusion
from repro.core.kinds import SEQUENCES
from repro.datasets import diag, diag_plus, quest_like, replace_like
from repro.engine import ParallelExecutor, SerialExecutor
from repro.sequences import motif_sequences


def pool_key(result):
    """Canonical form of a final pool for equality checks."""
    sequences = result.kind is SEQUENCES
    return sorted(
        (p.sequence if sequences else p.sorted_items(), p.tidset)
        for p in result.patterns
    )


@pytest.fixture(scope="module")
def synthetic_db():
    return quest_like(n_transactions=120, n_items=24, n_patterns=8, seed=42)


@pytest.fixture(scope="module")
def diag_db():
    return diag(16)


@pytest.fixture(scope="module")
def replace_db():
    db, _truth = replace_like(n_transactions=2000, seed=5)
    return db


@pytest.fixture(scope="module")
def motif_db():
    db, _motifs = motif_sequences(
        n_sequences=80, motif_lengths=(8, 6), motif_support=0.3, seed=3
    )
    return db


CASES = [
    ("synthetic_db", 10, PatternFusionConfig(k=8, initial_pool_max_size=2, seed=3)),
    ("diag_db", 8, PatternFusionConfig(k=6, initial_pool_max_size=2, seed=1)),
    ("replace_db", 0.03, PatternFusionConfig(k=10, initial_pool_max_size=2, seed=7)),
    ("motif_db", 8, PatternFusionConfig(k=10, tau=0.3, initial_pool_max_size=2, seed=4)),
]


class TestCrossJobsAgreement:
    @pytest.mark.parametrize("fixture_name,minsup,config", CASES)
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_same_pool_as_serial_driver(
        self, request, fixture_name, minsup, config, jobs
    ):
        db = request.getfixturevalue(fixture_name)
        serial = pattern_fusion(db, minsup, config, jobs=1)
        parallel = pattern_fusion(db, minsup, config, jobs=jobs)
        assert pool_key(parallel) == pool_key(serial)
        assert parallel.iterations == serial.iterations
        assert parallel.history == serial.history

    @pytest.mark.parametrize("fixture_name,minsup,config", CASES)
    def test_deterministic_across_runs(self, request, fixture_name, minsup, config):
        db = request.getfixturevalue(fixture_name)
        first = pattern_fusion(db, minsup, config, jobs=2)
        second = pattern_fusion(db, minsup, config, jobs=2)
        assert pool_key(first) == pool_key(second)


class TestExecutorHook:
    def test_pattern_fusion_with_serial_executor(self, synthetic_db):
        _, minsup, config = CASES[0]
        via_driver = pattern_fusion(synthetic_db, minsup, config, jobs=1)
        with SerialExecutor() as executor:
            via_hook = pattern_fusion(
                synthetic_db, minsup, config, executor=executor
            )
        assert pool_key(via_hook) == pool_key(via_driver)

    def test_pattern_fusion_with_parallel_executor(self, synthetic_db):
        _, minsup, config = CASES[0]
        serial = pattern_fusion(synthetic_db, minsup, config, jobs=1)
        with ParallelExecutor(2) as executor:
            parallel = pattern_fusion(
                synthetic_db, minsup, config, executor=executor
            )
        assert pool_key(parallel) == pool_key(serial)

    def test_executor_reusable_across_runs(self, synthetic_db):
        _, minsup, config = CASES[0]
        with ParallelExecutor(2) as executor:
            first = pattern_fusion(synthetic_db, minsup, config, executor=executor)
            second = pattern_fusion(synthetic_db, minsup, config, executor=executor)
        assert pool_key(first) == pool_key(second)

    def test_without_executor_runs_legacy_path(self, synthetic_db):
        # Without an executor the runner makes its own SerialExecutor: the
        # same round, the same pool as jobs=1, and the algorithm's contract.
        _, minsup, config = CASES[0]
        result = PatternFusion(synthetic_db, minsup, config).run()
        assert len(result) <= config.k
        for p in result.patterns:
            assert synthetic_db.support(p.items) >= minsup
        jobs1 = pattern_fusion(synthetic_db, minsup, config, jobs=1)
        assert pool_key(result) == pool_key(jobs1)


class TestGoldenStream:
    """The round's RNG stream is pinned: one digest for every driver.

    ``DIGEST`` is of the pool mined for ``CONFIG``; every engine pool
    depends on the round's stream (seed draws, child seeds and the PCG64
    pass orders drawn from them) staying put.  ``OPEN_DIGEST`` pins a run
    whose greedy passes shrink the running tidset 0.96 times on average and
    whose fused patterns are item unions (``close_fused=False``), so the
    walk's resume-after-shrink path and the union path are pinned as well.
    """

    CONFIG = PatternFusionConfig(k=10, tau=0.5, initial_pool_max_size=2, seed=3)
    DIGEST = "f1a020215a1d0ddd"
    OPEN_CONFIG = PatternFusionConfig(
        k=10, tau=0.5, initial_pool_max_size=2, seed=7, close_fused=False
    )
    OPEN_DIGEST = "26603bf794d3a332"

    @staticmethod
    def digest(db, minsup, config, jobs):
        """The pool digest, through the driver class when ``jobs`` is None."""
        if jobs is None:
            result = PatternFusion(db, minsup, config).run()
        else:
            result = pattern_fusion(db, minsup, config, jobs=jobs)
        return _pool_digest(result.patterns)

    @pytest.mark.parametrize("jobs", [1, 2, None])
    def test_pool_digest(self, jobs):
        assert self.digest(diag_plus(), 20, self.CONFIG, jobs) == self.DIGEST

    @pytest.mark.parametrize("jobs", [1, 2, None])
    def test_open_pool_digest(self, jobs):
        db = quest_like(n_transactions=600, n_items=40, n_patterns=10, seed=2)
        assert self.digest(db, 0.02, self.OPEN_CONFIG, jobs) == self.OPEN_DIGEST


class TestParallelContract:
    """The parallel pools satisfy the same invariants the serial ones do."""

    def test_results_frequent_and_closed(self, synthetic_db):
        minsup = 10
        config = PatternFusionConfig(k=8, initial_pool_max_size=2, seed=5)
        result = pattern_fusion(synthetic_db, minsup, config, jobs=2)
        assert result.patterns
        for p in result.patterns:
            assert synthetic_db.support(p.items) >= minsup
            assert p.tidset == synthetic_db.tidset(p.items)
            assert synthetic_db.is_closed(p.items)

    def test_lemma5_min_size_non_decreasing(self, diag_db):
        config = PatternFusionConfig(k=6, initial_pool_max_size=2, seed=2)
        result = pattern_fusion(diag_db, 8, config, jobs=2)
        mins = [s.min_pattern_size for s in result.history]
        assert mins == sorted(mins)

    def test_finds_diag_maximal_size(self, diag_db):
        # Diag_16 at minsup 8: every pattern should reach the maximal size 8.
        config = PatternFusionConfig(k=6, initial_pool_max_size=2, seed=1)
        result = pattern_fusion(diag_db, 8, config, jobs=4)
        assert result.patterns
        assert all(p.size == 8 for p in result.patterns)
