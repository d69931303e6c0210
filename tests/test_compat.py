"""Backward-compat shims: every pre-registry call site keeps working.

The unified API wraps the original functions — it must not move, rename, or
re-behave them.  This module pins the legacy import paths, the legacy call
signatures, and the legacy CLI spellings in one place, so an accidental
break fails here with an explicit "compat" label rather than deep inside an
unrelated suite.
"""

import pytest

from repro.cli import main
from repro.db import TransactionDatabase


@pytest.fixture(scope="module")
def db():
    rows = [[0, 1, 4], [0, 1], [1, 2], [0, 1, 2], [0, 2, 3], [0, 1, 2, 3]]
    return TransactionDatabase(rows, n_items=5)


class TestLegacyImports:
    """The historical import locations all still resolve."""

    def test_top_level_package_names(self):
        from repro import (  # noqa: F401
            IncrementalPatternFusion,
            PatternFusion,
            PatternFusionConfig,
            apriori,
            closed_patterns,
            eclat,
            fpgrowth,
            maximal_patterns,
            mine_up_to_size,
            parallel_pattern_fusion,
            pattern_fusion,
            top_k_closed,
        )

    def test_module_level_names(self):
        from repro.core.pattern_fusion import pattern_fusion  # noqa: F401
        from repro.engine.parallel_fusion import parallel_pattern_fusion  # noqa: F401
        from repro.mining.aclose import aclose, frequent_generators  # noqa: F401
        from repro.mining.carpenter import carpenter_closed_patterns  # noqa: F401
        from repro.mining.closed import iter_closed_patterns  # noqa: F401
        from repro.mining.levelwise import mine_up_to_size  # noqa: F401
        from repro.sequences import sequence_pattern_fusion  # noqa: F401
        from repro.streaming import IncrementalPatternFusion  # noqa: F401


class TestLegacyCallSignatures:
    """Positional/keyword spellings used before the registry still work."""

    def test_simple_miners_positional(self, db):
        from repro import apriori, eclat, fpgrowth

        assert {p.items for p in eclat(db, 2).patterns} == {
            p.items for p in apriori(db, 2).patterns
        } == {p.items for p in fpgrowth(db, 2).patterns}

    def test_eclat_max_size_keyword(self, db):
        from repro import eclat

        capped = eclat(db, 2, max_size=2)
        assert max(p.size for p in capped.patterns) <= 2

    def test_closed_and_maximal(self, db):
        from repro import closed_patterns, maximal_patterns, top_k_closed

        closed = closed_patterns(db, 2)
        maximal = maximal_patterns(db, 2)
        top = top_k_closed(db, 3, min_size=1)
        assert {p.items for p in maximal.patterns} <= {
            p.items for p in closed.patterns
        }
        assert len(top) == 3

    def test_pattern_fusion_config_keyword(self, db):
        from repro import PatternFusionConfig, pattern_fusion

        result = pattern_fusion(
            db, 2, PatternFusionConfig(k=5, initial_pool_max_size=2, seed=0)
        )
        assert result.patterns
        assert result.config.seed == 0

    def test_pattern_fusion_initial_pool_keyword(self, db):
        from repro import PatternFusionConfig, mine_up_to_size, pattern_fusion

        pool = mine_up_to_size(db, 2, max_size=2).patterns
        result = pattern_fusion(
            db,
            2,
            PatternFusionConfig(k=5, initial_pool_max_size=2, seed=0),
            initial_pool=pool,
        )
        assert result.initial_pool_size == len(pool)

    def test_parallel_pattern_fusion_jobs_keyword(self, db):
        from repro import PatternFusionConfig, parallel_pattern_fusion

        config = PatternFusionConfig(k=5, initial_pool_max_size=2, seed=0)
        with pytest.warns(DeprecationWarning):
            serial = parallel_pattern_fusion(db, 2, config, jobs=1)
        with pytest.warns(DeprecationWarning):
            parallel = parallel_pattern_fusion(db, 2, config, jobs=2)
        assert {p.items for p in serial.patterns} == {
            p.items for p in parallel.patterns
        }

    def test_incremental_driver_construction(self, db):
        from repro import IncrementalPatternFusion, PatternFusionConfig

        driver = IncrementalPatternFusion(
            4, 2, PatternFusionConfig(k=5, initial_pool_max_size=2, seed=0)
        )
        stats = driver.slide([sorted(row) for row in db.transactions])
        assert stats.window_size == 4
        assert driver.slides == 1

    def test_sequence_fusion_positional(self):
        from repro import (
            PatternFusionConfig,
            SequenceDatabase,
            sequence_pattern_fusion,
        )

        seq_db = SequenceDatabase([(0, 1, 2), (0, 1, 2, 3), (1, 2, 3)])
        result = sequence_pattern_fusion(
            seq_db, 2, PatternFusionConfig(k=3, initial_pool_max_size=2, seed=0)
        )
        assert result.patterns


class TestLegacyCli:
    """Pre-registry CLI spellings are aliases, not removals."""

    @pytest.fixture
    def dat_file(self, tmp_path):
        path = tmp_path / "toy.dat"
        path.write_text("0 1 4\n0 1\n1 2\n0 1 2\n0 2 3\n")
        return path

    @pytest.mark.parametrize(
        "algorithm",
        ["apriori", "eclat", "fpgrowth", "closed", "maximal", "carpenter"],
    )
    def test_algorithm_flag(self, dat_file, capsys, algorithm):
        assert main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--algorithm", algorithm]) == 0
        assert algorithm in capsys.readouterr().out

    def test_algorithm_pool_alias(self, dat_file, capsys):
        assert main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--algorithm", "pool", "--min-size", "2"]) == 0
        assert "levelwise" in capsys.readouterr().out

    def test_algorithm_pool_defaults_to_size_one(self, dat_file, capsys):
        assert main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--algorithm", "pool"]) == 0
        assert "levelwise(<= 1)" in capsys.readouterr().out

    def test_algorithm_topk_ignores_minsup(self, dat_file, capsys):
        assert main(["mine", "--input", str(dat_file), "--minsup", "1",
                     "--algorithm", "topk", "--top-k", "3"]) == 0
        assert "topk: 3 patterns" in capsys.readouterr().out

    def test_miner_and_algorithm_conflict(self, dat_file, capsys):
        assert main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--miner", "eclat", "--algorithm", "eclat"]) == 2
        assert "not both" in capsys.readouterr().err
