"""Unified-API ⇔ legacy agreement: ``Miner(config).mine(db)`` and
``repro mine --miner <name>`` reproduce the legacy entry points exactly.

Covers the acceptance matrix: every registered miner runs through both
surfaces; eclat/closed byte-level CLI agreement; one Pattern-Fusion pool
from every fusion entry point (function, runner, miner at jobs ∈ {1, 2},
the deprecated aliases, the CLI, a single stream slide); and one streaming
slide against the legacy driver.
"""

import pytest

from repro.api import MINERS, create_miner, miner_names
from repro.cli import main
from repro.core import PatternFusion, PatternFusionConfig, pattern_fusion
from repro.datasets import diag, quest_like
from repro.db import TransactionDatabase, write_fimi
from repro.engine import ParallelExecutor, SerialExecutor, parallel_pattern_fusion
from repro.mining import (
    closed_patterns,
    eclat,
    maximal_patterns,
    mine_up_to_size,
    top_k_closed,
)
from repro.sequences import SequenceDatabase, sequence_pattern_fusion
from repro.store import document_to_result, read_document
from repro.streaming import IncrementalPatternFusion
from repro.streaming.incremental import slide_seed

MINSUP = 2


@pytest.fixture(scope="module")
def toy_db():
    rows = [[0, 1, 4], [0, 1], [1, 2], [0, 1, 2], [0, 2, 3], [0, 1, 2, 3]]
    return TransactionDatabase(rows, n_items=5)


@pytest.fixture(scope="module")
def fusion_db():
    return quest_like(n_transactions=120, n_items=24, n_patterns=8, seed=42)


@pytest.fixture
def dat_file(tmp_path):
    path = tmp_path / "toy.dat"
    rows = ["0 1 4", "0 1", "1 2", "0 1 2", "0 2 3", "0 1 2 3"]
    path.write_text("\n".join(rows) + "\n")
    return path


def pattern_key(result):
    return sorted((p.sorted_items(), p.tidset) for p in result.patterns)


LEGACY_CALLS = {
    "eclat": lambda db: eclat(db, MINSUP),
    "closed": lambda db: closed_patterns(db, MINSUP),
    "maximal": lambda db: maximal_patterns(db, MINSUP),
    "levelwise": lambda db: mine_up_to_size(db, MINSUP, max_size=2),
    "topk": lambda db: top_k_closed(db, 4, min_size=2),
}
LEGACY_KNOBS = {
    "levelwise": {"minsup": MINSUP, "max_size": 2},
    "topk": {"k": 4, "min_size": 2},
}


#: A stream miner's one-shot ``mine`` is slide 0 of a fresh driver, which
#: fuses with ``slide_seed(seed, 0)``; seeding every other entry point with
#: that value puts the stream slide in the same agreement check.
STREAM_SEED = 3
FUSION_MINSUP = 10
FUSION_CONFIG = PatternFusionConfig(
    k=8, initial_pool_max_size=2, seed=slide_seed(STREAM_SEED, 0)
)
FUSION_KNOBS = dict(
    minsup=FUSION_MINSUP, k=8, initial_pool_max_size=2, seed=FUSION_CONFIG.seed
)


def _cli_pool(db, tmp_path, argv):
    data, out = tmp_path / "db.dat", tmp_path / "run.json"
    write_fimi(db, data)
    assert main([*argv, "--input", str(data), "--out", str(out)]) == 0
    return document_to_result(read_document(out))


def _with_executor(executor):
    def run(db, tmp_path):
        with executor() as ex:
            return pattern_fusion(db, FUSION_MINSUP, FUSION_CONFIG, executor=ex)
    return run


def _runner_with_executor(db, tmp_path):
    with ParallelExecutor(2) as executor:
        return PatternFusion(db, FUSION_MINSUP, FUSION_CONFIG, executor=executor).run()


def _deprecated_function(db, tmp_path):
    with pytest.warns(DeprecationWarning):
        return parallel_pattern_fusion(db, FUSION_MINSUP, FUSION_CONFIG, jobs=2)


def _deprecated_miner(db, tmp_path):
    with pytest.warns(DeprecationWarning):
        miner = create_miner("parallel_pattern_fusion", jobs=2, **FUSION_KNOBS)
    return miner.mine(db)


FUSION_ENTRY_POINTS = {
    "function": lambda db, tmp_path: pattern_fusion(db, FUSION_MINSUP, FUSION_CONFIG),
    "function-serial-executor": _with_executor(SerialExecutor),
    "function-parallel-executor": _with_executor(lambda: ParallelExecutor(2)),
    "runner": lambda db, tmp_path: PatternFusion(db, FUSION_MINSUP, FUSION_CONFIG).run(),
    "runner-executor": _runner_with_executor,
    "miner-jobs1": lambda db, tmp_path: create_miner(
        "pattern_fusion", jobs=1, **FUSION_KNOBS
    ).mine(db),
    "miner-jobs2": lambda db, tmp_path: create_miner(
        "pattern_fusion", jobs=2, **FUSION_KNOBS
    ).mine(db),
    "deprecated-function": _deprecated_function,
    "deprecated-miner": _deprecated_miner,
    "cli-fuse": lambda db, tmp_path: _cli_pool(db, tmp_path, [
        "fuse", "--minsup", str(FUSION_MINSUP), "--k", "8", "--pool-size", "2",
        "--seed", str(FUSION_CONFIG.seed), "--jobs", "2",
    ]),
    "cli-mine": lambda db, tmp_path: _cli_pool(db, tmp_path, [
        "mine", "--minsup", str(FUSION_MINSUP), "--miner", "pattern_fusion",
        "--set", "k=8", "--set", "initial_pool_max_size=2",
        "--set", f"seed={FUSION_CONFIG.seed}",
    ]),
    "stream-single-slide": lambda db, tmp_path: create_miner(
        "stream_fusion", **{**FUSION_KNOBS, "seed": STREAM_SEED}
    ).mine(db),
}


class TestMinerApiAgreement:
    @pytest.mark.parametrize("name", sorted(LEGACY_CALLS))
    def test_itemset_miners_equal_legacy_functions(self, toy_db, name):
        knobs = LEGACY_KNOBS.get(name, {"minsup": MINSUP})
        via_api = create_miner(name, **knobs).mine(toy_db)
        via_legacy = LEGACY_CALLS[name](toy_db)
        assert pattern_key(via_api) == pattern_key(via_legacy)
        assert via_api.algorithm == via_legacy.algorithm

    def test_pattern_fusion_equals_legacy_serial(self, fusion_db):
        config = PatternFusionConfig(k=8, initial_pool_max_size=2, seed=3)
        legacy = pattern_fusion(fusion_db, 10, config)
        via_api = create_miner(
            "pattern_fusion", minsup=10, k=8, initial_pool_max_size=2, seed=3
        ).mine(fusion_db)
        assert pattern_key(via_api) == pattern_key(legacy)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_fusion_equals_legacy_at_jobs(self, fusion_db, jobs):
        config = PatternFusionConfig(k=8, initial_pool_max_size=2, seed=3)
        legacy = pattern_fusion(fusion_db, 10, config, jobs=jobs)
        via_api = create_miner(
            "pattern_fusion",
            minsup=10, k=8, initial_pool_max_size=2, seed=3, jobs=jobs,
        ).mine(fusion_db)
        assert pattern_key(via_api) == pattern_key(legacy)

    def test_parallel_fusion_identical_across_jobs(self, fusion_db):
        pools = [
            pattern_key(
                create_miner(
                    "pattern_fusion",
                    minsup=10, k=8, initial_pool_max_size=2, seed=3, jobs=jobs,
                ).mine(fusion_db)
            )
            for jobs in (1, 2)
        ]
        assert pools[0] == pools[1]

    @pytest.mark.parametrize("entry", sorted(FUSION_ENTRY_POINTS))
    def test_every_fusion_entry_point_mines_one_pool(
        self, fusion_db, tmp_path, entry
    ):
        reference = pattern_fusion(fusion_db, FUSION_MINSUP, FUSION_CONFIG, jobs=1)
        result = FUSION_ENTRY_POINTS[entry](fusion_db, tmp_path)
        assert pattern_key(result) == pattern_key(reference)

    def test_streaming_slide_equals_legacy_driver(self, toy_db):
        config = PatternFusionConfig(k=5, initial_pool_max_size=2, seed=1)
        batch = [sorted(row) for row in toy_db.transactions]
        legacy = IncrementalPatternFusion(
            None, MINSUP, config, executor=SerialExecutor()
        )
        legacy_stats = legacy.slide(batch)
        miner = create_miner(
            "stream_fusion", minsup=MINSUP, k=5, initial_pool_max_size=2, seed=1
        )
        stats = miner.update(batch)
        import dataclasses

        assert dataclasses.replace(stats, seconds=0.0) == dataclasses.replace(
            legacy_stats, seconds=0.0
        )
        assert sorted((p.sorted_items(), p.tidset) for p in miner.driver.patterns) \
            == sorted((p.sorted_items(), p.tidset) for p in legacy.patterns)
        # partial_mine on a second slide also tracks the legacy driver.
        second = [[0, 1, 2], [0, 1, 4]]
        legacy.slide(second)
        result = miner.partial_mine(second)
        assert pattern_key(result) == sorted(
            (p.sorted_items(), p.tidset) for p in legacy.patterns
        )

    def test_stream_mine_is_single_slide_cold_run(self, toy_db):
        miner = create_miner(
            "stream_fusion", minsup=MINSUP, k=5, initial_pool_max_size=2, seed=1
        )
        one_shot = miner.mine(toy_db)
        config = PatternFusionConfig(k=5, initial_pool_max_size=2, seed=1)
        driver = IncrementalPatternFusion(
            None, MINSUP, config, executor=SerialExecutor()
        )
        driver.slide([sorted(row) for row in toy_db.transactions])
        assert pattern_key(one_shot) == sorted(
            (p.sorted_items(), p.tidset) for p in driver.patterns
        )

    def test_sequence_fusion_equals_legacy(self):
        db = SequenceDatabase(
            [(0, 1, 2, 3), (0, 1, 2, 3, 4), (1, 2, 3), (0, 2, 3)], n_items=5
        )
        config = PatternFusionConfig(k=3, initial_pool_max_size=2, seed=0)
        legacy = sequence_pattern_fusion(db, 2, config)
        miner = create_miner(
            "sequence_fusion", minsup=2, k=3, initial_pool_max_size=2, seed=0
        )
        full = miner.mine_sequences(db)
        assert [(p.sequence, p.tidset) for p in full.patterns] == [
            (p.sequence, p.tidset) for p in legacy.patterns
        ]
        projected = miner.mine(db)
        assert {(p.items, p.tidset) for p in projected.patterns} == {
            (frozenset(p.sequence), p.tidset) for p in legacy.patterns
        }


class TestCliAgreement:
    """Every registered miner also runs via ``repro mine --miner <name>``."""

    EXTRA_FLAGS = {
        "pattern_fusion": ["--set", "seed=0", "--set", "k=5",
                           "--set", "initial_pool_max_size=2"],
        "parallel_pattern_fusion": ["--set", "seed=0", "--set", "k=5",
                                    "--set", "initial_pool_max_size=2"],
        "stream_fusion": ["--set", "seed=0", "--set", "k=5",
                          "--set", "initial_pool_max_size=2"],
        "sequence_fusion": ["--set", "seed=0", "--set", "k=5",
                            "--set", "initial_pool_max_size=2"],
        "topk": ["--top-k", "4"],
    }

    @pytest.mark.parametrize("name", sorted(set(MINERS)))
    def test_every_registered_miner_runs_via_cli(self, dat_file, capsys, name):
        argv = ["mine", "--input", str(dat_file), "--minsup", "2",
                "--miner", name, *self.EXTRA_FLAGS.get(name, [])]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "patterns at minsup" in out

    @pytest.mark.parametrize("name", ["eclat", "closed"])
    def test_cli_miner_output_equals_legacy_algorithm_output(
        self, dat_file, capsys, name
    ):
        def pattern_lines(argv):
            assert main(argv) == 0
            return [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("  size")
            ]

        base = ["mine", "--input", str(dat_file), "--minsup", "2"]
        via_miner = pattern_lines([*base, "--miner", name])
        via_legacy = pattern_lines([*base, "--algorithm", name])
        assert via_miner and via_miner == via_legacy

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cli_fusion_matches_api_at_jobs(self, dat_file, capsys, jobs):
        argv = ["mine", "--input", str(dat_file), "--minsup", "2",
                "--miner", "pattern_fusion",
                "--set", "seed=0", "--set", "k=5",
                "--set", "initial_pool_max_size=2", "--set", f"jobs={jobs}"]
        assert main(argv) == 0
        out_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  size")
        ]
        db = TransactionDatabase(
            [[0, 1, 4], [0, 1], [1, 2], [0, 1, 2], [0, 2, 3], [0, 1, 2, 3]],
            n_items=5,
        )
        api_result = create_miner(
            "pattern_fusion",
            minsup=2, seed=0, k=5, initial_pool_max_size=2, jobs=jobs,
        ).mine(db)
        assert len(out_lines) == min(len(api_result), 20)


def test_miner_names_covers_cli_legacy_algorithms():
    """Every legacy --algorithm value maps into the registry."""
    from repro.cli import _LEGACY_ALGORITHMS, _LEGACY_NAME_ALIASES

    for legacy in _LEGACY_ALGORITHMS:
        assert _LEGACY_NAME_ALIASES.get(legacy, legacy) in miner_names()
