"""Checkpoint/resume: durable driver state and crash-exact recovery.

Bottom layer first — :class:`CheckpointManager` persistence semantics
(atomic durable writes, interval throttle, identity pinning, corrupt-file
refusal) and the pattern/RNG codecs — then the recovery-determinism
properties the managers exist for: a fusion run crashed at *any* round and
resumed replays the uninterrupted pool bit for bit, a stream resumed from
its last slide rejoins the uninterrupted trajectory, and a SIGKILL'd
``repro mine --checkpoint`` run resumed with ``--resume`` reproduces the
clean run's content-hashed run id exactly.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import PatternFusion, PatternFusionConfig, pattern_fusion
from repro.datasets import quest_like
from repro.db import TransactionDatabase
from repro.mining import Pattern
from repro.resilience import (
    CheckpointManager,
    FaultInjected,
    FaultSchedule,
    set_fault_schedule,
)
from repro.resilience.checkpoint import (
    CheckpointError,
    decode_patterns,
    decode_rng,
    encode_patterns,
    encode_rng,
)
from repro.streaming import DriftingPatternSource, IncrementalPatternFusion


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt.json", identity={"run": 1})
        state = {"round": 3, "pool": [[1, 2], "ff"]}
        manager.save(state)
        assert CheckpointManager(
            tmp_path / "ckpt.json", identity={"run": 1}
        ).load() == state

    def test_load_missing_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "absent.json").load() is None

    def test_corrupt_json_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            CheckpointManager(path).load()

    def test_unsupported_format_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"format": 99, "state": {}}))
        with pytest.raises(CheckpointError, match="unsupported format"):
            CheckpointManager(path).load()

    def test_identity_mismatch_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        CheckpointManager(path, identity={"minsup": 6}).save({"round": 1})
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointManager(path, identity={"minsup": 7}).load()
        # No identity on the reader side means "accept whatever is there".
        assert CheckpointManager(path).load() == {"round": 1}

    def test_offer_throttles_and_skips_factory_work(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt.json", interval=3)
        built = []

        def factory():
            built.append(True)
            return {"round": len(built)}

        saved = [manager.offer(factory) for _ in range(7)]
        assert saved == [False, False, True, False, False, True, False]
        assert len(built) == 2  # skipped offers never assembled state
        assert manager.load() == {"round": 2}

    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path / "ckpt.json", interval=0)

    def test_clear_is_idempotent(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt.json")
        manager.save({"round": 1})
        manager.clear()
        assert not (tmp_path / "ckpt.json").exists()
        manager.clear()  # second clear: no error

    def test_save_leaves_no_temp_debris(self, tmp_path):
        manager = CheckpointManager(tmp_path / "deep" / "ckpt.json")
        manager.save({"round": 1})
        manager.save({"round": 2})
        leftovers = [
            p for p in (tmp_path / "deep").iterdir() if p.name != "ckpt.json"
        ]
        assert leftovers == []


class TestCodecs:
    def test_patterns_round_trip_bit_identical(self):
        pool = [
            Pattern(items=frozenset({3, 1, 7}), tidset=0b1011_0001),
            Pattern(items=frozenset({2}), tidset=(1 << 130) | 5),
        ]
        decoded = decode_patterns(json.loads(json.dumps(encode_patterns(pool))))
        assert [(p.items, p.tidset) for p in decoded] == [
            (p.items, p.tidset) for p in pool
        ]

    def test_rng_round_trip_continues_the_stream(self):
        rng = random.Random(13)
        rng.random()
        doc = json.loads(json.dumps(encode_rng(rng.getstate())))
        expected = [rng.random() for _ in range(5)]
        replay = random.Random()
        replay.setstate(decode_rng(doc))
        assert [replay.random() for _ in range(5)] == expected


@pytest.fixture(scope="module")
def db():
    return quest_like(n_transactions=120, n_items=24, n_patterns=8, seed=42)


_CONFIG = PatternFusionConfig(k=10, seed=7)


def _pool_key(patterns):
    return sorted((p.sorted_items(), p.tidset) for p in patterns)


@pytest.fixture(scope="module")
def reference(db):
    """The uninterrupted run every crash/resume case must reproduce."""
    return pattern_fusion(db, 6, _CONFIG)


class TestFusionCrashResume:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(crash_round=st.integers(min_value=2, max_value=4))
    def test_crash_at_any_round_resumes_bit_identical(
        self, db, reference, tmp_path_factory, crash_round
    ):
        path = tmp_path_factory.mktemp("fusion") / "ckpt.json"
        previous = set_fault_schedule(
            FaultSchedule.parse(f"raise@fusion.round:first={crash_round},times=1")
        )
        try:
            with pytest.raises(FaultInjected):
                pattern_fusion(
                    db, 6, _CONFIG, jobs=1, checkpoint=CheckpointManager(path)
                )
            assert path.exists()  # at least one round was banked
            set_fault_schedule(FaultSchedule.parse(""))
            resumed = pattern_fusion(
                db, 6, _CONFIG, jobs=1, checkpoint=CheckpointManager(path)
            )
        finally:
            set_fault_schedule(previous)
        assert _pool_key(resumed.patterns) == _pool_key(reference.patterns)
        assert resumed.iterations == reference.iterations
        assert not path.exists()  # cleared on success

    def test_resume_under_different_jobs_replays_the_pool(
        self, db, reference, tmp_path
    ):
        path = tmp_path / "ckpt.json"
        previous = set_fault_schedule(
            FaultSchedule.parse("raise@fusion.round:first=3,times=1")
        )
        try:
            with pytest.raises(FaultInjected):
                pattern_fusion(
                    db, 6, _CONFIG, jobs=1, checkpoint=CheckpointManager(path)
                )
            set_fault_schedule(FaultSchedule.parse(""))
            # Identity excludes execution knobs: a serial run may resume
            # parallel and still replay the identical pool.
            resumed = pattern_fusion(
                db, 6, _CONFIG, jobs=2, checkpoint=CheckpointManager(path)
            )
        finally:
            set_fault_schedule(previous)
        assert _pool_key(resumed.patterns) == _pool_key(reference.patterns)

    def test_no_executor_crash_resumes_at_jobs_2(self, db, reference, tmp_path):
        # A run without an executor and a jobs=2 run share one round and one
        # RNG stream, so the checkpoint one writes is the other's to resume.
        path = tmp_path / "ckpt.json"
        previous = set_fault_schedule(
            FaultSchedule.parse("raise@fusion.round:first=3,times=1")
        )
        try:
            with pytest.raises(FaultInjected):
                PatternFusion(
                    db, 6, _CONFIG, checkpoint=CheckpointManager(path)
                ).run()
            assert path.exists()
            set_fault_schedule(FaultSchedule.parse(""))
            resumed = pattern_fusion(
                db, 6, _CONFIG, jobs=2, checkpoint=CheckpointManager(path)
            )
        finally:
            set_fault_schedule(previous)
        assert _pool_key(resumed.patterns) == _pool_key(reference.patterns)
        assert resumed.iterations == reference.iterations

    def test_checkpoint_from_other_config_refused(self, db, tmp_path):
        path = tmp_path / "ckpt.json"
        previous = set_fault_schedule(
            FaultSchedule.parse("raise@fusion.round:first=2,times=1")
        )
        try:
            with pytest.raises(FaultInjected):
                pattern_fusion(
                    db, 6, _CONFIG, jobs=1, checkpoint=CheckpointManager(path)
                )
            set_fault_schedule(FaultSchedule.parse(""))
            with pytest.raises(CheckpointError, match="different run"):
                pattern_fusion(
                    db, 6, PatternFusionConfig(k=10, seed=8), jobs=1,
                    checkpoint=CheckpointManager(path),
                )
        finally:
            set_fault_schedule(previous)

    def test_caller_identity_cannot_resume_another_database(self, db, tmp_path):
        """The driver's identity replaces one the caller set on the manager,
        so two runs sharing ``identity=`` do not share a checkpoint."""
        path = tmp_path / "ckpt.json"
        previous = set_fault_schedule(
            FaultSchedule.parse("raise@fusion.round:first=2,times=1")
        )
        try:
            with pytest.raises(FaultInjected):
                pattern_fusion(
                    db, 6, _CONFIG, jobs=1,
                    checkpoint=CheckpointManager(path, identity={"run": 1}),
                )
        finally:
            set_fault_schedule(previous)
        other = quest_like(n_transactions=120, n_items=24, n_patterns=8, seed=43)
        with pytest.raises(CheckpointError, match="different run"):
            pattern_fusion(
                other, 6, _CONFIG, jobs=1,
                checkpoint=CheckpointManager(path, identity={"run": 1}),
            )

    def test_checkpoint_on_permuted_rows_refused(self, db, tmp_path):
        """Tidsets name rows by position: the same rows in another order
        are another dataset, so the checkpoint does not resume there."""
        path = tmp_path / "ckpt.json"
        previous = set_fault_schedule(
            FaultSchedule.parse("raise@fusion.round:first=2,times=1")
        )
        try:
            with pytest.raises(FaultInjected):
                pattern_fusion(
                    db, 6, _CONFIG, jobs=1, checkpoint=CheckpointManager(path)
                )
        finally:
            set_fault_schedule(previous)
        rows = list(db.transactions)
        random.Random(0).shuffle(rows)
        permuted = TransactionDatabase(rows, n_items=db.n_items)
        with pytest.raises(CheckpointError, match="different run"):
            pattern_fusion(
                permuted, 6, _CONFIG, jobs=1, checkpoint=CheckpointManager(path)
            )

    def test_checkpoint_with_removed_backend_knob_refused(self, db, tmp_path):
        """A checkpoint from a config that still had ``backend`` (its
        identity is ``asdict(config)``, so it carries ``"backend": "auto"``)
        is refused cleanly, not resumed or crashed on."""
        path = tmp_path / "ckpt.json"
        previous = set_fault_schedule(
            FaultSchedule.parse("raise@fusion.round:first=2,times=1")
        )
        try:
            with pytest.raises(FaultInjected):
                pattern_fusion(
                    db, 6, _CONFIG, jobs=1, checkpoint=CheckpointManager(path)
                )
        finally:
            set_fault_schedule(previous)
        doc = json.loads(path.read_text())
        assert "backend" not in doc["identity"]["config"]
        doc["identity"]["config"]["backend"] = "auto"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="different run"):
            pattern_fusion(
                db, 6, _CONFIG, jobs=1, checkpoint=CheckpointManager(path)
            )


def _drift_source():
    return DriftingPatternSource(
        n_items=24, batch_size=30, n_batches=6, n_patterns=8,
        drift_every=2, seed=3,
    )


class TestStreamResume:
    def test_resume_rejoins_the_uninterrupted_trajectory(self, tmp_path):
        import itertools

        config = PatternFusionConfig(k=8, seed=5)
        clean = IncrementalPatternFusion(90, 6, config)
        clean.run(_drift_source())
        assert clean.slides == 6

        path = tmp_path / "stream.json"
        first = IncrementalPatternFusion(
            90, 6, config, checkpoint=CheckpointManager(path)
        )
        first.run(_drift_source(), max_slides=3)
        assert first.slides == 3 and path.exists()
        # Abandon `first` (the simulated crash) and resume from disk.
        resumed = IncrementalPatternFusion(
            90, 6, config, checkpoint=CheckpointManager(path)
        )
        assert resumed.slides == 3  # state restored at construction
        resumed.run(itertools.islice(iter(_drift_source()), 3, None))

        assert resumed.slides == clean.slides
        assert _pool_key(resumed._patterns) == _pool_key(clean._patterns)
        assert [s.pool_size for s in resumed.report.slides] == [
            s.pool_size for s in clean.report.slides
        ]

    def test_stream_checkpoint_identity_pins_the_config(self, tmp_path):
        path = tmp_path / "stream.json"
        config = PatternFusionConfig(k=8, seed=5)
        driver = IncrementalPatternFusion(
            90, 6, config, checkpoint=CheckpointManager(path)
        )
        driver.run(_drift_source(), max_slides=2)
        with pytest.raises(CheckpointError, match="different run"):
            IncrementalPatternFusion(
                90, 7, config, checkpoint=CheckpointManager(path)
            )


    def test_stream_caller_identity_cannot_resume_another_config(self, tmp_path):
        path = tmp_path / "stream.json"
        config = PatternFusionConfig(k=8, seed=5)
        driver = IncrementalPatternFusion(
            90, 6, config,
            checkpoint=CheckpointManager(path, identity={"run": 1}),
        )
        driver.run(_drift_source(), max_slides=2)
        with pytest.raises(CheckpointError, match="different run"):
            IncrementalPatternFusion(
                90, 7, config,
                checkpoint=CheckpointManager(path, identity={"run": 1}),
            )


class TestStreamLegacyState:
    def test_resume_ignores_a_stored_initial_pool(self, tmp_path):
        import itertools

        config = PatternFusionConfig(k=8, seed=5)
        clean = IncrementalPatternFusion(90, 6, config)
        clean.run(_drift_source())

        path = tmp_path / "stream.json"
        first = IncrementalPatternFusion(
            90, 6, config, checkpoint=CheckpointManager(path)
        )
        first.run(_drift_source(), max_slides=3)
        doc = json.loads(path.read_text())
        assert "initial" not in doc["state"]
        # Older checkpoints also stored the ≤L pool and the stream span.
        doc["state"]["initial"] = [
            [p.sorted_items(), format(p.tidset, "x")] for p in first.initial_pool
        ]
        doc["state"]["span"] = [3 * 30 - len(first.window), 3 * 30]
        path.write_text(json.dumps(doc))

        resumed = IncrementalPatternFusion(
            90, 6, config, checkpoint=CheckpointManager(path)
        )
        assert resumed.slides == 3
        assert _pool_key(resumed.initial_pool) == _pool_key(first.initial_pool)
        resumed.run(itertools.islice(iter(_drift_source()), 3, None))
        assert _pool_key(resumed.patterns) == _pool_key(clean.patterns)

        def untimed(report):
            return [
                {key: value for key, value in row.items() if key != "seconds"}
                for row in report.as_dicts()
            ]

        assert untimed(resumed.report) == untimed(clean.report)


_MINE_ARGS = [
    "mine", "--dataset", "quest", "--minsup", "6",
    "--miner", "pattern_fusion", "--set", "k=10", "--set", "seed=7",
]


def _run_id(stdout: str) -> str:
    match = re.search(r"stored run (\w+)", stdout)
    assert match, stdout
    return match.group(1)


class TestSigkillResume:
    """Satellite (c): SIGKILL mid-run + ``--resume`` reproduces the run id."""

    def test_sigkill_then_resume_reproduces_run_id(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": "src"}
        clean = subprocess.run(
            [sys.executable, "-m", "repro", *_MINE_ARGS,
             "--store", str(tmp_path / "clean")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert clean.returncode == 0, clean.stderr
        expected = _run_id(clean.stdout)

        ckpt = tmp_path / "mine.ckpt"
        # Stretch every fusion round so the kill lands mid-run, after the
        # first checkpoint offer but before completion.
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *_MINE_ARGS,
             "--store", str(tmp_path / "resumed"),
             "--checkpoint", str(ckpt)],
            env={**env, "REPRO_FAULTS": "delay@fusion.round:ms=400,max_attempt=0"},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not ckpt.exists() and time.monotonic() < deadline:
                assert victim.poll() is None, "run finished before the kill"
                time.sleep(0.05)
            assert ckpt.exists(), "no checkpoint appeared within 60s"
            victim.kill()  # SIGKILL: no cleanup, no atexit, nothing
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - timeout path
                victim.terminate()
                victim.wait(timeout=30)
        assert victim.returncode == -signal.SIGKILL

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", *_MINE_ARGS,
             "--store", str(tmp_path / "resumed"),
             "--checkpoint", str(ckpt), "--resume"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert _run_id(resumed.stdout) == expected
        assert not ckpt.exists()  # cleared after the successful finish


class TestCheckpointCli:
    def test_resume_requires_checkpoint(self, capsys):
        code = main(["mine", "--dataset", "diag", "--minsup", "20", "--resume"])
        assert code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_checkpoint_rejected_for_non_fusion_miner(self, tmp_path, capsys):
        code = main([
            "mine", "--dataset", "diag", "--minsup", "20",
            "--checkpoint", str(tmp_path / "c.json"),
        ])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err.lower()

    def test_sequence_fusion_resumes_the_clean_pool(self, tmp_path, capsys):
        args = [
            "mine", "--dataset", "quest", "--minsup", "20",
            "--miner", "sequence_fusion", "--set", "k=10",
            "--set", "initial_pool_max_size=2", "--set", "seed=0",
            "--limit", "10",
        ]

        def pool_rows():
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if line.startswith("  ")]

        assert main(args) == 0
        clean = pool_rows()
        ckpt = str(tmp_path / "c.json")
        previous = set_fault_schedule(
            FaultSchedule.parse("raise@fusion.round:first=2,times=1")
        )
        try:
            with pytest.raises(FaultInjected):
                main([*args, "--checkpoint", ckpt])
        finally:
            set_fault_schedule(previous)
        assert Path(ckpt).exists()
        capsys.readouterr()
        assert main([*args, "--checkpoint", ckpt, "--resume"]) == 0
        assert pool_rows() == clean
        assert not Path(ckpt).exists()

    def test_fresh_run_discards_stale_checkpoint(self, tmp_path, capsys):
        stale = tmp_path / "c.json"
        stale.write_text("{not even json")
        code = main([
            "mine", "--dataset", "diag", "--minsup", "20",
            "--miner", "pattern_fusion", "--set", "k=10",
            "--checkpoint", str(stale),
        ])
        assert code == 0, capsys.readouterr().err
        assert not stale.exists()  # unlinked up front, cleared on success


class TestStoreVerifyCli:
    @pytest.fixture
    def store_root(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main([
            "fuse", "--dataset", "diag", "--minsup", "20", "--k", "10",
            "--store", str(root),
        ]) == 0
        capsys.readouterr()
        return root

    def test_verify_clean_store(self, store_root, capsys):
        assert main(["store", "verify", "--store", str(store_root)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_flags_corruption(self, store_root, capsys):
        (binary,) = store_root.glob("**/patterns.bin")
        blob = bytearray(binary.read_bytes())
        blob[30] ^= 0xFF
        binary.write_bytes(bytes(blob))
        assert main(["store", "verify", "--store", str(store_root)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_ls_collects_orphaned_temp_files(self, store_root, capsys):
        orphan = next(store_root.glob("**/patterns.bin")).with_name(
            "patterns.bin.tmp999999"
        )
        orphan.write_bytes(b"crash debris")
        assert main(["store", "ls", "--store", str(store_root)]) == 0
        assert "gc: removed 1 orphaned temp file" in capsys.readouterr().err
        assert not orphan.exists()
