"""The binary run format: round-trips, rejection, and zero-copy claims.

Three protections under test, per the format's design:

* **Bit identity** — a binary reload (word CRC paid up front or
  deferred) reproduces the saved pool exactly: items, tidsets,
  order, metadata.
* **Rejection, never misreading** — truncation, bit flips in any region,
  a wrong magic, or a newer format version raise
  :class:`BinaryFormatError` naming what failed.
* **Zero copies** — the matrix words are a read-only view straight into
  the file mapping.

Plus the store-level contract: ``save`` writes only ``patterns.bin``, and
every reader but ``migrate`` refuses the committed v1-only store
(``tests/fixtures/v1_store``), which ``migrate`` upgrades in place.
"""

import os
import struct
import zlib

import pytest

from repro.mining.results import MiningResult, Pattern
from repro.store import (
    BinaryFormatError,
    PatternStore,
    decode_patterns,
    read_binary_run,
    write_binary_run,
)
from tests.conftest import V1_EMPTY_RUN, V1_FUSION_RUN, V1_STORE, on_kernel


def bits(patterns):
    return [(p.items, p.tidset) for p in patterns]


def assert_refused(path, match, **kwargs):
    """The file is refused with an error naming the failure."""
    with pytest.raises(BinaryFormatError, match=match):
        read_binary_run(path, **kwargs)


@pytest.fixture
def pool():
    """A small pool with adversarial shapes: huge tidsets, empty itemset bits."""
    return [
        Pattern(items=frozenset({1, 2, 3}), tidset=0b1011),
        Pattern(items=frozenset({7}), tidset=(1 << 200) | 5),
        Pattern(items=frozenset({2, 9, 40}), tidset=(1 << 128) - 1),
        Pattern(items=frozenset({0}), tidset=1),
    ]


@pytest.fixture
def bin_file(tmp_path, pool):
    path = tmp_path / "patterns.bin"
    meta = {"algorithm": "test", "minsup": 2, "n_patterns": len(pool)}
    write_binary_run(path, meta, pool)
    return path


class TestRoundTrip:
    @on_kernel
    @pytest.mark.parametrize("verify_words", [True, False])
    def test_bit_identical(self, bin_file, pool, verify_words):
        run = read_binary_run(bin_file, verify_words=verify_words)
        assert bits(run.patterns()) == bits(pool)
        assert run.meta["minsup"] == 2
        assert run.n_patterns == len(pool)
        assert run.n_bits == 201  # the 1 << 200 tidset sets the geometry

    def test_to_result(self, bin_file, pool):
        result = read_binary_run(bin_file).to_result()
        assert isinstance(result, MiningResult)
        assert result.algorithm == "test"
        assert result.minsup == 2
        assert bits(result.patterns) == bits(pool)

    def test_empty_pool(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_binary_run(path, {"algorithm": "x", "minsup": 1}, [])
        run = read_binary_run(path)
        assert len(run) == 0
        assert run.patterns() == []

    def test_itemset_too_wide_refused(self, tmp_path):
        bad = [Pattern(items=frozenset({1 << 64}), tidset=1)]
        with pytest.raises(ValueError, match="u64"):
            write_binary_run(tmp_path / "bad.bin", {}, bad)

    def test_negative_tidset_refused(self, tmp_path):
        bad = [Pattern(items=frozenset({1}), tidset=-1)]
        with pytest.raises(ValueError, match="non-negative"):
            write_binary_run(tmp_path / "bad.bin", {}, bad)

    def test_deferred_words_verify_passes_on_clean_file(self, bin_file):
        read_binary_run(bin_file).verify_words()  # must not raise


class TestZeroCopy:
    def test_mapped_words_are_a_readonly_view(self, bin_file):
        run = read_binary_run(bin_file)
        words = run.matrix._words
        assert not words.flags.owndata  # a view into the mapping, not a copy
        assert not words.flags.writeable


class TestRejection:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"REPROBIN\x01")
        assert_refused(path, "truncated")

    def test_truncated_words(self, bin_file):
        data = bin_file.read_bytes()
        bin_file.write_bytes(data[:-8])
        assert_refused(bin_file, "truncated")

    def test_trailing_garbage(self, bin_file):
        bin_file.write_bytes(bin_file.read_bytes() + b"extra")
        assert_refused(bin_file, "trailing")

    def test_bad_magic(self, bin_file):
        data = bytearray(bin_file.read_bytes())
        data[:8] = b"NOTABINF"
        bin_file.write_bytes(bytes(data))
        assert_refused(bin_file, "magic")

    def test_newer_version_refused(self, bin_file):
        data = bytearray(bin_file.read_bytes())
        # Bump the version field and re-seal the header CRC: the refusal
        # must come from the version check, not checksum noise.
        struct.pack_into("<I", data, 8, 99)
        struct.pack_into("<I", data, 96, zlib.crc32(bytes(data[:96])))
        bin_file.write_bytes(bytes(data))
        assert_refused(bin_file, "newer")

    def test_flipped_header_bit(self, bin_file):
        data = bytearray(bin_file.read_bytes())
        data[16] ^= 0x01  # inside n_patterns
        bin_file.write_bytes(bytes(data))
        assert_refused(bin_file, "header checksum")

    def test_flipped_meta_bit(self, bin_file):
        data = bytearray(bin_file.read_bytes())
        data[110] ^= 0x40  # inside the meta JSON block
        bin_file.write_bytes(bytes(data))
        assert_refused(bin_file, "meta/table checksum")

    def test_flipped_word_bit_caught_on_full_verify(self, bin_file):
        data = bytearray(bin_file.read_bytes())
        data[-1] ^= 0x80  # inside the word region
        bin_file.write_bytes(bytes(data))
        assert_refused(bin_file, "word region checksum", verify_words=True)
        # The zero-copy open defers the words sweep; the deferred check
        # still catches it on demand.
        run = read_binary_run(bin_file)
        with pytest.raises(BinaryFormatError, match="word region checksum"):
            run.verify_words()


def v1_pool(run_id):
    """The committed fixture's pool for ``run_id``, decoded from its text."""
    return decode_patterns((V1_STORE / "runs" / run_id / "patterns.txt").read_text())


class TestStoreIntegration:
    @pytest.fixture
    def saved(self, tmp_path, pool):
        store = PatternStore(tmp_path / "store")
        result = MiningResult(algorithm="test", minsup=2, patterns=pool)
        run_id = store.save(result, miner="test-miner")
        return store, run_id

    def test_save_writes_only_binary_payload(self, saved):
        store, run_id = saved
        run_dir = store.root / "runs" / run_id
        assert sorted(os.listdir(run_dir)) == ["meta.json", "patterns.bin"]

    @on_kernel
    def test_open_matrix_rows_match_pool(self, saved, pool):
        store, run_id = saved
        run = store.open_matrix(run_id)
        assert [run.matrix.row(i) for i in range(len(pool))] == (
            [p.tidset for p in pool]
        )

    def test_open_matrix_unknown_run(self, saved):
        store, _ = saved
        with pytest.raises(KeyError, match="no run"):
            store.open_matrix("feedc0de")

    def test_delete_removes_binary_payload(self, saved):
        store, run_id = saved
        run_dir = store.root / "runs" / run_id
        store.delete(run_id)
        assert not run_dir.exists()

    def test_run_info(self, saved):
        store, run_id = saved
        info = store.run_info(run_id)
        assert info["format"] == "binary"
        assert info["format_version"] == 1
        assert info["n_patterns"] == 4
        assert info["bytes"] == sum(info["files"].values())

    # The committed pre-binary-format store: refused by readers, migrated.

    def test_open_matrix_unmigrated_run_says_migrate(self, v1_store):
        store = PatternStore(v1_store)
        with pytest.raises(FileNotFoundError, match="store migrate"):
            store.open_matrix(V1_FUSION_RUN)
        with pytest.raises(FileNotFoundError, match="store migrate"):
            store.load(V1_FUSION_RUN)
        for report in store.verify():
            assert not report["ok"]
            assert "store migrate" in report["errors"][0]

    def test_migrate_round_trip_and_idempotence(self, v1_store):
        store = PatternStore(v1_store)
        assert store.migrate() == sorted([V1_EMPTY_RUN, V1_FUSION_RUN])
        for run_id in (V1_FUSION_RUN, V1_EMPTY_RUN):
            run_dir = v1_store / "runs" / run_id
            assert sorted(os.listdir(run_dir)) == ["meta.json", "patterns.bin"]
            run = store.load(run_id)
            assert run.run_id == run_id == run.meta["run_id"]
            assert bits(run.patterns) == bits(v1_pool(run_id))
        assert store.migrate() == []  # nothing left: already binary
        assert all(report["ok"] for report in store.verify())

    def test_migrate_finishes_an_interrupted_run(self, v1_store):
        """A (torn) patterns.bin left beside patterns.txt is rewritten."""
        store = PatternStore(v1_store)
        run_dir = v1_store / "runs" / V1_FUSION_RUN
        (run_dir / "patterns.bin").write_bytes(b"REPROBIN torn write")
        assert store.migrate(V1_FUSION_RUN) == [V1_FUSION_RUN]
        assert not (run_dir / "patterns.txt").exists()
        pool = store.load(V1_FUSION_RUN).patterns
        assert bits(pool) == bits(v1_pool(V1_FUSION_RUN))

    def test_migrate_refuses_corrupt_v1(self, v1_store):
        run_dir = v1_store / "runs" / V1_FUSION_RUN
        payload = (run_dir / "patterns.txt").read_text()
        (run_dir / "patterns.txt").write_text(payload.replace("b", "a", 1))
        with pytest.raises(ValueError, match="refusing to migrate"):
            PatternStore(v1_store).migrate(V1_FUSION_RUN)
        assert sorted(os.listdir(run_dir)) == ["meta.json", "patterns.txt"]

    @pytest.mark.parametrize("run_id", [V1_FUSION_RUN, V1_EMPTY_RUN])
    def test_saved_pool_keeps_the_fixture_run_id(self, tmp_path, run_id):
        """Run ids still hash the v1 encoding: the same pool, the same id."""
        meta = PatternStore(V1_STORE).meta(run_id)
        result = MiningResult(meta["algorithm"], meta["minsup"], v1_pool(run_id))
        saved = PatternStore(tmp_path / "store").save(
            result, miner=meta["miner"], config=meta["config"],
            fingerprint=meta["dataset"]["fingerprint"],
        )
        assert saved == run_id
