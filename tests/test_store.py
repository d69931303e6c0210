"""Tests for the pattern store: format round trips, persistence, cache.

The headline guarantees under test:

* save → load is *bit-identical* — items, tidsets, pool order, provenance —
  including RNG-sensitive Pattern-Fusion pools whose order carries seed
  information;
* run ids are content hashes: same content → same id (idempotent saves),
  any content change → different id;
* ``mine_cached`` hits exactly when (dataset fingerprint, miner, config)
  match, and a warm hit's pool is bit-identical to the cold mine.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PatternFusionConfig, pattern_fusion
from repro.datasets import diag, diag_plus
from repro.db import TransactionDatabase, dataset_fingerprint
from repro.mining import eclat
from repro.mining.results import MiningResult, Pattern
from repro.store import (
    FORMAT_VERSION,
    PatternStore,
    decode_patterns,
    document_to_result,
    encode_patterns,
    mine_cached,
    read_document,
    result_to_document,
    write_document,
)
from repro.store.cache import LRUCache
from repro.store.format import cache_key, content_run_id


def bits(patterns):
    """The bit-identity projection: (items, tidset) in pool order."""
    return [(p.items, p.tidset) for p in patterns]


patterns_strategy = st.lists(
    st.builds(
        Pattern,
        items=st.frozensets(st.integers(0, 200), min_size=0, max_size=12),
        tidset=st.integers(min_value=0, max_value=(1 << 300) - 1),
    ),
    max_size=30,
)


class TestPayloadFormat:
    @settings(max_examples=60, deadline=None)
    @given(patterns_strategy)
    def test_encode_decode_roundtrip(self, patterns):
        assert bits(decode_patterns(encode_patterns(patterns))) == bits(patterns)

    @settings(max_examples=40, deadline=None)
    @given(patterns_strategy)
    def test_document_roundtrip_through_json(self, patterns):
        result = MiningResult(
            algorithm="x", minsup=3, patterns=patterns, elapsed_seconds=0.25
        )
        document = json.loads(json.dumps(result_to_document(result)))
        back = document_to_result(document)
        assert back.algorithm == "x"
        assert back.minsup == 3
        assert back.elapsed_seconds == 0.25
        assert bits(back.patterns) == bits(patterns)

    def test_bad_payload_line_reports_lineno(self):
        with pytest.raises(ValueError, match="line 1"):
            decode_patterns("no separator here")

    def test_newer_format_refused(self):
        result = MiningResult(algorithm="x", minsup=1, patterns=[])
        document = result_to_document(result)
        document["format"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            document_to_result(document)

    def test_write_read_document(self, tmp_path):
        result = MiningResult(
            algorithm="eclat", minsup=2,
            patterns=[Pattern(items=frozenset({1, 2}), tidset=0b1011)],
        )
        path = tmp_path / "run.json"
        write_document(path, result_to_document(result, miner="eclat"))
        back = document_to_result(read_document(path))
        assert bits(back.patterns) == bits(result.patterns)


class TestContentIds:
    def test_identical_content_identical_id(self):
        args = ((b"0 1", b"|f\n"), "eclat", "eclat", 2, {"minsup": 2}, "abc")
        assert content_run_id(*args) == content_run_id(*args)

    @pytest.mark.parametrize("field, value", [
        (0, "0 1|e\n"), (1, "other"), (2, "other"), (3, 3),
        (4, {"minsup": 3}), (5, "abd"),
    ])
    def test_any_component_changes_id(self, field, value):
        base = ["0 1|f\n", "eclat", "eclat", 2, {"minsup": 2}, "abc"]
        changed = list(base)
        changed[field] = value
        assert content_run_id([base[0].encode()], *base[1:]) != content_run_id(
            [changed[0].encode()], *changed[1:]
        )

    def test_cache_key_requires_full_provenance(self):
        assert cache_key(None, "eclat", {}) is None
        assert cache_key("abc", None, {}) is None
        assert cache_key("abc", "eclat", None) is None
        assert cache_key("abc", "eclat", {}) is not None


class TestFingerprint:
    def test_row_order_sensitive(self):
        """Tidsets name rows by position, so a permutation is new data."""
        a = TransactionDatabase([[1, 2], [2, 3], [0]], n_items=4)
        b = TransactionDatabase([[0], [2, 3], [1, 2]], n_items=4)
        c = TransactionDatabase([[2, 1], [3, 2], [0]], n_items=4)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)
        assert dataset_fingerprint(a) == dataset_fingerprint(c)

    def test_content_sensitive(self):
        a = TransactionDatabase([[1, 2], [2, 3]], n_items=4)
        b = TransactionDatabase([[1, 2], [2, 4]], n_items=5)
        c = TransactionDatabase([[1, 2]], n_items=4)
        assert len({dataset_fingerprint(x) for x in (a, b, c)}) == 3

    def test_universe_sensitive(self):
        a = TransactionDatabase([[1, 2]], n_items=3)
        b = TransactionDatabase([[1, 2]], n_items=9)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_duplicate_rows_counted(self):
        a = TransactionDatabase([[1, 2], [1, 2]], n_items=3)
        b = TransactionDatabase([[1, 2]], n_items=3)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)


class TestPatternStore:
    def test_save_load_bit_identical(self, tmp_path):
        db = diag(12)
        result = eclat(db, minsup=4)
        store = PatternStore(tmp_path / "store")
        run_id = store.save(result, db=db, miner="eclat",
                            config={"minsup": 4, "max_size": None})
        run = store.load(run_id)
        assert bits(run.patterns) == bits(result.patterns)
        assert run.result.algorithm == result.algorithm
        assert run.result.minsup == result.minsup
        assert run.result.elapsed_seconds == result.elapsed_seconds
        assert run.miner == "eclat"
        assert run.fingerprint == dataset_fingerprint(db)

    def test_fusion_pool_roundtrip_with_rng_order(self, tmp_path):
        """RNG-sensitive pools (order matters) reload exactly, per seed."""
        db = diag_plus()
        store = PatternStore(tmp_path / "store")
        for seed in (0, 1, 7):
            config = PatternFusionConfig(
                k=10, initial_pool_max_size=2, seed=seed
            )
            result = pattern_fusion(db, 20, config).as_mining_result()
            run_id = store.save(result, db=db, miner="pattern_fusion",
                                config={"seed": seed})
            assert bits(store.load(run_id).patterns) == bits(result.patterns)

    def test_save_is_idempotent(self, tmp_path):
        db = diag(10)
        result = eclat(db, minsup=4)
        store = PatternStore(tmp_path / "store")
        first = store.save(result, db=db, miner="eclat", config={"minsup": 4})
        second = store.save(result, db=db, miner="eclat", config={"minsup": 4})
        assert first == second
        assert len(store) == 1

    def test_distinct_configs_distinct_runs(self, tmp_path):
        db = diag(10)
        result = eclat(db, minsup=4)
        store = PatternStore(tmp_path / "store")
        a = store.save(result, db=db, miner="eclat", config={"minsup": 4})
        b = store.save(result, db=db, miner="eclat", config={"minsup": 5})
        assert a != b
        assert set(store.run_ids()) == {a, b}

    def test_unknown_run_raises_with_known_ids(self, tmp_path):
        store = PatternStore(tmp_path / "store")
        with pytest.raises(KeyError, match="no run"):
            store.load("deadbeef")
        with pytest.raises(KeyError, match="no run"):
            store.meta("deadbeef")

    def test_delete(self, tmp_path):
        db = diag(10)
        store = PatternStore(tmp_path / "store")
        run_id = store.save(eclat(db, minsup=4), db=db)
        assert run_id in store
        store.delete(run_id)
        assert run_id not in store
        assert len(store) == 0

    def test_reopen_sees_existing_runs(self, tmp_path):
        db = diag(10)
        result = eclat(db, minsup=4)
        run_id = PatternStore(tmp_path / "store").save(result, db=db)
        reopened = PatternStore(tmp_path / "store")
        assert bits(reopened.load(run_id).patterns) == bits(result.patterns)

    def test_newer_store_format_refused(self, tmp_path):
        root = tmp_path / "store"
        PatternStore(root)
        (root / "store.json").write_text(
            json.dumps({"format": FORMAT_VERSION + 1})
        )
        with pytest.raises(ValueError, match="newer"):
            PatternStore(root)

    def test_streams_append_and_read(self, tmp_path):
        store = PatternStore(tmp_path / "store")
        assert store.stream_names() == []
        store.append_slides("s1", [{"index": 0}, {"index": 1}])
        store.append_slides("s1", [{"index": 2}])
        assert [r["index"] for r in store.read_slides("s1")] == [0, 1, 2]
        assert store.stream_names() == ["s1"]
        with pytest.raises(KeyError, match="no stream"):
            store.read_slides("other")
        with pytest.raises(ValueError, match="stream name"):
            store.append_slides("../escape", [{}])


class TestMineCached:
    def test_cold_then_warm_bit_identical(self, tmp_path):
        db = diag_plus()
        store = PatternStore(tmp_path / "store")
        knobs = dict(minsup=20, k=10, initial_pool_max_size=2, seed=3)
        cold = mine_cached(store, "pattern_fusion", db, **knobs)
        warm = mine_cached(store, "pattern_fusion", db, **knobs)
        assert not cold.hit and warm.hit
        assert warm.run_id == cold.run_id
        assert bits(warm.result.patterns) == bits(cold.result.patterns)
        assert warm.result.algorithm == cold.result.algorithm
        assert warm.result.minsup == cold.result.minsup

    def test_config_change_misses(self, tmp_path):
        db = diag(10)
        store = PatternStore(tmp_path / "store")
        a = mine_cached(store, "eclat", db, minsup=4)
        b = mine_cached(store, "eclat", db, minsup=5)
        assert not a.hit and not b.hit
        assert a.run_id != b.run_id

    def test_dataset_change_misses(self, tmp_path):
        store = PatternStore(tmp_path / "store")
        a = mine_cached(store, "eclat", diag(10), minsup=4)
        b = mine_cached(store, "eclat", diag(11), minsup=4)
        assert not a.hit and not b.hit

    def test_row_permutation_misses(self, tmp_path, quest_db):
        """A permuted copy mines its own pool: a hit would hand back
        tidsets that name the original row positions."""
        rows = list(quest_db.transactions)
        random.Random(0).shuffle(rows)
        permuted = TransactionDatabase(rows, n_items=quest_db.n_items)
        store = PatternStore(tmp_path / "store")
        cold = mine_cached(store, "closed", quest_db, minsup=6)
        warm = mine_cached(store, "closed", permuted, minsup=6)
        assert not cold.hit and not warm.hit
        assert warm.run_id != cold.run_id
        assert {p.items for p in warm.result.patterns} == {
            p.items for p in cold.result.patterns
        }
        assert all(
            permuted.tidset(p.items) == p.tidset for p in warm.result.patterns
        )

    def test_jobs_is_execution_not_identity(self, tmp_path):
        """Worker count never changes the pool, so it never splits the cache."""
        db = diag_plus()
        store = PatternStore(tmp_path / "store")
        knobs = dict(minsup=20, k=10, initial_pool_max_size=2, seed=3)
        cold = mine_cached(store, "pattern_fusion", db, jobs=1, **knobs)
        warm = mine_cached(store, "pattern_fusion", db, jobs=2, **knobs)
        assert not cold.hit and warm.hit
        assert warm.run_id == cold.run_id
        assert bits(warm.result.patterns) == bits(cold.result.patterns)
        assert len(store) == 1

    def test_deprecated_alias_keeps_its_run_ids(self, tmp_path):
        """The alias mines the pattern_fusion pool under its old name, so a
        run cached under it keeps an id of its own, which moves only with
        the pool."""
        with pytest.warns(DeprecationWarning):
            outcome = mine_cached(
                PatternStore(tmp_path / "store"), "parallel_pattern_fusion",
                diag_plus(), minsup=20, k=10, initial_pool_max_size=2, seed=0,
            )
        assert outcome.run_id == "1ce1b0ed8352a477"

    def test_identity_dict_excludes_only_execution_knobs(self):
        from repro.api import get_miner_spec

        config_type = get_miner_spec("pattern_fusion").config_type
        config = config_type(minsup=2, jobs=4)
        assert config.to_dict()["jobs"] == 4  # round trip keeps it
        assert "jobs" not in config.identity_dict()
        assert config.identity_dict()["minsup"] == 2

    def test_miner_instance_with_knobs_rejected(self, tmp_path):
        from repro.api import create_miner

        store = PatternStore(tmp_path / "store")
        miner = create_miner("eclat", minsup=4)
        with pytest.raises(ValueError, match="miner .name."):
            mine_cached(store, miner, diag(8), minsup=4)

    def test_miner_instance_accepted(self, tmp_path):
        from repro.api import create_miner

        store = PatternStore(tmp_path / "store")
        outcome = mine_cached(store, create_miner("eclat", minsup=4), diag(8))
        assert not outcome.hit
        warm = mine_cached(store, create_miner("eclat", minsup=4), diag(8))
        assert warm.hit


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_stats(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        assert cache.stats() == {
            "capacity": 4, "size": 1, "hits": 1, "misses": 1,
        }

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(-1)
