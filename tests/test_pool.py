"""Tests for the columnar pool (repro.core.pool) and the phase-1 miner that
fills it (repro.mining.levelwise.mine_pool).

Phase 1 must give Eclat's patterns in Eclat's depth-first order, because
Pattern-Fusion draws its seeds by pool index.  The pool's array methods
must answer what the list code they replace answered.
"""

from __future__ import annotations

import gc
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mining.levelwise as levelwise
from repro.core import PatternFusion, PatternFusionConfig, Pool
from repro.db import TransactionDatabase
from repro.mining.eclat import eclat
from repro.mining.levelwise import mine_pool, mine_up_to_size
from repro.mining.results import Pattern, largest_patterns


def keyed(patterns) -> list[tuple[frozenset[int], int]]:
    return [(p.items, p.tidset) for p in patterns]


@st.composite
def databases(draw):
    """Tidsets of one to three words, dense enough for deep levels."""
    n_transactions = draw(st.sampled_from([63, 64, 65, 128, 129]))
    n_items = draw(st.integers(1, 7))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [
        [item for item in range(n_items) if rng.random() < density]
        for _ in range(n_transactions)
    ]
    return TransactionDatabase(rows, n_items=n_items)


class TestPhaseOneAgreesWithEclat:
    @given(
        databases(),
        st.integers(1, 4),
        st.sampled_from(["one", "above", "third"]),
        st.sampled_from([None, 1, 2, 5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_patterns_in_the_same_order(self, db, max_size, which, budget):
        """Both phase-1 entry points equal Eclat, as ordered lists.

        ``budget`` patches the join-block budget down to a few words, so
        every level with more than a couple of pairs crosses blocks.
        """
        highest = max(db.item_matrix().popcounts(), default=0)
        minsup = {"one": 1, "above": highest + 1, "third": max(1, len(db) // 3)}[which]
        expected = keyed(eclat(db, minsup, max_size=max_size).patterns)
        with mock.patch.object(
            levelwise, "_BLOCK_WORDS", budget or levelwise._BLOCK_WORDS
        ):
            mined = mine_up_to_size(db, minsup, max_size).patterns
            config = PatternFusionConfig(initial_pool_max_size=max_size)
            pool = PatternFusion(db, minsup, config).mine_initial_pool()
        assert keyed(mined) == expected
        assert keyed(pool) == expected
        assert isinstance(pool, Pool)
        assert pool.supports.tolist() == [p.support for p in mined]
        assert pool.sizes.tolist() == [p.size for p in mined]
        if which == "above":
            assert expected == []

    def test_empty_database(self):
        pool = mine_pool(TransactionDatabase([], n_items=3), 1, 3)
        assert len(pool) == 0 and list(pool) == []

    def test_max_size_validated(self):
        with pytest.raises(ValueError, match="max_size"):
            mine_pool(TransactionDatabase([[0]]), 1, 0)


# Small universes and few distinct tidsets, so sizes and supports tie.
patterns = st.builds(
    lambda items, tidset: Pattern(items=frozenset(items), tidset=tidset),
    st.sets(st.integers(0, 6), min_size=1, max_size=5),
    st.sampled_from([0b1, 0b11, 0b101, 0b111, 1 << 70 | 0b11]),
)
pattern_lists = st.lists(patterns, max_size=30)


def old_size_signature(pool) -> tuple[tuple[int, int], ...]:
    histogram: dict[int, int] = {}
    for p in pool:
        histogram[p.size] = histogram.get(p.size, 0) + 1
    return tuple(sorted(histogram.items()))


class TestPoolAgainstListCode:
    @given(pattern_lists, st.integers(0, 35))
    @settings(max_examples=150, deadline=None)
    def test_largest_equals_largest_patterns(self, listed, k):
        pool = Pool.from_patterns(listed)
        assert keyed(pool.largest(k)) == keyed(largest_patterns(listed, k))
        assert keyed(pool.largest(k)) == keyed(largest_patterns(list(pool), k))

    @given(st.integers(1, 40), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_largest_on_a_mined_pool(self, k, max_size):
        db = TransactionDatabase(
            [[i for i in range(6) if (t >> i) & 1 or t % 3 == 0] for t in range(70)]
        )
        pool = mine_pool(db, 5, max_size)
        assert keyed(pool.largest(k)) == keyed(largest_patterns(list(pool), k))

    @given(pattern_lists.filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_sizes_and_signature(self, listed):
        pool = Pool.from_patterns(listed)
        assert pool.size_signature() == old_size_signature(listed)
        assert int(pool.sizes.min()) == min(p.size for p in listed)
        assert int(pool.sizes.max()) == max(p.size for p in listed)
        assert pool.supports.tolist() == [p.support for p in listed]

    @given(pattern_lists, pattern_lists, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_fixpoint_decision(self, first, second, rng):
        """``same_itemsets`` is the set comparison the loop made on lists,
        duplicates and reorderings included; ``shared_itemsets`` is the size
        of the intersection."""
        shuffled = list(first) + first[: len(first) // 2]
        rng.shuffle(shuffled)
        for other in (second, shuffled):
            want = {p.items for p in first} == {p.items for p in other}
            got = Pool.from_patterns(first).same_itemsets(Pool.from_patterns(other))
            assert got == want
            shared = {p.items for p in first} & {p.items for p in other}
            assert Pool.from_patterns(first).shared_itemsets(
                Pool.from_patterns(other)
            ) == len(shared)

    def test_fixpoint_across_pool_kinds(self):
        db = TransactionDatabase([[0, 1, 2], [0, 1], [1, 2], [0, 2, 3]])
        mined = mine_pool(db, 1, 3)
        listed = Pool.from_patterns(list(reversed(list(mined))))
        assert mined.same_itemsets(listed) and listed.same_itemsets(mined)
        assert not mined.same_itemsets(Pool.from_patterns(list(mined)[1:]))

    @given(pattern_lists)
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip(self, listed):
        """The spawn payload: arrays out, equal patterns back."""
        for pool in (Pool.from_patterns(listed), mine_pool(
            TransactionDatabase([[0, 1], [1, 2], [0, 1, 2]] * 30), 2, 3
        )):
            back = pickle.loads(pickle.dumps(pool))
            assert keyed(back) == keyed(pool)
            assert back.items.tolist() == pool.items.tolist()
            assert back.matrix.rows() == pool.matrix.rows()
            assert back.supports.tolist() == pool.supports.tolist()

    @given(pattern_lists)
    @settings(max_examples=50, deadline=None)
    def test_pickle_keeps_the_distinct_index(self, listed):
        """The index ships with the pool, and the copy takes it as it is:
        no worker builds it again."""
        from repro.kernels import TidsetMatrix

        for pool in (Pool.from_patterns(listed), mine_pool(
            TransactionDatabase([[0, 1], [1, 2], [0, 1, 2]] * 30), 2, 3
        )):
            data = pickle.dumps(pool)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(TidsetMatrix, "distinct", None)  # not callable
                back = pickle.loads(data)
                assert back.distinct.rows() == pool.distinct.rows()
                assert back.tidset_ids.tolist() == pool.tidset_ids.tolist()
                assert back.tidset_ids.dtype == pool.tidset_ids.dtype
            assert back.distinct.rows() == list(
                dict.fromkeys(p.tidset for p in pool)
            )

    def test_reads_like_a_list(self):
        db = TransactionDatabase([[0, 1, 2], [0, 1], [1, 2, 3], [0, 3]] * 20)
        pool = mine_pool(db, 1, 3)
        listed = list(pool)
        assert keyed(listed) == keyed(eclat(db, 1, max_size=3).patterns)
        assert len(pool) == len(listed)
        assert pool[0] == listed[0] and pool[-1] == listed[-1]
        assert pool[-1].tidset == listed[-1].tidset
        assert keyed(pool[2:5]) == keyed(listed[2:5])
        assert keyed(pool[::-3]) == keyed(listed[::-3])
        assert listed[3] in pool and pool.index(listed[3]) == 3
        assert keyed(pool.patterns_at([-1, 0, -len(pool)])) == keyed(
            [pool[-1], pool[0], pool[-len(pool)]]
        )
        with pytest.raises(IndexError):
            pool[len(pool)]
        for rows in ([len(pool)], [-len(pool) - 1]):
            with pytest.raises(IndexError):
                pool.patterns_at(rows)

    def test_from_patterns_keeps_the_given_objects(self):
        listed = [Pattern(items=frozenset([3, 1]), tidset=0b110)]
        pool = Pool.from_patterns(listed)
        assert pool[0] is listed[0] and next(iter(pool)) is listed[0]
        assert pool.items.tolist() == [[1, 3]]
        assert Pool.from_patterns(pool) is pool


class TestFusionLoop:
    def test_result_is_a_list_when_the_loop_never_runs(self, tiny_db):
        config = PatternFusionConfig(k=1000, initial_pool_max_size=2, seed=0)
        runner = PatternFusion(tiny_db, 2, config)
        for initial_pool in (None, runner.mine_initial_pool()):
            result = runner.run(initial_pool=initial_pool)
            assert result.iterations == 0
            assert type(result.patterns) is list
            assert all(type(p) is Pattern for p in result.patterns)
            assert keyed(result.patterns) == keyed(mine_up_to_size(tiny_db, 2, 2))

    def test_initial_pool_as_list_or_pool(self, quest_db):
        """Streaming hands a list, the figure runners a reused pool."""
        runner = PatternFusion(quest_db, 10, PatternFusionConfig(k=5, seed=3))
        pool = runner.mine_initial_pool()
        mined = runner.run()
        for initial_pool in (pool, list(pool), pool):
            result = runner.run(initial_pool=initial_pool)
            assert keyed(result.patterns) == keyed(mined.patterns)
            assert result.history == mined.history
            assert type(result.patterns) is list

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_distinct_index_built_once_per_round_in_the_driver(
        self, quest_db, jobs
    ):
        """Each round's pool builds its distinct-tidset index once, in the
        driver; the chunks take it with the pool, and the pools do not
        depend on the job count."""
        from repro.core import pattern_fusion
        from repro.kernels import TidsetMatrix

        builds = []
        distinct = TidsetMatrix.distinct

        def counted(matrix):
            builds.append(len(matrix))
            return distinct(matrix)

        config = PatternFusionConfig(k=5, seed=3)
        with mock.patch.object(TidsetMatrix, "distinct", counted):
            result = pattern_fusion(quest_db, 10, config, jobs=jobs)
        assert result.iterations > 0
        assert len(builds) == result.iterations
        assert builds[0] == result.initial_pool_size
        assert keyed(result.patterns) == keyed(
            pattern_fusion(quest_db, 10, config, jobs=1).patterns
        )


def test_phase_one_leaves_few_objects_for_the_collector():
    """A 20,100-pattern phase-1 pool adds arrays, not one object per pattern."""
    db = TransactionDatabase([list(range(200))] * 2)
    runner = PatternFusion(db, 1, PatternFusionConfig(initial_pool_max_size=2))
    runner.mine_initial_pool()  # imports and first-use caches
    gc.collect()
    before = len(gc.get_objects())
    pool = runner.mine_initial_pool()
    grown = len(gc.get_objects()) - before
    assert len(pool) >= 20_000
    assert grown < 1_000, grown


def test_phase_one_pool_matrix_is_one_counted_build():
    """The pool's word matrix is wrapped once and counted like any build."""
    from repro.obs import metrics

    db = TransactionDatabase([[0, 1, 2], [0, 1], [1, 2]] * 10)
    db.item_matrix()
    family = metrics.REGISTRY.get("repro_kernel_matrix_builds_total")
    before = sum(family.collect().values())
    mine_pool(db, 2, 3)
    assert sum(family.collect().values()) == before + 1
