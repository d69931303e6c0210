"""Property tests for the query layer and the inverted item index.

The contract: every composed query equals brute-force predicate filtering
followed by the canonical colossal ranking — the inverted index and the
packed-pool ball query only skip work, never change answers.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distance import tidset_distance
from repro.mining.results import Pattern, colossal_rank_key
from repro.store import InvertedItemIndex, Query, run_query

pools = st.lists(
    st.builds(
        Pattern,
        items=st.frozensets(st.integers(0, 12), min_size=1, max_size=6),
        tidset=st.integers(min_value=1, max_value=(1 << 40) - 1),
    ),
    max_size=25,
)
itemsets = st.sets(st.integers(0, 12), min_size=1, max_size=4)

#: Pool sizes around one and 32 machine words of position bits.
WIDE_POOL_SIZES = (63, 64, 65, 2047, 2048, 2049)


def wide_pool(size, seed):
    """``size`` random patterns over the items ``itemsets`` draws from."""
    rng = random.Random(seed)
    return [
        Pattern(
            items=frozenset(rng.sample(range(13), rng.randint(1, 6))),
            tidset=rng.randrange(1, 1 << 40),
        )
        for _ in range(size)
    ]


#: Small hypothesis pools, plus seeded pools of every wide size.
index_pools = st.one_of(
    pools,
    st.builds(wide_pool, st.sampled_from(WIDE_POOL_SIZES), st.integers(0, 2**32)),
)


def with_wide_pools(test):
    """Run ``test`` on one pool of every wide size, whatever hypothesis draws."""
    for size in WIDE_POOL_SIZES:
        test = example(wide_pool(size, size), {size % 13, 5})(test)
    return test


def brute(pool, query):
    """Reference semantics: plain predicate filtering + ranking + top-k."""
    matches = []
    for p in pool:
        if query.contains_any and not (set(query.contains_any) & p.items):
            continue
        if query.superset_of and not (set(query.superset_of) <= p.items):
            continue
        if p.support < query.min_support or p.size < query.min_size:
            continue
        if query.center is not None:
            anchor = next(
                q for q in pool if q.items == frozenset(query.center)
            )
            if tidset_distance(p.tidset, anchor.tidset) > query.radius:
                continue
        matches.append(p)
    matches.sort(key=colossal_rank_key)
    return matches if query.top is None else matches[: query.top]


class TestInvertedIndex:
    @settings(max_examples=60, deadline=None)
    @given(index_pools, itemsets)
    @with_wide_pools
    def test_containing_all_matches_subset_test(self, pool, items):
        index = InvertedItemIndex(pool)
        assert index.select(index.containing_all(items)) == [
            p for p in pool if items <= p.items
        ]

    @settings(max_examples=60, deadline=None)
    @given(index_pools, itemsets)
    @with_wide_pools
    def test_containing_any_matches_intersection_test(self, pool, items):
        index = InvertedItemIndex(pool)
        assert index.select(index.containing_any(items)) == [
            p for p in pool if items & p.items
        ]

    @settings(max_examples=30, deadline=None)
    @given(pools)
    def test_items_cover_pool(self, pool):
        index = InvertedItemIndex(pool)
        assert set(index.items()) == {i for p in pool for i in p.items}
        assert index.select(index.universe) == pool


class TestQueryOperators:
    @settings(max_examples=80, deadline=None)
    @given(
        pools,
        st.one_of(st.none(), itemsets),
        st.one_of(st.none(), itemsets),
        st.integers(0, 6),
        st.integers(0, 6),
        st.one_of(st.none(), st.integers(1, 5)),
    )
    def test_composed_query_equals_brute_force(
        self, pool, contains, superset, min_support, min_size, top
    ):
        query = Query()
        if contains is not None:
            query = query.contains(*contains)
        if superset is not None:
            query = query.superset(superset)
        query = query.support_at_least(min_support).size_at_least(min_size)
        if top is not None:
            query = query.limit(top)
        assert run_query(pool, query) == brute(pool, query)
        # A shared prebuilt index gives the same answers.
        index = InvertedItemIndex(pool)
        assert run_query(pool, query, index=index) == brute(pool, query)

    @settings(max_examples=60, deadline=None)
    @given(pools, st.floats(0.0, 1.0), st.data())
    def test_distance_ball_equals_brute_force(self, pool, radius, data):
        if not pool:
            return
        anchor = data.draw(st.sampled_from(pool))
        # Duplicate itemsets in the pool make the anchor ambiguous in the
        # brute force too; restrict to the first occurrence's semantics.
        query = Query().within(anchor.items, radius)
        assert run_query(pool, query) == brute(pool, query)

    def test_unknown_center_raises(self):
        pool = [Pattern(items=frozenset({1}), tidset=0b1)]
        with pytest.raises(KeyError, match="anchor"):
            run_query(pool, Query().within([9], 0.5))

    def test_results_ranked_most_colossal_first(self):
        pool = [
            Pattern(items=frozenset({1}), tidset=0b111),
            Pattern(items=frozenset({1, 2, 3}), tidset=0b1),
            Pattern(items=frozenset({4, 5}), tidset=0b11),
        ]
        sizes = [p.size for p in run_query(pool, Query())]
        assert sizes == [3, 2, 1]


class TestQueryWireFormat:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.none(), itemsets),
        st.one_of(st.none(), itemsets),
        st.integers(0, 9),
        st.integers(0, 9),
        st.one_of(st.none(), st.integers(1, 9)),
        st.one_of(
            st.none(),
            st.tuples(itemsets, st.floats(0, 1, allow_nan=False)),
        ),
    )
    def test_dict_roundtrip(
        self, contains, superset, min_support, min_size, top, ball
    ):
        query = Query(
            contains_any=tuple(sorted(contains)) if contains else (),
            superset_of=tuple(sorted(superset)) if superset else (),
            min_support=min_support,
            min_size=min_size,
            top=top,
            center=tuple(sorted(ball[0])) if ball else None,
            radius=ball[1] if ball else None,
        )
        assert Query.from_dict(query.to_dict()) == query

    def test_unknown_key_names_valid_ones(self):
        with pytest.raises(ValueError, match="valid keys"):
            Query.from_dict({"min_len": 3})

    def test_validation(self):
        with pytest.raises(ValueError, match="min_support"):
            Query(min_support=-1)
        with pytest.raises(ValueError, match="top"):
            Query(top=0)
        with pytest.raises(ValueError, match="together"):
            Query(center=(1,))
        with pytest.raises(ValueError, match="radius"):
            Query(center=(1,), radius=-0.5)

    def test_builders_accumulate(self):
        query = Query().contains(3).contains(1, 2).superset([5]).superset([4])
        assert query.contains_any == (1, 2, 3)
        assert query.superset_of == (4, 5)
        tightened = query.support_at_least(4).support_at_least(2)
        assert tightened.min_support == 4
