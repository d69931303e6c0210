"""Tests for the pool-matrix ball index (repro.core.ball_index)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ball_index import PatternBallIndex
from repro.core.distance import Ball, ball, balls
from repro.mining.results import Pattern
from tests.conftest import on_kernel

tidsets = st.integers(min_value=0, max_value=2**20 - 1)
pools = st.lists(tidsets, min_size=1, max_size=40).map(
    lambda masks: [
        Pattern(items=frozenset([i]), tidset=mask) for i, mask in enumerate(masks)
    ]
)


class TestCorrectness:
    @given(pools, tidsets, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=120, deadline=None)
    def test_equals_brute_force(self, pool, center_mask, radius):
        """Index queries must return exactly the brute-force ball."""
        center = Pattern(items=frozenset([99]), tidset=center_mask)
        index = PatternBallIndex(pool)
        expected = {p.items for p in ball(center, pool, radius)}
        got = {p.items for p in index.ball(center, radius)}
        assert got == expected

    def test_negative_radius_empty(self):
        pool = [Pattern(items=frozenset([1]), tidset=0b1)]
        index = PatternBallIndex(pool)
        assert index.ball(pool[0], -0.1) == []

    def test_empty_pool(self):
        index = PatternBallIndex([])
        center = Pattern(items=frozenset([1]), tidset=0b1)
        assert index.ball(center, 0.5) == []


class TestBatchedBalls:
    """The bulk ``balls`` APIs must equal per-center queries exactly."""

    @given(pools, st.lists(tidsets, min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_index_balls_equal_per_center(self, pool, center_masks, radius):
        centers = [
            Pattern(items=frozenset([200 + i]), tidset=mask)
            for i, mask in enumerate(center_masks)
        ]
        index = PatternBallIndex(pool)
        batched = index.balls(centers, radius)
        assert len(batched) == len(centers)
        for center, members in zip(centers, batched):
            assert members == index.ball(center, radius)
            assert members == ball(center, pool, radius)

    @given(pools, st.lists(tidsets, min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_brute_balls_equal_per_center(self, pool, center_masks, radius):
        centers = [
            Pattern(items=frozenset([200 + i]), tidset=mask)
            for i, mask in enumerate(center_masks)
        ]
        batched = balls(centers, pool, radius)
        assert batched == [ball(center, pool, radius) for center in centers]

    def test_negative_radius_all_empty(self):
        pool = [Pattern(items=frozenset([1]), tidset=0b1)]
        index = PatternBallIndex(pool)
        assert index.balls(pool, -0.5) == [[]]
        assert balls(pool, pool, -0.5) == [[]]

    def test_no_centers(self):
        pool = [Pattern(items=frozenset([1]), tidset=0b1)]
        assert PatternBallIndex(pool).balls([], 0.5) == []
        assert balls([], pool, 0.5) == []


@st.composite
def pools_with_twins(draw):
    """Pools in which several patterns share a tidset on purpose: 1-word
    or multi-word tidsets, the empty tidset among them at times."""
    width = draw(st.sampled_from([20, 130]))
    tidset = st.one_of(st.just(0), st.integers(0, (1 << width) - 1))
    masks = draw(st.lists(tidset, min_size=1, max_size=12))
    masks += draw(st.lists(st.sampled_from(masks), min_size=1, max_size=20))
    masks = draw(st.permutations(masks))
    pool = [Pattern(items=frozenset([i]), tidset=m) for i, m in enumerate(masks)]
    centers = [
        Pattern(items=frozenset([500 + i]), tidset=m)
        for i, m in enumerate(draw(st.lists(tidset, max_size=4)))
    ] + draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return pool, centers


@on_kernel
class TestDistinctTidsets:
    """Balls scan each distinct tidset once and answer every pool row that
    holds a hit, with its count: the brute-force ball, row for row."""

    @given(pools_with_twins(), st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
        st.floats(min_value=0.0, max_value=1.0),
    ))
    @settings(max_examples=150, deadline=None)
    def test_rows_and_counts_equal_brute_force(self, case, radius):
        from repro.core.pool import Pool

        pool, centers = case
        packed = Pool.from_patterns(pool)
        assert len(packed.distinct) == len({p.tidset for p in pool}) < len(pool)
        expected = brute_balls(centers, pool, radius)
        for answers in (balls(centers, packed, radius),
                        PatternBallIndex(packed).balls(centers, radius)):
            for center, got, want in zip(centers, answers, expected):
                assert [pool[row] for row in got.rows.tolist()] == want
                assert got.rows.tolist() == sorted(got.rows.tolist())
                assert got.counts.tolist() == [
                    (center.tidset & member.tidset).bit_count() for member in want
                ]

    def test_radius_zero_answers_every_twin(self):
        pool = [
            Pattern(items=frozenset([i]), tidset=t)
            for i, t in enumerate([0b011, 0b110, 0b011, 0, 0b011, 0])
        ]
        got, empty = balls([pool[2], pool[3]], pool, 0.0)
        assert got.rows.tolist() == [0, 2, 4] and got.counts.tolist() == [2, 2, 2]
        assert empty.rows.tolist() == [3, 5] and empty.counts.tolist() == [0, 0]


class TestEffectiveness:
    def test_query_results_sorted_subset_of_pool(self):
        pool = [Pattern(items=frozenset([i]), tidset=(1 << i) | 1) for i in range(12)]
        index = PatternBallIndex(pool)
        got = index.ball(pool[0], 0.6)
        assert all(p in pool for p in got)


def brute_balls(centers, pool, radius):
    return [ball(center, pool, radius) for center in centers]


@on_kernel
class TestBall:
    """``Ball`` answers: pool rows, read as the list of brute-force members."""

    @staticmethod
    def both_forms(pool, centers, radius):
        index = PatternBallIndex(pool)
        return [
                balls(centers, pool, radius),
                index.balls(centers, radius),
                [index.ball(center, radius) for center in centers],
            ]

    @given(pools, st.lists(tidsets, max_size=6),
           st.floats(min_value=-0.1, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_brute_force_per_center(self, pool, center_masks, radius):
        import numpy as np

        centers = [
            Pattern(items=frozenset([200 + i]), tidset=mask)
            for i, mask in enumerate(center_masks)
        ] + pool[:2]
        expected = brute_balls(centers, pool, radius)
        for answers in self.both_forms(pool, centers, radius):
            assert len(answers) == len(centers)
            for got, want in zip(answers, expected):
                assert isinstance(got, Ball)
                assert got.rows.dtype == np.int64
                assert got.rows.tolist() == sorted(set(got.rows.tolist()))
                assert [pool[row] for row in got.rows.tolist()] == want
                assert got == want and list(got) == want
            assert answers == expected

    @given(st.sampled_from([1, 2, 5]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_are_center_intersections(self, n_words, data):
        """A ball carries ``(center & member).bit_count()`` per member, in
        the narrowest unsigned dtype that holds the pool's width; slices
        keep rows and counts in step.  Centers may be wider than the pool."""
        import numpy as np

        full = (1 << (64 * n_words)) - 1
        masks = data.draw(st.lists(st.integers(0, full), max_size=15))
        pool = [Pattern(items=frozenset([i]), tidset=m) for i, m in enumerate(masks)]
        wide = st.integers(0, full).map(
            lambda low: low | (1 << (64 * n_words + 3))
        )
        centers = [
            Pattern(items=frozenset([100 + i]), tidset=m)
            for i, m in enumerate(data.draw(st.lists(
                st.one_of(st.integers(0, full), wide), max_size=5
            )))
        ] + pool[:2]
        radius = data.draw(st.sampled_from([0.2, 0.5, 0.9, 1.0]))
        for answers in self.both_forms(pool, centers, radius):
            for center, got in zip(centers, answers):
                assert got.counts.dtype == np.min_scalar_type(
                    max((m.bit_length() for m in masks), default=0)
                )
                assert got.counts.tolist() == [
                    (center.tidset & member.tidset).bit_count() for member in got
                ]
                assert got[1:].counts.tolist() == got.counts[1:].tolist()

    def test_reads_like_a_list(self):
        pool = [
            Pattern(items=frozenset([i]), tidset=0b1111 ^ (1 << (i % 4)))
            for i in range(6)
        ] + [Pattern(items=frozenset([9]), tidset=1 << 20)]
        for answers in self.both_forms(pool, pool[:1], 0.5):
            got = answers[0]
            want = ball(pool[0], pool, 0.5)
            assert len(want) == 6
            assert len(got) == len(want)
            assert [got[i] for i in range(len(got))] == want
            assert got[-1] == want[-1] and got[-len(want)] == want[0]
            for cut in (slice(None), slice(1, None), slice(None, 0),
                        slice(None, None, -1), slice(1, 5, 2), slice(-2, None)):
                assert isinstance(got[cut], Ball)
                assert got[cut] == want[cut]
                assert len(got[cut]) == len(want[cut])
            with pytest.raises(IndexError):
                got[len(want)]
            assert pool[1] in got and pool[6] not in got
            assert got.index(pool[2]) == want.index(pool[2])
            assert got.count(pool[3]) == 1
            assert list(reversed(got)) == want[::-1]
            assert got != tuple(want) and got != want[1:]
            with pytest.raises(TypeError):
                hash(got)

    def test_empty_pools_and_centers(self):
        pool = [Pattern(items=frozenset([1]), tidset=0b1)]
        center = Pattern(items=frozenset([2]), tidset=0b11)
        for answers in self.both_forms([], [center, center], 0.5):
            assert answers == [[], []]
            assert all(len(got) == 0 and list(got) == [] for got in answers)
            assert answers[0][:] == [] and answers[1][1:] == []
        for answers in self.both_forms(pool, [], 0.5):
            assert answers == []
        far = Pattern(items=frozenset([3]), tidset=0b100)
        for answers in self.both_forms(pool, [far], 0.5):
            assert answers == [[]] and not answers[0]

