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


class TestEffectiveness:
    def test_query_results_sorted_subset_of_pool(self):
        pool = [Pattern(items=frozenset([i]), tidset=(1 << i) | 1) for i in range(12)]
        index = PatternBallIndex(pool)
        got = index.ball(pool[0], 0.6)
        assert all(p in pool for p in got)


class TestFusionIntegration:
    def test_index_and_brute_agree_end_to_end(self):
        """The inert ball-index knobs leave Pattern-Fusion results alone."""
        from repro.core import PatternFusionConfig, pattern_fusion
        from repro.datasets import diag

        db = diag(30)
        base = dict(k=20, initial_pool_max_size=2, seed=11)
        runs = [
            pattern_fusion(db, 15, PatternFusionConfig(**base, **knobs))
            for knobs in (
                {},
                dict(use_ball_index=True, ball_index_min_pool=0),
                dict(use_ball_index=False, ball_index_pivots=0),
            )
        ]
        for run in runs[1:]:
            assert [(p.items, p.tidset) for p in run.patterns] == [
                (p.items, p.tidset) for p in runs[0].patterns
            ]
            assert run.history == runs[0].history


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

