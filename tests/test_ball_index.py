"""Tests for the pivot-based metric index (repro.core.ball_index)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ball_index import PatternBallIndex
from repro.core.distance import Ball, ball, balls
from repro.kernels import available_backends, use_backend
from repro.mining.results import Pattern

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
        index = PatternBallIndex(pool, n_pivots=4, rng=random.Random(0))
        expected = {p.items for p in ball(center, pool, radius)}
        got = {p.items for p in index.ball(center, radius)}
        assert got == expected

    def test_zero_pivots_degenerates_to_scan(self):
        pool = [Pattern(items=frozenset([i]), tidset=1 << i) for i in range(5)]
        index = PatternBallIndex(pool, n_pivots=0)
        center = pool[0]
        assert index.ball(center, 1.0) == pool

    def test_negative_radius_empty(self):
        pool = [Pattern(items=frozenset([1]), tidset=0b1)]
        index = PatternBallIndex(pool)
        assert index.ball(pool[0], -0.1) == []

    def test_empty_pool(self):
        index = PatternBallIndex([])
        center = Pattern(items=frozenset([1]), tidset=0b1)
        assert index.ball(center, 0.5) == []
        assert index.exclusion_rate(center, 0.5) == 0.0

    def test_invalid_pivots(self):
        with pytest.raises(ValueError):
            PatternBallIndex([], n_pivots=-1)


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
        index = PatternBallIndex(pool, n_pivots=4, rng=random.Random(0))
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
    def test_pivots_exclude_on_clustered_pools(self):
        """Two tight tidset clusters: pivots must exclude the far cluster."""
        rng = random.Random(0)
        near = [
            Pattern(items=frozenset([i]), tidset=0b1111_1111 ^ (1 << (i % 4)))
            for i in range(20)
        ]
        far = [
            Pattern(items=frozenset([100 + i]),
                    tidset=(0b1111_1111 << 40) ^ (1 << (40 + i % 4)))
            for i in range(20)
        ]
        pool = near + far
        index = PatternBallIndex(pool, n_pivots=6, rng=rng)
        rate = index.exclusion_rate(near[0], 0.3)
        assert rate >= 0.4  # at least the far cluster is pruned

    def test_query_results_sorted_subset_of_pool(self):
        pool = [Pattern(items=frozenset([i]), tidset=(1 << i) | 1) for i in range(12)]
        index = PatternBallIndex(pool, n_pivots=3, rng=random.Random(1))
        got = index.ball(pool[0], 0.6)
        assert all(p in pool for p in got)


class TestFusionIntegration:
    def test_index_and_brute_agree_end_to_end(self):
        """Pattern-Fusion results are identical with and without the index."""
        from repro.core import PatternFusionConfig, pattern_fusion
        from repro.datasets import diag

        db = diag(30)
        base = dict(k=20, initial_pool_max_size=2, seed=11)
        with_index = pattern_fusion(
            db, 15,
            PatternFusionConfig(**base, use_ball_index=True, ball_index_min_pool=0),
        )
        without = pattern_fusion(
            db, 15, PatternFusionConfig(**base, use_ball_index=False)
        )
        assert {p.items for p in with_index.patterns} == {
            p.items for p in without.patterns
        }


def brute_balls(centers, pool, radius):
    return [ball(center, pool, radius) for center in centers]


@pytest.mark.parametrize("backend", available_backends())
class TestBall:
    """``Ball`` answers: pool rows, read as the list of brute-force members."""

    @staticmethod
    def both_forms(pool, centers, radius, backend):
        with use_backend(backend):
            index = PatternBallIndex(pool, n_pivots=4, rng=random.Random(0))
            return [
                balls(centers, pool, radius),
                index.balls(centers, radius),
                [index.ball(center, radius) for center in centers],
            ]

    @given(pools, st.lists(tidsets, max_size=6),
           st.floats(min_value=-0.1, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_brute_force_per_center(
        self, backend, pool, center_masks, radius
    ):
        import numpy as np

        centers = [
            Pattern(items=frozenset([200 + i]), tidset=mask)
            for i, mask in enumerate(center_masks)
        ] + pool[:2]
        expected = brute_balls(centers, pool, radius)
        for answers in self.both_forms(pool, centers, radius, backend):
            assert len(answers) == len(centers)
            for got, want in zip(answers, expected):
                assert isinstance(got, Ball)
                assert got.rows.dtype == np.int64
                assert got.rows.tolist() == sorted(set(got.rows.tolist()))
                assert [pool[row] for row in got.rows.tolist()] == want
                assert got == want and list(got) == want
            assert answers == expected

    def test_reads_like_a_list(self, backend):
        pool = [
            Pattern(items=frozenset([i]), tidset=0b1111 ^ (1 << (i % 4)))
            for i in range(6)
        ] + [Pattern(items=frozenset([9]), tidset=1 << 20)]
        for answers in self.both_forms(pool, pool[:1], 0.5, backend):
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

    def test_empty_pools_and_centers(self, backend):
        pool = [Pattern(items=frozenset([1]), tidset=0b1)]
        center = Pattern(items=frozenset([2]), tidset=0b11)
        for answers in self.both_forms([], [center, center], 0.5, backend):
            assert answers == [[], []]
            assert all(len(got) == 0 and list(got) == [] for got in answers)
            assert answers[0][:] == [] and answers[1][1:] == []
        for answers in self.both_forms(pool, [], 0.5, backend):
            assert answers == []
        far = Pattern(items=frozenset([3]), tidset=0b100)
        for answers in self.both_forms(pool, [far], 0.5, backend):
            assert answers == [[]] and not answers[0]


def test_pivot_tables_built_on_first_read():
    """Under NumPy a round's queries never read the pivot distance tables;
    the stdlib branch and ``exclusion_rate`` build them once, lazily."""
    pool = [Pattern(items=frozenset([i]), tidset=(1 << i) | 1) for i in range(12)]
    for backend in available_backends():
        with use_backend(backend):
            index = PatternBallIndex(pool, n_pivots=3, rng=random.Random(1))
        assert "_tables" not in vars(index)
        index.balls(pool[:3], 0.6)
        assert ("_tables" in vars(index)) == (backend == "stdlib")
        index.exclusion_rate(pool[0], 0.6)
        assert len(vars(index)["_tables"]) == 3
