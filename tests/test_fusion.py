"""Unit tests for the fusion operator (repro.core.fusion)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fusion import (
    FusionCandidate,
    GreedyBall,
    fuse_ball,
    pass_orders,
    weighted_sample_without_replacement,
)
from repro.core.distance import Ball
from repro.db import TransactionDatabase
from repro.kernels import TidsetMatrix
from repro.mining.results import Pattern, make_pattern
from tests.conftest import on_kernel


@pytest.fixture
def block_db():
    """Two disjoint blocks: {0..4} in rows 0-9, {5..9} in rows 10-14."""
    rows = [[0, 1, 2, 3, 4]] * 10 + [[5, 6, 7, 8, 9]] * 5
    return TransactionDatabase(rows, n_items=10)


def pool_of_pairs(db, items):
    from itertools import combinations

    return [make_pattern(db, pair) for pair in combinations(items, 2)]


class TestFuseBall:
    def test_fuses_block_in_one_step(self, block_db):
        pool = pool_of_pairs(block_db, range(5))
        seed = pool[0]
        fused = fuse_ball(
            block_db, seed, pool, tau=0.5, minsup=5,
            rng=random.Random(0), trials=4, max_candidates=5, close_fused=True,
        )
        assert any(p.items == frozenset(range(5)) for p in fused)

    def test_respects_minsup(self, block_db):
        # Members from both blocks: their union has support 0 < minsup.
        pool = pool_of_pairs(block_db, range(5)) + pool_of_pairs(block_db, range(5, 10))
        seed = pool[0]
        fused = fuse_ball(
            block_db, seed, pool, tau=0.1, minsup=3,
            rng=random.Random(1), trials=6, max_candidates=10, close_fused=True,
        )
        for p in fused:
            assert p.support >= 3
            assert p.items <= frozenset(range(5))  # never crossed blocks

    def test_core_condition_binds(self, block_db):
        """With τ = 1 the fused pattern must keep every member's support."""
        pool = pool_of_pairs(block_db, range(5))
        low = make_pattern(block_db, [0, 5])  # support 0 — not in pool
        assert low.support == 0
        seed = pool[0]
        fused = fuse_ball(
            block_db, seed, pool, tau=1.0, minsup=1,
            rng=random.Random(2), trials=4, max_candidates=5, close_fused=False,
        )
        for p in fused:
            assert p.support == seed.support

    def test_result_contains_seed_items(self, block_db):
        pool = pool_of_pairs(block_db, range(5))
        seed = pool[3]
        fused = fuse_ball(
            block_db, seed, pool, tau=0.5, minsup=1,
            rng=random.Random(3), trials=2, max_candidates=5, close_fused=False,
        )
        for p in fused:
            assert seed.items <= p.items

    def test_closure_flag(self, block_db):
        # Without closure the fused pattern is the literal union; with
        # closure it extends to the whole block (same tidset).
        seed = make_pattern(block_db, [0, 1])
        fused_open = fuse_ball(
            block_db, seed, [seed], tau=0.5, minsup=1,
            rng=random.Random(4), trials=1, max_candidates=5, close_fused=False,
        )
        fused_closed = fuse_ball(
            block_db, seed, [seed], tau=0.5, minsup=1,
            rng=random.Random(4), trials=1, max_candidates=5, close_fused=True,
        )
        assert fused_open[0].items == frozenset([0, 1])
        assert fused_closed[0].items == frozenset(range(5))
        assert fused_open[0].tidset == fused_closed[0].tidset

    def test_max_candidates_cap(self, block_db):
        pool = pool_of_pairs(block_db, range(5))
        seed = pool[0]
        fused = fuse_ball(
            block_db, seed, pool, tau=0.5, minsup=1,
            rng=random.Random(5), trials=16, max_candidates=2, close_fused=False,
        )
        assert len(fused) <= 2

    def test_deterministic_given_rng(self, block_db):
        pool = pool_of_pairs(block_db, range(5))
        seed = pool[0]
        runs = [
            tuple(
                sorted(
                    p.sorted_items()
                    for p in fuse_ball(
                        block_db, seed, pool, tau=0.5, minsup=1,
                        rng=random.Random(99), trials=4, max_candidates=5,
                        close_fused=True,
                    )
                )
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestWeightedSampling:
    def _candidates(self, weights):
        return [
            FusionCandidate(
                pattern=Pattern(items=frozenset([i]), tidset=1), n_fused=w
            )
            for i, w in enumerate(weights)
        ]

    def test_returns_all_when_k_large(self):
        candidates = self._candidates([1, 2, 3])
        got = weighted_sample_without_replacement(
            candidates, [1, 2, 3], k=5, rng=random.Random(0)
        )
        assert got == candidates

    def test_sample_size(self):
        candidates = self._candidates([1] * 10)
        got = weighted_sample_without_replacement(
            candidates, [1.0] * 10, k=4, rng=random.Random(0)
        )
        assert len(got) == 4
        assert len({id(c) for c in got}) == 4  # without replacement

    def test_weights_bias_selection(self):
        candidates = self._candidates([1, 1000])
        hits = 0
        for trial in range(200):
            got = weighted_sample_without_replacement(
                candidates, [1.0, 1000.0], k=1, rng=random.Random(trial)
            )
            hits += got[0] is candidates[1]
        assert hits > 180  # heavy candidate wins almost always

    def test_validation(self):
        candidates = self._candidates([1, 2])
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(candidates, [1.0], 1, random.Random(0))
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(
                candidates, [1.0, 0.0], 1, random.Random(0)
            )
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(
                candidates, [1.0, 1.0], -1, random.Random(0)
            )


def scalar_walk(tidsets, order, tidset, ceiling, tau, minsup):
    """The oracle pass: AND every member into the running tidset in order.

    A member is accepted when the result stays frequent and at least τ
    times every accepted member's support.  Returns the final tidset, the
    accepted members in order and how many accepts shrank the tidset.
    """
    accepted = []
    changes = 0
    for index in order:
        member = tidsets[index]
        merged = tidset & member
        support = merged.bit_count()
        if support < minsup:
            continue
        new_ceiling = max(ceiling, member.bit_count())
        if support < tau * new_ceiling:
            continue
        changes += merged != tidset
        tidset = merged
        ceiling = new_ceiling
        accepted.append(index)
    return tidset, accepted, changes


def scalar_fuse_ball(
    db, seed, ball_members, tau, minsup, rng, trials, max_candidates, close_fused
):
    """The oracle: ``fuse_ball`` with the scalar greedy pass, on the same
    pass orders and the same RNG draws."""
    others = [p for p in ball_members if p.items != seed.items]
    tidsets = [p.tidset for p in others]
    best_by_items = {}
    for order in pass_orders(rng.getrandbits(64), len(others), trials):
        tidset, accepted, _ = scalar_walk(
            tidsets, order.tolist(), seed.tidset, seed.support, tau, minsup
        )
        if close_fused:
            items = db.closure_of_tidset(tidset)
        else:
            items = seed.items.union(*(others[i].items for i in accepted))
        candidate = FusionCandidate(
            pattern=Pattern(items=items, tidset=tidset), n_fused=1 + len(accepted)
        )
        existing = best_by_items.get(items)
        if existing is None or candidate.n_fused > existing.n_fused:
            best_by_items[items] = candidate
    candidates = list(best_by_items.values())
    if len(candidates) > max_candidates:
        candidates = weighted_sample_without_replacement(
            candidates, [c.n_fused for c in candidates], max_candidates, rng
        )
    return [c.pattern for c in candidates]


def assert_matches_oracle(
    db, pool, seed, ball_rows, tau, minsup, rng_seed, trials, max_candidates,
    close_fused,
):
    """``fuse_ball`` equals the scalar pass, with and without a pool matrix.

    Three ways to give the members: a list; a list with the pool matrix and
    the members' rows; and, as a fusion round does, a ``Ball`` view with
    the pool matrix, its row array and the seed's row.  Equal means the
    same patterns (items and tidsets) in the same order, and the RNG left
    in the same state.
    """
    import numpy as np

    ball = [pool[row] for row in ball_rows]
    oracle_rng = random.Random(rng_seed)
    expected = scalar_fuse_ball(
        db, seed, ball, tau, minsup, oracle_rng, trials, max_candidates,
        close_fused,
    )
    expected_key = [(p.items, p.tidset) for p in expected]
    matrix = TidsetMatrix.from_patterns(pool)
    rows = np.array(ball_rows, dtype=np.int64)
    seed_row = next(i for i, p in enumerate(pool) if p.items == seed.items)
    for members, extra in (
        (ball, {}),
        (ball, {"matrix": matrix, "rows": ball_rows}),
        (Ball(pool, rows), {"matrix": matrix, "rows": rows, "seed_row": seed_row}),
    ):
        rng = random.Random(rng_seed)
        got = fuse_ball(
            db, seed, members, tau=tau, minsup=minsup, rng=rng, trials=trials,
            max_candidates=max_candidates, close_fused=close_fused, **extra,
        )
        assert [(p.items, p.tidset) for p in got] == expected_key
        assert rng.getstate() == oracle_rng.getstate()


taus = st.one_of(
    st.just(1.0), st.sampled_from([0.5, 0.9, 0.97]),
    st.floats(0.01, 1.0, allow_nan=False),
)


@st.composite
def fusion_cases(draw):
    """A random database, pool, seed, ball and fusion parameters."""
    n_items = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.lists(st.integers(0, n_items - 1), max_size=n_items),
        min_size=1, max_size=40,
    ))
    db = TransactionDatabase(rows, n_items=n_items)
    itemsets = draw(st.lists(
        st.frozensets(st.integers(0, n_items - 1), min_size=1, max_size=3),
        min_size=1, max_size=25, unique=True,
    ))
    pool = [make_pattern(db, items) for items in itemsets]
    seed_row = draw(st.integers(0, len(pool) - 1))
    seed = pool[seed_row]
    ball_rows = draw(st.lists(
        st.integers(0, len(pool) - 1), max_size=len(pool), unique=True
    ))
    minsup = draw(st.one_of(
        st.just(seed.support), st.integers(0, seed.support + 1)
    ))
    return dict(
        db=db, pool=pool, seed=seed, ball_rows=ball_rows, tau=draw(taus),
        minsup=minsup, rng_seed=draw(st.integers(0, 2**32)),
        trials=draw(st.integers(1, 5)), max_candidates=draw(st.integers(1, 3)),
        close_fused=draw(st.booleans()),
    )


@st.composite
def walk_cases(draw):
    """A start tidset, ball tidsets (some supersets of it), orders, τ, minsup."""
    full = (1 << draw(st.integers(1, 12))) - 1
    start = draw(st.integers(0, full))
    member = st.one_of(
        st.integers(0, full), st.integers(0, full).map(lambda bits: start | bits)
    )
    tidsets = draw(st.lists(member, max_size=20))
    orders = draw(st.lists(st.permutations(range(len(tidsets))), min_size=1,
                           max_size=3))
    return dict(
        tidsets=tidsets, orders=orders, start=start, tau=draw(taus),
        minsup=draw(st.integers(0, start.bit_count() + 1)),
    )


class TestPassOrders:
    SEED = 0x9E3779B97F4A7C15

    def test_pinned(self):
        """The raw PCG64 stream and the orders drawn from it do not move.

        If NumPy ever changed either, every pool would move with it; the
        raw draws fail here first.
        """
        import numpy as np

        assert np.random.PCG64(self.SEED).random_raw(3).tolist() == [
            423636498037070414, 6548307978105082964, 1970935312655064746,
        ]
        assert pass_orders(self.SEED, 10, 2).tolist() == [
            [0, 2, 9, 6, 5, 1, 3, 7, 4, 8], [3, 0, 5, 6, 2, 7, 4, 8, 1, 9],
        ]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 65])
    def test_rows_are_permutations(self, n):
        orders = pass_orders(self.SEED, n, 4)
        assert orders.shape == (4, n)
        for order in orders.tolist():
            assert sorted(order) == list(range(n))


@on_kernel
class TestCountWalkMatchesScalarPass:
    """The vector walk is the scalar greedy pass, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=fusion_cases())
    def test_random_balls(self, case):
        assert_matches_oracle(**case)

    @settings(max_examples=300, deadline=None)
    @given(case=walk_cases())
    def test_walk_on_explicit_orders(self, case):
        """Final tidset, accepted members in order and change count equal
        the scalar pass's, for several orders over one ball's cache."""
        start, tidsets = case["start"], case["tidsets"]
        ball = GreedyBall(
            TidsetMatrix.from_tidsets(tidsets), case["tau"], case["minsup"]
        )
        for order in case["orders"]:
            tidset, accepted, changes = ball.walk(
                order, start, start.bit_count()
            )
            assert (tidset, accepted.tolist(), changes) == scalar_walk(
                tidsets, order, start, start.bit_count(), case["tau"],
                case["minsup"],
            )

    @pytest.mark.parametrize("close_fused", [True, False])
    @pytest.mark.parametrize("ball", ["empty", "seed_only", "whole_pool"])
    @pytest.mark.parametrize("tau", [0.3, 1.0])
    def test_edge_balls(self, block_db, close_fused, ball, tau):
        pool = pool_of_pairs(block_db, range(5)) + pool_of_pairs(
            block_db, range(4, 8)
        )
        ball_rows = {
            "empty": [], "seed_only": [0], "whole_pool": list(range(len(pool)))
        }[ball]
        for minsup in (0, 1, pool[0].support, pool[0].support + 1):
            assert_matches_oracle(
                block_db, pool, pool[0], ball_rows, tau, minsup, rng_seed=7,
                trials=4, max_candidates=2, close_fused=close_fused,
            )

    @staticmethod
    def boundary_pool():
        """A pool of single items whose counts land exactly on τ·s and τ·C.

        The seed {0} occurs in rows 0-5.  Item 1 (rows 0-9) contains it and
        raises the ceiling from 6 to 10; item 2 (rows 0-3 and 10-13) has
        count 4 = 0.5·8, so it shrinks T if it comes before item 1 and is
        rejected after it.  Item 5 (rows 0-4 and 20-22) has count 5, which
        is exactly 0.5·10 once item 1 is in.  Item 3 (support 12) sits
        exactly on its own floor, 6 = 0.5·12; item 4 (support 14) is a
        superset below it.  Once item 2 has shrunk T to rows 0-3 (C = 8),
        item 6 (rows 0-3, 23, 24) is a superset of T with support 6 < C,
        and item 7 (rows 0-2, 25, 26; support 5) has count 3: it passes
        0.5·6 but not 0.5·C = 4, so only a ceiling floored at C rejects it.
        """
        rows = [set() for _ in range(27)]
        spans = {
            0: range(6), 1: range(10), 2: [*range(4), *range(10, 14)],
            3: [*range(6), *range(14, 20)], 4: [*range(6), *range(12, 20)],
            5: [*range(5), *range(20, 23)], 6: [*range(4), 23, 24],
            7: [*range(3), 25, 26],
        }
        for item, tids in spans.items():
            for tid in tids:
                rows[tid].add(item)
        db = TransactionDatabase([sorted(row) for row in rows], n_items=8)
        return db, [make_pattern(db, [item]) for item in range(8)]

    @pytest.mark.parametrize("close_fused", [True, False])
    @pytest.mark.parametrize("minsup", [1, 3, 4, 5, 6])
    def test_thresholds_hit_exactly(self, close_fused, minsup):
        """The boundary pool's counts, in the orders of 12 RNG seeds."""
        db, pool = self.boundary_pool()
        for rng_seed in range(12):
            assert_matches_oracle(
                db, pool, pool[0], list(range(8)), 0.5, minsup, rng_seed,
                trials=3, max_candidates=3, close_fused=close_fused,
            )

    @pytest.mark.parametrize("minsup", [1, 3])
    @pytest.mark.parametrize("order", [
        [2, 6, 7, 1, 3, 4, 5], [2, 7, 6, 1, 3, 4, 5], [7, 1, 2, 6, 3, 4, 5],
        [1, 2, 3, 4, 5, 6, 7], [6, 2, 7, 5, 4, 3, 1],
    ])
    def test_boundary_walks(self, minsup, order):
        """Hand-picked orders over the boundary pool, item 7 after item 6
        on the shrunk T among them."""
        _, pool = self.boundary_pool()
        tidsets = [p.tidset for p in pool[1:]]
        ball = GreedyBall(
            TidsetMatrix.from_tidsets(tidsets), 0.5, minsup
        )
        positions = [item - 1 for item in order]
        seed = pool[0]
        tidset, accepted, changes = ball.walk(
            positions, seed.tidset, seed.support
        )
        assert (tidset, accepted.tolist(), changes) == scalar_walk(
            tidsets, positions, seed.tidset, seed.support, 0.5, minsup
        )

    def test_matrix_and_rows_go_together(self, block_db):
        pool = pool_of_pairs(block_db, range(5))
        matrix = TidsetMatrix.from_patterns(pool)
        with pytest.raises(ValueError, match="together"):
            fuse_ball(
                block_db, pool[0], pool, tau=0.5, minsup=1,
                rng=random.Random(0), trials=1, max_candidates=1,
                close_fused=True, matrix=matrix,
            )
        with pytest.raises(ValueError, match="seed_row needs"):
            fuse_ball(
                block_db, pool[0], pool, tau=0.5, minsup=1,
                rng=random.Random(0), trials=1, max_candidates=1,
                close_fused=True, seed_row=0,
            )
