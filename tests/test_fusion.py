"""Unit tests for the fusion operator (repro.core.fusion)."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fusion import (
    FusionCandidate,
    GreedyBall,
    Slots,
    fuse_ball,
    pass_orders,
    weighted_sample_without_replacement,
)
from repro.core.distance import Ball
from repro.db import TransactionDatabase
from repro.core.pool import Pool
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
    """``fuse_ball`` equals the scalar pass, with and without a pool.

    Three ways to give the members: a list; a list with the pool and the
    members' rows; and, as a fusion round does, a ``Ball`` view with the
    pool, its row array and the seed's row.  Equal means the same patterns
    (items and tidsets) in the same order, and the RNG left in the same
    state.  Members that share a tidset share one row of the pool's
    distinct-tidset matrix; only the seed's own row is skipped.
    """
    import numpy as np

    ball = [pool[row] for row in ball_rows]
    oracle_rng = random.Random(rng_seed)
    expected = scalar_fuse_ball(
        db, seed, ball, tau, minsup, oracle_rng, trials, max_candidates,
        close_fused,
    )
    expected_key = [(p.items, p.tidset) for p in expected]
    packed = Pool.from_patterns(pool)
    rows = np.array(ball_rows, dtype=np.int64)
    seed_row = next(i for i, p in enumerate(pool) if p.items == seed.items)
    for members, extra in (
        (ball, {}),
        (ball, {"pool": packed, "rows": ball_rows}),
        (Ball(packed, rows), {"pool": packed, "rows": rows, "seed_row": seed_row}),
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
    """A random database, pool, seed, ball and fusion parameters.

    Items ``n_items + j`` (``j < twins``) occur exactly where item ``j``
    does, so itemsets that differ only by twins share a tidset; the seed
    may be given such a twin in the pool.  The rows may repeat up to three
    times, so tidsets span one or two words.
    """
    n_items = draw(st.integers(1, 8))
    twins = draw(st.integers(0, n_items))
    rows = draw(st.lists(
        st.lists(st.integers(0, n_items - 1), max_size=n_items),
        min_size=1, max_size=40,
    )) * draw(st.integers(1, 3))
    db = TransactionDatabase(
        [row + [n_items + j for j in row if j < twins] for row in rows],
        n_items=n_items + twins,
    )
    itemsets = draw(st.lists(
        st.frozensets(st.integers(0, n_items + twins - 1), min_size=1, max_size=3),
        min_size=1, max_size=25, unique=True,
    ))
    seed_items = itemsets[draw(st.integers(0, len(itemsets) - 1))]
    twin = frozenset(
        j + n_items if j < twins else j - n_items if j >= n_items else j
        for j in seed_items
    )
    if draw(st.booleans()) and twin not in itemsets:
        itemsets.insert(draw(st.integers(0, len(itemsets))), twin)
    pool = [make_pattern(db, items) for items in itemsets]
    seed = pool[itemsets.index(seed_items)]
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
    """A start tidset, ball tidsets (some supersets of it, some shared by
    several members), orders, τ, minsup."""
    full = (1 << draw(st.integers(1, 12))) - 1
    start = draw(st.integers(0, full))
    member = st.one_of(
        st.integers(0, full), st.integers(0, full).map(lambda bits: start | bits)
    )
    tidsets = draw(st.lists(member, max_size=20))
    if tidsets:
        for _ in range(draw(st.integers(0, 6))):
            tidsets.insert(
                draw(st.integers(0, len(tidsets))),
                draw(st.sampled_from(tidsets)),
            )
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
        pinned = [
            [0, 2, 9, 6, 5, 1, 3, 7, 4, 8], [3, 0, 5, 6, 2, 7, 4, 8, 1, 9],
        ]
        assert pass_orders(self.SEED, 10, 2).tolist() == pinned
        # A slot per member: the slots' order is the members'.
        slots = Slots(np.arange(10))
        assert pass_orders(self.SEED, 10, 2, slots).tolist() == pinned

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 65])
    def test_rows_are_permutations(self, n):
        orders = pass_orders(self.SEED, n, 4)
        assert orders.shape == (4, n)
        for order in orders.tolist():
            assert sorted(order) == list(range(n))

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 9), max_size=70),
        seed=st.integers(0, 2**64 - 1), trials=st.integers(0, 5),
    )
    def test_slot_orders_are_first_occurrences(self, ids, seed, trials):
        """A ball's slots are its distinct ids, ascending, with their
        members grouped; with them, row ``i`` lists each slot once, where
        its first member stands in member order ``i``."""
        import numpy as np

        slots = Slots(ids)
        assert slots.rows.tolist() == sorted(set(ids))
        assert slots.multiplicity.tolist() == [
            ids.count(row) for row in slots.rows.tolist()
        ]
        of_member = slots.of_member.tolist()
        assert [slots.rows[k] for k in of_member] == ids
        assert slots.grouped.tolist() == sorted(
            range(len(ids)), key=lambda i: (of_member[i], i)
        )
        assert slots.starts.tolist() == [
            sorted(of_member).index(k) for k in range(len(slots.rows))
        ]
        assert slots.at_slots(np.array(ids) * 3).tolist() == [
            3 * row for row in slots.rows.tolist()
        ]
        got = pass_orders(seed, len(ids), trials, slots)
        assert got.shape == (trials, len(slots.rows))
        for member_order, slot_order in zip(
            pass_orders(seed, len(ids), trials).tolist(), got.tolist()
        ):
            assert slot_order == list(
                dict.fromkeys(of_member[i] for i in member_order)
            )


@st.composite
def slot_cases(draw):
    """A seed tidset and a ball whose members repeat a few planted tidsets.

    Rows are one or two words wide, and the seed holds at most 24 bits.  A
    planted tidset is any tidset, a superset of the seed, or the seed with
    a few of its bits cleared and a few outside bits set: those are shrink
    candidates that can exclude one another, so which of two twins' slots
    comes first decides a pass.  The seed's own tidset is always planted
    and held by at least one member.  The distinct tidsets are rows of a
    matrix in any order, as in a pool's distinct matrix.
    """
    width = 64 * draw(st.sampled_from([1, 2]))
    full = (1 << width) - 1
    seed = sum(
        1 << b for b in set(draw(st.lists(st.integers(0, width - 1), max_size=24)))
    )
    inside = [b for b in range(width) if seed >> b & 1]
    outside = [b for b in range(width) if not seed >> b & 1]

    def bits(pool):
        return sum(1 << b for b in set(draw(st.lists(st.sampled_from(pool), max_size=3))))

    planted = [seed]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["any", "superset", "near", "near"]))
        if kind == "any":
            planted.append(draw(st.integers(0, full)))
        elif kind == "superset":
            planted.append(seed | draw(st.integers(0, full)))
        else:
            cleared = bits(inside) if inside else 0
            planted.append(seed & ~cleared | bits(outside))
    distinct = draw(st.permutations(list(dict.fromkeys(planted))))
    members = draw(st.lists(st.sampled_from(distinct), max_size=40))
    members.insert(draw(st.integers(0, len(members))), seed)
    return dict(
        seed=seed, distinct=distinct, members=members,
        tau=draw(st.floats(0.3, 1.0)),
        minsup=draw(st.integers(0, seed.bit_count() + 1)),
        orders_seed=draw(st.integers(0, 2**64 - 1)),
        trials=draw(st.integers(1, 8)),
    )


@on_kernel
class TestSlotWalks:
    """A pass over the slots, in first-occurrence order, is the pass over
    the members."""

    @settings(max_examples=300, deadline=None)
    @given(case=slot_cases())
    @example(case=dict(
        # Either near tidset shrinks T below the other's τ-floor, so
        # whichever slot comes first decides the pass; in each of these
        # orders one slot's first member precedes the other's, and its
        # last member follows it.
        seed=0b1111, distinct=[0b1011, 0b1111, 0b0111],
        members=[0b1111, 0b0111, 0b1011, 0b0111, 0b1011],
        tau=0.7, minsup=0, orders_seed=14, trials=4,
    ))
    def test_slot_walk_is_member_walk(self, case):
        """For each of the ``trials`` orders the scalar pass walks over the
        members, the slot walk over the same call's slot orders ends on the
        same tidset after the same shrinks, its accepted slots hold exactly
        the accepted members, and their multiplicities sum to the same
        ``n_fused``."""
        seed, members, tau, minsup = (
            case["seed"], case["members"], case["tau"], case["minsup"]
        )
        distinct = case["distinct"]
        n, trials = len(members), case["trials"]
        slots = Slots([distinct.index(m) for m in members])
        of_member = slots.of_member.tolist()
        multiplicity = slots.multiplicity
        ball = GreedyBall(
            TidsetMatrix.from_tidsets(distinct), tau, minsup, rows=slots.rows
        )
        member_orders = pass_orders(case["orders_seed"], n, trials)
        slot_orders = pass_orders(case["orders_seed"], n, trials, slots)
        for member_order, slot_order in zip(member_orders, slot_orders):
            final, accepted_members, shrinks = scalar_walk(
                members, member_order.tolist(), seed, seed.bit_count(), tau,
                minsup,
            )
            tidset, accepted, changes = ball.walk(
                slot_order, seed, seed.bit_count()
            )
            assert (tidset, changes) == (final, shrinks)
            taken = set(accepted.tolist())
            assert {i for i in range(n) if of_member[i] in taken} == set(
                accepted_members
            )
            assert 1 + int(multiplicity[accepted].sum()) == (
                1 + len(accepted_members)
            )

    @settings(max_examples=150, deadline=None)
    @given(case=fusion_cases())
    def test_span_counts_members(self, case):
        """``fuse_ball``'s ``accepted`` and ``tidset_changes`` are the
        scalar member passes' totals over the call's ``trials`` orders."""
        import numpy as np

        db, pool, seed = case["db"], case["pool"], case["seed"]
        rows = np.array(case["ball_rows"], dtype=np.int64)
        seed_row = pool.index(seed)
        others = [pool[row].tidset for row in rows.tolist() if row != seed_row]
        orders_seed = random.Random(case["rng_seed"]).getrandbits(64)
        outcomes = [
            scalar_walk(
                others, order, seed.tidset, seed.support, case["tau"],
                case["minsup"],
            )
            for order in pass_orders(
                orders_seed, len(others), case["trials"]
            ).tolist()
        ]
        packed = Pool.from_patterns(pool)
        _, attrs = fuse_traced(
            db, seed, Ball(packed, rows), tau=case["tau"],
            minsup=case["minsup"], rng=random.Random(case["rng_seed"]),
            trials=case["trials"], max_candidates=case["max_candidates"],
            close_fused=case["close_fused"], pool=packed, rows=rows,
            seed_row=seed_row,
        )
        assert attrs["accepted"] == sum(len(a) for _, a, _ in outcomes)
        assert attrs["tidset_changes"] == sum(c for _, _, c in outcomes)


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
        the scalar pass's, for several orders over one ball's cache: with a
        slot per member, walked in the member order; and with one slot per
        distinct tidset, walked in the order of each slot's first member,
        whose accepted slots are the scalar pass's accepted members' slots
        in order of their first accept, and whose members, taken in the
        member order, are the scalar pass's accepted members."""
        start, tidsets = case["start"], case["tidsets"]
        tau, minsup = case["tau"], case["minsup"]
        unique = list(dict.fromkeys(tidsets))
        slots = Slots([unique.index(t) for t in tidsets])
        of_member = slots.of_member.tolist()
        per_member = GreedyBall(TidsetMatrix.from_tidsets(tidsets), tau, minsup)
        per_slot = GreedyBall(
            TidsetMatrix.from_tidsets(unique), tau, minsup, rows=slots.rows
        )
        for order in case["orders"]:
            expected = scalar_walk(
                tidsets, order, start, start.bit_count(), tau, minsup
            )
            tidset, accepted, changes = per_member.walk(
                order, start, start.bit_count()
            )
            assert (tidset, accepted.tolist(), changes) == expected
            tidset, accepted, changes = per_slot.walk(
                list(dict.fromkeys(of_member[i] for i in order)),
                start, start.bit_count(),
            )
            final, members, shrinks = expected
            assert (tidset, changes) == (final, shrinks)
            assert accepted.tolist() == list(
                dict.fromkeys(of_member[i] for i in members)
            )
            taken = set(accepted.tolist())
            assert [i for i in order if of_member[i] in taken] == members

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

    def test_pool_and_rows_go_together(self, block_db):
        pool = pool_of_pairs(block_db, range(5))
        with pytest.raises(ValueError, match="together"):
            fuse_ball(
                block_db, pool[0], pool, tau=0.5, minsup=1,
                rng=random.Random(0), trials=1, max_candidates=1,
                close_fused=True, pool=Pool.from_patterns(pool),
            )
        with pytest.raises(ValueError, match="seed_row needs"):
            fuse_ball(
                block_db, pool[0], pool, tau=0.5, minsup=1,
                rng=random.Random(0), trials=1, max_candidates=1,
                close_fused=True, seed_row=0,
            )


def nonzero_words(tidset, n_words):
    """How many of ``tidset``'s first ``n_words`` 64-bit words are nonzero."""
    return sum(1 for w in range(n_words) if (tidset >> (64 * w)) & (2**64 - 1))


@st.composite
def shrink_chains(draw):
    """Members and a nested chain T0 ⊇ T1 ⊇ … of 1-, 2- or 5-word tidsets.

    Some members may share a tidset.  T0 may carry bits past the members'
    width (a seed wider than the ball).  Each step clears bits within one
    word, bits in every word, random bits, or ANDs in a member as a greedy
    shrink does.
    """
    n_words = draw(st.sampled_from([1, 2, 5]))
    full = (1 << (64 * n_words)) - 1
    word = st.integers(1, 2**64 - 1)
    members = draw(st.lists(st.integers(0, full), max_size=12))
    if members:
        members += draw(st.lists(st.sampled_from(members), max_size=4))
        members = draw(st.permutations(members))
    start = draw(st.one_of(st.just(full), st.integers(0, full)))
    if draw(st.booleans()):
        start |= draw(st.integers(1, 2**70)) << (64 * n_words)
    chain = [start]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["one_word", "every_word", "any", "member"]))
        if kind == "one_word":
            clear = draw(word) << (64 * draw(st.integers(0, n_words - 1)))
        elif kind == "every_word":
            clear = sum(draw(word) << (64 * w) for w in range(n_words))
        elif kind == "any":
            clear = draw(st.integers(0, full))
        else:
            clear = ~draw(st.sampled_from(members)) if members else 0
        chain.append(chain[-1] & ~clear)
    return n_words, members, chain


@on_kernel
class TestIncrementalLevels:
    """Levels from the ball query or from a parent are the counted ones."""

    @settings(max_examples=300, deadline=None)
    @given(case=shrink_chains(), lut=st.booleans())
    def test_derived_levels_are_intersection_counts(self, case, lut):
        """Along a nested chain each level, derived from its parent, is
        ``intersection_counts``; the derivation scans each slot once, over
        the nonzero words of the removed bits only.  The members sit one
        per slot, or share the slots of a distinct-tidset matrix: then a
        level holds one count per distinct tidset, and each member's count
        is its slot's.  ``lut`` counts with the pre-2.0 NumPy lookup
        table."""
        import numpy as np

        n_words, members, chain = case
        matrix = TidsetMatrix.from_tidsets(members, n_bits=64 * n_words)
        unique = list(dict.fromkeys(members))
        distinct = TidsetMatrix.from_tidsets(unique, n_bits=64 * n_words)
        slots = Slots([unique.index(m) for m in members])
        for ball, tidsets, of_member in (
            (GreedyBall(matrix, 0.5, 0), members, np.arange(len(members))),
            (GreedyBall(distinct, 0.5, 0, rows=slots.rows), unique,
             slots.of_member),
        ):
            with pytest.MonkeyPatch.context() as patch:
                if lut:
                    patch.delattr(np, "bitwise_count")
                self.assert_chain(
                    ball, matrix, n_words, tidsets, of_member, chain
                )
            assert ball.distinct == len(tidsets)

    @staticmethod
    def assert_chain(ball, matrix, n_words, tidsets, of_member, chain):
        """Each level holds one count per slot (tidset ``tidsets[k]``),
        and member ``i``'s count, ``intersection_counts`` over the
        members' ``matrix``, is the count of its slot ``of_member[i]``."""
        scanned = len(tidsets)
        got = ball.counts(chain[0])
        assert got.tolist() == [(chain[0] & t).bit_count() for t in tidsets]
        assert got[of_member].tolist() == (
            matrix.intersection_counts(chain[0]).tolist()
        )
        assert ball.counted_words == scanned * nonzero_words(chain[0], n_words)
        for parent, child in zip(chain, chain[1:]):
            before, known = ball.counted_words, ball.levels
            got = ball.counts(child, parent=parent)
            assert got.tolist() == [(child & t).bit_count() for t in tidsets]
            assert got[of_member].tolist() == (
                matrix.intersection_counts(child).tolist()
            )
            fresh = ball.levels - known
            assert ball.counted_words - before == fresh * scanned * (
                nonzero_words(parent ^ child, n_words)
            )

    @settings(max_examples=100, deadline=None)
    @given(case=shrink_chains())
    def test_any_counted_ancestor_is_a_parent(self, case):
        """A level derived from its chain's first tidset equals the one
        derived step by step."""
        n_words, members, chain = case
        matrix = TidsetMatrix.from_tidsets(members, n_bits=64 * n_words)
        direct = GreedyBall(matrix, 0.5, 0)
        direct.counts(chain[0])
        assert direct.counts(chain[-1], parent=chain[0]).tolist() == (
            matrix.intersection_counts(chain[-1]).tolist()
        )

    def test_seed_level_is_taken_as_given(self):
        """Counts handed in are the seed's level: nothing is counted for it,
        and a level no pass reaches is not one of ``levels``."""
        tidsets = [0b0111, 0b1110, 0b0011]
        matrix = TidsetMatrix.from_tidsets(tidsets)
        ball = GreedyBall(matrix, 0.5, 2)
        seed = 0b0111
        ball.seed_level(seed, [(seed & t).bit_count() for t in tidsets])
        ball.seed_level(0b1, [1, 0, 1])
        assert ball.levels == 0
        tidset, accepted, changes = ball.walk([0, 1, 2], seed, 3)
        assert (tidset, accepted.tolist(), changes) == scalar_walk(
            tidsets, [0, 1, 2], seed, 3, 0.5, 2
        )
        # The seed level was given; the one shrink (to 0b0110) was derived
        # over the one word where it differs from the seed.
        assert ball.levels == 2
        assert ball.counted_words == len(tidsets)


def fuse_traced(db, seed, members, **kwargs):
    """``fuse_ball`` inside a ``fuse_ball`` span: the result and the span's
    attributes."""
    from repro.obs import trace

    with trace.capture() as sink:
        with trace.span("fuse_ball"):
            fused = fuse_ball(db, seed, members, **kwargs)
    record, = [r for r in sink.drain() if r["name"] == "fuse_ball"]
    return [(p.items, p.tidset) for p in fused], record["attrs"]


@on_kernel
class TestSeedCountsFromTheBallQuery:
    @settings(max_examples=200, deadline=None)
    @given(case=fusion_cases())
    def test_same_result_and_spans_with_and_without(self, case):
        """Giving the seed's counts changes neither the pool nor the span's
        work counts, except that the seed's level is not counted again:
        one count per distinct member tidset over the seed's nonzero words.
        Without counts a reachable seed gathers every distinct member
        tidset; with them, none or all."""
        import numpy as np

        db, pool, seed = case["db"], case["pool"], case["seed"]
        rows = np.array(case["ball_rows"], dtype=np.int64)
        packed = Pool.from_patterns(pool)
        seed_row = pool.index(seed)
        counts = np.array(
            [(seed.tidset & pool[row].tidset).bit_count() for row in rows.tolist()],
            dtype=np.min_scalar_type(packed.matrix.n_bits),
        )
        kwargs = dict(
            tau=case["tau"], minsup=case["minsup"], trials=case["trials"],
            max_candidates=case["max_candidates"],
            close_fused=case["close_fused"], pool=packed, rows=rows,
            seed_row=seed_row,
        )
        members = Ball(packed, rows, counts)
        rng = random.Random(case["rng_seed"])
        plain, plain_attrs = fuse_traced(db, seed, members, rng=rng, **kwargs)
        rng_given = random.Random(case["rng_seed"])
        given_, given_attrs = fuse_traced(
            db, seed, members, rng=rng_given, counts=counts, **kwargs
        )
        assert given_ == plain
        assert rng_given.getstate() == rng.getstate()
        saved = given_attrs.pop("counted_words")
        spent = plain_attrs.pop("counted_words")
        gathered = given_attrs.pop("distinct")
        distinct = plain_attrs.pop("distinct")
        assert given_attrs == plain_attrs
        others = len({pool[row].tidset for row in rows.tolist() if row != seed_row})
        reached = seed.support >= case["minsup"]
        assert spent - saved == reached * others * nonzero_words(
            seed.tidset, packed.matrix.words.shape[1]
        )
        assert distinct == reached * others
        assert gathered in (0, distinct)
        # A pattern list, with its counts or without, gives the same pool
        # and the same work counts.
        # (The list's tidsets are packed only as wide as the widest member,
        # so its counted words may be fewer.)
        for given_counts, attrs, gathers in (
            (counts.tolist(), given_attrs, gathered), (None, plain_attrs, distinct)
        ):
            rng_list = random.Random(case["rng_seed"])
            listed, listed_attrs = fuse_traced(
                db, seed, list(members), rng=rng_list, counts=given_counts,
                **{k: v for k, v in kwargs.items()
                   if k not in ("pool", "rows", "seed_row")},
            )
            assert listed == plain
            listed_attrs.pop("counted_words")
            assert listed_attrs.pop("distinct") == gathers
            assert listed_attrs == attrs

    def test_counts_must_be_in_step(self, block_db):
        pool = pool_of_pairs(block_db, range(5))
        with pytest.raises(ValueError, match="in step"):
            fuse_ball(
                block_db, pool[0], pool, tau=0.5, minsup=1,
                rng=random.Random(0), trials=1, max_candidates=1,
                close_fused=True, counts=[1, 2],
            )


@st.composite
def settle_cases(draw):
    """A start tidset and ball tidsets whose counts often sit on τ·|start|.

    Besides random members and supersets of the start, a member may keep
    exactly ⌊τ·|start|⌋ or ⌈τ·|start|⌉ of the start's bits, plus any bits
    outside it, so at τ 0.5 on an even start its count is τ·C itself.
    """
    width = draw(st.integers(1, 12))
    full = (1 << width) - 1
    start = draw(st.integers(0, full))
    tau = draw(st.one_of(st.just(0.5), taus))
    bits = [b for b in range(width) if start >> b & 1]
    tidsets = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["any", "superset", "on_bar"]))
        if kind == "any":
            member = draw(st.integers(0, full))
        elif kind == "superset":
            member = start | draw(st.integers(0, full))
        else:
            target = tau * len(bits)
            keep = draw(st.sampled_from([math.floor(target), math.ceil(target)]))
            kept = draw(st.permutations(bits))[:keep]
            member = sum(1 << b for b in kept) | (
                draw(st.integers(0, full)) & ~start
            )
        tidsets.append(member)
    return dict(
        width=width, start=start, tidsets=tidsets, tau=tau,
        minsup=draw(st.integers(0, start.bit_count() + 1)),
    )


@on_kernel
class TestSettledBalls:
    """A settled ball's passes all end on the seed's tidset, so one
    outcome stands for all of them."""

    @settings(max_examples=400, deadline=None)
    @given(case=settle_cases(), orders_seed=st.integers(0, 2**64 - 1))
    def test_settled_from_its_definition(self, case, orders_seed):
        """Settled: every order ends on the start with no shrink, having
        accepted the returned members.  Not settled: some member, walked
        first, shrinks T."""
        start, tidsets, tau, minsup = (
            case["start"], case["tidsets"], case["tau"], case["minsup"]
        )
        n = len(tidsets)
        ball = GreedyBall(TidsetMatrix.from_tidsets(tidsets), tau, minsup)
        settled = ball.settled(start, start.bit_count())
        orders = pass_orders(orders_seed, n, 8).tolist() + [
            [i, *(j for j in range(n) if j != i)] for i in range(n)
        ]
        outcomes = [
            scalar_walk(tidsets, order, start, start.bit_count(), tau, minsup)
            for order in orders
        ]
        if settled is None:
            assert any(changes for _, _, changes in outcomes)
        else:
            for tidset, accepted, changes in outcomes:
                assert (tidset, changes) == (start, 0)
                assert sorted(accepted) == settled.tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        case=settle_cases(), rng_seed=st.integers(0, 2**32),
        trials=st.integers(1, 8), max_candidates=st.integers(0, 3),
        close_fused=st.booleans(), given_counts=st.booleans(),
    )
    def test_fuse_ball_as_if_walked(
        self, case, rng_seed, trials, max_candidates, close_fused,
        given_counts,
    ):
        """The patterns, the RNG left behind and every span attribute but
        ``settled`` equal those of the same call forced down the walk."""
        import numpy as np

        # Item 0 is the seed, item i + 1 the member with tidset i.
        tidsets = [case["start"], *case["tidsets"]]
        db = TransactionDatabase(
            [
                [item for item, tids in enumerate(tidsets) if tids >> row & 1]
                for row in range(case["width"])
            ],
            n_items=len(tidsets),
        )
        pool = [make_pattern(db, [item]) for item in range(len(tidsets))]
        rows = np.arange(len(pool))
        counts = np.array([(case["start"] & t).bit_count() for t in tidsets])
        kwargs = dict(
            tau=case["tau"], minsup=case["minsup"], trials=trials,
            max_candidates=max_candidates, close_fused=close_fused,
            pool=Pool.from_patterns(pool), rows=rows, seed_row=0,
        )
        if given_counts:
            kwargs["counts"] = counts

        def run():
            rng = random.Random(rng_seed)
            fused, attrs = fuse_traced(
                db, pool[0], Ball(pool, rows, counts), rng=rng, **kwargs
            )
            return fused, rng.getstate(), attrs

        fused, state, attrs = run()
        with pytest.MonkeyPatch.context() as patch:
            # No ball is settled: every call walks its passes.
            patch.setattr(GreedyBall, "settled", lambda *args: None)
            walk_fused, walk_state, walk_attrs = run()
        assert fused == walk_fused
        assert state == walk_state
        assert walk_attrs.pop("settled") == 0
        if attrs.pop("settled"):
            assert attrs["tidset_changes"] == 0 and len(fused) <= 1
        assert attrs == walk_attrs

    def test_settled_ball_copies_no_words(self, block_db, monkeypatch):
        """Every member of the seed's block is a superset of the seed: the
        ball is settled, and with the seed's counts given its words are
        never gathered."""
        import numpy as np

        from repro.core import fusion

        pool = pool_of_pairs(block_db, range(5))
        rows = np.arange(len(pool))
        counts = np.array([p.support for p in pool])

        def no_gather(*args):
            raise AssertionError("a settled ball gathered its words")

        monkeypatch.setattr(fusion, "_word_major", no_gather)
        fused, attrs = fuse_traced(
            block_db, pool[0], Ball(pool, rows, counts), tau=0.97, minsup=5,
            rng=random.Random(0), trials=8, max_candidates=2,
            close_fused=True, pool=Pool.from_patterns(pool),
            rows=rows, seed_row=0, counts=counts,
        )
        assert [items for items, _ in fused] == [frozenset(range(5))]
        assert attrs == {
            "tidset_changes": 0, "accepted": 8 * (len(pool) - 1), "levels": 1,
            "counted_words": 0, "distinct": 0, "closures": 1, "settled": 1,
        }
