"""The fusion operator: merge a seed's CoreList into super-patterns.

Section 4 of the paper specifies ``Fusion(α.CoreList)`` as generating
super-patterns β_i such that, for some subset ``t_βi ⊆ α.CoreList``, every
pattern in ``{α} ∪ t_βi`` is a τ-core pattern of β_i — and, when too many β_i
arise, keeping a sample *weighted by |t_βi|* so that candidates backed by
more core patterns survive preferentially (they are the ones on paths toward
colossal patterns).

The construction of each β_i here is a randomized greedy pass: walk the ball
in random order, union in every member that keeps the running fusion (a)
frequent and (b) a pattern all accepted members are τ-core patterns of.  The
pass is repeated ``trials`` times with different orders; distinct outcomes
become the candidate β_i set.  The orders come from a NumPy ``PCG64`` bit
generator seeded by one 64-bit draw from the caller's RNG
(:func:`pass_orders`).

A pass is a NumPy scan over cached intersection counts (:class:`GreedyBall`).
Let T be the running tidset, starting at the seed's, and C the ceiling: the
largest support accepted so far, starting at the seed's.  A member with
support s and count c = |T ∩ D_m| is accepted iff ``c ≥ minsup`` and
``not c < τ·max(C, s)``; then T becomes T ∩ D_m and C becomes max(C, s).

* **Superset members** (c = |T|) leave T as it is, and for them the ceiling
  drops out: the member is accepted iff ``not |T| < τ·s``.  That rests on
  the invariant ``τ·C ≤ |T|``, which holds *in floats* at every step.  It
  holds at the start because τ ≤ 1, and every accept re-establishes it,
  because float rounding is monotone: ``fl(τ·max(C, s)) = max(fl(τ·C),
  fl(τ·s))``.  Most accepts are of this kind.
* **Other members** shrink T when they pass.  That is rare — about twice a
  pass on Replace-sim, never on ALL-sim at minsup 27 — so the counts of
  every member against each distinct T (a *level*) are kept once per
  ball and shared by every pass that reaches that T.  No level is counted
  from scratch in a fusion round.  The seed's level is the ball query's
  answer: it counted |D_seed ∩ D_m| for every pool row already.  A shrink
  T′ = T ∩ D_m takes its parent's counts minus each member's popcount
  over T ∖ T′, read on the nonzero words of T ∖ T′ only — a few dozen
  transactions, where T itself fills nearly every word.  The ball is held
  word-major, so those words are contiguous rows.

A rejected member stays rejected for the rest of its pass: T only shrinks
and C only grows, so its count only falls and its threshold only rises.
So one forward scan is the whole pass — no member passed over could be
accepted later, and the fused pattern takes in every ball member it can.

Whether a member is accepted depends on its support set alone, and a ball
holds each support set many times (a phase-1 pool has far fewer distinct
tidsets than patterns: on Replace-sim a call's balls hold about 7.5
members per distinct tidset).  Members that share a tidset always get the
answer the first of them met:

* if the first is accepted, T ⊆ D afterwards, so each later twin is a
  superset of T, and its floor τ·s ≤ τ·C ≤ |T| holds: it is accepted,
  leaving T as it is;
* if the first is rejected, each later twin is rejected too, by the
  argument above.

So a pass runs over the ball's *slots* — its distinct member tidsets
(:class:`Slots`) — in the order their first members take in the member
order, and reaches the same final T, the same shrinks and the same accepted
members as the walk over members: a slot's acceptance stands for every
member that holds it.  Everything a pass reads is per slot — counts,
masks, supports, the word-major copy — so a pass and a level cost distinct
tidsets, not members; the member counts a caller needs come from each
slot's multiplicity.  Given the same member order, the result is bit for
bit the scalar pass that ANDs every member into T (the property tests keep
that pass as their oracle).

Each T's counts become two masks once: the superset accepts, and the shrink
candidates (``c ≥ minsup`` and ``not c < τ·s``).  Only a candidate's test
involves C, which moves within a pass.  The ceiling before each position is
C or the largest support accepted as a superset before it, whichever is
larger (a running maximum); the first candidate whose count is not below τ
times that ceiling shrinks T, and the scan resumes after it on the new T's
masks.

The same argument says when the ``trials`` passes cannot differ.  A ball is
*settled* when no shrink candidate of the seed's level has a count that
reaches τ·C, C being the seed's support: no candidate's threshold is ever
lower than that, and no count ever higher, so no order shrinks T, and every
pass ends on the seed's tidset having accepted the same superset members.
Then one outcome stands for all ``trials`` passes (:meth:`GreedyBall.settled`):
no orders are drawn and no pass is walked, and the ball's words are never
copied.  At Fig. 10's τ = 0.97 on ALL-sim every ball is settled; on
Replace-sim at τ = 0.5 only a few percent are (2 of 200 and 11 of 300
balls in two calls).

NumPy is imported when a ball is fused, not when this module is.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.kinds import ITEMSETS, PatternKind
from repro.core.pool import Pool
from repro.db.transaction_db import TransactionDatabase
from repro.kernels import TidsetMatrix
from repro.mining.results import Pattern
from repro.obs import trace

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FusionCandidate",
    "GreedyBall",
    "Slots",
    "fuse_ball",
    "pass_orders",
    "weighted_sample_without_replacement",
]


@dataclass(frozen=True, slots=True)
class FusionCandidate:
    """One fused super-pattern and the evidence behind it.

    ``n_fused`` is |{α} ∪ t_βi| — the number of ball members fused in — and
    is the weight used by the retention sampling.
    """

    pattern: Pattern
    n_fused: int


class Slots:
    """A ball's members grouped by support set: one *slot* per distinct tidset.

    Member ``i``'s tidset is row ``ids[i]`` of a matrix of distinct
    tidsets (a pool's :attr:`~repro.core.pool.Pool.distinct`, of
    ``n_rows`` rows).  Slot ``k`` is row ``rows[k]``, the slots in
    ascending row order, and holds ``multiplicity[k]`` members.  Those come
    from one ``bincount``; what only a walk reads — each member's slot, and
    the members grouped slot by slot — is derived when read, so a settled
    ball never pays for it.
    """

    __slots__ = ("ids", "rows", "multiplicity", "_sizes", "_of_member")

    def __init__(self, ids: Sequence[int] | np.ndarray, n_rows: int = 0) -> None:
        import numpy as np

        # As intp: a pool's narrow ids would be cast again by every
        # scatter and gather below.
        self.ids = np.asarray(ids, dtype=np.intp)
        self._sizes = np.bincount(self.ids, minlength=n_rows)
        self.rows = self._sizes.nonzero()[0]
        self.multiplicity = self._sizes[self.rows]
        self._of_member: np.ndarray | None = None

    def at_slots(self, values: np.ndarray) -> np.ndarray:
        """Per-member ``values`` that depend on a member's tidset alone —
        equal across a slot's members — as one value per slot."""
        import numpy as np

        spread = np.empty(len(self._sizes), dtype=values.dtype)
        spread[self.ids] = values
        return spread[self.rows]

    @property
    def of_member(self) -> np.ndarray:
        """Each member's slot."""
        if self._of_member is None:
            import numpy as np

            slot_of_row = np.empty(len(self._sizes), dtype=np.intp)
            slot_of_row[self.rows] = np.arange(len(self.rows))
            self._of_member = slot_of_row[self.ids]
        return self._of_member

    @property
    def grouped(self) -> np.ndarray:
        """The members slot by slot, ascending within a slot."""
        import numpy as np

        return np.argsort(self.ids, kind="stable")

    @property
    def starts(self) -> np.ndarray:
        """Where each slot's members begin in :attr:`grouped`."""
        return self.multiplicity.cumsum() - self.multiplicity


class GreedyBall:
    """A ball's slots, ready for any number of greedy fusion passes.

    Slot ``k`` is row ``k`` of ``matrix``, or, when ``rows`` is given, row
    ``rows[k]``.  A pass treats each slot as one member.  In a fusion round
    ``matrix`` is the pool's distinct-tidset matrix and ``rows`` the ball's
    :class:`Slots` rows, one per distinct member tidset; walked in the
    order of their first members, the slots give the pass over the members
    (module docstring).  The ball holds its slots' words word-major: one
    contiguous ``(W, d)`` copy of the ``d`` rows, gathered straight from
    ``matrix`` when a count or a slot's tidset first needs it, row ``w``
    holding word ``w`` of every slot, so the words a level reads are
    contiguous rows and a tidset is a column.  The slots' supports are the
    matrix's cached popcounts.  The counts and masks of each distinct
    running tidset are kept for the ball's lifetime; ``levels`` says how
    many there are.

    A level's counts come from one of three places, each exact:

    * the ball query, for the seed's own tidset (:meth:`seed_level`);
    * its parent: when a pass shrinks T to T′ = T ∩ D_m, ``counts(T′) =
      counts(T) − |D_i ∩ (T ∖ T′)|``, counted over the nonzero words of
      T ∖ T′ only.  That holds for any counted parent ⊇ T′, so a cached
      level does not depend on which pass reached it first;
    * otherwise, a count over the nonzero words of T.

    Bits of T beyond the ball's width meet no slot and are not read.
    ``counted_words`` is the slot × word units those counts scanned, and
    ``distinct`` how many slots' words were gathered.
    """

    __slots__ = (
        "_words", "_rows", "_gathered", "_width_mask", "_supports",
        "_floors", "_bars", "_tau", "_minsup", "_levels", "_given",
        "_counted_words",
    )

    def __init__(
        self,
        matrix: TidsetMatrix,
        tau: float,
        minsup: int,
        rows: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        import numpy as np

        self._supports = matrix.row_popcounts
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            self._supports = self._supports[rows]
        self._words = matrix.words
        self._rows = rows
        self._gathered: np.ndarray | None = None
        self._width_mask = (1 << (64 * self._words.shape[1])) - 1
        # fl(τ·s): the core-ratio floor of each slot against itself, and
        # the count a slot needs to be a shrink candidate at all.
        self._floors = tau * self._supports
        self._bars = np.maximum(self._floors, minsup)
        self._tau = tau
        self._minsup = minsup
        self._levels: dict[int, tuple[np.ndarray, ...]] = {}
        self._given: dict[int, np.ndarray] = {}
        self._counted_words = 0

    @property
    def levels(self) -> int:
        """How many distinct running tidsets have been counted."""
        return len(self._levels)

    @property
    def counted_words(self) -> int:
        """Slot × word units scanned to count the levels so far."""
        return self._counted_words

    @property
    def distinct(self) -> int:
        """How many slots' words were gathered (0 before any)."""
        return 0 if self._gathered is None else self._gathered.shape[1]

    def seed_level(self, tidset: int, counts: Sequence[int] | np.ndarray) -> None:
        """Take ``counts`` — ``|D_k ∩ tidset|`` per slot — as ``tidset``'s.

        A fusion round's ball query has already counted the seed against
        every member, and so against every slot; the level is built from
        these counts when a pass first reaches ``tidset``, and nothing is
        counted again.
        """
        import numpy as np

        self._given[tidset] = np.asarray(counts, dtype=np.int64)

    def counts(self, tidset: int, parent: int | None = None) -> np.ndarray:
        """``|D_k ∩ tidset|`` for every slot, as an int64 array (cached).

        With ``parent`` — a tidset ⊇ ``tidset`` — a new level is derived
        from the parent's counts over the words where the two differ.
        """
        return self._level(tidset, parent)[0]

    def _level(
        self, tidset: int, parent: int | None = None
    ) -> tuple[np.ndarray, ...]:
        """Counts against ``tidset`` and its masks.

        Returns the counts, the superset-accept mask, the shrink-candidate
        mask, and each slot's support where it is a superset accept (0
        elsewhere), which the ceiling's running maximum reads.
        """
        level = self._levels.get(tidset)
        if level is None:
            counts = self._given.pop(tidset, None)
            if counts is None:
                if parent is None:
                    counts = self._count(tidset)
                else:
                    counts = self._level(parent)[0] - self._count(parent ^ tidset)
            size = tidset.bit_count()
            # ``x >= y`` is ``not x < y``: no operand is NaN.
            accepts = (counts == size) & (self._floors <= size)
            candidates = (counts != size) & (counts >= self._bars)
            lifts = accepts * self._supports
            level = self._levels[tidset] = (counts, accepts, candidates, lifts)
        return level

    @property
    def _columns(self) -> np.ndarray:
        """The word-major copy of the slots' rows, gathered when a level or
        a slot's tidset first needs it."""
        if self._gathered is None:
            self._gathered = _word_major(self._words, self._rows)
        return self._gathered

    def settled(self, tidset: int, ceiling: int) -> np.ndarray | None:
        """The slots every pass from ``tidset`` accepts, if none can shrink it.

        ``tidset`` and ``ceiling`` are a pass's start, as :meth:`walk` takes
        them.  Along a pass the ceiling only rises and T's counts only
        fall, so when no shrink candidate of the start level reaches
        τ·``ceiling`` — the candidates' largest count is below it, in the
        float64 expression the walk compares with — every order ends on
        ``tidset`` with no shrink, having accepted the same superset
        slots.  Those slots are returned as an index array; ``None`` says
        some order may shrink T.
        """
        import numpy as np

        if tidset.bit_count() < self._minsup:
            return np.empty(0, dtype=np.intp)  # :meth:`walk` accepts nothing
        counts, accepts, candidates, _ = self._level(tidset)
        if candidates.any() and counts[candidates].max() >= self._tau * ceiling:
            return None
        return accepts.nonzero()[0]

    def _count(self, tidset: int) -> np.ndarray:
        """``|D_k ∩ tidset|`` per slot, over ``tidset``'s nonzero words."""
        import numpy as np

        from repro.kernels.matrix import word_popcounts

        n_words = self._columns.shape[0]
        words = np.frombuffer(
            (tidset & self._width_mask).to_bytes(8 * n_words, "little"),
            dtype="<u8",
        )
        nonzero = words.nonzero()[0]
        part = self._columns[nonzero]
        part &= words[nonzero, np.newaxis]
        self._counted_words += part.size
        return word_popcounts(part, axis=0)

    def _tidset(self, slot: int) -> int:
        """Slot ``slot``'s tidset, read from its column."""
        return int.from_bytes(self._columns[:, slot].tobytes(), "little")

    def walk(
        self, order: Sequence[int], tidset: int, ceiling: int
    ) -> tuple[int, np.ndarray, int]:
        """One greedy pass over the slots in ``order``.

        Starts from running tidset ``tidset`` and ceiling ``ceiling`` (the
        seed's tidset and support) and returns the final tidset, the
        accepted slots in walk order (an index array), and how many times
        T shrank.  The superset rule needs ``τ·ceiling ≤ |tidset|`` at the
        start, which the seed's own support gives.
        """
        import numpy as np

        order = np.asarray(order, dtype=np.intp)
        if tidset.bit_count() < self._minsup:
            # Every merge is a subset of T: nothing can be frequent.
            return tidset, order[:0], 0
        pieces = []
        changes = 0
        parent = None
        while True:
            counts, accepts, candidates, lifts = self._level(tidset, parent)
            positions = candidates[order].nonzero()[0]
            if positions.size:
                head = order[:positions[-1] + 1]
                # The ceiling before each candidate.  It is floored at C:
                # before any superset accept the running maximum is 0, and
                # after a shrink a superset of the new T may have s < C.
                ceilings = np.maximum.accumulate(lifts[head])[positions]
                np.maximum(ceilings, ceiling, out=ceilings)
                passing = counts[head[positions]] >= self._tau * ceilings
                first = passing.argmax()
            if not positions.size or not passing[first]:
                pieces.append(order[accepts[order]])
                break
            stop = positions[first]
            # The slots accepted up to and including the shrink at stop.
            walked = order[:stop + 1]
            taken = accepts[walked]
            taken[-1] = True
            pieces.append(walked[taken])
            changes += 1
            slot = int(order[stop])
            parent = tidset
            tidset &= self._tidset(slot)
            ceiling = max(int(ceilings[first]), int(self._supports[slot]))
            order = order[stop + 1:]
        accepted = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        return tidset, accepted, changes


#: Words per block of the word-major copy (128 KiB of uint64): each
#: block's gather and transpose stay in cache, where one whole-ball
#: transpose strides through memory.
_TRANSPOSE_WORDS = 1 << 14


def _word_major(words: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """A C-contiguous ``(W, n)`` copy of ``words[rows]`` (all rows by default)."""
    import numpy as np

    n = len(words) if rows is None else len(rows)
    columns = np.empty((words.shape[1], n), dtype=words.dtype)
    block = max(1, _TRANSPOSE_WORDS // words.shape[1])
    for start in range(0, n, block):
        part = slice(start, start + block)
        columns[:, part] = (words[part] if rows is None else words[rows[part]]).T
    return columns


def pass_orders(
    seed: int, n: int, trials: int, slots: Slots | None = None
) -> np.ndarray:
    """``trials`` random orders of ``n`` members, one row each, from ``seed``.

    Member order ``i`` argsorts draws ``i·n`` to ``(i+1)·n - 1`` of
    ``numpy.random.PCG64(seed)``'s raw 64-bit stream.  NumPy keeps bit
    generators' raw streams stable across releases, which it does not
    promise for ``Generator.permutation``.  Each key's low bits are replaced
    by its member's index, so keys are distinct and every sort algorithm
    gives the same order, and the sorted keys' low bits *are* that order: a
    plain sort in place stands in for the argsort.

    Without ``slots``, row ``i`` is member order ``i``.  With the members'
    :class:`Slots`, row ``i`` is the slots in the order their first members
    take in member order ``i`` — the order a pass over the slots walks.  A
    slot's key is the smallest of its members' keys (one
    ``minimum.reduceat`` over the members grouped by slot), whose low bits
    name that first member, so the ``trials × slots`` slot keys are sorted
    instead of the ``trials × n`` member keys.  Returns an ``intp`` array.
    """
    import numpy as np

    index_bits = (n - 1).bit_length() if n else 0
    low = np.uint64((1 << index_bits) - 1)
    keys = np.random.PCG64(seed).random_raw((trials, n))
    keys &= ~low
    if slots is None:
        keys |= np.arange(n, dtype=np.uint64)
    else:
        grouped = slots.grouped
        keys = keys[:, grouped]
        keys |= grouped.view(np.uint64)
        keys = np.minimum.reduceat(keys, slots.starts, axis=1)
    keys.sort(axis=1)
    keys &= low
    orders = keys.astype(np.intp)
    return orders if slots is None else slots.of_member[orders]


def fuse_ball(
    db: TransactionDatabase,
    seed: Pattern,
    ball_members: Sequence[Pattern],
    tau: float,
    minsup: int,
    rng: random.Random,
    trials: int,
    max_candidates: int,
    close_fused: bool,
    pool: Pool | None = None,
    rows: Sequence[int] | np.ndarray | None = None,
    seed_row: int | None = None,
    counts: Sequence[int] | np.ndarray | None = None,
    kind: PatternKind = ITEMSETS,
) -> list[Pattern]:
    """Fuse ``{seed} ∪ ball_members`` into at most ``max_candidates`` patterns.

    Every returned pattern is frequent (support ≥ ``minsup``), is a superset
    of the seed, and has all its fused-in constituents as τ-core patterns.
    With ``close_fused`` the pattern is additionally extended to its closure
    (support set unchanged, so the core conditions still hold); without it
    the pattern is the union of the fused members' items.

    The closure is ``kind.close``; a tidset that closes to no pattern
    yields none, and a sequence's closure need not contain the seed.

    The members are grouped by tidset into :class:`Slots`, and ``trials``
    passes of :class:`GreedyBall` run over the slots, each in the
    first-occurrence order of one member order of :func:`pass_orders`,
    seeded by one ``rng.getrandbits(64)`` per call; the counts they read are
    shared across passes.  A pass's accepted members are its accepted
    slots' members: their number (the candidate's ``n_fused``, less the
    seed) is the slots' summed multiplicity, and only an unclosed pattern's
    items read the members themselves.  When the ball is settled
    (:meth:`GreedyBall.settled`), every pass would end on the seed's tidset
    with the same accepts, so that one outcome stands for all of them: the
    64-bit draw is still taken, but no orders are drawn and no pass is
    walked.  Retention sampling then draws from ``rng`` itself.

    ``pool`` and ``rows`` — the pool holding the ball, and the row of each
    member in it — let :class:`GreedyBall` gather the slots' tidsets from
    the pool's distinct-tidset matrix by the members'
    :attr:`~repro.core.pool.Pool.tidset_ids` instead of packing them again;
    without them the members' distinct tidsets are packed here.  The seed
    itself is skipped: by its items, or, when ``seed_row`` is given, by its
    row, without reading any member.  Only the seed's row is skipped, never
    another row that holds the same tidset.  A fusion round passes its
    pool, a :class:`~repro.core.distance.Ball`'s rows and the seed's pool
    row; its pool holds each itemset once, so both ways skip the same
    member.

    ``counts`` — ``|D_seed ∩ D_m|`` for each member, in step with
    ``ball_members`` (a ball query's :attr:`~repro.core.distance.Ball.counts`)
    — gives the seed's level, one count per slot (:meth:`Slots.at_slots`,
    :meth:`GreedyBall.seed_level`); without it that level is counted once
    here.  The result does not depend on how the members are given, nor on
    whether ``counts`` is.

    Sets ``tidset_changes`` and ``accepted`` (members, summed over the
    passes), ``levels`` (distinct running tidsets counted),
    ``counted_words`` (slot × word units those levels scanned),
    ``distinct`` (slots whose tidsets were gathered, 0 when none was),
    ``closures`` (closure calls) and ``settled`` (1 when one outcome stood
    for every pass, else 0) on the innermost open trace span.  The first
    six are what walking every member of every pass gives, settled or not.
    """
    import numpy as np

    if (pool is None) != (rows is None):
        raise ValueError("pool and rows must be given together")
    if counts is not None and len(counts) != len(ball_members):
        raise ValueError("counts must be in step with ball_members")
    # The members to walk, as a mask: an ALL-sim ball holds thousands.
    if seed_row is None:
        keep = np.array([p.items != seed.items for p in ball_members], dtype=bool)
    elif rows is None:
        raise ValueError("seed_row needs pool and rows")
    else:
        keep = np.asarray(rows) != seed_row
    if pool is None:
        ids: dict[int, int] = {}
        members = [
            ids.setdefault(p.tidset, len(ids))
            for p, kept in zip(ball_members, keep.tolist())
            if kept
        ]
        matrix = TidsetMatrix.from_tidsets(ids)
    else:
        matrix = pool.distinct
        members = pool.tidset_ids[np.asarray(rows, dtype=np.intp)[keep]]
    slots = Slots(members, len(matrix))
    ball = GreedyBall(matrix, tau, minsup, rows=slots.rows)
    if counts is not None:
        ball.seed_level(seed.tidset, slots.at_slots(np.asarray(counts)[keep]))
    multiplicity = slots.multiplicity
    orders_seed = rng.getrandbits(64)
    settled = ball.settled(seed.tidset, seed.support) if trials else None
    if settled is None:
        outcomes = (
            ball.walk(order, seed.tidset, seed.support)
            for order in pass_orders(orders_seed, len(slots.ids), trials, slots)
        )
        repeats = 1
    else:
        # Every pass would end here: one outcome stands for all of them.
        outcomes = [(seed.tidset, settled, 0)]
        repeats = trials
    closures: dict[int, Pattern | None] = {}
    member_items: list[frozenset[int]] | None = None
    best_by_key: dict = {}
    tidset_changes = accepted_total = 0
    for tidset, accepted, changes in outcomes:
        n_accepted = int(multiplicity[accepted].sum())
        tidset_changes += changes
        accepted_total += repeats * n_accepted
        if close_fused:
            # Passes often end on one tidset, so each distinct one is
            # closed once.
            if tidset not in closures:
                closures[tidset] = kind.close(db, tidset)
            pattern = closures[tidset]
            if pattern is None:
                continue
        else:
            if member_items is None:  # the members read once, in bulk
                member_items = [p.items for p in ball_members]
            taken = np.zeros(len(multiplicity), dtype=bool)
            taken[accepted] = True
            pattern = Pattern(
                items=seed.items.union(
                    *(
                        member_items[j]
                        for j in keep.nonzero()[0][taken[slots.of_member]].tolist()
                    )
                ),
                tidset=tidset,
            )
        candidate = FusionCandidate(pattern=pattern, n_fused=1 + n_accepted)
        key = kind.key(pattern)
        existing = best_by_key.get(key)
        if existing is None or candidate.n_fused > existing.n_fused:
            best_by_key[key] = candidate
    trace.annotate(
        tidset_changes=tidset_changes, accepted=accepted_total,
        levels=ball.levels, counted_words=ball.counted_words,
        distinct=ball.distinct, closures=len(closures),
        settled=int(settled is not None),
    )
    candidates = list(best_by_key.values())
    if len(candidates) > max_candidates:
        candidates = weighted_sample_without_replacement(
            candidates,
            weights=[c.n_fused for c in candidates],
            k=max_candidates,
            rng=rng,
        )
    return [c.pattern for c in candidates]


def weighted_sample_without_replacement(
    candidates: list[FusionCandidate],
    weights: list[float],
    k: int,
    rng: random.Random,
) -> list[FusionCandidate]:
    """Sample ``k`` distinct candidates with probability proportional to weight.

    Implements the paper's retention heuristic ("sampling weighted on the
    size of t_βi") by successive weighted draws without replacement.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if len(candidates) != len(weights):
        raise ValueError("candidates and weights must have equal length")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if k >= len(candidates):
        return list(candidates)
    remaining = list(zip(candidates, weights))
    chosen: list[FusionCandidate] = []
    for _ in range(k):
        total = sum(w for _, w in remaining)
        draw = rng.random() * total
        cumulative = 0.0
        for index, (_, w) in enumerate(remaining):
            cumulative += w
            if draw < cumulative:
                break
        else:
            index = len(remaining) - 1
        candidate, _ = remaining.pop(index)
        chosen.append(candidate)
    return chosen
