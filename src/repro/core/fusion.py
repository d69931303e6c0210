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
  every member against each distinct T are computed once per ball, by one
  batched :meth:`~repro.kernels.TidsetMatrix.intersection_counts`, and
  shared by every pass that reaches that T.

Each T's counts become two masks once: the superset accepts, and the shrink
candidates (``c ≥ minsup`` and ``not c < τ·s``).  Only a candidate's test
involves C, which moves within a pass.  The ceiling before each position is
C or the largest support accepted as a superset before it, whichever is
larger (a running maximum); the first candidate whose count is not below τ
times that ceiling shrinks T, and the scan resumes after it on the new T's
masks.

A rejected member stays rejected for the rest of its pass: T only shrinks
and C only grows, so its count only falls and its threshold only rises.
So one forward scan is the whole pass — no member passed over could be
accepted later, and the fused pattern takes in every ball member it can.
Given the same order, the result is bit for bit the scalar pass that ANDs
every member into T (the property tests keep that pass as their oracle).

NumPy is imported when a ball is fused, not when this module is.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db.transaction_db import TransactionDatabase
from repro.kernels import TidsetMatrix
from repro.mining.results import Pattern
from repro.obs import trace

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FusionCandidate",
    "GreedyBall",
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


class GreedyBall:
    """A ball's members, ready for any number of greedy fusion passes.

    Member ``i`` is row ``i`` of ``matrix`` (in a fusion round, the ball's
    rows taken from the pool matrix).  Counts come from its batched
    :meth:`~repro.kernels.TidsetMatrix.intersection_counts`, an int64
    array.  The counts and masks of each distinct running tidset are kept for the
    ball's lifetime; ``levels`` says how many there are.
    """

    __slots__ = (
        "_matrix", "_supports", "_floors", "_bars", "_tau", "_minsup", "_levels"
    )

    def __init__(self, matrix: TidsetMatrix, tau: float, minsup: int) -> None:
        import numpy as np

        self._matrix = matrix
        self._supports = np.asarray(matrix.popcounts(), dtype=np.int64)
        # fl(τ·s): the core-ratio floor of each member against itself, and
        # the count a member needs to be a shrink candidate at all.
        self._floors = tau * self._supports
        self._bars = np.maximum(self._floors, minsup)
        self._tau = tau
        self._minsup = minsup
        self._levels: dict[int, tuple[np.ndarray, ...]] = {}

    @property
    def levels(self) -> int:
        """How many distinct running tidsets have been counted."""
        return len(self._levels)

    def _level(self, tidset: int, size: int) -> tuple[np.ndarray, ...]:
        """Counts against ``tidset`` (of ``size`` ≥ minsup) and its masks.

        Returns the counts, the superset-accept mask, the shrink-candidate
        mask, and each member's support where it is a superset accept (0
        elsewhere), which the ceiling's running maximum reads.
        """
        level = self._levels.get(tidset)
        if level is None:
            import numpy as np

            counts = self._matrix.intersection_counts(tidset)
            # ``x >= y`` is ``not x < y``: no operand is NaN.
            accepts = (counts == size) & (self._floors <= size)
            candidates = (counts != size) & (counts >= self._bars)
            lifts = accepts * self._supports
            level = self._levels[tidset] = (counts, accepts, candidates, lifts)
        return level

    def walk(
        self, order: Sequence[int], tidset: int, ceiling: int
    ) -> tuple[int, np.ndarray, int]:
        """One greedy pass over the members in ``order``.

        Starts from running tidset ``tidset`` and ceiling ``ceiling`` (the
        seed's tidset and support) and returns the final tidset, the
        accepted members in walk order (an index array), and how many times
        T shrank.  The superset rule needs ``τ·ceiling ≤ |tidset|`` at the
        start, which the seed's own support gives.
        """
        import numpy as np

        order = np.asarray(order, dtype=np.intp)
        size = tidset.bit_count()
        if size < self._minsup:
            # Every merge is a subset of T: nothing can be frequent.
            return tidset, order[:0], 0
        pieces = []
        changes = 0
        while True:
            counts, accepts, candidates, lifts = self._level(tidset, size)
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
            # The members accepted up to and including the shrink at stop.
            walked = order[:stop + 1]
            taken = accepts[walked]
            taken[-1] = True
            pieces.append(walked[taken])
            changes += 1
            index = int(order[stop])
            tidset &= self._matrix.row(index)
            size = int(counts[index])
            ceiling = max(int(ceilings[first]), int(self._supports[index]))
            order = order[stop + 1:]
        accepted = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        return tidset, accepted, changes


def pass_orders(seed: int, n: int, trials: int) -> np.ndarray:
    """``trials`` random orders of ``range(n)``, one row each, from ``seed``.

    Row ``i`` argsorts draws ``i·n`` to ``(i+1)·n - 1`` of
    ``numpy.random.PCG64(seed)``'s raw 64-bit stream.  NumPy keeps bit
    generators' raw streams stable across releases, which it does not
    promise for ``Generator.permutation``.  Each key's low bits are replaced
    by its index, so keys are distinct and every sort algorithm gives the
    same order.
    """
    import numpy as np

    index_bits = (n - 1).bit_length() if n else 0
    high = np.uint64(((1 << 64) - 1) ^ ((1 << index_bits) - 1))
    keys = np.random.PCG64(seed).random_raw((trials, n)) & high
    keys |= np.arange(n, dtype=np.uint64)
    return np.argsort(keys, axis=1)


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
    matrix: TidsetMatrix | None = None,
    rows: Sequence[int] | np.ndarray | None = None,
    seed_row: int | None = None,
) -> list[Pattern]:
    """Fuse ``{seed} ∪ ball_members`` into at most ``max_candidates`` patterns.

    Every returned pattern is frequent (support ≥ ``minsup``), is a superset
    of the seed, and has all its fused-in constituents as τ-core patterns.
    With ``close_fused`` the pattern is additionally extended to its closure
    (support set unchanged, so the core conditions still hold); without it
    the pattern is the union of the fused members' items.

    ``trials`` passes of :class:`GreedyBall` run over the orders of
    :func:`pass_orders`, seeded by one ``rng.getrandbits(64)`` per call;
    the counts they read are shared across passes.  Retention sampling then
    draws from ``rng`` itself.

    ``matrix`` and ``rows`` — a matrix holding the ball's tidsets, and the
    row of each member in it — let the members' rows be gathered with
    :meth:`~repro.kernels.TidsetMatrix.take` instead of packed again.  The
    seed itself is skipped: by its items, or, when ``seed_row`` is given,
    by its row, without reading any member.  A fusion round passes its
    pool matrix, a :class:`~repro.core.distance.Ball`'s rows and the
    seed's pool row; its pool holds each itemset once, so both ways skip
    the same member.  The result does not depend on how the members are
    given.

    Sets ``tidset_changes`` and ``accepted`` (summed over the passes),
    ``levels`` (distinct running tidsets counted) and ``closures`` (closure
    calls) on the innermost open trace span.
    """
    import numpy as np

    if (matrix is None) != (rows is None):
        raise ValueError("matrix and rows must be given together")
    if seed_row is None:
        keep = np.array(
            [j for j, p in enumerate(ball_members) if p.items != seed.items],
            dtype=np.intp,
        )
    elif rows is None:
        raise ValueError("seed_row needs matrix and rows")
    else:
        keep = np.flatnonzero(np.asarray(rows) != seed_row)
    if matrix is None:
        members = TidsetMatrix.from_patterns(
            [ball_members[j] for j in keep.tolist()]
        )
    else:
        members = matrix.take(np.asarray(rows, dtype=np.intp)[keep])
    ball = GreedyBall(members, tau, minsup)
    closures: dict[int, frozenset[int]] = {}
    member_items: list[frozenset[int]] | None = None
    best_by_items: dict[frozenset[int], FusionCandidate] = {}
    tidset_changes = accepted_total = 0
    for order in pass_orders(rng.getrandbits(64), len(keep), trials):
        tidset, accepted, changes = ball.walk(order, seed.tidset, seed.support)
        tidset_changes += changes
        accepted_total += len(accepted)
        if close_fused:
            # Closure can only add items; the support set is untouched.
            # Passes often end on one tidset (all of them, when none
            # shrinks T), so each distinct one is closed once.
            items = closures.get(tidset)
            if items is None:
                items = closures[tidset] = db.closure_of_tidset(tidset)
        else:
            if member_items is None:  # the members read once, in bulk
                member_items = [p.items for p in ball_members]
            items = seed.items.union(
                *(member_items[j] for j in keep[accepted].tolist())
            )
        candidate = FusionCandidate(
            pattern=Pattern(items=items, tidset=tidset), n_fused=1 + len(accepted)
        )
        existing = best_by_items.get(items)
        if existing is None or candidate.n_fused > existing.n_fused:
            best_by_items[items] = candidate
    trace.annotate(
        tidset_changes=tidset_changes, accepted=accepted_total,
        levels=ball.levels, closures=len(closures),
    )
    candidates = list(best_by_items.values())
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
