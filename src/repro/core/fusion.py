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
become the candidate β_i set.

A pass is a walk over cached intersection counts (:class:`GreedyBall`).  Let
T be the running tidset, starting at the seed's, and C the ceiling: the
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
  shared by every pass that reaches that T.  The walk then goes on from the
  next position on the new T's counts.

Each T's counts become per-member verdicts once: reject, accept as a
superset, or shrink candidate.  Only a shrink candidate's test involves C,
which moves within a pass, so the walk checks that one inline.

A rejected member stays rejected for the rest of its pass: T only shrinks
and C only grows, so its count only falls and its threshold only rises.
So one forward walk is the whole pass — no member passed over could be
accepted later, and the fused pattern takes in every ball member it can.
The result is bit for bit the scalar pass that ANDs every member into T
(the property tests keep that pass as their oracle), with the same RNG
draws.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.db.transaction_db import TransactionDatabase
from repro.kernels import TidsetMatrix
from repro.mining.results import Pattern
from repro.obs import trace

__all__ = [
    "FusionCandidate",
    "GreedyBall",
    "fuse_ball",
    "weighted_sample_without_replacement",
]

# A member's verdict against one running tidset T.
_REJECT = 0
#: Contains T and passes its own core ratio: accepted, T unchanged.
_SUPERSET = 1
#: Passes minsup and its own core ratio; accepted iff it also passes the
#: ceiling's, which the walk checks because the ceiling moves within a pass.
_SHRINK = 2


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

    ``counts_of(T)`` returns ``|T ∩ tidsets[i]|`` for every member; by
    default it ANDs the tidsets one by one, and the itemset driver passes a
    :class:`~repro.kernels.TidsetMatrix` method instead.  Its answer for each
    distinct T is kept for the ball's lifetime.
    """

    __slots__ = ("_tidsets", "_supports", "_floors", "_tau", "_minsup",
                 "_counts_of", "_levels")

    def __init__(
        self,
        tidsets: Sequence[int],
        supports: Sequence[int],
        tau: float,
        minsup: int,
        counts_of: Callable[[int], list[int]] | None = None,
    ) -> None:
        self._tidsets = tidsets
        self._supports = supports
        # fl(τ·s): the core-ratio floor of each member against itself.
        self._floors = [tau * support for support in supports]
        self._tau = tau
        self._minsup = minsup
        self._counts_of = counts_of or self._and_counts
        self._levels: dict[int, tuple[list[int], list[int]]] = {}

    def _and_counts(self, tidset: int) -> list[int]:
        return [(tidset & member).bit_count() for member in self._tidsets]

    def _level(self, tidset: int, size: int) -> tuple[list[int], list[int]]:
        """Counts against ``tidset`` (of ``size`` ≥ minsup) and verdicts."""
        level = self._levels.get(tidset)
        if level is None:
            counts = self._counts_of(tidset)
            minsup = self._minsup
            verdicts = [
                (_REJECT if size < floor else _SUPERSET) if count == size
                else _SHRINK if count >= minsup and not count < floor
                else _REJECT
                for count, floor in zip(counts, self._floors)
            ]
            level = self._levels[tidset] = (counts, verdicts)
        return level

    def walk(
        self, order: Sequence[int], tidset: int, ceiling: int
    ) -> tuple[int, list[int], int]:
        """One greedy pass over the members in ``order``.

        Starts from running tidset ``tidset`` and ceiling ``ceiling`` (the
        seed's tidset and support) and returns the final tidset, the
        accepted members in walk order, and how many times T shrank.  The
        superset rule needs ``τ·ceiling ≤ |tidset|`` at the start, which
        the seed's own support gives.
        """
        accepted: list[int] = []
        changes = 0
        size = tidset.bit_count()
        if size < self._minsup:
            # Every merge is a subset of T: nothing can be frequent.
            return tidset, accepted, changes
        counts, verdicts = self._level(tidset, size)
        supports = self._supports
        tau = self._tau
        floor = tau * ceiling
        for index in order:
            verdict = verdicts[index]
            if verdict == _SUPERSET:
                accepted.append(index)
                if supports[index] > ceiling:
                    ceiling = supports[index]
                    floor = tau * ceiling
            elif verdict == _SHRINK and not counts[index] < floor:
                accepted.append(index)
                changes += 1
                tidset &= self._tidsets[index]
                size = counts[index]
                if supports[index] > ceiling:
                    ceiling = supports[index]
                    floor = tau * ceiling
                counts, verdicts = self._level(tidset, size)
        return tidset, accepted, changes


def fuse_ball(
    db: TransactionDatabase,
    seed: Pattern,
    ball_members: list[Pattern],
    tau: float,
    minsup: int,
    rng: random.Random,
    trials: int,
    max_candidates: int,
    close_fused: bool,
    matrix: TidsetMatrix | None = None,
    rows: Sequence[int] | None = None,
) -> list[Pattern]:
    """Fuse ``{seed} ∪ ball_members`` into at most ``max_candidates`` patterns.

    Every returned pattern is frequent (support ≥ ``minsup``), is a superset
    of the seed, and has all its fused-in constituents as τ-core patterns.
    With ``close_fused`` the pattern is additionally extended to its closure
    (support set unchanged, so the core conditions still hold); without it
    the pattern is the union of the fused members' items.

    ``trials`` passes of :class:`GreedyBall` run over one shuffled order
    each (one ``rng.shuffle`` per pass); the counts they read are shared
    across passes.  ``matrix`` and ``rows`` — a matrix holding the ball's
    tidsets, and the row of each member in it — let those counts come from
    batched kernel calls on rows gathered with
    :meth:`~repro.kernels.TidsetMatrix.take`; a fusion round passes its pool
    matrix.  The result does not depend on them.

    Sets ``tidset_changes`` and ``accepted`` (summed over the passes) on the
    innermost open trace span.
    """
    if (matrix is None) != (rows is None):
        raise ValueError("matrix and rows must be given together")
    keep = [j for j, p in enumerate(ball_members) if p.items != seed.items]
    others = [ball_members[j] for j in keep]
    counts_of = (
        None if matrix is None
        else matrix.take([rows[j] for j in keep]).intersection_counts
    )
    ball = GreedyBall(
        [p.tidset for p in others], [p.support for p in others], tau, minsup,
        counts_of,
    )
    closures: dict[int, frozenset[int]] = {}
    best_by_items: dict[frozenset[int], FusionCandidate] = {}
    tidset_changes = accepted_total = 0
    for _ in range(trials):
        order = list(range(len(others)))
        rng.shuffle(order)
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
            items = seed.items.union(*(others[i].items for i in accepted))
        candidate = FusionCandidate(
            pattern=Pattern(items=items, tidset=tidset), n_fused=1 + len(accepted)
        )
        existing = best_by_items.get(items)
        if existing is None or candidate.n_fused > existing.n_fused:
            best_by_items[items] = candidate
    trace.annotate(tidset_changes=tidset_changes, accepted=accepted_total)
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
