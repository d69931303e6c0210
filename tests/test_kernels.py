"""Tests for the tidset kernel layer (:mod:`repro.kernels`).

Two obligations are pinned here:

* **Reference semantics** — :class:`TidsetMatrix` returns exactly the
  counts, masks and distances of the naive big-int formulation
  (``(r & q).bit_count()``, :func:`tidset_distance`, ...) on random
  matrices, including ragged widths, empty tidsets, empty matrices, and
  masks far beyond 64 bits.  Distances are compared with ``==``: the
  kernels are bit-identical to the big-int math, not approximately equal.
* **Row selection** — ``take`` and ``rows_within`` equal packing the
  selected rows and filtering the distance rows, respectively.

Plus the paths that only run on some inputs or NumPy builds: the
pre-2.0 popcount lookup table, rows of 2^24 bits and more, and the round
payload pickled into spawned workers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import ball_radius, tidset_distance
from repro.kernels import TidsetMatrix
from tests.conftest import on_kernel

# Tidsets spanning sub-word, multi-word, and very wide widths (ragged).
tidset_ints = st.one_of(
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=2**70),
    st.integers(min_value=0, max_value=2**300),
)
tidset_lists = st.lists(tidset_ints, max_size=12)


def naive_distance_rows(rows, queries, empty=0.0):
    """Definition 6 on big ints, ``empty`` for two empty sets."""
    return [
        [
            empty if not (r | q) else 1.0 - (r & q).bit_count() / (r | q).bit_count()
            for r in rows
        ]
        for q in queries
    ]


class TestBackendAgreement:
    """Random matrices against the naive big-int formulation."""

    @settings(max_examples=150, deadline=None)
    @given(tidset_lists, tidset_ints)
    def test_counts_and_masks_agree(self, rows, query):
        matrix = TidsetMatrix.from_tidsets(rows)
        assert matrix.rows() == rows
        assert matrix.popcounts() == [r.bit_count() for r in rows]
        assert matrix.intersection_counts(query).tolist() == [
            (r & query).bit_count() for r in rows
        ]
        supersets = [i for i, r in enumerate(rows) if query & ~r == 0]
        assert matrix.superset_mask(query) == sum(1 << i for i in supersets)
        assert matrix.closure_items(query) == supersets

    @settings(max_examples=150, deadline=None)
    @given(tidset_lists, st.lists(tidset_ints, max_size=6))
    def test_distance_rows_bit_identical(self, rows, queries):
        matrix = TidsetMatrix.from_tidsets(rows)
        # == on floats: bit-identical is the contract, not approximately.
        assert matrix.jaccard_distance_rows(queries) == (
            naive_distance_rows(rows, queries)
        )
        assert matrix.jaccard_distance_rows(queries) == [
            [tidset_distance(q, r) for r in rows] for q in queries
        ]
        assert matrix.jaccard_distance_rows(queries, empty=1.0) == (
            naive_distance_rows(rows, queries, empty=1.0)
        )

    @settings(max_examples=100, deadline=None)
    @given(tidset_lists, st.sampled_from([0.0, 1.0]))
    def test_distance_matrix_agrees_elementwise(self, rows, empty):
        got = TidsetMatrix.from_tidsets(rows).jaccard_distance_matrix(
            empty=empty
        )
        want = naive_distance_rows(rows, rows, empty=empty)
        n = len(rows)
        assert got.shape == (n, n)
        for i in range(n):
            for j in range(n):
                assert got[i][j] == want[i][j]  # bit-identical floats
            assert got[i][i] in (0.0, empty)

    def test_empty_matrix(self):
        matrix = TidsetMatrix.from_tidsets([])
        assert matrix.n_rows == len(matrix) == 0
        assert matrix.rows() == [] and matrix.popcounts() == []
        assert matrix.intersection_counts(7).tolist() == []
        assert matrix.superset_mask(7) == 0
        assert matrix.closure_items(7) == []
        assert matrix.jaccard_distance_rows([3]) == [[]]
        assert matrix.jaccard_distance_matrix().shape == (0, 0)


class TestReferenceSemantics:
    @on_kernel
    def test_matches_naive_bitset_math(self):
        rng = random.Random(7)
        rows = [rng.getrandbits(200) for _ in range(40)] + [0, (1 << 130) - 1]
        queries = [rng.getrandbits(200) for _ in range(5)] + [0, 1 << 400]
        matrix = TidsetMatrix.from_tidsets(rows)
        assert matrix.popcounts() == [r.bit_count() for r in rows]
        for q in queries:
            assert matrix.intersection_counts(q).tolist() == [
                (r & q).bit_count() for r in rows
            ]
            assert matrix.superset_mask(q) == sum(
                1 << i for i, r in enumerate(rows) if q & ~r == 0
            )
            assert matrix.jaccard_distance_rows([q])[0] == [
                tidset_distance(q, r) for r in rows
            ]

    @on_kernel
    def test_n_bits_validation(self):
        with pytest.raises(ValueError):
            TidsetMatrix.from_tidsets([0b1011], n_bits=2)
        with pytest.raises(ValueError):
            TidsetMatrix.from_tidsets([-1])
        matrix = TidsetMatrix.from_tidsets([0b1011], n_bits=4)
        assert matrix.n_bits == 4 and matrix.n_rows == 1

    def test_from_patterns_shares_pool_order(self):
        from repro.mining.results import Pattern

        pool = [
            Pattern(items=frozenset({i}), tidset=(1 << i) | 1) for i in range(5)
        ]
        matrix = TidsetMatrix.from_patterns(pool)
        assert matrix.rows() == [p.tidset for p in pool]


@on_kernel
class TestTake:
    """``take(rows)`` is ``from_tidsets`` of the same rows, without re-packing."""

    @staticmethod
    def assert_same(taken, packed, queries):
        assert taken.n_rows == packed.n_rows == len(taken)
        assert taken.n_bits == packed.n_bits
        assert taken.rows() == packed.rows()
        assert taken.popcounts() == packed.popcounts()
        for query in queries:
            assert taken.intersection_counts(query).tolist() == (
                packed.intersection_counts(query).tolist()
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(tidset_ints, min_size=1, max_size=12),
        st.data(),
        st.lists(tidset_ints, max_size=3),
        st.booleans(),
    )
    def test_equals_packing_the_subset(self, rows, data, queries, warm):
        matrix = TidsetMatrix.from_tidsets(rows)
        if warm:
            matrix.popcounts()  # the cached popcounts are gathered too
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
        packed = TidsetMatrix.from_tidsets(
            [rows[i] for i in picks], n_bits=matrix.n_bits
        )
        self.assert_same(matrix.take(picks), packed, queries)

    def test_empty_and_repeated_indices(self):
        from repro.mining.results import Pattern

        pool = [
            Pattern(items=frozenset({i}), tidset=(1 << (70 * i)) | 1)
            for i in range(4)
        ]
        matrix = TidsetMatrix.from_patterns(pool)
        queries = [1, (1 << 140) | 1, (1 << 300) - 1]
        for picks in ([], (), [2, 2, 0, 2], range(4)):
            packed = TidsetMatrix.from_patterns(
                [pool[i] for i in picks], n_bits=matrix.n_bits
            )
            self.assert_same(matrix.take(picks), packed, queries)
        assert matrix.take([]).rows() == []
        assert matrix.take([3, 3]).rows() == [pool[3].tidset] * 2


def within_by_distance(matrix, queries, radius):
    """The ``<= radius`` filter of :func:`tidset_distance`, as lists."""
    rows = matrix.rows()
    return [
        [i for i, row in enumerate(rows) if tidset_distance(q, row) <= radius]
        for q in queries
    ]


def assert_rows_within(matrix, queries, radius):
    import numpy as np

    got = matrix.rows_within(queries, radius)
    assert all(isinstance(rows, np.ndarray) for rows in got)
    assert all(rows.dtype == np.int64 for rows in got)
    assert [rows.tolist() for rows in got] == (
        within_by_distance(matrix, queries, radius)
    )


#: Radii the fusion rounds use, plus the edges of the distance range.
FIXED_RADII = [
    ball_radius(0.5), ball_radius(0.97), 0.0, -0.0, 1.0, -1e-12, -0.5, 2.0
]


@on_kernel
class TestRowsWithin:
    """``rows_within(qs, r)`` is the ``<= r`` filter of the distances."""

    @settings(max_examples=150, deadline=None)
    @given(tidset_lists, st.lists(tidset_ints, max_size=6), st.data())
    def test_equals_distance_filter(self, rows, queries, data):
        matrix = TidsetMatrix.from_tidsets(rows)
        realized = sorted(
            {d for row in matrix.jaccard_distance_rows(queries) for d in row}
        )
        radius = data.draw(st.one_of(
            st.sampled_from(FIXED_RADII),
            st.floats(-1.0, 2.0, allow_nan=False),
            # A radius equal to a distance some row is at: ``<=`` keeps it.
            *([st.sampled_from(realized)] if realized else []),
        ))
        assert_rows_within(matrix, queries, radius)

    def test_radius_on_a_realized_distance(self):
        # Distances from 0b1111: 0.0, 0.25 (0b0111), 0.5 (0b0011), 1.0.
        matrix = TidsetMatrix.from_tidsets(
            [0b1111, 0b0111, 0b0011, 0b10000]
        )
        assert matrix.jaccard_distance_rows([0b1111]) == [[0.0, 0.25, 0.5, 1.0]]
        for radius, expected in [
            (0.25, [0, 1]), (0.5, [0, 1, 2]), (0.4999, [0, 1]),
            (1.0, [0, 1, 2, 3]), (0.0, [0]), (-0.0, [0]), (-1e-12, []),
        ]:
            assert matrix.rows_within([0b1111], radius)[0].tolist() == expected

    @pytest.mark.parametrize("tau", [0.5, 0.97])
    def test_ball_radii(self, tau):
        rng = random.Random(11)
        base = rng.getrandbits(400)
        # Row j flips j random bits of one base tidset: distances from the
        # base grow with j, so both radii cut the rows somewhere inside.
        rows = []
        for flips in range(0, 240, 4):
            row = base
            for bit in rng.sample(range(400), flips):
                row ^= 1 << bit
            rows.append(row)
        matrix = TidsetMatrix.from_tidsets(rows)
        queries = [base, rows[5], rows[30]]
        assert_rows_within(matrix, queries, ball_radius(tau))
        inside = matrix.rows_within([base], ball_radius(tau))[0]
        assert 1 < len(inside) < len(rows)

    def test_empty_tidsets(self):
        # Two empty sets are at 0.0 (union 0); empty vs. non-empty at 1.0.
        matrix = TidsetMatrix.from_tidsets([0, 0b1, 0, 0b110])
        assert matrix.rows_within([0], 0.0)[0].tolist() == [0, 2]
        assert matrix.rows_within([0], -0.1)[0].tolist() == []
        assert matrix.rows_within([0b1], 0.0)[0].tolist() == [1]
        assert_rows_within(matrix, [0, 0b1, 0b111], 0.5)
        empty = TidsetMatrix.from_tidsets([])
        assert [r.tolist() for r in empty.rows_within([0, 5], 1.0)] == [[], []]
        assert matrix.rows_within([], 1.0) == []

    def test_queries_wider_than_the_matrix(self):
        rows = [0b1011, 0b1, 0b1111_0000, 0]
        matrix = TidsetMatrix.from_tidsets(rows)
        assert matrix.n_bits == 8
        queries = [(1 << 400) | 0b1011, 1 << 130, (1 << 65) | 0b1]
        for radius in FIXED_RADII:
            assert_rows_within(matrix, queries, radius)
        # 0b1011 against 0b1011 plus one bit past the matrix: 1 - 3/4.
        assert matrix.rows_within(queries[:1], 0.25)[0].tolist() == [0]
        assert matrix.rows_within(queries[:1], 0.2499)[0].tolist() == []

    def test_at_least_2_24_bits(self):
        """Rows this wide skip the float32 matvec row sums (NumPy)."""
        n_bits = 1 << 24
        high = 1 << (n_bits - 1)
        rows = [high | 0b111, high, 0b11, (1 << 40) | high | 0b1]
        matrix = TidsetMatrix.from_tidsets(rows, n_bits=n_bits)
        queries = [high | 0b1, 0b11, high | (1 << 40)]
        for radius in (ball_radius(0.5), ball_radius(0.97), 0.5, -0.5):
            assert_rows_within(matrix, queries, radius)
        assert matrix.rows_within([high], 0.75)[0].tolist() == [0, 1, 3]
        assert matrix.rows_within([high], 0.7)[0].tolist() == [1, 3]


def test_rows_within_pre2_numpy_lut_fallback(monkeypatch):
    """Without numpy.bitwise_count the LUT row sums give the same rows."""
    import numpy as np

    monkeypatch.delattr(np, "bitwise_count")
    rng = random.Random(5)
    rows = [rng.getrandbits(300) for _ in range(30)] + [0, 0]
    queries = [rng.getrandbits(300) for _ in range(4)] + [0, rows[3]]
    matrix = TidsetMatrix.from_tidsets(rows)
    for radius in FIXED_RADII:
        assert_rows_within(matrix, queries, radius)


def test_engine_round_under_spawn_equals_serial():
    """The round payload, pool matrix included, pickles into spawned workers.

    Fork workers inherit the payload; spawn workers unpickle it, so this
    is the run that would catch a payload that does not pickle.  The span
    ids name the process that opened them, which shows the fusion work ran
    in the spawned workers rather than in a serial fallback.
    """
    import os

    from repro.core.config import PatternFusionConfig
    from repro.core.pattern_fusion import pattern_fusion
    from repro.datasets import diag
    from repro.engine import ParallelExecutor
    from repro.obs.trace import TRACER, RingBufferSink

    def key(result):
        return sorted((p.sorted_items(), p.tidset) for p in result.patterns)

    config = PatternFusionConfig(
        k=10, initial_pool_max_size=2, seed=0, max_iterations=1
    )
    serial = pattern_fusion(diag(10), 6, config)
    sink = RingBufferSink()
    previous = (TRACER.enabled, list(TRACER.sinks))
    TRACER.configure(enabled=True, sinks=[sink])
    try:
        with ParallelExecutor(2, start_method="spawn") as executor:
            spawned = pattern_fusion(diag(10), 6, config, executor=executor)
    finally:
        TRACER.configure(enabled=previous[0], sinks=previous[1])
    assert key(spawned) == key(serial)
    assert spawned.history == serial.history
    driver = f"{os.getpid():x}-"
    fuse_spans = [r for r in sink.spans() if r["name"] == "fuse_ball"]
    assert fuse_spans
    assert all(not r["span_id"].startswith(driver) for r in fuse_spans)


def test_pre2_numpy_lut_fallback(monkeypatch):
    """Without numpy.bitwise_count (NumPy < 2.0) the LUT path must agree."""
    import numpy as np

    monkeypatch.delattr(np, "bitwise_count")
    rng = random.Random(3)
    rows = [rng.getrandbits(300) for _ in range(30)] + [0]
    queries = [rng.getrandbits(300) for _ in range(4)] + [0]
    matrix = TidsetMatrix.from_tidsets(rows)
    assert matrix.popcounts() == [r.bit_count() for r in rows]
    for q in queries:
        assert matrix.intersection_counts(q).tolist() == [
            (r & q).bit_count() for r in rows
        ]
    assert matrix.jaccard_distance_rows(queries) == (
        naive_distance_rows(rows, queries)
    )
    reference = naive_distance_rows(rows, rows)
    distances = matrix.jaccard_distance_matrix()
    for i in range(len(rows)):
        assert distances[i].tolist() == reference[i]


class TestEndToEndBitIdentity:
    """The layers built on the kernels equal their big-int scans."""

    def test_closure_and_balls_agree(self):
        from repro.core.distance import ball, balls
        from repro.datasets import diag_plus
        from repro.mining.results import make_pattern

        db = diag_plus()
        patterns = [make_pattern(db, [i]) for i in range(db.n_items)]
        assert balls(patterns[:5], patterns, 0.4) == [
            ball(center, patterns, 0.4) for center in patterns[:5]
        ]
        for p in patterns:
            shared = [
                item for item in range(db.n_items)
                if p.tidset & ~db.item_tidset(item) == 0
            ]
            assert db.closure_of_tidset(p.tidset) == frozenset(shared)
        # Bulk supports are Lemma-1 AND reductions over big-int masks.
        pairs = [p.items | q.items for p, q in zip(patterns, patterns[3:])]
        assert db.tidsets(pairs) == [db.tidset(items) for items in pairs]
        assert db.supports(pairs) == [db.support(items) for items in pairs]
        assert db.tidsets([[]]) == [db.tidset([])]
        with pytest.raises(ValueError, match="outside universe"):
            db.tidsets([[0, db.n_items]])
