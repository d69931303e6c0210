"""Tests for the tidset kernel layer (:mod:`repro.kernels`).

Two obligations are pinned here:

* **Reference semantics** — :class:`TidsetMatrix` returns exactly the
  counts, masks and distances of the naive big-int formulation
  (``(r & q).bit_count()``, :func:`tidset_distance`, ...) on random
  matrices, including ragged widths, empty tidsets, empty matrices, and
  masks far beyond 64 bits.  Distances are pinned through ``rows_within``
  at every realized distance and one float below it, so each row's
  distance must be bit-identical to the big-int math, not approximately
  equal.
* **Row selection** — ``rows_within`` equals filtering the big-int
  distances.

Plus the paths that only run on some inputs or NumPy builds: the
pre-2.0 popcount lookup table, rows of 2^24 bits and more, and the round
payload pickled into spawned workers.
"""

import math
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


def assert_distances_exact(matrix, queries):
    """Each row's kernel distance to each query is ``tidset_distance``'s float.

    ``rows_within`` at a realized distance ``d`` keeps the rows at ``<= d``
    and at the next float below ``d`` only those at ``< d``; a kernel
    distance off by one ulp either way flips one of the two answers.
    """
    rows = matrix.rows()
    for q in queries:
        exact = [tidset_distance(q, r) for r in rows]
        for d in set(exact):
            below = math.nextafter(d, -math.inf)
            assert rows_of(matrix, q, d) == [
                i for i, e in enumerate(exact) if e <= d
            ]
            assert rows_of(matrix, q, below) == [
                i for i, e in enumerate(exact) if e < d
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
        # Queries include the rows themselves: all pairs of the matrix.
        assert_distances_exact(TidsetMatrix.from_tidsets(rows), queries + rows)

    def test_empty_matrix(self):
        matrix = TidsetMatrix.from_tidsets([])
        assert matrix.n_rows == len(matrix) == 0
        assert matrix.rows() == [] and matrix.popcounts() == []
        assert matrix.intersection_counts(7).tolist() == []
        assert matrix.superset_mask(7) == 0
        assert matrix.closure_items(7) == []


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
        assert_distances_exact(matrix, queries)

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


@st.composite
def rows_with_twins(draw):
    """1-, 2- or 5-word rows, some drawn again on purpose, the empty
    tidset among them at times."""
    n_words = draw(st.sampled_from([1, 2, 5]))
    rows = draw(st.lists(
        st.one_of(st.just(0), st.integers(0, (1 << (64 * n_words)) - 1)),
        max_size=12,
    ))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=12))
        rows = draw(st.permutations(rows))
    return n_words, rows


class TestDistinctRows:
    """``distinct``: each tidset once, in order of its first row, exactly."""

    @settings(max_examples=200, deadline=None)
    @given(case=rows_with_twins(), block_words=st.sampled_from([1, 3, 1 << 15]))
    def test_ids_map_rows_to_their_tidset(self, case, block_words):
        import numpy as np

        from repro.kernels import matrix as kernel

        n_words, rows = case
        matrix = TidsetMatrix.from_tidsets(rows, n_bits=64 * n_words)
        with pytest.MonkeyPatch.context() as patch:
            # Small blocks put neighbours in the sorted order in different
            # blocks.
            patch.setattr(kernel, "_BLOCK_WORDS", block_words)
            unique, ids = matrix.distinct()
        assert unique.rows() == list(dict.fromkeys(rows))
        assert unique.n_bits == matrix.n_bits
        assert ids.dtype == np.min_scalar_type(max(len(unique) - 1, 0))
        assert [unique.rows()[i] for i in ids.tolist()] == rows
        if len(set(rows)) == len(rows):
            assert unique is matrix and ids.tolist() == list(range(len(rows)))

    def test_rows_equal_but_for_one_bit_stay_apart(self):
        """Rows that differ only in their top bit, or only in one word."""
        rows = [1 << 63, 1 << 127, 0, 1 << 63, (1 << 127) | 1, 0, 1 << 127]
        unique, ids = TidsetMatrix.from_tidsets(rows, n_bits=128).distinct()
        assert unique.rows() == [1 << 63, 1 << 127, 0, (1 << 127) | 1]
        assert ids.tolist() == [0, 1, 2, 0, 3, 2, 1]


def within_by_distance(matrix, queries, radius):
    """The ``<= radius`` filter of :func:`tidset_distance`, as lists."""
    rows = matrix.rows()
    return [
        [i for i, row in enumerate(rows) if tidset_distance(q, row) <= radius]
        for q in queries
    ]


def rows_of(matrix, query, radius):
    """The rows ``rows_within`` keeps for one query, as a list."""
    (rows, _), = matrix.rows_within([query], radius)
    return rows.tolist()


def assert_rows_within(matrix, queries, radius):
    """The rows are the distance filter's; the counts are the big-int
    intersection counts of those rows, in the narrowest unsigned dtype
    that holds ``n_bits``."""
    import numpy as np

    got = matrix.rows_within(queries, radius)
    assert all(isinstance(rows, np.ndarray) for rows, _ in got)
    assert all(rows.dtype == np.int64 for rows, _ in got)
    assert [rows.tolist() for rows, _ in got] == (
        within_by_distance(matrix, queries, radius)
    )
    narrow = np.min_scalar_type(matrix.n_bits)
    assert all(counts.dtype == narrow for _, counts in got)
    tidsets = matrix.rows()
    assert [counts.tolist() for _, counts in got] == [
        [(q & tidsets[i]).bit_count() for i in rows.tolist()]
        for q, (rows, _) in zip(queries, got)
    ]


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
        realized = sorted({tidset_distance(q, r) for q in queries for r in rows})
        radius = data.draw(st.one_of(
            st.sampled_from(FIXED_RADII),
            st.floats(-1.0, 2.0, allow_nan=False),
            # A radius equal to a distance some row is at: ``<=`` keeps it.
            *([st.sampled_from(realized)] if realized else []),
        ))
        assert_rows_within(matrix, queries, radius)

    def test_radius_on_a_realized_distance(self):
        # Distances from 0b1111: 0.0, 0.25 (0b0111), 0.5 (0b0011), 1.0.
        rows = [0b1111, 0b0111, 0b0011, 0b10000]
        matrix = TidsetMatrix.from_tidsets(rows)
        assert [tidset_distance(0b1111, r) for r in rows] == [0.0, 0.25, 0.5, 1.0]
        for radius, expected in [
            (0.25, [0, 1]), (0.5, [0, 1, 2]), (0.4999, [0, 1]),
            (1.0, [0, 1, 2, 3]), (0.0, [0]), (-0.0, [0]), (-1e-12, []),
        ]:
            assert rows_of(matrix, 0b1111, radius) == expected

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
        inside = rows_of(matrix, base, ball_radius(tau))
        assert 1 < len(inside) < len(rows)

    def test_empty_tidsets(self):
        # Two empty sets are at 0.0 (union 0); empty vs. non-empty at 1.0.
        matrix = TidsetMatrix.from_tidsets([0, 0b1, 0, 0b110])
        assert rows_of(matrix, 0, 0.0) == [0, 2]
        assert rows_of(matrix, 0, -0.1) == []
        assert rows_of(matrix, 0b1, 0.0) == [1]
        assert_rows_within(matrix, [0, 0b1, 0b111], 0.5)
        empty = TidsetMatrix.from_tidsets([])
        assert [r.tolist() for r, _ in empty.rows_within([0, 5], 1.0)] == [[], []]
        assert matrix.rows_within([], 1.0) == []

    def test_queries_wider_than_the_matrix(self):
        rows = [0b1011, 0b1, 0b1111_0000, 0]
        matrix = TidsetMatrix.from_tidsets(rows)
        assert matrix.n_bits == 8
        queries = [(1 << 400) | 0b1011, 1 << 130, (1 << 65) | 0b1]
        for radius in FIXED_RADII:
            assert_rows_within(matrix, queries, radius)
        # 0b1011 against 0b1011 plus one bit past the matrix: 1 - 3/4.
        assert rows_of(matrix, queries[0], 0.25) == [0]
        assert rows_of(matrix, queries[0], 0.2499) == []

    def test_at_least_2_24_bits(self):
        """Rows this wide skip the float32 matvec row sums (NumPy)."""
        n_bits = 1 << 24
        high = 1 << (n_bits - 1)
        rows = [high | 0b111, high, 0b11, (1 << 40) | high | 0b1]
        matrix = TidsetMatrix.from_tidsets(rows, n_bits=n_bits)
        queries = [high | 0b1, 0b11, high | (1 << 40)]
        for radius in (ball_radius(0.5), ball_radius(0.97), 0.5, -0.5):
            assert_rows_within(matrix, queries, radius)
        assert rows_of(matrix, high, 0.75) == [0, 1, 3]
        assert rows_of(matrix, high, 0.7) == [1, 3]


def boundary_radii(matrix, queries):
    """Every distance ``1 - i/u`` a realized union size ``u`` allows, one
    ulp either side of each, and the edges of the distance range."""
    radii = {0.0, -0.0, 1.0, 2.0, math.inf, -1e-12}
    for q in queries:
        for row in matrix.rows():
            union = (q | row).bit_count()
            for count in range(union + 1 if union else 0):
                d = 1.0 - count / union
                radii.update(
                    (d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf))
                )
    return sorted(radii)


@on_kernel
class TestIntegerBallTest:
    """``rows_within`` compares counts with a per-union table instead of
    dividing per row; it keeps exactly the distance filter's rows."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([1, 5, 38, 64, 65, 130]),
        st.lists(st.integers(min_value=0, max_value=2**130), max_size=8),
        st.lists(st.integers(min_value=0, max_value=2**200), max_size=4),
        st.data(),
    )
    def test_equals_distance_filter_at_every_boundary(
        self, n_bits, raw_rows, raw_queries, data
    ):
        # One-word (n_bits ≤ 64) and multi-word matrices; empty rows and
        # queries; queries up to 70 bits wider than the matrix.
        rows = [row & ((1 << n_bits) - 1) for row in raw_rows] + [0]
        queries = [0] + [q & ((1 << (n_bits + 70)) - 1) for q in raw_queries]
        matrix = TidsetMatrix.from_tidsets(rows, n_bits=n_bits)
        radius = data.draw(st.sampled_from(boundary_radii(matrix, queries)))
        assert_rows_within(matrix, queries, radius)
        assert [rows.tolist() for rows, _ in matrix.rows_within(queries, radius)] == (
            within_by_distance(matrix, queries, radius)
        )

    def test_every_boundary_of_a_small_matrix(self):
        # All union sizes 0..12 occur; every boundary radius is tried.
        rows = [(1 << n) - 1 for n in range(7)] + [0b111111 << 6]
        matrix = TidsetMatrix.from_tidsets(rows, n_bits=12)
        queries = [0, 0b111111, 0b111111 << 6, (1 << 12) - 1, 1 << 80]
        for radius in boundary_radii(matrix, queries):
            assert_rows_within(matrix, queries, radius)


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
    assert_distances_exact(matrix, queries + rows)


#: (name, n_bits, _BLOCK_WORDS): each counting path of the blocked pass,
#: with blocks of a few rows, so every matrix below spans several of them.
BLOCK_PATHS = [
    ("one-word", 50, 3),          # 3 rows per block
    ("matvec", 200, 12),          # 4 words per row, 3 rows per block
    ("int64-fallback", 1 << 24, 1),  # 2^18 words per row, 1 row per block
]


def block_row_counts(block):
    """Matrix heights around whole numbers of blocks: 0, 1, k·block ± 1."""
    counts = {0, 1}
    for k in (1, 2, 3):
        counts.update((k * block - 1, k * block, k * block + 1))
    return sorted(counts)


class TestBlockedPass:
    """The row-blocked pass against the big-int ``ball`` and
    ``tidset_distance``, with ``_BLOCK_WORDS`` patched small."""

    @pytest.fixture(params=BLOCK_PATHS + [("lut", 200, 12)], ids=lambda p: p[0])
    def path(self, request, monkeypatch):
        import numpy as np

        from repro.kernels import matrix as kernel

        name, n_bits, block_words = request.param
        if name == "lut":  # NumPy < 2.0: the byte lookup table
            monkeypatch.delattr(np, "bitwise_count")
        monkeypatch.setattr(kernel, "_BLOCK_WORDS", block_words)
        n_words = max(1, -(-n_bits // 64))
        return n_bits, max(1, block_words // n_words)

    @staticmethod
    def random_rows(rng, n_rows, n_bits):
        # Sparse rows: wide tidsets stay cheap as big ints, and a random
        # high bit makes some of them reach the top word.
        rows = []
        for _ in range(n_rows):
            row = rng.getrandbits(min(n_bits, 300))
            if rng.random() < 0.5:
                row |= 1 << rng.randrange(n_bits)
            rows.append(row)
        return rows

    def test_matches_big_int_ball_across_block_edges(self, path):
        import numpy as np

        from repro.core.distance import ball
        from repro.mining.results import Pattern

        n_bits, block = path
        rng = random.Random(n_bits)
        for n_rows in block_row_counts(block):
            rows = self.random_rows(rng, n_rows, n_bits)
            matrix = TidsetMatrix.from_tidsets(rows, n_bits=n_bits)
            # Rows of the matrix, bits past its width, and the empty set.
            queries = rows[:3] + [
                rows[0] | (1 << (n_bits + 70)) if rows else 1 << (n_bits + 5),
                1 << (n_bits + 200),
                0,
            ]
            pool = [Pattern(items=frozenset({i}), tidset=r) for i, r in enumerate(rows)]
            for radius in (0.0, ball_radius(0.5), ball_radius(0.97), 1.0):
                got = matrix.rows_within(queries, radius)
                centers = [Pattern(items=frozenset(), tidset=q) for q in queries]
                assert [r.tolist() for r, _ in got] == [
                    [min(p.items) for p in ball(center, pool, radius)]
                    for center in centers
                ]
                assert_rows_within(matrix, queries, radius)
            for q in queries:
                counts = matrix.intersection_counts(q)
                assert counts.dtype == np.int64
                assert counts.tolist() == [(q & r).bit_count() for r in rows]

    def test_many_queries_per_call(self, path):
        n_bits, block = path
        rng = random.Random(7)
        rows = self.random_rows(rng, 3 * block + 1, n_bits)
        matrix = TidsetMatrix.from_tidsets(rows, n_bits=n_bits)
        queries = rows + self.random_rows(rng, 30, n_bits)
        assert_distances_exact(matrix, queries[:8])
        for radius in (ball_radius(0.5), 0.9):
            assert_rows_within(matrix, queries, radius)

    def test_temporaries_are_one_block(self, monkeypatch):
        """No temporary of a ball pass is as large as the matrix."""
        import tracemalloc

        from repro.kernels import matrix as kernel

        monkeypatch.setattr(kernel, "_BLOCK_WORDS", 1024)
        rng = random.Random(3)
        rows = [rng.getrandbits(256) for _ in range(20_000)]
        matrix = TidsetMatrix.from_tidsets(rows, n_bits=256)
        matrix.row_popcounts  # cached once per matrix, outside the pass
        words = matrix.words.nbytes  # 640 KB
        tracemalloc.start()
        try:
            matrix.rows_within(rows[:4], 0.0)
            matrix.intersection_counts(rows[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The intersection counts answer is N int64s (160 KB); the block
        # temporaries are a few KB.
        assert peak < words // 3


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
