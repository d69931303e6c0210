"""Tests for the tidset kernel layer (:mod:`repro.kernels`).

Three obligations are pinned here:

* **Backend agreement** — the stdlib and NumPy :class:`TidsetMatrix`
  implementations return *identical* counts, masks, reductions, and
  distances on random matrices, including ragged widths, empty tidsets,
  empty matrices, and masks far beyond 64 bits.
* **Reference semantics** — both backends match the naive big-int
  formulations the rest of the package historically used.
* **Selection** — ``backend()`` resolution (auto / env / forced), the
  crisp errors for unknown or unavailable backends, and the
  numpy-less-install path (simulated by failing the import probe).

Plus the end-to-end guarantee the refactor rests on: ``pattern_fusion``
output is bit-identical under both backends.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import ball_radius, tidset_distance
from repro.kernels import (
    TidsetMatrix,
    available_backends,
    backend,
    numpy_available,
    set_backend,
    use_backend,
)
from repro.kernels.backend import _reset_probe_cache

NUMPY = numpy_available()

needs_numpy = pytest.mark.skipif(not NUMPY, reason="numpy not installed")

# Tidsets spanning sub-word, multi-word, and very wide widths (ragged).
tidset_ints = st.one_of(
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=2**70),
    st.integers(min_value=0, max_value=2**300),
)
tidset_lists = st.lists(tidset_ints, max_size=12)


def both_matrices(rows, n_bits=None):
    stdlib = TidsetMatrix.from_tidsets(rows, n_bits=n_bits, backend="stdlib")
    numpy_ = TidsetMatrix.from_tidsets(rows, n_bits=n_bits, backend="numpy")
    return stdlib, numpy_


@needs_numpy
class TestBackendAgreement:
    @settings(max_examples=150, deadline=None)
    @given(tidset_lists, tidset_ints)
    def test_counts_and_masks_agree(self, rows, query):
        a, b = both_matrices(rows)
        assert a.rows() == b.rows() == rows
        assert a.popcounts() == b.popcounts()
        assert a.intersection_counts(query).tolist() == (
            b.intersection_counts(query).tolist()
        )
        assert a.union_counts(query) == b.union_counts(query)
        assert a.superset_mask(query) == b.superset_mask(query)
        assert a.intersects_mask(query) == b.intersects_mask(query)
        assert a.closure_items(query) == b.closure_items(query)

    @settings(max_examples=150, deadline=None)
    @given(tidset_lists, st.lists(tidset_ints, max_size=6))
    def test_distance_rows_bit_identical(self, rows, queries):
        a, b = both_matrices(rows)
        # == on floats: bit-identical is the contract, not approximately.
        assert a.jaccard_distance_rows(queries) == b.jaccard_distance_rows(queries)
        assert a.jaccard_distance_rows(queries, empty=1.0) == (
            b.jaccard_distance_rows(queries, empty=1.0)
        )

    @settings(max_examples=100, deadline=None)
    @given(tidset_lists, st.sampled_from([0.0, 1.0]))
    def test_distance_matrix_agrees_elementwise(self, rows, empty):
        a, b = both_matrices(rows)
        slow = a.jaccard_distance_matrix(empty=empty)
        fast = b.jaccard_distance_matrix(empty=empty)
        n = len(rows)
        assert len(slow) == n and len(fast) == n
        for i in range(n):
            for j in range(n):
                assert slow[i][j] == fast[i][j]  # bit-identical floats
            assert slow[i][i] in (0.0, empty)
        # ...and both equal the row-at-a-time kernel on the same inputs.
        by_rows = a.jaccard_distance_rows(rows, empty=empty)
        for i in range(n):
            assert list(slow[i]) == by_rows[i]

    @settings(max_examples=100, deadline=None)
    @given(tidset_lists, tidset_ints)
    def test_reductions_agree(self, rows, start):
        a, b = both_matrices(rows)
        if rows:
            assert a.intersect_reduce() == b.intersect_reduce()
        assert a.intersect_reduce(start=start) == b.intersect_reduce(start=start)
        assert a.union_reduce() == b.union_reduce()
        assert a.union_reduce(start=start) == b.union_reduce(start=start)
        indices = [i for i in range(len(rows)) if i % 2 == 0]
        assert a.intersect_reduce(rows=indices, start=start) == (
            b.intersect_reduce(rows=indices, start=start)
        )
        assert a.union_reduce(rows=indices) == b.union_reduce(rows=indices)

    def test_empty_matrix(self):
        a, b = both_matrices([])
        assert a.popcounts() == b.popcounts() == []
        assert a.superset_mask(7) == b.superset_mask(7) == 0
        assert a.intersects_mask(7) == b.intersects_mask(7) == 0
        assert a.jaccard_distance_rows([3]) == b.jaccard_distance_rows([3]) == [[]]
        assert len(a.jaccard_distance_matrix()) == 0
        assert len(b.jaccard_distance_matrix()) == 0
        assert a.union_reduce() == b.union_reduce() == 0
        for matrix in (a, b):
            with pytest.raises(ValueError):
                matrix.intersect_reduce()


class TestReferenceSemantics:
    """Each backend against the naive big-int formulation."""

    backends = ["stdlib"] + (["numpy"] if NUMPY else [])

    @pytest.mark.parametrize("name", backends)
    def test_matches_naive_bitset_math(self, name):
        rng = random.Random(7)
        rows = [rng.getrandbits(200) for _ in range(40)] + [0, (1 << 130) - 1]
        queries = [rng.getrandbits(200) for _ in range(5)] + [0, 1 << 400]
        matrix = TidsetMatrix.from_tidsets(rows, backend=name)
        assert matrix.popcounts() == [r.bit_count() for r in rows]
        for q in queries:
            assert matrix.intersection_counts(q).tolist() == [
                (r & q).bit_count() for r in rows
            ]
            assert matrix.union_counts(q) == [(r | q).bit_count() for r in rows]
            assert matrix.superset_mask(q) == sum(
                1 << i for i, r in enumerate(rows) if q & ~r == 0
            )
            assert matrix.intersects_mask(q) == sum(
                1 << i for i, r in enumerate(rows) if r & q
            )
            assert matrix.jaccard_distance_rows([q])[0] == [
                tidset_distance(q, r) for r in rows
            ]
        start = queries[0]
        reduced = start
        for r in rows:
            reduced &= r
        assert matrix.intersect_reduce(start=start) == reduced
        united = 0
        for r in rows:
            united |= r
        assert matrix.union_reduce() == united

    @pytest.mark.parametrize("name", backends)
    def test_n_bits_validation(self, name):
        with pytest.raises(ValueError):
            TidsetMatrix.from_tidsets([0b1011], n_bits=2, backend=name)
        with pytest.raises(ValueError):
            TidsetMatrix.from_tidsets([-1], backend=name)
        matrix = TidsetMatrix.from_tidsets([0b1011], n_bits=4, backend=name)
        assert matrix.n_bits == 4 and matrix.n_rows == 1

    def test_from_patterns_shares_pool_order(self):
        from repro.mining.results import Pattern

        pool = [
            Pattern(items=frozenset({i}), tidset=(1 << i) | 1) for i in range(5)
        ]
        matrix = TidsetMatrix.from_patterns(pool, backend="stdlib")
        assert matrix.rows() == [p.tidset for p in pool]


@pytest.mark.parametrize("name", available_backends())
class TestTake:
    """``take(rows)`` is ``from_tidsets`` of the same rows, without re-packing."""

    @staticmethod
    def assert_same(taken, packed, queries):
        assert taken.backend == packed.backend
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
    def test_equals_packing_the_subset(self, name, rows, data, queries, warm):
        matrix = TidsetMatrix.from_tidsets(rows, backend=name)
        if warm:
            matrix.popcounts()  # the cached popcounts are gathered too
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
        packed = TidsetMatrix.from_tidsets(
            [rows[i] for i in picks], n_bits=matrix.n_bits, backend=name
        )
        self.assert_same(matrix.take(picks), packed, queries)

    def test_empty_and_repeated_indices(self, name):
        from repro.mining.results import Pattern

        pool = [
            Pattern(items=frozenset({i}), tidset=(1 << (70 * i)) | 1)
            for i in range(4)
        ]
        matrix = TidsetMatrix.from_patterns(pool, backend=name)
        queries = [1, (1 << 140) | 1, (1 << 300) - 1]
        for picks in ([], (), [2, 2, 0, 2], range(4)):
            packed = TidsetMatrix.from_patterns(
                [pool[i] for i in picks], n_bits=matrix.n_bits, backend=name
            )
            self.assert_same(matrix.take(picks), packed, queries)
        assert matrix.take([]).rows() == []
        assert matrix.take([3, 3]).rows() == [pool[3].tidset] * 2


def within_by_distance(matrix, queries, radius):
    """The ``<= radius`` filter of ``jaccard_distance_rows``, as lists."""
    return [
        [i for i, distance in enumerate(row) if distance <= radius]
        for row in matrix.jaccard_distance_rows(queries)
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


@pytest.mark.parametrize("name", available_backends())
class TestRowsWithin:
    """``rows_within(qs, r)`` is the ``<= r`` filter of the distance rows."""

    @settings(max_examples=150, deadline=None)
    @given(tidset_lists, st.lists(tidset_ints, max_size=6), st.data())
    def test_equals_distance_filter(self, name, rows, queries, data):
        matrix = TidsetMatrix.from_tidsets(rows, backend=name)
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

    def test_radius_on_a_realized_distance(self, name):
        # Distances from 0b1111: 0.0, 0.25 (0b0111), 0.5 (0b0011), 1.0.
        matrix = TidsetMatrix.from_tidsets(
            [0b1111, 0b0111, 0b0011, 0b10000], backend=name
        )
        assert matrix.jaccard_distance_rows([0b1111]) == [[0.0, 0.25, 0.5, 1.0]]
        for radius, expected in [
            (0.25, [0, 1]), (0.5, [0, 1, 2]), (0.4999, [0, 1]),
            (1.0, [0, 1, 2, 3]), (0.0, [0]), (-0.0, [0]), (-1e-12, []),
        ]:
            assert matrix.rows_within([0b1111], radius)[0].tolist() == expected

    @pytest.mark.parametrize("tau", [0.5, 0.97])
    def test_ball_radii(self, name, tau):
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
        matrix = TidsetMatrix.from_tidsets(rows, backend=name)
        queries = [base, rows[5], rows[30]]
        assert_rows_within(matrix, queries, ball_radius(tau))
        inside = matrix.rows_within([base], ball_radius(tau))[0]
        assert 1 < len(inside) < len(rows)

    def test_empty_tidsets(self, name):
        # Two empty sets are at 0.0 (union 0); empty vs. non-empty at 1.0.
        matrix = TidsetMatrix.from_tidsets([0, 0b1, 0, 0b110], backend=name)
        assert matrix.rows_within([0], 0.0)[0].tolist() == [0, 2]
        assert matrix.rows_within([0], -0.1)[0].tolist() == []
        assert matrix.rows_within([0b1], 0.0)[0].tolist() == [1]
        assert_rows_within(matrix, [0, 0b1, 0b111], 0.5)
        empty = TidsetMatrix.from_tidsets([], backend=name)
        assert [r.tolist() for r in empty.rows_within([0, 5], 1.0)] == [[], []]
        assert matrix.rows_within([], 1.0) == []

    def test_queries_wider_than_the_matrix(self, name):
        rows = [0b1011, 0b1, 0b1111_0000, 0]
        matrix = TidsetMatrix.from_tidsets(rows, backend=name)
        assert matrix.n_bits == 8
        queries = [(1 << 400) | 0b1011, 1 << 130, (1 << 65) | 0b1]
        for radius in FIXED_RADII:
            assert_rows_within(matrix, queries, radius)
        # 0b1011 against 0b1011 plus one bit past the matrix: 1 - 3/4.
        assert matrix.rows_within(queries[:1], 0.25)[0].tolist() == [0]
        assert matrix.rows_within(queries[:1], 0.2499)[0].tolist() == []

    def test_at_least_2_24_bits(self, name):
        """Rows this wide skip the float32 matvec row sums (NumPy)."""
        n_bits = 1 << 24
        high = 1 << (n_bits - 1)
        rows = [high | 0b111, high, 0b11, (1 << 40) | high | 0b1]
        matrix = TidsetMatrix.from_tidsets(rows, n_bits=n_bits, backend=name)
        queries = [high | 0b1, 0b11, high | (1 << 40)]
        for radius in (ball_radius(0.5), ball_radius(0.97), 0.5, -0.5):
            assert_rows_within(matrix, queries, radius)
        assert matrix.rows_within([high], 0.75)[0].tolist() == [0, 1, 3]
        assert matrix.rows_within([high], 0.7)[0].tolist() == [1, 3]


@needs_numpy
def test_rows_within_pre2_numpy_lut_fallback(monkeypatch):
    """Without numpy.bitwise_count the LUT row sums give the same rows."""
    import numpy as np

    monkeypatch.delattr(np, "bitwise_count")
    rng = random.Random(5)
    rows = [rng.getrandbits(300) for _ in range(30)] + [0, 0]
    queries = [rng.getrandbits(300) for _ in range(4)] + [0, rows[3]]
    slow = TidsetMatrix.from_tidsets(rows, backend="stdlib")
    fast = TidsetMatrix.from_tidsets(rows, backend="numpy")
    for radius in FIXED_RADII:
        assert_rows_within(fast, queries, radius)
        assert [r.tolist() for r in fast.rows_within(queries, radius)] == (
            [r.tolist() for r in slow.rows_within(queries, radius)]
        )


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


@needs_numpy
def test_pre2_numpy_lut_fallback(monkeypatch):
    """Without numpy.bitwise_count (NumPy < 2.0) the LUT path must agree."""
    import numpy as np

    monkeypatch.delattr(np, "bitwise_count")
    rng = random.Random(3)
    rows = [rng.getrandbits(300) for _ in range(30)] + [0]
    queries = [rng.getrandbits(300) for _ in range(4)] + [0]
    slow = TidsetMatrix.from_tidsets(rows, backend="stdlib")
    fast = TidsetMatrix.from_tidsets(rows, backend="numpy")
    assert slow.popcounts() == fast.popcounts()
    for q in queries:
        assert slow.intersection_counts(q).tolist() == (
            fast.intersection_counts(q).tolist()
        )
    assert slow.jaccard_distance_rows(queries) == (
        fast.jaccard_distance_rows(queries)
    )
    matrix = fast.jaccard_distance_matrix()
    reference = slow.jaccard_distance_matrix()
    for i in range(len(rows)):
        assert list(matrix[i]) == reference[i]


class TestSelection:
    def test_available_always_has_stdlib(self):
        assert "stdlib" in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels backend"):
            set_backend("cupy")
        with pytest.raises(ValueError, match="unknown kernels backend"):
            TidsetMatrix.from_tidsets([1], backend="cupy")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "stdlib")
        set_backend(None)
        assert backend() == "stdlib"
        monkeypatch.setenv("REPRO_KERNELS", "bogus")
        with pytest.raises(ValueError, match="unknown kernels backend"):
            backend()
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        assert backend() in ("stdlib", "numpy")

    def test_use_backend_scopes_and_restores(self):
        before = backend()
        with use_backend("stdlib"):
            assert backend() == "stdlib"
            matrix = TidsetMatrix.from_tidsets([3, 5])
            assert matrix.backend == "stdlib"
        assert backend() == before

    def test_use_backend_auto_is_noop(self):
        with use_backend("stdlib"):
            with use_backend("auto"):
                assert backend() == "stdlib"
            with use_backend(None):
                assert backend() == "stdlib"

    @needs_numpy
    def test_auto_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        set_backend(None)
        assert backend() == "numpy"


class TestWithoutNumpy:
    """The kernels layer when numpy cannot be imported, simulated by failing
    the probe.  NumPy is a required dependency (fusion itself needs it), but
    the stdlib backend still packs and answers on its own."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        import importlib

        # ``repro.kernels.backend`` the *attribute* is the accessor function
        # (deliberate shadowing); go through importlib for the module.
        backend_module = importlib.import_module("repro.kernels.backend")

        def refuse():
            raise ImportError("No module named 'numpy' (simulated)")

        monkeypatch.setattr(backend_module, "_import_numpy", refuse)
        _reset_probe_cache()
        yield
        _reset_probe_cache()

    def test_falls_back_to_stdlib(self, no_numpy, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        set_backend(None)
        assert available_backends() == ("stdlib",)
        assert backend() == "stdlib"
        matrix = TidsetMatrix.from_tidsets([0b101, 0b011])
        assert matrix.backend == "stdlib"
        assert matrix.popcounts() == [2, 2]

    def test_requesting_numpy_errors_crisply(self, no_numpy):
        with pytest.raises(ValueError, match="numpy is not installed"):
            set_backend("numpy")
        with pytest.raises(ValueError, match="numpy is not installed"):
            with use_backend("numpy"):
                pass  # pragma: no cover - the enter must already raise


def _small_config():
    from repro.core.config import PatternFusionConfig

    return PatternFusionConfig(k=10, initial_pool_max_size=2, seed=0)


@needs_numpy
class TestEndToEndBitIdentity:
    """Whole-pipeline agreement: backends never change mined output."""

    def test_pattern_fusion_identical_across_backends(self):
        from repro.core.pattern_fusion import pattern_fusion
        from repro.datasets import diag_plus

        db = diag_plus()
        with use_backend("stdlib"):
            cold = pattern_fusion(db, 20, _small_config())
        with use_backend("numpy"):
            fast = pattern_fusion(db, 20, _small_config())
        assert [(p.items, p.tidset) for p in cold.patterns] == (
            [(p.items, p.tidset) for p in fast.patterns]
        )
        assert cold.history == fast.history

    def test_backend_config_knob_is_identity_neutral(self):
        from dataclasses import replace

        from repro.core.pattern_fusion import pattern_fusion
        from repro.core.pattern_fusion import PatternFusionMinerConfig
        from repro.datasets import diag_plus

        db = diag_plus()
        via_knob = pattern_fusion(
            db, 20, replace(_small_config(), backend="stdlib")
        )
        ambient = pattern_fusion(db, 20, _small_config())
        assert [(p.items, p.tidset) for p in via_knob.patterns] == (
            [(p.items, p.tidset) for p in ambient.patterns]
        )
        # The knob never reaches content-hashed run identity.
        config = PatternFusionMinerConfig(minsup=2, backend="stdlib")
        assert "backend" not in config.identity_dict()
        assert config.to_dict()["backend"] == "stdlib"

    def test_closure_and_balls_agree(self):
        from repro.core.distance import balls
        from repro.datasets import diag_plus
        from repro.mining.results import make_pattern

        db = diag_plus()
        patterns = [make_pattern(db, [i]) for i in range(db.n_items)]
        with use_backend("stdlib"):
            slow_balls = balls(patterns[:5], patterns, 0.4)
            slow_closures = [db.closure_of_tidset(p.tidset) for p in patterns]
            slow_bulk = db.supports([p.items for p in patterns])
        fresh = diag_plus()  # avoid any cached matrix crossing backends
        with use_backend("numpy"):
            fast_balls = balls(patterns[:5], patterns, 0.4)
            fast_closures = [
                fresh.closure_of_tidset(p.tidset) for p in patterns
            ]
            fast_bulk = fresh.supports([p.items for p in patterns])
        assert slow_balls == fast_balls
        assert slow_closures == fast_closures
        assert slow_bulk == fast_bulk
