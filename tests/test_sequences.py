"""Tests for the sequential-pattern extension (repro.sequences)."""

import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PatternFusionConfig
from repro.sequences import (
    SequenceDatabase,
    SequencePattern,
    common_pattern_of_tidset,
    is_subsequence,
    longest_common_subsequence,
    motif_sequences,
    prefixspan,
    sequence_pattern_fusion,
)
from tests.conftest import on_kernel

short_sequences = st.lists(st.integers(min_value=0, max_value=4), max_size=8)


class TestSubsequence:
    def test_basic(self):
        assert is_subsequence([1, 3], [1, 2, 3])
        assert not is_subsequence([3, 1], [1, 2, 3])
        assert is_subsequence([], [1])
        assert not is_subsequence([1], [])

    def test_repeats(self):
        assert is_subsequence([2, 2], [2, 1, 2])
        assert not is_subsequence([2, 2, 2], [2, 1, 2])

    @given(short_sequences, short_sequences)
    def test_concatenation_always_contains_parts(self, a, b):
        assert is_subsequence(a, a + b)
        assert is_subsequence(b, a + b)


class TestSequenceDatabase:
    @pytest.fixture
    def db(self):
        return SequenceDatabase(
            [[0, 1, 2, 3], [0, 2, 1, 3], [1, 0, 2], [3, 2, 1, 0]], n_items=4
        )

    def test_support(self, db):
        assert db.support([0, 2]) == 3          # rows 0, 1, 2
        assert db.support([2, 1]) == 2          # rows 1, 3
        assert db.support([0, 1, 2, 3]) == 1
        assert db.support([]) == 4

    def test_tidset_bits(self, db):
        assert db.tidset([0, 2]) == 0b0111

    def test_antimonotone(self, db):
        """Lemma 1's analogue: extending a pattern shrinks its support set."""
        for pattern in ([0], [0, 1], [0, 1, 2]):
            longer = list(pattern) + [3]
            assert db.tidset(longer) & ~db.tidset(pattern) == 0

    def test_frequent_items(self, db):
        assert db.frequent_items(4) == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            SequenceDatabase([[-1]])
        with pytest.raises(ValueError):
            SequenceDatabase([[5]], n_items=2)

    def test_minsup_conversion(self, db):
        assert db.absolute_minsup(0.5) == 2
        assert db.absolute_minsup(3) == 3
        with pytest.raises(ValueError):
            db.absolute_minsup(0)


class TestPrefixSpan:
    @pytest.fixture
    def db(self):
        return SequenceDatabase(
            [[0, 1, 2], [0, 2, 1], [0, 1], [2, 0, 1]], n_items=3
        )

    def test_against_brute_force(self, db):
        minsup = 2
        result = prefixspan(db, minsup)
        # Brute force: every sequence over the alphabet up to length 3.
        alphabet = range(3)
        expected = set()
        for length in (1, 2, 3):
            from itertools import product

            for candidate in product(alphabet, repeat=length):
                if db.support(candidate) >= minsup:
                    expected.add(candidate)
        assert result.sequences() == expected

    def test_supports_correct(self, db):
        for p in prefixspan(db, 2).patterns:
            assert p.tidset == db.tidset(p.sequence)

    def test_max_length(self, db):
        result = prefixspan(db, 2, max_length=1)
        assert {len(p.sequence) for p in result.patterns} == {1}

    def test_max_patterns(self, db):
        assert len(prefixspan(db, 1, max_patterns=4)) == 4

    def test_order_matters(self):
        db = SequenceDatabase([[0, 1]] * 3 + [[1, 0]] * 2, n_items=2)
        result = prefixspan(db, 3)
        assert (0, 1) in result.sequences()
        assert (1, 0) not in result.sequences()

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=3), max_size=6),
            min_size=1, max_size=8,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_outputs_frequent_and_complete_l1(self, rows, minsup):
        db = SequenceDatabase(rows, n_items=4)
        result = prefixspan(db, minsup)
        for p in result.patterns:
            assert p.support >= minsup
        singles = {p.sequence for p in result.patterns if len(p.sequence) == 1}
        assert singles == {(i,) for i in db.frequent_items(minsup)}


class TestLCS:
    def test_basic(self):
        assert longest_common_subsequence((1, 2, 3, 4), (2, 4, 5)) == (2, 4)

    def test_empty(self):
        assert longest_common_subsequence((), (1, 2)) == ()

    def test_identical(self):
        assert longest_common_subsequence((1, 2, 3), (1, 2, 3)) == (1, 2, 3)

    def test_disjoint(self):
        assert longest_common_subsequence((1, 2), (3, 4)) == ()

    @given(short_sequences, short_sequences)
    @settings(max_examples=80)
    def test_result_embeds_in_both(self, a, b):
        lcs = longest_common_subsequence(tuple(a), tuple(b))
        assert is_subsequence(lcs, a)
        assert is_subsequence(lcs, b)

    @given(short_sequences, short_sequences)
    @settings(max_examples=40)
    def test_symmetric_length(self, a, b):
        forward = longest_common_subsequence(tuple(a), tuple(b))
        backward = longest_common_subsequence(tuple(b), tuple(a))
        assert len(forward) == len(backward)


class TestCommonPattern:
    def test_common_of_supporters(self):
        db = SequenceDatabase(
            [[9, 0, 1, 8, 2], [0, 7, 1, 2], [0, 1, 2, 6]], n_items=10
        )
        pattern = common_pattern_of_tidset(db, 0b111)
        assert pattern == (0, 1, 2)

    def test_empty_tidset(self):
        db = SequenceDatabase([[0]], n_items=1)
        assert common_pattern_of_tidset(db, 0) == ()

    def test_sound_for_any_tidset(self):
        db, _ = motif_sequences(n_sequences=30, motif_lengths=(8,), seed=3)
        for tidset in (0b1, 0b1010101, db.universe):
            pattern = common_pattern_of_tidset(db, tidset)
            if pattern:
                assert db.tidset(pattern) & tidset == tidset


class TestSequenceFusion:
    def test_recovers_planted_motif(self):
        db, motifs = motif_sequences(
            n_sequences=120, motif_lengths=(20,), seed=1
        )
        result = sequence_pattern_fusion(
            db, 30,
            PatternFusionConfig(k=8, initial_pool_max_size=2, seed=0),
        )
        assert result.largest(1)[0].sequence == motifs[0]

    def test_two_motifs_both_found(self):
        db, motifs = motif_sequences(
            n_sequences=150, motif_lengths=(15, 12), motif_support=0.45, seed=2
        )
        result = sequence_pattern_fusion(
            db, 25,
            PatternFusionConfig(k=10, initial_pool_max_size=2, seed=1),
        )
        mined = {p.sequence for p in result.patterns}
        assert motifs[0] in mined
        assert motifs[1] in mined

    def test_all_outputs_frequent(self):
        db, _ = motif_sequences(n_sequences=80, motif_lengths=(10,), seed=4)
        minsup = 20
        result = sequence_pattern_fusion(
            db, minsup, PatternFusionConfig(k=6, seed=2)
        )
        for p in result.patterns:
            assert db.support(p.sequence) >= minsup
            assert p.tidset == db.tidset(p.sequence)

    def test_min_length_non_decreasing(self):
        db, _ = motif_sequences(n_sequences=100, motif_lengths=(16,), seed=5)
        result = sequence_pattern_fusion(
            db, 25, PatternFusionConfig(k=8, seed=3)
        )
        mins = [entry[1] for entry in result.history]
        assert mins == sorted(mins)

    def test_deterministic(self):
        db, _ = motif_sequences(n_sequences=60, motif_lengths=(10,), seed=6)
        config = PatternFusionConfig(k=5, seed=7)
        a = sequence_pattern_fusion(db, 15, config)
        b = sequence_pattern_fusion(db, 15, config)
        assert {p.sequence for p in a.patterns} == {p.sequence for p in b.patterns}

    @on_kernel
    def test_pool_digest(self):
        """The sequence RNG stream and greedy passes are pinned.

        Its passes shrink the running tidset about once in four, so the
        walk's shrink path is pinned too.
        """
        db, _ = motif_sequences(
            n_sequences=80, motif_lengths=(8, 6), motif_support=0.3, seed=3
        )
        config = PatternFusionConfig(
            k=10, tau=0.3, initial_pool_max_size=2, seed=4
        )
        result = sequence_pattern_fusion(db, 8, config)
        key = sorted(
            (list(p.sequence), format(p.tidset, "x")) for p in result.patterns
        )
        digest = hashlib.sha256(json.dumps(key).encode()).hexdigest()[:16]
        assert digest == "f978c623b6ac59f5"


class TestMotifDataset:
    def test_motifs_frequent(self):
        db, motifs = motif_sequences(n_sequences=100, motif_lengths=(12, 9), seed=8)
        for motif in motifs:
            assert db.support(motif) >= 20

    def test_alphabets_disjoint_from_noise(self):
        db, motifs = motif_sequences(noise_items=30, motif_lengths=(5,), seed=9)
        assert all(item >= 30 for item in motifs[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            motif_sequences(motif_support=0.0)


class TestSequencePatternType:
    def test_str_and_props(self):
        p = SequencePattern(sequence=(3, 1, 3), tidset=0b101)
        assert p.support == 2
        assert p.length == 3
        assert str(p) == "<3,1,3>#2"

    def test_subsequence_relation(self):
        small = SequencePattern(sequence=(1, 3), tidset=0)
        big = SequencePattern(sequence=(1, 2, 3), tidset=0)
        assert small.is_subsequence_of(big)
        assert not big.is_subsequence_of(small)
