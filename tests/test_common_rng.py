"""Unit tests for repro.common.rng."""

import pytest

from repro.common.rng import DeterministicRng, make_rng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_fork_is_deterministic_and_independent(self):
        a = DeterministicRng(42).fork(1)
        b = DeterministicRng(42).fork(1)
        c = DeterministicRng(42).fork(2)
        seq_a = [a.random() for _ in range(5)]
        seq_b = [b.random() for _ in range(5)]
        seq_c = [c.random() for _ in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_c


class TestWeightedIndex:
    def test_single_positive_weight_always_wins(self):
        rng = DeterministicRng(0)
        assert all(rng.weighted_index([0.0, 5.0, 0.0]) == 1 for _ in range(50))

    def test_proportions_roughly_respected(self):
        rng = DeterministicRng(3)
        counts = [0, 0]
        for _ in range(4000):
            counts[rng.weighted_index([1.0, 3.0])] += 1
        ratio = counts[1] / (counts[0] + counts[1])
        assert 0.68 < ratio < 0.82

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).weighted_index([1.0, -0.5])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).weighted_index([0.0, 0.0])


class TestMakeRng:
    def test_accepts_none_int_and_rng(self):
        assert isinstance(make_rng(None), DeterministicRng)
        assert make_rng(7).seed == 7
        rng = DeterministicRng(9)
        assert make_rng(rng) is rng

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            make_rng("seed")
