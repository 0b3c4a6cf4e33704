"""Unit and property tests for the Gilbert loss process."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces.gilbert import (
    GilbertModel,
    bitmask_from_bytes,
    bytes_from_bitmask,
    iter_set_bits,
)


class TestModel:
    def test_from_rate_and_burst_roundtrip(self):
        model = GilbertModel.from_rate_and_burst(0.05, 4.0)
        assert model.loss_rate == pytest.approx(0.05)
        assert model.mean_burst_length == pytest.approx(4.0)

    def test_zero_rate(self):
        model = GilbertModel.from_rate_and_burst(0.0, 5.0)
        assert model.loss_rate == 0.0
        assert model.sample(100, random.Random(0)) == bytes(100)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            GilbertModel.from_rate_and_burst(1.0, 4.0)
        with pytest.raises(ValueError):
            GilbertModel.from_rate_and_burst(-0.1, 4.0)

    def test_invalid_burst(self):
        with pytest.raises(ValueError):
            GilbertModel.from_rate_and_burst(0.1, 0.5)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            GilbertModel(p_gb=1.5, p_bg=0.5)
        with pytest.raises(ValueError):
            GilbertModel(p_gb=0.5, p_bg=-0.1)

    def test_scaled_preserves_burst(self):
        model = GilbertModel.from_rate_and_burst(0.05, 4.0)
        scaled = model.scaled(2.0)
        assert scaled.loss_rate == pytest.approx(0.10)
        assert scaled.mean_burst_length == pytest.approx(4.0)

    def test_scaled_caps_rate(self):
        model = GilbertModel.from_rate_and_burst(0.5, 4.0)
        assert model.scaled(10.0).loss_rate <= 0.95


class TestSampling:
    def test_marginal_rate_converges(self):
        model = GilbertModel.from_rate_and_burst(0.08, 5.0)
        n = 200_000
        sample = model.sample(n, random.Random(1))
        assert sum(sample) / n == pytest.approx(0.08, rel=0.10)

    def test_mean_burst_converges(self):
        model = GilbertModel.from_rate_and_burst(0.08, 5.0)
        sample = model.sample(200_000, random.Random(2))
        bursts = []
        run = 0
        for bit in sample:
            if bit:
                run += 1
            elif run:
                bursts.append(run)
                run = 0
        assert sum(bursts) / len(bursts) == pytest.approx(5.0, rel=0.15)

    def test_slot_and_mask_samplers_agree_statistically(self):
        model = GilbertModel.from_rate_and_burst(0.10, 4.0)
        n = 100_000
        slots = model.sample_slots(n, random.Random(3))
        mask = model.sample_mask(n, random.Random(4))
        rate_slots = sum(slots) / n
        rate_mask = bin(mask).count("1") / n
        assert rate_slots == pytest.approx(rate_mask, rel=0.15)

    def test_sampling_is_deterministic(self):
        model = GilbertModel.from_rate_and_burst(0.05, 3.0)
        assert model.sample(5000, random.Random(7)) == model.sample(
            5000, random.Random(7)
        )

    def test_empty_sample(self):
        model = GilbertModel.from_rate_and_burst(0.05, 3.0)
        assert model.sample(0, random.Random(0)) == b""
        assert model.sample_mask(0, random.Random(0)) == 0

    def test_sub_epsilon_rate_samples_without_error(self):
        # p_gb is about 3e-18, so 1 - p_gb rounds to 1.0: the GOOD run
        # spans the whole trace.
        model = GilbertModel.from_rate_and_burst(1e-17, 3.0)
        assert 1.0 - model.p_gb == 1.0
        for seed in range(20):
            assert model.sample_mask(200, random.Random(seed)) < (1 << 200)

    def test_mask_never_exceeds_length(self):
        model = GilbertModel.from_rate_and_burst(0.5, 10.0)
        for seed in range(20):
            mask = model.sample_mask(64, random.Random(seed))
            assert mask < (1 << 64)

    def test_burstiness_exceeds_bernoulli(self):
        """Gilbert with long bursts produces far fewer, longer runs than a
        Bernoulli process of the same marginal rate."""
        rate, n = 0.10, 100_000
        gilbert = GilbertModel.from_rate_and_burst(rate, 8.0)
        sample = gilbert.sample(n, random.Random(5))

        def run_count(seq):
            runs, prev = 0, 0
            for bit in seq:
                if bit and not prev:
                    runs += 1
                prev = bit
            return runs

        rng = random.Random(6)
        bernoulli = bytes(1 if rng.random() < rate else 0 for _ in range(n))
        assert run_count(sample) < run_count(bernoulli) / 3


class TestBitmaskHelpers:
    @given(st.binary(max_size=300).map(lambda b: bytes(x & 1 for x in b)))
    def test_roundtrip(self, seq):
        assert bytes_from_bitmask(bitmask_from_bytes(seq), len(seq)) == seq

    @given(st.integers(min_value=0, max_value=2**200 - 1))
    def test_iter_set_bits_matches_binary(self, mask):
        positions = list(iter_set_bits(mask))
        assert positions == sorted(positions)
        rebuilt = 0
        for p in positions:
            rebuilt |= 1 << p
        assert rebuilt == mask

    def test_bytes_from_bitmask_empty(self):
        assert bytes_from_bitmask(0, 0) == b""

    def test_bytes_from_bitmask_truncates(self):
        assert bytes_from_bitmask(0b101, 3) == bytes([1, 0, 1])
        assert bytes_from_bitmask(0b101, 2) == bytes([1, 0])
