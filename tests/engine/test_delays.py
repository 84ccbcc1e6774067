"""Unit tests for the delay models."""

import random

import pytest

from repro.engine import Envelope, FixedDelay, SkewedPairDelay, UniformDelay


def env(sender="a", dest="b", send_time=0.0):
    return Envelope(sender=sender, dest=dest, payload="x", send_time=send_time)


class TestFixedDelay:
    def test_constant(self):
        model = FixedDelay(2.5)
        rng = random.Random(0)
        assert model.delay(env(), rng) == 2.5
        assert model.delay(env(), rng) == 2.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedDelay(-1)


class TestUniformDelay:
    def test_within_bounds(self):
        model = UniformDelay(1.0, 3.0)
        rng = random.Random(1)
        for _ in range(100):
            assert 1.0 <= model.delay(env(), rng) <= 3.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            UniformDelay(3.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelay(-1.0, 1.0)

    def test_seeded_reproducibility(self):
        model = UniformDelay()
        a = [model.delay(env(), random.Random(7)) for _ in range(3)]
        b = [model.delay(env(), random.Random(7)) for _ in range(3)]
        assert a == b


class TestSkewedPairDelay:
    def test_slow_pair_is_slow_both_directions(self):
        model = SkewedPairDelay([("a", "b")], base=FixedDelay(1.0), slow_delay=100.0)
        rng = random.Random(0)
        assert model.delay(env("a", "b"), rng) >= 100.0
        assert model.delay(env("b", "a"), rng) >= 100.0

    def test_other_pairs_use_base(self):
        model = SkewedPairDelay([("a", "b")], base=FixedDelay(1.0), slow_delay=100.0)
        rng = random.Random(0)
        assert model.delay(env("a", "c"), rng) == 1.0

    def test_victim_slows_every_link_touching_it(self):
        model = SkewedPairDelay(victims=["v"], base=FixedDelay(1.0), slow_delay=100.0)
        rng = random.Random(0)
        assert model.delay(env("v", "b"), rng) >= 100.0
        assert model.delay(env("b", "v"), rng) >= 100.0
        assert model.delay(env("a", "b"), rng) == 1.0

    def test_slow_delivery_jitter_is_bounded_and_seeded(self):
        model = SkewedPairDelay([("a", "b")], base=FixedDelay(1.0), slow_delay=100.0)
        first = [model.delay(env("a", "b"), random.Random(3)) for _ in range(5)]
        second = [model.delay(env("a", "b"), random.Random(3)) for _ in range(5)]
        assert first == second
        assert all(100.0 <= d <= 101.0 for d in first)

    def test_describe_counts_pairs_and_victims(self):
        model = SkewedPairDelay([("a", "b"), ("b", "a"), ("a", "c")], victims=["v"], base=FixedDelay(1.0))
        assert model.describe() == (
            "SkewedPairDelay(2 slow pairs, 1 victims, slow=1000.0, base=FixedDelay(1.0))"
        )

    def test_quorum_critical_rejects_empty_membership_and_negative_f(self):
        with pytest.raises(ValueError, match="non-empty"):
            SkewedPairDelay.quorum_critical([], f=0)
        with pytest.raises(ValueError, match="non-negative"):
            SkewedPairDelay.quorum_critical(["p0", "p1"], f=-1)

