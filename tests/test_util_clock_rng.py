"""Tests for clocks and deterministic RNG derivation."""

import pytest

from repro.util.clock import SimClock, isoformat
from repro.util.rng import derive_seed, rng_for


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock(5.0).now() == 5.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now() == 1.5
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_cannot_go_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_time_does_not_move_on_its_own(self):
        clock = SimClock()
        assert clock.now() == clock.now() == 0.0


class TestIsoformat:
    def test_epoch(self):
        assert isoformat(0.0) == "1970-01-01T00:00:00.000Z"

    def test_fractional_seconds(self):
        assert isoformat(0.5).endswith(".500Z")

    def test_sortable(self):
        assert isoformat(100.0) < isoformat(200.0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_labels_matter(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_parent_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_path_not_concatenation_ambiguous(self):
        assert derive_seed(42, "ab", "c") != derive_seed(42, "a", "bc")

    def test_rng_for_streams_independent(self):
        a = rng_for(7, "x").random(4)
        b = rng_for(7, "y").random(4)
        assert not (a == b).all()

    def test_rng_for_reproducible(self):
        assert (rng_for(7, "x").random(4) == rng_for(7, "x").random(4)).all()
