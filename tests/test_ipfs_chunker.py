"""Tests for fixed-size and content-defined chunkers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipfs.chunker import FixedSizeChunker, RollingChunker
from repro.util.rng import rng_for


def chunk_sizes(chunker, data: bytes) -> list[int]:
    return [len(c) for c in chunker.chunks(data)]


class TestFixedSizeChunker:
    def test_empty_input_yields_one_empty_chunk(self):
        assert list(FixedSizeChunker(4).chunks(b"")) == [b""]

    def test_exact_multiple(self):
        chunks = list(FixedSizeChunker(4).chunks(b"abcdefgh"))
        assert chunks == [b"abcd", b"efgh"]

    def test_remainder_chunk(self):
        chunks = list(FixedSizeChunker(4).chunks(b"abcdefghij"))
        assert chunks == [b"abcd", b"efgh", b"ij"]

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            FixedSizeChunker(0)

    @given(st.binary(max_size=4096), st.integers(min_value=1, max_value=512))
    def test_concatenation_restores_input(self, data, size):
        assert b"".join(FixedSizeChunker(size).chunks(data)) == data

    @given(st.binary(min_size=1, max_size=4096), st.integers(min_value=1, max_value=512))
    def test_all_chunks_at_most_size(self, data, size):
        sizes = chunk_sizes(FixedSizeChunker(size), data)
        assert all(0 < s <= size for s in sizes)
        assert all(s == size for s in sizes[:-1])


class TestRollingChunker:
    def make(self, target=1024):
        return RollingChunker(target_size=target)

    def test_empty_input_yields_one_empty_chunk(self):
        assert list(self.make().chunks(b"")) == [b""]

    def test_concatenation_restores_input(self):
        data = rng_for(1, "cdc").bytes(100_000)
        assert b"".join(self.make().chunks(data)) == data

    def test_chunk_sizes_within_bounds(self):
        chunker = self.make(target=1024)
        data = rng_for(2, "cdc").bytes(200_000)
        sizes = chunk_sizes(chunker, data)
        assert all(s <= chunker.max_size for s in sizes)
        assert all(s >= chunker.min_size for s in sizes[:-1])  # last may be short

    def test_mean_chunk_size_near_target(self):
        chunker = self.make(target=1024)
        data = rng_for(3, "cdc").bytes(500_000)
        sizes = chunk_sizes(chunker, data)
        mean = sum(sizes) / len(sizes)
        assert 256 <= mean <= 4096  # within the configured clamp band

    def test_deterministic(self):
        data = rng_for(4, "cdc").bytes(50_000)
        assert chunk_sizes(self.make(), data) == chunk_sizes(self.make(), data)

    def test_insertion_only_shifts_nearby_boundaries(self):
        """The CDC property: chunks far from an insertion are unchanged."""
        chunker = self.make(target=512)
        data = rng_for(5, "cdc").bytes(100_000)
        original = set()
        import hashlib
        for c in chunker.chunks(data):
            original.add(hashlib.sha256(c).hexdigest())
        mutated = data[:50_000] + b"INSERTED" + data[50_000:]
        shared = sum(
            1
            for c in chunker.chunks(mutated)
            if hashlib.sha256(c).hexdigest() in original
        )
        total = len(chunk_sizes(chunker, mutated))
        assert shared / total > 0.8  # most chunks dedup against the original

    def test_fixed_chunker_has_no_such_property(self):
        """Contrast case: fixed chunking loses all chunks after an insertion."""
        chunker = FixedSizeChunker(512)
        data = rng_for(6, "cdc").bytes(100_000)
        import hashlib
        original = {hashlib.sha256(c).hexdigest() for c in chunker.chunks(data)}
        mutated = b"X" + data  # shift by one byte
        shared = sum(
            1
            for c in chunker.chunks(mutated)
            if hashlib.sha256(c).hexdigest() in original
        )
        assert shared <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingChunker(target_size=1)
        with pytest.raises(ValueError):
            RollingChunker(target_size=100, min_size=200, max_size=150)
        with pytest.raises(ValueError):
            RollingChunker(target_size=100, min_size=0)

    @settings(max_examples=25)
    @given(st.binary(max_size=20_000))
    def test_property_concatenation_restores(self, data):
        assert b"".join(RollingChunker(target_size=256).chunks(data)) == data

    @settings(max_examples=25)
    @given(st.binary(min_size=1, max_size=20_000))
    def test_property_bounds(self, data):
        chunker = RollingChunker(target_size=256)
        sizes = chunk_sizes(chunker, data)
        assert all(s <= chunker.max_size for s in sizes)
        assert all(s >= chunker.min_size for s in sizes[:-1])
        assert sizes[-1] >= 1
