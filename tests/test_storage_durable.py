"""DurableStore disk semantics and the wire codec: framing, sync tiers,
torn writes, injected media faults, atomic files, and exact round-trips."""

import pytest

from repro.crypto.merkle import merkle_root
from repro.errors import StorageError, WalCorruptionError
from repro.storage import CORRUPT, TRUNCATE, DurableStore
from repro.storage.codec import (
    block_from_doc,
    block_to_doc,
    tx_from_doc,
    tx_to_doc,
)
from repro.util.serialization import canonical_json

from tests.fabric_helpers import make_network


class TestFramingAndSync:
    def test_synced_records_round_trip_in_order(self):
        store = DurableStore()
        payloads = [b"alpha", b"beta", b"\x00" * 100, b""]
        for p in payloads:
            store.append("wal", p)
        store.sync()
        records, tail = store.read_log("wal")
        assert records == payloads
        assert tail == ""

    def test_unsynced_records_are_invisible_to_readers(self):
        store = DurableStore()
        store.append("wal", b"never synced")
        assert store.read_log("wal") == ([], "")
        assert store.log_bytes("wal") == 0
        assert store.log_bytes("wal", synced_only=False) > 0

    def test_crash_loses_exactly_the_unsynced_tier(self):
        store = DurableStore()
        store.append("wal", b"durable")
        store.sync()
        store.append("wal", b"page cache only")
        store.crash()
        assert store.read_log("wal") == ([b"durable"], "")

    def test_torn_crash_leaves_a_detectable_partial_frame(self):
        store = DurableStore()
        store.append("wal", b"interrupted mid-write")
        store.crash(torn=True)
        records, tail = store.read_log("wal")
        assert records == []
        assert tail == "torn"

    def test_payload_must_be_bytes(self):
        with pytest.raises(StorageError, match="bytes"):
            DurableStore().append("wal", "a string")  # type: ignore[arg-type]


class TestMediaFaults:
    def _store_with(self, *payloads):
        store = DurableStore()
        for p in payloads:
            store.append("wal", p)
        store.sync()
        return store

    def test_truncate_drops_only_the_last_frame(self):
        store = self._store_with(b"first", b"second", b"third")
        detail = store.damage_tail("wal", TRUNCATE)
        assert "frame 3" in detail
        records, tail = store.read_log("wal")
        assert records == [b"first", b"second"]
        assert tail == "torn"

    def test_corrupt_raises_on_read(self):
        store = self._store_with(b"rotting payload", b"after")
        store.damage_tail("wal", CORRUPT)
        with pytest.raises(WalCorruptionError, match="checksum mismatch"):
            store.read_log("wal")

    def test_damage_on_empty_log_is_a_noop(self):
        assert DurableStore().damage_tail("wal", CORRUPT).startswith("no-op")

    def test_unknown_mode_is_an_error(self):
        with pytest.raises(StorageError, match="unknown damage mode"):
            self._store_with(b"x").damage_tail("wal", "shred")

    def test_truncate_log_drops_both_tiers(self):
        store = self._store_with(b"old")
        store.append("wal", b"pending")
        store.truncate_log("wal")
        store.sync()
        assert store.read_log("wal") == ([], "")


class TestAtomicFiles:
    def test_file_visible_only_after_sync(self):
        store = DurableStore()
        store.write_file("checkpoint", b"v1")
        assert store.read_file("checkpoint") is None
        store.sync()
        assert store.read_file("checkpoint") == b"v1"

    def test_crash_discards_the_pending_replacement(self):
        store = DurableStore()
        store.write_file("checkpoint", b"v1")
        store.sync()
        store.write_file("checkpoint", b"v2-half-written")
        store.crash()
        assert store.read_file("checkpoint") == b"v1"

    def test_corrupt_file_flips_content(self):
        store = DurableStore()
        store.write_file("checkpoint", b"pristine-bytes")
        store.sync()
        assert "checkpoint" in store.corrupt_file("checkpoint")
        assert store.read_file("checkpoint") != b"pristine-bytes"

    def test_listings(self):
        store = DurableStore()
        store.append("wal", b"r")
        store.write_file("checkpoint", b"c")
        store.sync()
        assert store.logs() == ["wal"]
        assert store.files() == ["checkpoint"]


class TestCodecRoundTrip:
    def _committed_block(self):
        net, channel, alice = make_network(peers_per_org=2)
        channel.invoke(alice, "kv", "put", ["k", "v"])
        channel.invoke(alice, "kv", "put_indexed", ["cat", "item", "v2"])
        peer = next(iter(channel.peers.values()))
        return peer.ledger.block(peer.ledger.height - 1)

    def test_tx_round_trips_exactly(self):
        block = self._committed_block()
        for tx in block.transactions:
            doc = tx_to_doc(tx)
            assert canonical_json(tx_to_doc(tx_from_doc(doc))) == canonical_json(doc)
            rebuilt = tx_from_doc(doc)
            assert rebuilt.tx_id == tx.tx_id
            assert rebuilt.rwset == tx.rwset
            assert rebuilt.endorsements == tx.endorsements

    def test_block_round_trips_with_validation_codes(self):
        block = self._committed_block()
        doc = block_to_doc(block)
        rebuilt = block_from_doc(doc)
        assert rebuilt.header == block.header
        assert tuple(rebuilt.validation_codes) == tuple(block.validation_codes)
        assert canonical_json(block_to_doc(rebuilt)) == canonical_json(doc)

    def test_tx_doc_carries_only_the_envelope_fields(self):
        """A WAL tx doc is the envelope's content and nothing beside it; a
        multi-tx block decodes to the same envelopes and data hash."""
        net, channel, alice = make_network(max_batch_size=3)
        for i in range(3):
            channel.invoke_async(alice, "kv", "put", [f"k{i}", f"v{i}"])
        channel.flush()
        peer = next(iter(channel.peers.values()))
        block = peer.ledger.block(peer.ledger.height - 1)
        assert len(block.transactions) == 3
        for tx in block.transactions:
            doc = tx_to_doc(tx)
            assert set(doc) == {"proposal", "rwset", "response", "endorsements", "events"}
            assert "transient" not in doc["proposal"]
        rebuilt = block_from_doc(block_to_doc(block))
        envelopes = [tx.envelope_bytes() for tx in rebuilt.transactions]
        assert envelopes == [tx.envelope_bytes() for tx in block.transactions]
        assert merkle_root(envelopes).hex() == rebuilt.header.data_hash == block.header.data_hash
