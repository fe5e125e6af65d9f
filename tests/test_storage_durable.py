"""DurableStore disk semantics and the wire codec: framing, sync tiers,
torn writes, injected media faults, atomic files, and exact round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.merkle import merkle_root
from repro.errors import StorageError, WalCorruptionError
from repro.fabric.identity import IdentityInfo, Role
from repro.fabric.ledger import Block, BlockHeader
from repro.fabric.tx import (
    ChaincodeEvent,
    Endorsement,
    ReadEntry,
    ReadWriteSet,
    Transaction,
    TxProposal,
    ValidationCode,
    WriteEntry,
)
from repro.fabric.worldstate import Version
from repro.storage import CORRUPT, TRUNCATE, DurableStore
from repro.storage.codec import (
    batch_record,
    block_from_doc,
    block_record,
    block_to_doc,
    tx_from_doc,
    tx_to_doc,
)
from repro.util.serialization import canonical_json

from tests import serialization_oracle as oracle
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

    def test_a_delete_is_staged_like_a_write(self):
        store = DurableStore()
        for name in ("base", "delta-1"):
            store.write_file(name, b"v1")
        store.sync()
        store.write_file("base", b"v2")
        store.delete_file("delta-1")
        assert store.files() == ["base", "delta-1"]
        store.crash()  # neither the write nor the delete reached the disk
        assert (store.read_file("base"), store.files()) == (b"v1", ["base", "delta-1"])
        store.write_file("base", b"v2")
        store.delete_file("delta-1")
        store.sync()  # both did, together
        assert (store.read_file("base"), store.files()) == (b"v2", ["base"])

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
            assert set(doc) == {
                "proposal", "proposal_sig", "rwset", "response", "endorsements", "events"
            }
            assert "transient" not in doc["proposal"]
            assert canonical_json(doc["proposal"]) == tx.proposal.signing_payload()
            assert canonical_json(doc) == tx.envelope_bytes()
        rebuilt = block_from_doc(block_to_doc(block))
        envelopes = [tx.envelope_bytes() for tx in rebuilt.transactions]
        assert envelopes == [tx.envelope_bytes() for tx in block.transactions]
        assert merkle_root(envelopes).hex() == rebuilt.header.data_hash == block.header.data_hash


_numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers()
_json_values = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_identities = st.builds(
    IdentityInfo,
    name=st.text(), org=st.text(), role=st.sampled_from(Role), public_key_hex=st.text(),
)
_transactions = st.builds(
    Transaction,
    proposal=st.builds(
        TxProposal,
        tx_id=st.text(), channel=st.text(), chaincode=st.text(), fn=st.text(),
        args=st.lists(st.text(), max_size=3).map(tuple),
        creator=_identities, timestamp=_numbers, signature=st.binary(max_size=64),
    ),
    rwset=st.builds(
        ReadWriteSet,
        reads=st.lists(
            st.builds(
                ReadEntry,
                key=st.text(),
                version=st.none() | st.builds(
                    Version, block=st.integers(0, 2**40), tx=st.integers(0, 2**20)
                ),
            ),
            max_size=3,
        ).map(tuple),
        writes=st.lists(
            st.builds(
                WriteEntry,
                key=st.text(), value=st.none() | st.binary(max_size=32),
                is_delete=st.booleans(),
            ),
            max_size=3,
        ).map(tuple),
    ),
    response=st.text(),
    endorsements=st.lists(
        st.builds(Endorsement, endorser=_identities, signature=st.binary(max_size=64)),
        max_size=2,
    ).map(tuple),
    events=st.lists(
        st.builds(
            ChaincodeEvent,
            chaincode=st.text(), name=st.text(),
            payload=st.dictionaries(st.text(), _json_values, max_size=3),
        ),
        max_size=2,
    ).map(tuple),
)


def _envelope_doc(tx: Transaction) -> dict:
    """The document a transaction's envelope stands for, from its fields."""
    proposal = tx.proposal
    return {
        "proposal": {
            "tx_id": proposal.tx_id, "channel": proposal.channel,
            "chaincode": proposal.chaincode, "fn": proposal.fn, "args": list(proposal.args),
            "creator": proposal.creator.to_dict(), "timestamp": proposal.timestamp,
        },
        "proposal_sig": proposal.signature.hex(),
        "rwset": tx.rwset.to_dict(),
        "response": tx.response,
        "endorsements": [
            {"endorser": e.endorser.to_dict(), "sig": e.signature.hex()} for e in tx.endorsements
        ],
        "events": [ev.to_dict() for ev in tx.events],
    }


class TestWalRecordRendering:
    """The WAL records are rendered in parts around the envelopes, so each is
    held to the former renderer (``tests/serialization_oracle.py``) of the
    document it stands for: the same bytes, or both refuse."""

    @settings(max_examples=150, deadline=None)
    @given(txs=st.lists(_transactions, max_size=3))
    def test_transactions_and_batches(self, txs):
        for tx in txs:
            got = oracle.outcome(tx.envelope_bytes)
            assert oracle.same(got, oracle.expected(_envelope_doc(tx)))
            if isinstance(got, bytes):
                assert got == canonical_json(tx_to_doc(tx))
        for request_id in ("batch-0", "b\"\u00e9\n"):
            want = oracle.expected(
                {"type": "batch", "request_id": request_id,
                 "txs": [_envelope_doc(t) for t in txs]}
            )
            assert oracle.same(oracle.outcome(batch_record, request_id, txs), want)

    @settings(max_examples=150, deadline=None)
    @given(
        txs=st.lists(_transactions, max_size=2),
        number=st.integers(0, 2**63),
        hashes=st.tuples(st.text(), st.text()),
        timestamp=_numbers,
        codes=st.lists(st.sampled_from(ValidationCode), min_size=2, max_size=2),
        rejected=st.lists(st.integers(0, 2**31), max_size=3),
        epoch=st.none() | st.text(),
    )
    def test_blocks(self, txs, number, hashes, timestamp, codes, rejected, epoch):
        block = Block(
            header=BlockHeader(
                number=number, previous_hash=hashes[0], data_hash=hashes[1],
                timestamp=timestamp, rejected=tuple(rejected),
            ),
            transactions=tuple(txs),
            validation_codes=tuple(codes[: len(txs)]),
        )
        want = oracle.expected(
            {
                "type": "block",
                "block": {
                    "header": {
                        "number": number, "previous_hash": hashes[0],
                        "data_hash": hashes[1], "timestamp": timestamp,
                        "rejected": rejected,
                    },
                    "txs": [_envelope_doc(tx) for tx in txs],
                    "codes": [code.value for code in block.validation_codes],
                },
                "index_epoch": epoch,
            }
        )
        assert oracle.same(oracle.outcome(block_record, block, epoch), want)

    def test_an_unserialisable_value_is_refused_as_canonical_json_refuses_it(self):
        from repro.errors import EncodingError

        header = BlockHeader(number=1, previous_hash="p", data_hash="d", timestamp=float("nan"))
        with pytest.raises(EncodingError):
            block_record(Block(header=header, transactions=(), validation_codes=()), None)
