"""Tests for blocks, the hash chain, and the block store."""

import pytest

from repro.crypto.merkle import MerkleTree
from repro.errors import LedgerError
from repro.fabric import GENESIS_PREVIOUS_HASH
from repro.fabric.identity import Identity
from repro.fabric.ledger import Block, BlockStore
from repro.fabric.tx import (
    Endorsement,
    ReadWriteSet,
    Transaction,
    TxProposal,
    ValidationCode,
    WriteEntry,
)


def make_tx(n=0):
    identity = Identity.create("alice", "org1")
    proposal = TxProposal(
        tx_id=f"tx-{n}",
        channel="ch",
        chaincode="kv",
        fn="put",
        args=("k", str(n)),
        creator=identity.info(),
        timestamp=float(n),
        signature=b"\x00" * 64,
    )
    rwset = ReadWriteSet(writes=(WriteEntry(key="k", value=str(n).encode()),))
    endorsement = Endorsement(endorser=identity.info(), signature=b"\x00" * 64)
    return Transaction(
        proposal=proposal, rwset=rwset, response="{}", endorsements=(endorsement,)
    )


def make_block(number, prev, n_txs=2):
    txs = tuple(make_tx(number * 10 + i) for i in range(n_txs))
    return Block.build(number=number, previous_hash=prev, transactions=txs, timestamp=1.0)


class TestBlock:
    def test_header_hash_deterministic(self):
        b = make_block(0, GENESIS_PREVIOUS_HASH)
        assert b.header.hash() == b.header.hash()

    def test_data_hash_covers_transactions(self):
        b1 = Block.build(0, GENESIS_PREVIOUS_HASH, (make_tx(1),), 1.0)
        b2 = Block.build(0, GENESIS_PREVIOUS_HASH, (make_tx(2),), 1.0)
        assert b1.header.data_hash != b2.header.data_hash

    def test_with_validation_requires_matching_length(self):
        b = make_block(0, GENESIS_PREVIOUS_HASH, n_txs=2)
        with pytest.raises(LedgerError):
            b.with_validation([ValidationCode.VALID])

    def test_tx_merkle_proof(self):
        b = make_block(0, GENESIS_PREVIOUS_HASH, n_txs=4)
        tree = MerkleTree([tx.envelope_bytes() for tx in b.transactions])
        assert tree.root.hex() == b.header.data_hash  # the header commits to the txs
        proof = tree.proof(2)
        proof.verify(b.transactions[2].envelope_bytes(), tree.root)


class TestBlockStore:
    def test_append_and_height(self):
        store = BlockStore()
        b0 = make_block(0, GENESIS_PREVIOUS_HASH)
        store.append(b0)
        assert store.height == 1
        assert store.block(0) is b0

    def test_chain_grows_with_linked_hashes(self):
        store = BlockStore()
        b0 = make_block(0, GENESIS_PREVIOUS_HASH)
        store.append(b0)
        b1 = make_block(1, b0.header.hash())
        store.append(b1)
        store.verify_chain()

    def test_wrong_number_rejected(self):
        store = BlockStore()
        with pytest.raises(LedgerError):
            store.append(make_block(5, GENESIS_PREVIOUS_HASH))

    def test_broken_link_rejected(self):
        store = BlockStore()
        store.append(make_block(0, GENESIS_PREVIOUS_HASH))
        with pytest.raises(LedgerError):
            store.append(make_block(1, "ff" * 32))

    def test_forged_data_hash_rejected(self):
        store = BlockStore()
        b0 = make_block(0, GENESIS_PREVIOUS_HASH)
        # Tamper: swap transactions but keep the old header.
        forged = Block(header=b0.header, transactions=(make_tx(99),))
        with pytest.raises(LedgerError):
            store.append(forged)

    def test_find_tx(self):
        store = BlockStore()
        b0 = make_block(0, GENESIS_PREVIOUS_HASH, n_txs=3).with_validation(
            [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT, ValidationCode.VALID]
        )
        store.append(b0)
        block, tx, code = store.find_tx("tx-1")
        assert block.number == 0
        assert tx.tx_id == "tx-1"
        assert code is ValidationCode.MVCC_READ_CONFLICT

    def test_find_missing_tx_raises(self):
        with pytest.raises(LedgerError):
            BlockStore().find_tx("ghost")

    def test_missing_block_raises(self):
        with pytest.raises(LedgerError):
            BlockStore().block(0)

    def test_last_hash_genesis(self):
        assert BlockStore().last_hash() == GENESIS_PREVIOUS_HASH

    def test_verify_chain_detects_post_hoc_tamper(self):
        store = BlockStore()
        b0 = make_block(0, GENESIS_PREVIOUS_HASH)
        store.append(b0)
        b1 = make_block(1, b0.header.hash())
        store.append(b1)
        # Simulate direct mutation of history.
        store._blocks[0] = Block(header=b0.header, transactions=(make_tx(77),))
        with pytest.raises(LedgerError):
            store.verify_chain()
