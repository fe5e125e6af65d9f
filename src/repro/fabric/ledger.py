"""The ledger: a hash-chained block store.

Each block header carries the previous header's hash and the Merkle root of
the block's transaction envelopes, so any historical tamper breaks the chain
at verification. Block metadata records the per-transaction validation codes
the committer assigned — invalid transactions stay in the block (the audit
trail the paper's provenance story needs) but never touch the world state.

What "intact" means is defined once, in :mod:`repro.fabric.audit`;
:meth:`BlockStore.append` and :meth:`BlockStore.verify_chain` run those
checks and turn the first finding into a :class:`LedgerError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.merkle import merkle_root
from repro.errors import LedgerError
from repro.fabric.audit import AuditFinding, check_block, check_chain
from repro.fabric.tx import Transaction, ValidationCode
from repro.util.serialization import canonical_json, once


@dataclass(frozen=True)
class BlockHeader:
    number: int
    previous_hash: str
    data_hash: str  # Merkle root of tx envelopes
    timestamp: float

    def hash(self) -> str:
        return once(self, "hash", self._hash)

    def _hash(self) -> str:
        return hashlib.sha256(
            canonical_json(
                {
                    "number": self.number,
                    "previous_hash": self.previous_hash,
                    "data_hash": self.data_hash,
                    "timestamp": self.timestamp,
                }
            )
        ).hexdigest()


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple[Transaction, ...]
    # Parallel to transactions; filled by the committer.
    validation_codes: tuple[ValidationCode, ...] = ()

    @property
    def number(self) -> int:
        return self.header.number

    @classmethod
    def build(
        cls,
        number: int,
        previous_hash: str,
        transactions: tuple[Transaction, ...],
        timestamp: float,
    ) -> "Block":
        data_hash = merkle_root([tx.envelope_bytes() for tx in transactions]).hex()
        header = BlockHeader(
            number=number,
            previous_hash=previous_hash,
            data_hash=data_hash,
            timestamp=timestamp,
        )
        return cls(header=header, transactions=transactions)

    def with_validation(self, codes: list[ValidationCode]) -> "Block":
        if len(codes) != len(self.transactions):
            raise LedgerError("one validation code required per transaction")
        return Block(
            header=self.header,
            transactions=self.transactions,
            validation_codes=tuple(codes),
        )


GENESIS_PREVIOUS_HASH = "0" * 64


def _raise_first(findings: list[AuditFinding]) -> None:
    if findings:
        first = findings[0]
        raise LedgerError(f"block {first.block}: {first.detail}")


@dataclass
class BlockStore:
    """Append-only chain of blocks with lookup indexes.

    A store normally starts at genesis; a peer bootstrapped from a state
    snapshot starts at a *checkpoint* (``base_height``/``base_prev_hash``)
    and stores only blocks from there forward — the snapshot vouches for
    everything before it.
    """

    base_height: int = 0
    base_prev_hash: str = "0" * 64
    _blocks: list[Block] = field(default_factory=list)
    _by_txid: dict[str, tuple[int, int]] = field(default_factory=dict)

    def append(self, block: Block) -> None:
        # The store never trusts the producer: same checks as verify_chain.
        _raise_first(check_block(block, self.height, self.last_hash()))
        self._blocks.append(block)
        for i, tx in enumerate(block.transactions):
            self._by_txid.setdefault(tx.tx_id, (block.number, i))

    @property
    def height(self) -> int:
        return self.base_height + len(self._blocks)

    def block(self, number: int) -> Block:
        idx = number - self.base_height
        if idx < 0:
            raise LedgerError(
                f"block {number} predates this store's checkpoint ({self.base_height})"
            )
        try:
            return self._blocks[idx]
        except IndexError:
            raise LedgerError(f"no block {number} (height {self.height})") from None

    def last_hash(self) -> str:
        return self._blocks[-1].header.hash() if self._blocks else self.base_prev_hash

    def blocks(self) -> list[Block]:
        return list(self._blocks)

    def find_tx(self, tx_id: str) -> tuple[Block, Transaction, ValidationCode]:
        """Locate a transaction and its validation outcome."""
        try:
            block_num, idx = self._by_txid[tx_id]
        except KeyError:
            raise LedgerError(f"transaction {tx_id!r} not found") from None
        block = self.block(block_num)
        code = (
            block.validation_codes[idx]
            if block.validation_codes
            else ValidationCode.VALID
        )
        return block, block.transactions[idx], code

    def has_tx(self, tx_id: str) -> bool:
        return tx_id in self._by_txid

    def verify_chain(self) -> None:
        """Full-chain audit (from the checkpoint forward): block numbering,
        hash links and per-block Merkle roots."""
        _raise_first(check_chain(self))
