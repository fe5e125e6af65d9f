"""HLF-like permissioned blockchain substrate: identities and MSPs,
endorsement policies, chaincode runtime with rwset capture, versioned world
state, hash-chained ledger, solo/BFT ordering, MVCC commit, gossip, events."""

from repro.fabric.chaincode import (
    Chaincode,
    ChaincodeDefinition,
    ChaincodeRegistry,
    ChaincodeStub,
)
from repro.fabric.channel import Channel, ChannelStats, FabricNetwork, TxResult
from repro.fabric.events import BlockEvent, EventHub
from repro.fabric.gossip import anti_entropy, sync_peer
from repro.fabric.identity import Identity, IdentityInfo, Role
from repro.fabric.ledger import Block, BlockHeader, BlockStore, GENESIS_PREVIOUS_HASH
from repro.fabric.msp import MSP, MSPRegistry
from repro.fabric.orderer import BftOrderer, SoloOrderer, default_tx_validator
from repro.fabric.peer import Peer, PeerStats
from repro.fabric.policy import AnyOf, Or, OutOf, Policy, SignedBy
from repro.fabric.tx import (
    ChaincodeEvent,
    Endorsement,
    ProposalResponse,
    ReadEntry,
    ReadWriteSet,
    Transaction,
    TxProposal,
    ValidationCode,
    WriteEntry,
    endorsement_payload,
)
from repro.fabric.worldstate import (
    HistoryEntry,
    Version,
    WorldState,
    composite_prefix_range,
    make_composite_key,
    split_composite_key,
)

__all__ = [
    "Chaincode",
    "ChaincodeDefinition",
    "ChaincodeRegistry",
    "ChaincodeStub",
    "Channel",
    "ChannelStats",
    "FabricNetwork",
    "TxResult",
    "BlockEvent",
    "EventHub",
    "anti_entropy",
    "sync_peer",
    "Identity",
    "IdentityInfo",
    "Role",
    "Block",
    "BlockHeader",
    "BlockStore",
    "GENESIS_PREVIOUS_HASH",
    "MSP",
    "MSPRegistry",
    "BftOrderer",
    "SoloOrderer",
    "default_tx_validator",
    "Peer",
    "PeerStats",
    "endorsement_payload",
    "AnyOf",
    "Or",
    "OutOf",
    "Policy",
    "SignedBy",
    "ChaincodeEvent",
    "Endorsement",
    "ProposalResponse",
    "ReadEntry",
    "ReadWriteSet",
    "Transaction",
    "TxProposal",
    "ValidationCode",
    "WriteEntry",
    "HistoryEntry",
    "Version",
    "WorldState",
    "composite_prefix_range",
    "make_composite_key",
    "split_composite_key",
]
