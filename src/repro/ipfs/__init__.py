"""IPFS-like content-addressed storage substrate: chunking, blockstores,
dag-pb Merkle DAG, UnixFS files, Kademlia DHT, bitswap exchange, pinning."""

from repro.ipfs.bitswap import BitswapStats, Engine, Ledger
from repro.ipfs.block import Block
from repro.ipfs.blockstore import BlockstoreStats, MemoryBlockstore
from repro.ipfs.chunker import (
    DEFAULT_CHUNK_SIZE,
    Chunker,
    FixedSizeChunker,
    RollingChunker,
)
from repro.ipfs.cluster import ClusterStat, IpfsCluster
from repro.ipfs.dag import DagLink, DagNode, DagService
from repro.ipfs.dht import DhtNode, DhtRegistry, RoutingTable, key_for_cid, key_for_peer
from repro.ipfs.node import IpfsNode, NodeStat
from repro.ipfs.pin import PinManager
from repro.ipfs.unixfs import AddResult, UnixFS

__all__ = [
    "BitswapStats",
    "Engine",
    "Ledger",
    "Block",
    "BlockstoreStats",
    "MemoryBlockstore",
    "DEFAULT_CHUNK_SIZE",
    "Chunker",
    "FixedSizeChunker",
    "RollingChunker",
    "ClusterStat",
    "IpfsCluster",
    "DagLink",
    "DagNode",
    "DagService",
    "DhtNode",
    "DhtRegistry",
    "RoutingTable",
    "key_for_cid",
    "key_for_peer",
    "IpfsNode",
    "NodeStat",
    "PinManager",
    "AddResult",
    "UnixFS",
]
