"""Cryptographic substrate: keys/signatures, Merkle trees, and content
identifiers (CIDs)."""

from repro.crypto.cid import CID, CODEC_DAG_PB, CODEC_RAW
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, SIGNATURE_SIZE
from repro.crypto.merkle import MerkleProof, MerkleTree, ProofStep, merkle_root

__all__ = [
    "CID",
    "CODEC_DAG_PB",
    "CODEC_RAW",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "SIGNATURE_SIZE",
    "MerkleProof",
    "MerkleTree",
    "ProofStep",
    "merkle_root",
]
