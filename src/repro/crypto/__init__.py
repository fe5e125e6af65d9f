"""Cryptographic substrate: hashing, keys/signatures, Merkle trees,
multihash, and content identifiers (CIDs)."""

from repro.crypto.cid import CID, CODEC_DAG_PB, CODEC_RAW
from repro.crypto.hashing import SHA2_256, SHA2_512, digest, hexdigest
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, SIGNATURE_SIZE
from repro.crypto.merkle import MerkleProof, MerkleTree, ProofStep, merkle_root
from repro.crypto.multihash import CODE_SHA2_256, CODE_SHA2_512, Multihash

__all__ = [
    "CID",
    "CODEC_DAG_PB",
    "CODEC_RAW",
    "SHA2_256",
    "SHA2_512",
    "digest",
    "hexdigest",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "SIGNATURE_SIZE",
    "MerkleProof",
    "MerkleTree",
    "ProofStep",
    "merkle_root",
    "CODE_SHA2_256",
    "CODE_SHA2_512",
    "Multihash",
]
