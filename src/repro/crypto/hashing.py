"""Hash primitives used across the framework.

SHA-256 is the workhorse: it addresses IPFS blocks (via multihash), chains
ledger blocks, and anchors provenance records. Helpers here name the
algorithm and open one ``crypto.hash`` profile frame per call. Hot loops
that hash many small inputs with a fixed algorithm call ``hashlib.sha256``
themselves instead: Merkle node hashes (:mod:`repro.crypto.merkle`, timed
as ``crypto.merkle``), posting chains and record digests in the index, the
rwset and transaction-id digests.
"""

from __future__ import annotations

import hashlib

from repro.obs.prof import profiled

SHA2_256 = "sha2-256"
SHA2_512 = "sha2-512"

_ALGOS = {
    SHA2_256: hashlib.sha256,
    SHA2_512: hashlib.sha512,
}

DIGEST_SIZES = {SHA2_256: 32, SHA2_512: 64}


def digest(data: bytes, algo: str = SHA2_256) -> bytes:
    """Hash ``data`` with the named algorithm and return the raw digest."""
    with profiled("crypto.hash", n_bytes=len(data)):
        try:
            return _ALGOS[algo](data).digest()
        except KeyError:
            raise ValueError(f"unsupported hash algorithm {algo!r}") from None


def hexdigest(data: bytes, algo: str = SHA2_256) -> str:
    """Hex form of :func:`digest`."""
    return digest(data, algo).hex()

