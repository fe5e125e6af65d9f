"""File-size sweep workloads for the storage/retrieval figures (5 and 6).

The paper stores files of varying sizes on IPFS with and without blockchain
integration and reports near-linear scaling with minimal blockchain
overhead. These helpers generate the seeded payloads and the size grid the
benches sweep.
"""

from __future__ import annotations

from repro.util.rng import rng_for

# The sweep grid: small metadata-sized payloads up to multi-MiB frames.
DEFAULT_SIZES = (
    1 << 10,    # 1 KiB
    8 << 10,    # 8 KiB
    64 << 10,   # 64 KiB
    256 << 10,  # 256 KiB
    1 << 20,    # 1 MiB
    4 << 20,    # 4 MiB
)


def payload(size: int, seed: int = 0, label: str = "payload") -> bytes:
    """Seeded incompressible payload of exactly ``size`` bytes."""
    if size < 0:
        raise ValueError("size must be non-negative")
    return rng_for(seed, "filesizes", label, str(size)).bytes(size)

