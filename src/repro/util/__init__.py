"""Shared low-level utilities: varints, base encodings, canonical JSON,
clocks, and deterministic RNG derivation."""

from repro.util.clock import Clock, MonotonicClock, SimClock, WallClock, isoformat
from repro.util.encoding import b32decode, b32encode, b58decode, b58encode
from repro.util.parallel import parallel_map
from repro.util.rng import derive_seed, rng_for
from repro.util.serialization import canonical_json, from_canonical_json
from repro.util.varint import decode_varint, encode_varint

__all__ = [
    "Clock",
    "MonotonicClock",
    "SimClock",
    "WallClock",
    "isoformat",
    "b32decode",
    "b32encode",
    "b58decode",
    "b58encode",
    "parallel_map",
    "derive_seed",
    "rng_for",
    "canonical_json",
    "from_canonical_json",
    "decode_varint",
    "encode_varint",
]
