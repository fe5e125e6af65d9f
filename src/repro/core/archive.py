"""Evidence bundles: signed, portable exports of query results.

Traffic evidence outlives one deployment: a prosecution or an inter-city
data-sharing agreement needs the raw data, its metadata, *and* its
provenance, packaged so the receiver can verify all of it without access
to the origin network. A bundle is:

* a manifest — the matched on-chain records plus each entry's provenance
  lineage, signed by the exporting identity;
* a CAR archive of every referenced payload.

``export_bundle`` queries the matching records' metadata and writes the CAR
from one node in one walk per payload, as a read walks it: each block is
hashed against the CID that names it, and a block the node lacks is fetched
from the cluster and stored there. ``import_bundle`` verifies the exporter's
signature and loads the CAR, whose walk hashes each block once against the
CID that names it; each record's CID — the on-chain commitment captured in
the manifest — must be one of the CAR's roots, so the same integrity chain
the origin framework enforced is now portable.

Export reads world state and IPFS directly: it asks no ACL, so any org can
export a restricted entry's bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

from repro.core.client import Client
from repro.crypto.cid import CID
from repro.crypto.keys import PublicKey
from repro.errors import IntegrityError, SignatureError, StorageError
from repro.ipfs.blockstore import MemoryBlockstore
from repro.ipfs.car import export_car, import_car
from repro.util.serialization import canonical_json, from_canonical_json
from repro.util.varint import decode_varint, encode_varint

BUNDLE_VERSION = 1


@dataclass(frozen=True)
class BundleEntry:
    record: dict
    provenance: tuple[dict, ...]

    @property
    def entry_id(self) -> str:
        return self.record["entry_id"]

    @property
    def cid(self) -> CID:
        return CID.parse(self.record["cid"])


@dataclass(frozen=True)
class Bundle:
    entries: tuple[BundleEntry, ...]
    exporter: dict  # IdentityInfo.to_dict()
    channel: str
    query_text: str


def export_bundle(client: Client, query_text: str) -> bytes:
    """Export everything matching ``query_text`` as a signed bundle."""
    rows = client.query(query_text)
    if not rows:
        raise StorageError(f"query {query_text!r} matched nothing to export")
    entries = [
        {"record": row.record, "provenance": client.provenance(row.entry_id)} for row in rows
    ]
    cluster = client.framework.ipfs
    staging = cluster.node()
    car = export_car(
        staging.blockstore,
        [CID.parse(row.record["cid"]) for row in rows],
        fetcher=partial(cluster.fetcher, staging),
    )
    manifest = {
        "version": BUNDLE_VERSION,
        "channel": client.framework.channel.name,
        "query": query_text,
        "exporter": client.identity.info().to_dict(),
        "entries": entries,
        "car_sha256": hashlib.sha256(car).hexdigest(),
    }
    manifest_bytes = canonical_json(manifest)
    signature = client.identity.sign(manifest_bytes)
    return (
        encode_varint(len(manifest_bytes))
        + manifest_bytes
        + encode_varint(len(signature))
        + signature
        + car
    )


def import_bundle(
    raw: bytes,
    blockstore: MemoryBlockstore | None = None,
    expected_exporter: PublicKey | None = None,
) -> tuple[Bundle, MemoryBlockstore]:
    """Verify and unpack a bundle; returns the entries and a blockstore
    holding the (hash-verified) payload blocks."""
    blockstore = blockstore if blockstore is not None else MemoryBlockstore()
    manifest_len, pos = decode_varint(raw)
    manifest_bytes = raw[pos : pos + manifest_len]
    pos += manifest_len
    sig_len, pos = decode_varint(raw, pos)
    signature = raw[pos : pos + sig_len]
    pos += sig_len
    car = raw[pos:]

    manifest = from_canonical_json(manifest_bytes)
    if manifest.get("version") != BUNDLE_VERSION:
        raise StorageError("unsupported bundle version")
    exporter_key = PublicKey.from_hex(manifest["exporter"]["public_key"])
    if expected_exporter is not None and exporter_key != expected_exporter:
        raise SignatureError("bundle exporter is not the expected identity")
    exporter_key.verify(manifest_bytes, signature)

    if hashlib.sha256(car).hexdigest() != manifest["car_sha256"]:
        raise IntegrityError("bundle CAR does not match the signed manifest")
    roots = import_car(blockstore, car)  # every block, against its CID

    entries = []
    for item in manifest["entries"]:
        record = item["record"]
        if CID.parse(record["cid"]) not in roots:
            raise IntegrityError(
                f"entry {record['entry_id']}'s CID is not a root of the bundle CAR"
            )
        entries.append(
            BundleEntry(record=record, provenance=tuple(item["provenance"]))
        )
    bundle = Bundle(
        entries=tuple(entries),
        exporter=manifest["exporter"],
        channel=manifest["channel"],
        query_text=manifest["query"],
    )
    return bundle, blockstore
