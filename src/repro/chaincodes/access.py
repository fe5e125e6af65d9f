"""Access-control chaincode: per-entry read authorization.

The paper picks a permissioned platform because "many stakeholders need
selective access to sensitive information" — surveillance footage is not
public record. This contract stores an ACL per data entry (which orgs may
fetch the raw bytes) and an immutable access-request audit trail.
:meth:`AccessControlChaincode.check_access` decides for the proposal's
signed creator, so the blockchain — not client goodwill — decides who reads
what.

Where it applies: ``Client.retrieve`` asks ``check_access`` before the
off-chain fetch, and only it. ``Client.query(..., fetch_data=True)`` and
``QueryEngine.get(..., fetch_data=True)`` read the world state and IPFS
directly and return a restricted entry's bytes to any org (ROADMAP lists
the gap).

Entries without an ACL stay readable by everyone (open data is the default
for pollution sensors and the like); setting an ACL closes the entry to
the listed orgs plus its owner.
"""

from __future__ import annotations

import json

import orjson

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

_ACL_PREFIX = "acl:"
IDX_ACCESS_LOG = "acl~log"


class AccessControlChaincode(Chaincode):
    name = "access_control"

    @staticmethod
    def _key(entry_id: str) -> str:
        return _ACL_PREFIX + entry_id

    def set_acl(self, stub: ChaincodeStub, entry_id: str, orgs_json: str):
        """Restrict an entry to the listed orgs. Only the entry's owner org
        (or the first setter) may change an existing ACL."""
        if not entry_id:
            raise ChaincodeError("entry_id required")
        try:
            orgs = json.loads(orgs_json)
        except json.JSONDecodeError as exc:
            raise ChaincodeError(f"orgs is not valid JSON: {exc}") from exc
        if not isinstance(orgs, list) or not all(isinstance(o, str) for o in orgs) or not orgs:
            raise ChaincodeError("orgs must be a non-empty list of org names")
        caller_org = stub.get_creator().org
        existing_raw = stub.get_state(self._key(entry_id))
        if existing_raw is not None:
            existing = orjson.loads(existing_raw)
            if existing["owner_org"] != caller_org:
                raise ChaincodeError(
                    f"only owner org {existing['owner_org']!r} may change this ACL"
                )
            owner = existing["owner_org"]
        else:
            owner = caller_org
        record = {
            "entry_id": entry_id,
            "owner_org": owner,
            "allowed_orgs": sorted(set(orgs) | {owner}),
            "updated_at": isoformat(stub.get_timestamp()),
            "updated_by": stub.get_creator().name,
        }
        stub.put_state(self._key(entry_id), canonical_json(record))
        stub.set_event("AclUpdated", {"entry_id": entry_id, "allowed_orgs": record["allowed_orgs"]})
        return record

    def get_acl(self, stub: ChaincodeStub, entry_id: str):
        raw = stub.get_state(self._key(entry_id))
        if raw is None:
            return None  # open entry
        return orjson.loads(raw)

    def check_access(self, stub: ChaincodeStub, entry_id: str):
        """May the proposal's creator read this entry's raw data? The org is
        the signed creator's, never an argument, so the signature the peer
        verified is what the decision rests on."""
        acl = self.get_acl(stub, entry_id)
        return acl is None or stub.get_creator().org in acl["allowed_orgs"]

    def log_access(self, stub: ChaincodeStub, entry_id: str, outcome: str):
        """Append an access attempt to the immutable audit trail."""
        if outcome not in ("granted", "denied"):
            raise ChaincodeError("outcome must be 'granted' or 'denied'")
        creator = stub.get_creator()
        entry = {
            "entry_id": entry_id,
            "accessor": creator.name,
            "org": creator.org,
            "outcome": outcome,
            "tx_id": stub.get_tx_id(),
            "at": isoformat(stub.get_timestamp()),
        }
        key = stub.create_composite_key(IDX_ACCESS_LOG, [entry_id, stub.get_tx_id()])
        stub.put_state(key, canonical_json(entry))
        return entry

    def access_log(self, stub: ChaincodeStub, entry_id: str):
        rows = stub.get_state_by_partial_composite_key(IDX_ACCESS_LOG, [entry_id])
        return sorted((orjson.loads(v) for _, v in rows), key=lambda e: e["at"])
