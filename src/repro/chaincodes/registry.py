"""User Registration chaincode (paper §III-B: "registers users by
validating and recording their credentials for audits and accountability").

Every data source — trusted (cameras, drones) or untrusted (mobiles, social
platforms) — must be registered before the Data Upload chaincode accepts
its submissions. Registration records the source's public key and declared
tier on-chain, so validators can verify submission signatures against a
tamper-evident credential store.
"""

from __future__ import annotations

import json

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

_USER_PREFIX = "user:"
_VALID_TIERS = ("trusted", "untrusted")


class UserRegistrationChaincode(Chaincode):
    name = "user_registration"

    @staticmethod
    def _key(user_id: str) -> str:
        return _USER_PREFIX + user_id

    def register_user(
        self,
        stub: ChaincodeStub,
        user_id: str,
        org: str,
        tier: str,
        public_key_hex: str,
    ):
        """Record a source's credentials; duplicate ids are rejected."""
        if not user_id:
            raise ChaincodeError("user id must be non-empty")
        if tier not in _VALID_TIERS:
            raise ChaincodeError(f"tier must be one of {_VALID_TIERS}, got {tier!r}")
        if not public_key_hex or len(public_key_hex) != 64:
            raise ChaincodeError("public key must be 32 bytes hex")
        if stub.get_state(self._key(user_id)) is not None:
            raise ChaincodeError(f"user {user_id} already registered")
        record = {
            "user_id": user_id,
            "org": org,
            "tier": tier,
            "public_key": public_key_hex,
            "registered_at": isoformat(stub.get_timestamp()),
            "registered_by": stub.get_creator().name,
            "active": True,
        }
        stub.put_state(self._key(user_id), canonical_json(record))
        stub.set_event("UserRegistered", {"user_id": user_id, "tier": tier})
        return record

    def get_user(self, stub: ChaincodeStub, user_id: str):
        raw = stub.get_state(self._key(user_id))
        if raw is None:
            raise ChaincodeError(f"user {user_id} not found")
        return json.loads(raw)

    def deactivate_user(self, stub: ChaincodeStub, user_id: str):
        record = self.get_user(stub, user_id)
        record["active"] = False
        stub.put_state(self._key(user_id), canonical_json(record))
        stub.set_event("UserDeactivated", {"user_id": user_id})
        return record

    def is_active(self, stub: ChaincodeStub, user_id: str):
        raw = stub.get_state(self._key(user_id))
        if raw is None:
            return False
        return bool(json.loads(raw).get("active", False))

    def list_users(self, stub: ChaincodeStub, tier: str = ""):
        rows = stub.get_state_by_range(_USER_PREFIX, _USER_PREFIX + "\x7f")
        users = [json.loads(v) for _, v in rows]
        if tier:
            users = [u for u in users if u["tier"] == tier]
        return users
