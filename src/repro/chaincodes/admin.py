"""Admin Enrollment chaincode — the paper's role-management contract.

A faithful port of the §III-B snippet::

    async enrollAdmin(ctx, adminId) {
      const exists = await this.adminExists(ctx, adminId);
      if (exists) { throw new Error('Admin ${adminId} already exists'); }
      const admin = { role: 'admin', createdAt: new Date().toISOString() };
      await ctx.stub.putState(adminId, Buffer.from(JSON.stringify(admin)));
      return 'Admin ${adminId} enrolled successfully'; }

with the same duplicate check and on-chain metadata, plus the revocation
and listing functions a real deployment needs for auditing.
"""

from __future__ import annotations

import orjson

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

_ADMIN_PREFIX = "admin:"


class AdminEnrollmentChaincode(Chaincode):
    name = "admin_enrollment"

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _key(admin_id: str) -> str:
        return _ADMIN_PREFIX + admin_id

    # -- contract functions -----------------------------------------------------

    def enroll_admin(self, stub: ChaincodeStub, admin_id: str):
        """Enroll a new admin; rejects duplicates (paper's exists check)."""
        if not admin_id:
            raise ChaincodeError("admin id must be non-empty")
        if stub.get_state(self._key(admin_id)) is not None:
            raise ChaincodeError(f"Admin {admin_id} already exists")
        admin = {
            "admin_id": admin_id,
            "role": "admin",
            "created_at": isoformat(stub.get_timestamp()),
            "enrolled_by": stub.get_creator().name,
        }
        stub.put_state(self._key(admin_id), canonical_json(admin))
        stub.set_event("AdminEnrolled", {"admin_id": admin_id})
        return f"Admin {admin_id} enrolled successfully"

    def admin_exists(self, stub: ChaincodeStub, admin_id: str):
        return stub.get_state(self._key(admin_id)) is not None

    def get_admin(self, stub: ChaincodeStub, admin_id: str):
        raw = stub.get_state(self._key(admin_id))
        if raw is None:
            raise ChaincodeError(f"Admin {admin_id} not found")
        return orjson.loads(raw)

    def revoke_admin(self, stub: ChaincodeStub, admin_id: str, actor_admin_id: str):
        """Only an existing admin may revoke another (and not themselves)."""
        if admin_id == actor_admin_id:
            raise ChaincodeError("an admin cannot revoke themselves")
        if stub.get_state(self._key(actor_admin_id)) is None:
            raise ChaincodeError(f"actor {actor_admin_id} is not an admin")
        if stub.get_state(self._key(admin_id)) is None:
            raise ChaincodeError(f"Admin {admin_id} not found")
        stub.del_state(self._key(admin_id))
        stub.set_event("AdminRevoked", {"admin_id": admin_id, "by": actor_admin_id})
        return f"Admin {admin_id} revoked"

    def list_admins(self, stub: ChaincodeStub):
        rows = stub.get_state_by_range(_ADMIN_PREFIX, _ADMIN_PREFIX + "\x7f")
        return [orjson.loads(v) for _, v in rows]
