"""Trust Score chaincode: stores trust state on-chain (paper §III-A:
"storing it on-chain for future reference").

The off-chain :class:`repro.trust.TrustEngine` computes scores; this
contract is their system of record — every update is a transaction, so the
full trust trajectory of a source is auditable from the ledger history.
Validator flag/removal records live here too.
"""

from __future__ import annotations

import json

import orjson

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.util.serialization import canonical_json
from repro.util.clock import isoformat

_SCORE_PREFIX = "trust:"
_VALIDATOR_PREFIX = "validator:"


class TrustScoreChaincode(Chaincode):
    name = "trust_score"

    @staticmethod
    def _score_key(source_id: str) -> str:
        return _SCORE_PREFIX + source_id

    @staticmethod
    def _validator_key(name: str) -> str:
        return _VALIDATOR_PREFIX + name

    # -- source scores ---------------------------------------------------------

    def put_score(self, stub: ChaincodeStub, source_id: str, record_json: str):
        try:
            record = json.loads(record_json)
        except json.JSONDecodeError as exc:
            raise ChaincodeError(f"score record is not valid JSON: {exc}") from exc
        if not isinstance(record, dict) or "score" not in record:
            raise ChaincodeError("score record must be an object with a 'score' field")
        score = record["score"]
        if not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
            raise ChaincodeError("score must be a number in [0, 1]")
        record = dict(record)
        record["source_id"] = source_id
        record["updated_at"] = isoformat(stub.get_timestamp())
        stub.put_state(self._score_key(source_id), canonical_json(record))
        stub.set_event("TrustScoreUpdated", {"source_id": source_id, "score": score})
        return record

    def get_score(self, stub: ChaincodeStub, source_id: str):
        raw = stub.get_state(self._score_key(source_id))
        if raw is None:
            raise ChaincodeError(f"no trust score for source {source_id}")
        return orjson.loads(raw)

    def score_history(self, stub: ChaincodeStub, source_id: str):
        """The source's full trust trajectory from the ledger history DB."""
        out = []
        for entry in stub.get_history_for_key(self._score_key(source_id)):
            if entry.value is not None:
                record = orjson.loads(entry.value)
                out.append({"tx_id": entry.tx_id, "score": record["score"]})
        return out

    def list_scores(self, stub: ChaincodeStub):
        rows = stub.get_state_by_range(_SCORE_PREFIX, _SCORE_PREFIX + "\x7f")
        return [orjson.loads(v) for _, v in rows]

    # -- validator accountability ----------------------------------------------------

    def flag_validator(self, stub: ChaincodeStub, name: str, reason: str):
        raw = stub.get_state(self._validator_key(name))
        record = orjson.loads(raw) if raw is not None else {"name": name, "flags": 0, "removed": False}
        record["flags"] += 1
        record["last_reason"] = reason
        record["flagged_at"] = isoformat(stub.get_timestamp())
        stub.put_state(self._validator_key(name), canonical_json(record))
        stub.set_event("ValidatorFlagged", {"name": name, "flags": record["flags"]})
        return record

    def remove_validator(self, stub: ChaincodeStub, name: str, reason: str):
        raw = stub.get_state(self._validator_key(name))
        record = orjson.loads(raw) if raw is not None else {"name": name, "flags": 0}
        record["removed"] = True
        record["removal_reason"] = reason
        record["removed_at"] = isoformat(stub.get_timestamp())
        stub.put_state(self._validator_key(name), canonical_json(record))
        stub.set_event("ValidatorRemoved", {"name": name})
        return record

    def get_validator(self, stub: ChaincodeStub, name: str):
        raw = stub.get_state(self._validator_key(name))
        if raw is None:
            raise ChaincodeError(f"no record for validator {name}")
        return orjson.loads(raw)
