"""Chaincode runtime: the smart-contract execution environment.

A chaincode is a Python class whose public methods take a
:class:`ChaincodeStub` plus string arguments — the same shape as Fabric's
``ctx.stub`` API the paper's snippets use (``getState``/``putState``/
``getTxID``/composite keys/history/range queries). The stub runs against a
*simulation view* of the world state: reads record the observed key version
into the read set, writes buffer into the write set (visible to subsequent
reads in the same simulation, never to the live state). The resulting
:class:`ReadWriteSet` is what endorsement signs and what MVCC validation
checks at commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ChaincodeError, ChaincodeNotFoundError, EncodingError
from repro.fabric.identity import IdentityInfo
from repro.fabric.tx import ChaincodeEvent, ReadEntry, ReadWriteSet, WriteEntry
from repro.fabric.worldstate import (
    WorldState,
    composite_prefix_range,
    make_composite_key,
)
from repro.util.serialization import canonical_json


class ChaincodeStub:
    """The API surface a chaincode sees during one invocation."""

    def __init__(
        self,
        world: WorldState,
        tx_id: str,
        creator: IdentityInfo,
        timestamp: float,
        chaincode_name: str,
        invoker: Callable[[str, str, list[str], "ChaincodeStub"], str] | None = None,
    ) -> None:
        self._world = world
        self._tx_id = tx_id
        self._creator = creator
        self._timestamp = timestamp
        self._chaincode_name = chaincode_name
        self._invoker = invoker
        self._reads: dict[str, ReadEntry] = {}
        self._writes: dict[str, WriteEntry] = {}  # insertion-ordered
        self._events: list[ChaincodeEvent] = []

    # -- transaction context ----------------------------------------------------

    def get_tx_id(self) -> str:
        return self._tx_id

    def get_creator(self) -> IdentityInfo:
        return self._creator

    def get_timestamp(self) -> float:
        """Proposal timestamp — chaincode must not read wall clocks, or the
        endorsers' rwsets would diverge."""
        return self._timestamp

    # -- state access -----------------------------------------------------------

    def get_state(self, key: str) -> bytes | None:
        """Read a key: buffered writes win, else the live state (recorded
        in the read set for MVCC)."""
        if key in self._writes:
            entry = self._writes[key]
            return None if entry.is_delete else entry.value
        if key not in self._reads:
            self._reads[key] = ReadEntry(key=key, version=self._world.get_version(key))
        return self._world.get(key)

    def put_state(self, key: str, value: bytes) -> None:
        if not key:
            raise ChaincodeError("cannot put empty key")
        if not isinstance(value, (bytes, bytearray)):
            raise ChaincodeError("state values must be bytes")
        self._writes[key] = WriteEntry(key=key, value=bytes(value), is_delete=False)

    def del_state(self, key: str) -> None:
        self._writes[key] = WriteEntry(key=key, value=None, is_delete=True)

    def get_state_by_range(self, start: str = "", end: str = "") -> list[tuple[str, bytes]]:
        """Range scan merging the live state with buffered writes.

        Every returned key is recorded in the read set (phantom protection
        for the keys actually observed, matching Fabric's range semantics).
        """
        live = dict(self._world.range(start, end))
        for key, entry in self._writes.items():
            in_range = (not start or key >= start) and (not end or key < end)
            if not in_range:
                continue
            if entry.is_delete:
                live.pop(key, None)
            else:
                live[key] = entry.value  # type: ignore[assignment]
        out = sorted(live.items())
        for key, _ in out:
            if key not in self._writes and key not in self._reads:
                self._reads[key] = ReadEntry(key=key, version=self._world.get_version(key))
        return out

    # -- composite keys ------------------------------------------------------------

    def create_composite_key(self, object_type: str, attributes: list[str]) -> str:
        return make_composite_key(object_type, attributes)

    def get_state_by_partial_composite_key(
        self, object_type: str, attributes: list[str]
    ) -> list[tuple[str, bytes]]:
        start, end = composite_prefix_range(object_type, attributes)
        return self.get_state_by_range(start, end)

    # -- history ----------------------------------------------------------------------

    def get_history_for_key(self, key: str):
        """Committed history of a key (provenance); not part of the rwset,
        as in Fabric — history queries are not MVCC-protected."""
        return self._world.history(key)

    # -- events & cross-chaincode ---------------------------------------------------------

    def set_event(self, name: str, payload: dict | None = None) -> None:
        self._events.append(
            ChaincodeEvent(chaincode=self._chaincode_name, name=name, payload=payload or {})
        )

    def invoke_chaincode(self, chaincode: str, fn: str, args: list[str]) -> str:
        """Call another chaincode in the same transaction context; its reads
        and writes merge into this transaction's rwset."""
        if self._invoker is None:
            raise ChaincodeError("cross-chaincode invocation not available here")
        return self._invoker(chaincode, fn, args, self)

    # -- rwset extraction (runtime only) ----------------------------------------------------

    def rwset(self) -> ReadWriteSet:
        return ReadWriteSet(
            reads=tuple(sorted(self._reads.values(), key=lambda r: r.key)),
            writes=tuple(self._writes.values()),
        )

    def events(self) -> tuple[ChaincodeEvent, ...]:
        return tuple(self._events)


class Chaincode:
    """Base class for smart contracts.

    Subclasses define public methods ``def my_fn(self, stub, arg1, arg2)``;
    :meth:`dispatch` routes an invocation by function name. Return values
    must be JSON-serializable (they are rendered to the response string the
    endorsement signs).
    """

    name: str = "chaincode"

    def dispatch(self, stub: ChaincodeStub, fn: str, args: list[str]) -> str:
        if fn.startswith("_") or not hasattr(self, fn):
            raise ChaincodeError(f"chaincode {self.name!r} has no function {fn!r}")
        method = getattr(self, fn)
        if not callable(method):
            raise ChaincodeError(f"{fn!r} is not invokable")
        try:
            result = method(stub, *args)
        except ChaincodeError:
            raise
        except TypeError as exc:
            # Wrong arity is an application error, not a framework crash.
            raise ChaincodeError(f"bad arguments for {self.name}.{fn}: {exc}") from exc
        # Canonical rendering: the response string is part of what every
        # endorser signs, so it must be byte-identical across endorsers.
        try:
            return canonical_json(result).decode("utf-8")
        except EncodingError as exc:
            raise ChaincodeError(
                f"{self.name}.{fn} returned a non-canonical value: {exc}"
            ) from exc


@dataclass
class ChaincodeDefinition:
    """An installed chaincode plus its channel-level endorsement policy."""

    chaincode: Chaincode
    policy: Any  # repro.fabric.policy.Policy


class ChaincodeRegistry:
    """Chaincodes installed on one peer/channel."""

    def __init__(self) -> None:
        self._defs: dict[str, ChaincodeDefinition] = {}

    def install(self, definition: ChaincodeDefinition) -> None:
        name = definition.chaincode.name
        if name in self._defs:
            raise ChaincodeError(f"chaincode {name!r} already installed")
        self._defs[name] = definition

    def get(self, name: str) -> ChaincodeDefinition:
        try:
            return self._defs[name]
        except KeyError:
            raise ChaincodeNotFoundError(f"chaincode {name!r} is not installed") from None

    def names(self) -> list[str]:
        return sorted(self._defs)

    def __contains__(self, name: str) -> bool:
        return name in self._defs
