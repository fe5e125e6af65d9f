"""Binary Merkle trees with inclusion proofs.

Ledger blocks commit to their transaction set through a Merkle root, so a
light client holding one transaction and a short proof can check membership
against the block header alone. Leaves are domain-separated from interior
nodes (0x00 / 0x01 prefixes) to rule out second-preimage attacks that splice
an interior node in as a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from itertools import chain
from typing import Iterable, Sequence

from repro.errors import MerkleProofError
from repro.obs.prof import profiled

# Hashes call sha256 directly: a tree pass is one ``crypto.merkle`` frame,
# not one profiled frame per node.
_LEAF = b"\x00"
_NODE = b"\x01"


def _leaf_hash(data: bytes) -> bytes:
    return sha256(_LEAF + data).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE + left + right).digest()


@dataclass(frozen=True)
class ProofStep:
    """One sibling on the path from a leaf to the root."""

    sibling: bytes
    sibling_on_left: bool


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: the leaf index plus the sibling path to the root."""

    leaf_index: int
    steps: tuple[ProofStep, ...]

    def verify(self, leaf_data: bytes, root: bytes) -> None:
        """Raise :class:`MerkleProofError` unless the proof links leaf→root."""
        with profiled("crypto.merkle", n_bytes=len(leaf_data)):
            node = _leaf_hash(leaf_data)
            for step in self.steps:
                if step.sibling_on_left:
                    node = _node_hash(step.sibling, node)
                else:
                    node = _node_hash(node, step.sibling)
            if node != root:
                raise MerkleProofError("Merkle proof does not reconstruct the root")

    def is_valid(self, leaf_data: bytes, root: bytes) -> bool:
        try:
            self.verify(leaf_data, root)
        except MerkleProofError:
            return False
        return True


class MerkleTree:
    """Merkle tree over a sequence of byte-string leaves, maintainable in place.

    An odd node at any level is promoted unpaired (Certificate-Transparency
    style) rather than duplicated, so the tree of *n* leaves never commits to
    phantom data.

    :meth:`edit` applies a batch of leaf updates, inserts and deletes, then
    re-hashes in one bottom-up pass, each changed interior node once: the
    parents of updated positions (O(log n) each) and, when the batch splices,
    every node right of the leftmost splice, since every later leaf shifted
    (O(n - i); leaf hashes are kept). After any sequence of edits the tree is
    indistinguishable from one freshly built over the same leaves.
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("Merkle tree requires at least one leaf")
        with profiled("crypto.merkle") as pf:
            pf.add_bytes(sum(len(leaf) for leaf in leaves))
            # _levels[0] is the leaf-hash level; the last level is [root].
            # Only hashes are kept: the tree does not retain leaf bytes.
            self._levels: list[list[bytes]] = [[_leaf_hash(bytes(l)) for l in leaves]]
            self._rehash((), 0)

    def edit(self, ops: Iterable[tuple[str, int, bytes | None]]) -> None:
        """Apply ``ops`` in order, then re-hash once.

        An op is ``("update", i, leaf)``, ``("insert", i, leaf)`` (``i ==
        len`` appends) or ``("delete", i, None)``; ``i`` indexes the leaves
        as the ops before it left them. The whole batch is checked before any
        leaf changes — an index out of range raises :class:`IndexError`,
        deleting the last leaf :class:`ValueError` — so a refused batch
        leaves the tree as it was.
        """
        ops = list(ops)
        n = len(self)
        for op, index, _ in ops:
            if op not in ("update", "insert", "delete"):
                raise ValueError(f"unknown Merkle tree edit {op!r}")
            self._check_index(index, n + 1 if op == "insert" else n)
            if op == "insert":
                n += 1
            elif op == "delete":
                if n == 1:
                    raise ValueError("Merkle tree requires at least one leaf")
                n -= 1
        with profiled("crypto.merkle") as pf:
            hashes = self._levels[0]
            updated: set[int] = set()
            start: int | None = None  # leftmost splice
            for op, index, leaf in ops:
                if op == "delete":
                    del hashes[index]
                else:
                    pf.add_bytes(len(leaf))
                    if op == "update":
                        hashes[index] = _leaf_hash(leaf)
                        updated.add(index)
                        continue
                    hashes.insert(index, _leaf_hash(leaf))
                if start is None or index < start:
                    start = index
            self._rehash(updated, start)

    def _rehash(self, dirty: Iterable[int], start: int | None) -> None:
        """The one bottom-up pass: recompute the interior nodes above the
        leaf positions in ``dirty`` and above every position from ``start``
        on, each once, resizing the levels to fit. ``start=None``: nothing
        was spliced, so every level keeps its size. A position at or right
        of ``start`` may be stale; the tail covers it."""
        levels = self._levels
        k = 0
        while len(levels[k]) > 1:
            below = levels[k]
            n = len(below)
            if k + 1 == len(levels):
                levels.append([])
            above = levels[k + 1]
            parents = {p // 2 for p in dirty}
            todo: Iterable[int] = parents
            if start is not None:
                start //= 2
                parents = {q for q in parents if q < start}
                above[start:] = below[2 * start :: 2]  # resized; refilled below
                todo = chain(parents, range(start, len(above)))
            for q in todo:  # _node_hash, inlined: the pass is a hot loop
                i = 2 * q
                above[q] = (
                    sha256(_NODE + below[i] + below[i + 1]).digest() if i + 1 < n else below[i]
                )
            dirty = parents
            k += 1
        del levels[k + 1 :]

    @staticmethod
    def _check_index(index: int, bound: int) -> None:
        if not 0 <= index < bound:
            raise IndexError(f"leaf index {index} out of range")

    def __len__(self) -> int:
        return len(self._levels[0])

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def proof(self, index: int) -> MerkleProof:
        """Build the inclusion proof for the leaf at ``index``."""
        self._check_index(index, len(self))
        steps: list[ProofStep] = []
        pos = index
        for level in self._levels[:-1]:
            if pos % 2 == 0:
                if pos + 1 < len(level):
                    steps.append(ProofStep(sibling=level[pos + 1], sibling_on_left=False))
                # Unpaired node is promoted: no step at this level.
            else:
                steps.append(ProofStep(sibling=level[pos - 1], sibling_on_left=True))
            pos //= 2
        return MerkleProof(leaf_index=index, steps=tuple(steps))


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Root of the Merkle tree over ``leaves``; empty input hashes to the
    digest of the empty string under leaf domain separation."""
    if not leaves:
        return _leaf_hash(b"")
    return MerkleTree(leaves).root
