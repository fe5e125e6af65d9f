"""Binary Merkle trees with inclusion proofs.

Ledger blocks commit to their transaction set through a Merkle root, so a
light client holding one transaction and a short proof can check membership
against the block header alone. Leaves are domain-separated from interior
nodes (0x00 / 0x01 prefixes) to rule out second-preimage attacks that splice
an interior node in as a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.hashing import digest
from repro.errors import MerkleProofError
from repro.obs.prof import profiled

_LEAF = b"\x00"
_NODE = b"\x01"


def _leaf_hash(data: bytes) -> bytes:
    return digest(_LEAF + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return digest(_NODE + left + right)


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

    :meth:`update` re-hashes one leaf and its root path (O(log n));
    :meth:`insert` and :meth:`delete` shift every later leaf, so they
    recompute the interior nodes from the splice point rightwards (O(n - i),
    leaf hashes are kept). After any sequence of these the tree is
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
            self._rehash(0)

    def _rehash(self, start: int, stop: int | None = None) -> None:
        """Recompute the interior nodes above leaf positions ``[start, stop)``;
        ``stop=None`` runs to the end and resizes the levels to fit."""
        levels = self._levels
        k = 0
        while len(levels[k]) > 1:
            below = levels[k]
            if k + 1 == len(levels):
                levels.append([])
            start //= 2
            if stop is None:
                end = len(below)
            else:
                stop = (stop + 1) // 2
                end = min(2 * stop, len(below))
            levels[k + 1][start:stop] = [
                _node_hash(below[i], below[i + 1]) if i + 1 < len(below) else below[i]
                for i in range(2 * start, end, 2)
            ]
            k += 1
        del levels[k + 1 :]

    def update(self, index: int, leaf: bytes) -> None:
        """Replace the leaf at ``index``."""
        self._check_index(index, len(self))
        with profiled("crypto.merkle", n_bytes=len(leaf)):
            self._levels[0][index] = _leaf_hash(leaf)
            self._rehash(index, index + 1)

    def insert(self, index: int, leaf: bytes) -> None:
        """Splice a new leaf in before position ``index`` (``len`` appends)."""
        self._check_index(index, len(self) + 1)
        with profiled("crypto.merkle", n_bytes=len(leaf)):
            self._levels[0].insert(index, _leaf_hash(leaf))
            self._rehash(index)

    def delete(self, index: int) -> None:
        """Remove the leaf at ``index``; the last leaf cannot be removed."""
        self._check_index(index, len(self))
        if len(self) == 1:
            raise ValueError("Merkle tree requires at least one leaf")
        with profiled("crypto.merkle"):
            del self._levels[0][index]
            self._rehash(index)

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
