"""Tests for Merkle trees and inclusion proofs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleTree, merkle_root
from repro.errors import MerkleProofError


class TestMerkleTree:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_single_leaf_root_is_leaf_hash(self):
        tree = MerkleTree([b"only"])
        assert len(tree) == 1
        proof = tree.proof(0)
        assert proof.steps == ()
        proof.verify(b"only", tree.root)

    def test_root_changes_with_leaf_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_root_changes_with_leaf_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_proofs_verify_for_all_leaves(self):
        leaves = [f"tx-{i}".encode() for i in range(7)]  # odd count
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            tree.proof(i).verify(leaf, tree.root)

    def test_proof_fails_for_wrong_leaf(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        with pytest.raises(MerkleProofError):
            tree.proof(1).verify(b"x", tree.root)

    def test_proof_fails_for_wrong_root(self):
        tree = MerkleTree([b"a", b"b"])
        other = MerkleTree([b"a", b"c"])
        assert not tree.proof(0).is_valid(b"a", other.root)

    def test_proof_index_out_of_range(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.proof(1)

    def test_leaf_not_confusable_with_interior_node(self):
        """Domain separation: a two-leaf root used as a leaf gives a new root."""
        inner = MerkleTree([b"a", b"b"]).root
        assert MerkleTree([inner]).root != MerkleTree([b"a", b"b"]).root

    def test_odd_promotion_no_phantom_leaf(self):
        """Tree of [a,b,c] must differ from tree of [a,b,c,c] (no duplication)."""
        assert MerkleTree([b"a", b"b", b"c"]).root != MerkleTree([b"a", b"b", b"c", b"c"]).root


class TestMerkleRoot:
    def test_empty_defined(self):
        assert isinstance(merkle_root([]), bytes)
        assert len(merkle_root([])) == 32

    def test_matches_tree(self):
        leaves = [b"x", b"y", b"z"]
        assert merkle_root(leaves) == MerkleTree(leaves).root


@given(st.lists(st.binary(max_size=32), min_size=1, max_size=33))
def test_property_all_proofs_verify(leaves):
    tree = MerkleTree(leaves)
    for i, leaf in enumerate(leaves):
        assert tree.proof(i).is_valid(leaf, tree.root)


@given(st.lists(st.binary(max_size=16), min_size=2, max_size=16), st.data())
def test_property_mutated_leaf_fails(leaves, data):
    tree = MerkleTree(leaves)
    idx = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    mutated = leaves[idx] + b"\x01"
    assert not tree.proof(idx).is_valid(mutated, tree.root)


@given(st.lists(st.binary(max_size=16), min_size=1, max_size=16))
def test_property_root_deterministic(leaves):
    assert MerkleTree(leaves).root == MerkleTree(leaves).root


# -- in-place maintenance: update / insert / delete ---------------------------


def _assert_same_as_fresh(tree: MerkleTree, leaves: list[bytes]) -> None:
    fresh = MerkleTree(leaves)
    assert len(tree) == len(leaves)
    assert tree.root == fresh.root
    for i, leaf in enumerate(leaves):
        assert tree.proof(i) == fresh.proof(i)
        assert tree.proof(i).is_valid(leaf, fresh.root)


# Draws are reduced modulo the current size, so every op is always legal.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["update", "insert", "delete"]),
        st.integers(min_value=0, max_value=64),
        st.binary(max_size=8),
    ),
    max_size=24,
)


def _apply_ops(tree: MerkleTree, leaves: list[bytes], ops) -> None:
    for op, at, leaf in ops:
        if op == "update":
            i = at % len(leaves)
            leaves[i] = leaf
            tree.update(i, leaf)
        elif op == "insert":
            i = at % (len(leaves) + 1)
            leaves.insert(i, leaf)
            tree.insert(i, leaf)
        elif len(leaves) > 1:
            i = at % len(leaves)
            del leaves[i]
            tree.delete(i)
        _assert_same_as_fresh(tree, leaves)


@given(st.lists(st.binary(max_size=8), min_size=1, max_size=20), _OPS)
def test_property_in_place_ops_match_fresh_tree(leaves, ops):
    _apply_ops(MerkleTree(leaves), list(leaves), ops)


class TestInPlaceMaintenance:
    # Sizes either side of every odd-promotion boundary up to three levels.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9])
    def test_every_position_at_promotion_boundaries(self, n):
        base = [bytes([i]) for i in range(n)]
        for i in range(n):
            tree, leaves = MerkleTree(base), list(base)
            _apply_ops(tree, leaves, [("update", i, b"u"), ("insert", i, b"i")])
            if n > 1:
                _apply_ops(MerkleTree(base), list(base), [("delete", i, b"")])
        _apply_ops(MerkleTree(base), list(base), [("insert", n, b"end")])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9])
    def test_delete_down_to_one_leaf_and_grow_back(self, n):
        leaves = [bytes([i]) for i in range(n)]
        tree = MerkleTree(leaves)
        _apply_ops(tree, leaves, [("delete", k, b"") for k in range(n - 1)])
        assert len(tree) == 1 and tree.root == MerkleTree(leaves).root
        with pytest.raises(ValueError):
            tree.delete(0)
        _apply_ops(tree, leaves, [("insert", k, bytes([k])) for k in range(n)])

    def test_out_of_range_rejected(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IndexError):
            tree.update(2, b"x")
        with pytest.raises(IndexError):
            tree.insert(3, b"x")
        with pytest.raises(IndexError):
            tree.delete(-1)
        assert tree.root == MerkleTree([b"a", b"b"]).root

    def test_stale_proof_fails_after_update(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        before = tree.root
        proof = tree.proof(1)
        tree.update(2, b"z")
        assert proof.is_valid(b"b", before)
        assert not proof.is_valid(b"b", tree.root)
        assert tree.proof(1).is_valid(b"b", tree.root)
