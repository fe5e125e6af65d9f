"""Tests for state snapshots, checkpointed block stores, and peer bootstrap."""

import json

import pytest

from repro.errors import LedgerError
from repro.fabric import Peer
from repro.fabric.snapshot import (
    Snapshot,
    SnapshotDelta,
    adopt_snapshot,
    apply_delta,
    bootstrap_peer,
    state_digest,
    states_agree,
    take_delta,
    take_snapshot,
)

from tests.fabric_helpers import make_network


class TestStateDigest:
    def test_identical_peers_agree(self):
        net, channel, alice = make_network(peers_per_org=2)
        for i in range(4):
            channel.invoke(alice, "kv", "put", [f"k{i}", str(i)])
        peers = list(channel.peers.values())
        assert states_agree(peers[0], peers[1])
        assert state_digest(peers[0].world) == state_digest(peers[1].world)

    def test_divergence_detected(self):
        net, channel, alice = make_network(peers_per_org=2)
        channel.invoke(alice, "kv", "put", ["k", "v"])
        peers = list(channel.peers.values())
        from repro.fabric.worldstate import Version

        peers[1].world.apply_write("k", b"tampered", Version(99, 0), "evil", 0.0)
        assert not states_agree(peers[0], peers[1])

    def test_empty_states_agree(self):
        net, channel, _ = make_network(peers_per_org=2)
        peers = list(channel.peers.values())
        assert states_agree(peers[0], peers[1])


class TestSnapshotRoundtrip:
    def make_populated(self, n=5):
        net, channel, alice = make_network()
        for i in range(n):
            channel.invoke(alice, "kv", "put", [f"key-{i}", f"value-{i}"])
        return net, channel, alice

    def test_serialization_roundtrip(self):
        _, channel, _ = self.make_populated()
        peer = next(iter(channel.peers.values()))
        snap = take_snapshot(peer, channel.name)
        assert Snapshot.from_bytes(snap.to_bytes()) == snap

    def test_malformed_snapshot_rejected(self):
        with pytest.raises(LedgerError):
            Snapshot.from_bytes(b'{"channel":"x"}')

    def test_serialized_form_is_a_header_line_plus_the_world_lines(self):
        _, channel, _ = self.make_populated()
        peer = next(iter(channel.peers.values()))
        snap = take_snapshot(peer, channel.name)
        header, *lines = snap.to_bytes().split(b"\n")
        assert tuple(lines) == snap.entries == peer.world.snapshot_lines()
        assert json.loads(header) == {
            "channel": channel.name,
            "digest": state_digest(peer.world),
            "height": peer.ledger.height,
            "last_block_hash": peer.ledger.last_hash(),
            "n": len(peer.world),
        }

    def test_empty_world_roundtrip(self):
        net, channel, _ = make_network()
        peer = next(iter(channel.peers.values()))
        snap = take_snapshot(peer, channel.name)
        assert snap.entries == ()
        assert Snapshot.from_bytes(snap.to_bytes()) == snap

    @pytest.mark.parametrize(
        "damage",
        [
            "flipped_hex_digit",
            "non_hex_digit",
            "dropped_line",
            "swapped_lines",
            "header_n_off_by_one",
            "header_field_missing",
            "non_json_line",
            "wrong_arity",
            "trailing_newline",
        ],
    )
    def test_damaged_bytes_never_get_adopted(self, damage):
        net, channel, alice = self.make_populated()
        source = next(iter(channel.peers.values()))
        header, *lines = take_snapshot(source, channel.name).to_bytes().split(b"\n")
        doc = json.loads(header)
        if damage == "flipped_hex_digit":
            row = json.loads(lines[2])
            row[1] = ("0" if row[1][0] != "0" else "1") + row[1][1:]
            lines[2] = json.dumps(row, separators=(",", ":")).encode()
        elif damage == "non_hex_digit":
            row = json.loads(lines[2])
            row[1] = "g" + row[1][1:]
            lines[2] = json.dumps(row, separators=(",", ":")).encode()
        elif damage == "dropped_line":
            del lines[1]
        elif damage == "swapped_lines":
            lines[0], lines[1] = lines[1], lines[0]
        elif damage == "header_n_off_by_one":
            doc["n"] += 1
        elif damage == "header_field_missing":
            del doc["last_block_hash"]
        elif damage == "non_json_line":
            lines[3] = lines[3][:-1]
        elif damage == "wrong_arity":
            lines[3] = json.dumps(json.loads(lines[3])[:3], separators=(",", ":")).encode()
        elif damage == "trailing_newline":
            lines.append(b"")
        header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        victim = Peer("victim", source.identity, net.msp_registry)
        with pytest.raises(LedgerError):
            bootstrap_peer(victim, Snapshot.from_bytes(b"\n".join([header, *lines])))
        assert victim.ledger.height == 0 and len(victim.world) == 0

    def test_bootstrap_reproduces_state(self):
        net, channel, alice = self.make_populated()
        source = next(iter(channel.peers.values()))
        snap = take_snapshot(source, channel.name)

        fresh = Peer("bootstrapped", source.identity, net.msp_registry)
        bootstrap_peer(fresh, snap)
        assert fresh.world.get("key-3") == b"value-3"
        assert fresh.ledger.height == source.ledger.height
        assert states_agree(fresh, source)

    def test_bootstrap_rejects_tampered_snapshot(self):
        net, channel, alice = self.make_populated()
        source = next(iter(channel.peers.values()))
        snap = take_snapshot(source, channel.name)
        tampered = Snapshot(
            channel=snap.channel,
            height=snap.height,
            last_block_hash=snap.last_block_hash,
            entries=snap.entries[:-1],  # drop a key but keep the digest
            digest=snap.digest,
        )
        fresh = Peer("victim", source.identity, net.msp_registry)
        with pytest.raises(LedgerError, match="digest mismatch"):
            bootstrap_peer(fresh, tampered)

    def test_bootstrap_requires_fresh_peer(self):
        net, channel, alice = self.make_populated()
        source = next(iter(channel.peers.values()))
        snap = take_snapshot(source, channel.name)
        with pytest.raises(LedgerError, match="fresh peer"):
            bootstrap_peer(source, snap)

    def test_bootstrapped_peer_commits_future_blocks(self):
        """The end goal: a snapshot-joined peer keeps up from the checkpoint."""
        net, channel, alice = self.make_populated()
        source = next(iter(channel.peers.values()))
        snap = take_snapshot(source, channel.name)

        fresh = Peer("late-joiner", source.identity, net.msp_registry)
        bootstrap_peer(fresh, snap)
        channel.join_peer(fresh)  # installs chaincodes

        result = channel.invoke(alice, "kv", "put", ["post-snapshot", "yes"])
        assert result.ok
        assert fresh.world.get("post-snapshot") == b"yes"
        assert states_agree(fresh, source)
        fresh.ledger.verify_chain()  # verifies from the checkpoint forward

    def test_checkpointed_store_rejects_pre_checkpoint_queries(self):
        net, channel, alice = self.make_populated()
        source = next(iter(channel.peers.values()))
        snap = take_snapshot(source, channel.name)
        fresh = Peer("cp", source.identity, net.msp_registry)
        bootstrap_peer(fresh, snap)
        with pytest.raises(LedgerError, match="predates"):
            fresh.ledger.block(0)

    def test_lagging_revived_peer_adopts_snapshot_instead_of_full_replay(self):
        """A peer offline through many commits rejoins via verified snapshot
        adoption — its store starts at the checkpoint, not at genesis."""
        net, channel, alice = make_network(peers_per_org=2)
        lagger = channel.peers["peer1.org1"]
        lagger.online = False
        for i in range(6):
            channel.invoke(alice, "kv", "put", [f"while-away-{i}", str(i)])
        source = channel.peers["peer0.org1"]
        assert lagger.ledger.height < source.ledger.height

        lagger.online = True
        skipped = adopt_snapshot(lagger, take_snapshot(source, channel.name))
        assert skipped == lagger.ledger.height == source.ledger.height
        assert states_agree(lagger, source)
        # The adopted store is checkpoint-based: pre-snapshot blocks were
        # never replayed, so querying one is a typed error — the proof this
        # was adoption, not a from-genesis replay.
        with pytest.raises(LedgerError, match="predates"):
            lagger.ledger.block(0)
        # And the peer keeps committing from the checkpoint forward.
        result = channel.invoke(alice, "kv", "put", ["after-adopt", "yes"])
        assert result.ok
        assert lagger.world.get("after-adopt") == b"yes"

    def test_adopt_rejects_tampered_snapshot(self):
        net, channel, alice = self.make_populated()
        source = next(iter(channel.peers.values()))
        snap = take_snapshot(source, channel.name)
        tampered = Snapshot(
            channel=snap.channel,
            height=snap.height,
            last_block_hash=snap.last_block_hash,
            entries=snap.entries[:-1],
            digest=snap.digest,
        )
        victim = Peer("victim", source.identity, net.msp_registry)
        with pytest.raises(LedgerError, match="digest mismatch"):
            adopt_snapshot(victim, tampered)

    def test_adopt_refuses_to_rewind_a_peer_past_the_snapshot(self):
        net, channel, alice = self.make_populated()
        peers = list(channel.peers.values())
        snap = take_snapshot(peers[0], channel.name)
        channel.invoke(alice, "kv", "put", ["newer", "v"])
        with pytest.raises(LedgerError, match="rewind"):
            adopt_snapshot(peers[0], snap)

    def test_mvcc_versions_survive_bootstrap(self):
        """Read-version checks must work against snapshot-loaded state."""
        net, channel, alice = self.make_populated()
        source = next(iter(channel.peers.values()))
        snap = take_snapshot(source, channel.name)
        fresh = Peer("mvcc-check", source.identity, net.msp_registry)
        bootstrap_peer(fresh, snap)
        channel.join_peer(fresh)
        # increment reads key-0's version; it must match on both peers.
        channel.invoke(alice, "kv", "put", ["counter", "0"])
        result = channel.invoke(alice, "kv", "increment", ["counter"])
        assert result.ok
        out = json.loads(channel.query(alice, "kv", "get", ["counter"], peer="mvcc-check"))
        assert out["value"] == "1"


class TestSnapshotDelta:
    """A base plus the deltas after it restores what the source holds."""

    def test_base_plus_deltas_reproduce_state_and_height(self):
        net, channel, alice = make_network()
        source = next(iter(channel.peers.values()))
        channel.invoke(alice, "kv", "put", ["keep", "v"])
        channel.invoke(alice, "kv", "put", ["gone", "v"])
        base = take_snapshot(source, channel.name)
        source.world.take_changed()  # the base is where changes count from
        prev, deltas = base.digest, []
        for step in range(2):
            channel.invoke(alice, "kv", "put", [f"new-{step}", "v"])
            channel.invoke(alice, "kv", "put", ["keep", f"v{step}"])
        channel.invoke(alice, "kv", "delete", ["gone"])
        for _ in range(2):  # a second delta with nothing in it
            delta = take_delta(source, source.world.take_changed(), prev)
            deltas.append(SnapshotDelta.from_bytes(delta.to_bytes()))
            prev = delta.digest
        fresh = Peer("restored", source.identity, net.msp_registry)
        bootstrap_peer(fresh, base)
        prev = base.digest
        for delta in deltas:
            apply_delta(fresh, delta, prev)
            prev = delta.digest
        assert states_agree(fresh, source) and fresh.world.get("gone") is None
        assert (fresh.ledger.height, fresh.ledger.last_hash()) == (
            source.ledger.height, source.ledger.last_hash(),
        )

    def test_a_flipped_byte_or_a_wrong_link_is_refused(self):
        net, channel, alice = make_network()
        source = next(iter(channel.peers.values()))
        channel.invoke(alice, "kv", "put", ["k", "v"])
        raw = take_delta(source, ["k"], "0" * 64).to_bytes()
        damaged = bytearray(raw)
        damaged[len(raw) // 2] ^= 0xFF
        with pytest.raises(LedgerError, match="own hash"):
            SnapshotDelta.from_bytes(bytes(damaged))
        fresh = Peer("victim", source.identity, net.msp_registry)
        with pytest.raises(LedgerError, match="does not chain"):
            apply_delta(fresh, SnapshotDelta.from_bytes(raw), "1" * 64)
