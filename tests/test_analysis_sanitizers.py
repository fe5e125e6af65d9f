"""Tests for the runtime sanitizers: endorsement divergence, ledger
invariants (incl. tamper pinpointing), consensus."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.analysis import (
    Sanitizer,
    check_store,
    install_sanitizers,
    parse_modes,
)
from repro.analysis.runtime import MODES
from repro.errors import AnalysisError
from repro.fabric import Chaincode, ValidationCode
from repro.fabric.worldstate import Version

from tests.fabric_helpers import make_network


class FlakyChaincode(Chaincode):
    """Nondeterministic on purpose: every simulation writes a new value."""

    name = "flaky"

    def __init__(self):
        self._calls = 0

    def bump(self, stub):
        self._calls += 1
        stub.put_state("counter", str(self._calls).encode())
        return {"calls": self._calls}


class TestModeParsing:
    def test_off_spellings(self):
        for spec in ("", "0", "off", "none"):
            assert parse_modes(spec) == frozenset()

    def test_all_spellings(self):
        for spec in ("1", "all", "on", "true"):
            assert parse_modes(spec) == frozenset(MODES)

    def test_explicit_list(self):
        assert parse_modes("ledger, index") == frozenset({"ledger", "index"})

    def test_unknown_mode_rejected(self):
        # ``locks`` was a mode once; it is rejected like any other stranger.
        for stranger in ("turbo", "locks"):
            with pytest.raises(AnalysisError) as exc:
                parse_modes(f"ledger,{stranger}")
            assert str(exc.value) == (
                f"unknown sanitizer mode(s) ['{stranger}']; valid: {', '.join(MODES)}"
            )

    def test_install_is_noop_without_modes(self):
        net, channel, client = make_network("solo")
        assert install_sanitizers(channel, spec="") is None
        assert all(peer.sanitizer is None for peer in channel.peers.values())


class TestDivergenceSanitizer:
    def test_nondeterministic_chaincode_detected_on_single_peer(self):
        # One org, one peer: the endorsement-policy cross-check that would
        # normally expose nondeterminism never runs — exactly the gap the
        # sanitizer's re-simulation closes.
        net, channel, client = make_network("solo", orgs=("org1",))
        channel.install_chaincode(FlakyChaincode())
        sanitizer = install_sanitizers(channel, spec="divergence")
        channel.invoke(client, "flaky", "bump", [])
        report = sanitizer.finalize()
        san301 = [f for f in report.findings if f.rule_id == "SAN301"]
        assert san301, "re-simulation should expose the divergent write"
        assert san301[0].path == "chaincode:flaky"
        assert report.checks["divergence"] >= 1

    def test_deterministic_chaincode_clean(self):
        net, channel, client = make_network("solo")
        sanitizer = install_sanitizers(channel, spec="divergence")
        channel.invoke(client, "kv", "put", ["a", "1"])
        report = sanitizer.finalize()
        assert report.ok
        assert report.checks["divergence"] >= 2  # both endorsing peers


def _doctor_older_block(store):
    """Alter the first non-empty block's first transaction in memory;
    returns the block's number and the transaction as it was."""
    number, block = next((b.number, b) for b in store.blocks() if b.transactions)
    victim = block.transactions[0]
    forged_tx = dataclasses.replace(victim, response='{"key":"evil"}')
    store._blocks[number - store.base_height] = dataclasses.replace(
        block, transactions=(forged_tx,) + block.transactions[1:]
    )
    return number, victim


class TestLedgerSanitizer:
    def test_honest_run_has_zero_findings(self):
        net, channel, client = make_network("solo")
        sanitizer = install_sanitizers(channel, spec="ledger")
        for i in range(3):
            channel.invoke(client, "kv", "put", [f"k{i}", str(i)])
        # 3 blocks x 2 peers committed, each audited.
        assert sanitizer.report().checks["ledger"] == 6
        report = sanitizer.finalize()
        assert report.ok
        # ... and each peer's whole chain once more at the end.
        assert report.checks["ledger"] == 6 + 2

    def test_wrong_remembered_form_is_reported(self):
        """Every node in the process is served the same remembered bytes, so
        a wrong envelope builds the block's Merkle root *and* satisfies every
        peer's recomputation of it; only a fresh serialisation disagrees."""
        from repro.util.serialization import once

        net, channel, client = make_network("solo")
        sanitizer = install_sanitizers(channel, spec="ledger")
        channel.invoke(client, "kv", "put", ["honest", "v"])
        proposal, responses = channel.endorse(client, "kv", "put", ["k", "v"])
        tx = channel.assemble(proposal, responses)
        once(tx, "envelope_bytes", lambda: b'{"not":"this transaction"}')  # first to ask
        channel.orderer.submit(tx)
        channel.flush()
        assert channel.result(tx.tx_id).ok  # nothing on the commit path noticed
        for peer in channel.peers.values():
            peer.ledger.verify_chain()
        report = sanitizer.finalize()
        assert [f.rule_id for f in report.findings] == ["SAN303"] * len(channel.peers)
        for finding in report.findings:
            assert "block 1: remembered envelope_bytes of tx" in finding.message
            assert tx.tx_id[:16] in finding.message

    def test_wrong_remembered_rwset_is_reported(self):
        """The envelope splices in the bytes remembered for its rwset object,
        so the oracle's fresh transaction needs a fresh rwset as well: one
        that shared it would be served the same wrong bytes."""
        from repro.util import serialization

        net, channel, client = make_network("solo")
        sanitizer = install_sanitizers(channel, spec="ledger")
        channel.invoke(client, "kv", "put", ["honest", "v"])
        proposal, responses = channel.endorse(client, "kv", "put", ["k", "v"])
        tx = channel.assemble(proposal, responses)
        honest = tx.rwset.canonical()  # rendered when the endorsers signed
        doctored = honest.replace(b'"value":"v"', b'"value":"w"')
        assert doctored != honest
        serialization._once[(id(tx.rwset), "canonical")] = (tx.rwset, doctored)
        channel.orderer.submit(tx)
        channel.flush()
        assert channel.result(tx.tx_id).ok  # nothing on the commit path noticed
        assert b'"value":"w"' in tx.envelope_bytes()
        report = sanitizer.finalize()
        assert [f.rule_id for f in report.findings] == ["SAN303"] * 2 * len(channel.peers)
        forms = [f.message.split(" of tx ")[0] for f in report.findings]
        assert forms == [
            "block 1: remembered rwset canonical",
            "block 1: remembered envelope_bytes",
        ] * len(channel.peers)
        assert all(tx.tx_id[:16] in f.message for f in report.findings)

    @pytest.mark.parametrize(
        "form, owner, wrong, code",
        [
            ("endorsement_verdicts", lambda tx: tx, (False, False),
             ValidationCode.ENDORSEMENT_POLICY_FAILURE),
            ("signature_error", lambda tx: tx.proposal, "doctored",
             ValidationCode.BAD_SIGNATURE),
        ],
    )
    def test_wrong_remembered_verdict_is_reported(self, form, owner, wrong, code):
        """A signature's verdict is remembered per transaction object and
        served to every validator and committing peer alike, so a wrong one
        misleads them all; only a fresh check disagrees."""
        from repro.util import serialization

        net, channel, client = make_network("solo")
        sanitizer = install_sanitizers(channel, spec="ledger")
        channel.invoke(client, "kv", "put", ["honest", "v"])
        proposal, responses = channel.endorse(client, "kv", "put", ["k", "v"])
        tx = channel.assemble(proposal, responses)
        assert len(tx.endorsements) == 2
        serialization._once[(id(owner(tx)), form)] = (owner(tx), wrong)
        channel.orderer.submit(tx)
        channel.flush()
        assert channel.result(tx.tx_id).code is code  # the commit path was misled
        report = sanitizer.finalize()
        assert [f.rule_id for f in report.findings] == ["SAN303"] * len(channel.peers)
        for finding in report.findings:
            assert f"block 1: remembered {form} of tx" in finding.message
            assert tx.tx_id[:16] in finding.message

    def test_offline_audit_of_honest_chain_clean(self):
        net, channel, client = make_network("solo")
        for i in range(3):
            channel.invoke(client, "kv", "put", [f"k{i}", str(i)])
        peer = next(iter(channel.peers.values()))
        assert check_store(peer.ledger, peer.world) == []

    def test_tampered_block_pinpointed_to_block_and_tx(self):
        net, channel, client = make_network("solo")
        for i in range(3):
            channel.invoke(client, "kv", "put", [f"k{i}", str(i)])
        store = next(iter(channel.peers.values())).ledger
        number, victim = _doctor_older_block(store)
        findings = check_store(store)
        assert [f.rule_id for f in findings] == ["SAN303"]
        message = findings[0].message
        assert f"block {number}" in message
        assert "tampered: tx 0" in message
        assert victim.tx_id[:16] in message


    def test_post_checkpoint_tamper_on_a_bootstrapped_peer(self):
        """A store that starts at a checkpoint still replays what it holds:
        check_store used to skip the whole replay when base_height != 0."""
        from repro.fabric import Peer
        from repro.fabric.snapshot import bootstrap_peer, take_snapshot
        from repro.obs.explorer import LedgerExplorer

        net, channel, client = make_network("solo")
        for i in range(3):
            channel.invoke(client, "kv", "put", [f"k{i}", str(i)])
        source = next(iter(channel.peers.values()))
        fresh = Peer("late-joiner", source.identity, net.msp_registry)
        bootstrap_peer(fresh, take_snapshot(source, channel.name))
        channel.join_peer(fresh)  # installs chaincodes
        channel.invoke(client, "kv", "put", ["late", "v"])
        assert fresh.ledger.base_height == 3 and fresh.world.get("late") == b"v"
        assert check_store(fresh.ledger, fresh.world) == []
        fresh.world._values["late"] = b"evil"
        findings = check_store(fresh.ledger, fresh.world)
        assert [f.rule_id for f in findings] == ["SAN305"]
        assert "value mismatch: ['late']" in findings[0].message
        # The explorer, reading from that peer, says the same thing.
        for peer in channel.peers.values():
            peer.online = peer is fresh
        report = LedgerExplorer(channel).audit_chain(offchain=False)
        assert [f.check for f in report.findings] == ["state_replay"]
        assert "'late'" in report.findings[0].detail


class TestChecksByScope:
    """A commit is checked for what it adds; a peer's whole chain, world
    state and index once, at finalize, before a crash and after a recovery."""

    def test_tampers_after_the_last_commit_are_reported_once_per_peer(self):
        net, channel, client = make_network("solo")
        sanitizer = install_sanitizers(channel, spec="ledger")
        for i in range(3):
            channel.invoke(client, "kv", "put", [f"k{i}", str(i)])
        doctored, written = channel.peers.values()
        number, _ = _doctor_older_block(doctored.ledger)
        written.world.apply_write("ghost", b"outside any commit", Version(99, 0), "evil", 0.0)
        assert sanitizer.report().ok  # no commit came after the tampers
        report = sanitizer.finalize()
        assert [(f.rule_id, f.path) for f in report.findings] == [
            ("SAN303", f"ledger:{doctored.name}"),
            ("SAN305", f"ledger:{written.name}"),
        ]
        assert f"block {number}" in report.findings[0].message
        assert "'ghost'" in report.findings[1].message
        assert sanitizer.finalize().findings == report.findings  # idempotent

    def test_a_tamper_is_reported_before_the_crash_wipes_it(self):
        from repro.storage import DurabilityManager

        net, channel, client = make_network("solo")
        manager = DurabilityManager(channel, checkpoint_interval=4)
        sanitizer = install_sanitizers(channel, spec="ledger,recovery")
        for i in range(5):
            channel.invoke(client, "kv", "put", [f"k{i}", str(i)])
        peer = next(iter(channel.peers.values()))
        number, _ = _doctor_older_block(peer.ledger)
        manager.crash_and_recover(peer.name)
        assert check_store(peer.ledger, peer.world) == []  # the wipe erased it
        report = sanitizer.finalize()
        assert [(f.rule_id, f.path) for f in report.findings] == [
            ("SAN303", f"ledger:{peer.name}")
        ]
        assert f"block {number}" in report.findings[0].message

    def test_a_recovery_is_audited_on_the_peer_that_recovered(self):
        """SAN307 is replica parity after a recovery; a tamper on another
        peer is that peer's own finding, not the recovery's."""
        from repro.storage import DurabilityManager

        net, channel, client = make_network("solo")
        manager = DurabilityManager(channel, checkpoint_interval=4)
        sanitizer = install_sanitizers(channel, spec="all")
        for i in range(5):
            channel.invoke(client, "kv", "put", [f"k{i}", str(i)])
        number, _ = _doctor_older_block(channel.peers["peer0.org1"].ledger)
        manager.crash_and_recover("peer1.org2")
        assert not [f for f in sanitizer.report().findings if f.rule_id == "SAN307"]
        report = sanitizer.finalize()
        assert [(f.rule_id, f.path) for f in report.findings] == [
            ("SAN303", "ledger:peer0.org1")
        ]
        assert f"block {number}" in report.findings[0].message

    def test_one_recovery_audits_one_chain_twice(self, monkeypatch):
        """Counted, not timed: a sanitized crash and recovery at height
        about 400 walks the chain and replays its writes once before the
        wipe and once after, both times on the peer that crashed; the only
        index work is that peer's own re-application of blocks."""
        from repro.core import Client, Framework, FrameworkConfig
        from repro.fabric import audit
        from repro.index import PeerIndex
        from repro.trust import SourceTier

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        framework = Framework(
            FrameworkConfig(consensus="solo", durability=True, sanitize="all")
        )
        client = Client(framework, framework.register_source("cam", tier=SourceTier.TRUSTED))
        for i in range(400):
            client.submit(b"frame-%d" % i, {"timestamp": float(i), "camera_id": "cam"})
        peer = framework.channel.peers["peer1.org2"]
        assert framework.channel.height() > 400
        read: dict[str, list] = {"check_chain": [], "check_state": [], "replay_writes": []}
        applied = []

        def counted(name, call):
            def wrapper(*args, **kwargs):
                read[name].append(args[0])
                return call(*args, **kwargs)
            return wrapper

        for name in read:
            monkeypatch.setattr(audit, name, counted(name, getattr(audit, name)))
        apply_block = PeerIndex.apply_block

        def counted_apply(index, block):
            applied.append(block)
            return apply_block(index, block)

        monkeypatch.setattr(PeerIndex, "apply_block", counted_apply)
        before = peer.ledger
        outcome = framework.durability.crash_and_recover(peer.name)
        assert read["check_chain"] == read["check_state"] == [before, peer.ledger]
        assert len(read["replay_writes"]) == 2
        assert len(applied) == outcome.replayed_blocks + outcome.caught_up_blocks < 20
        assert framework.sanitizer.finalize().ok

    def test_sanitizer_work_per_submit_does_not_grow_with_height(self, monkeypatch):
        """Counted, not timed: one submit's calls to the chain audit's block
        check and to the index's from-scratch rebuild under every sanitizer,
        at height about 10 and about 200. The per-block remembered-form check
        is counted too, to show the sanitizer ran."""
        from repro.core import Client, Framework, FrameworkConfig
        from repro.fabric import audit
        from repro.index import PeerIndex
        from repro.trust import SourceTier

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        calls = {"check_block": 0, "check_remembered": 0, "from_world": 0}

        def counted(name, call):
            def wrapper(*args):
                calls[name] += 1
                return call(*args)
            return wrapper

        for name in ("check_block", "check_remembered"):
            monkeypatch.setattr(audit, name, counted(name, getattr(audit, name)))
        rebuild = counted("from_world", PeerIndex.from_world)
        monkeypatch.setattr(PeerIndex, "from_world", classmethod(lambda cls, *a: rebuild(*a)))
        framework = Framework(FrameworkConfig(consensus="solo", sanitize="all"))
        client = Client(framework, framework.register_source("cam", tier=SourceTier.TRUSTED))
        meta = {"timestamp": 1.0, "camera_id": "cam", "detections": []}
        per_submit = {}
        for i in range(200):
            before = dict(calls)
            client.submit(b"frame-%d" % i, dict(meta, timestamp=float(i)))
            if i in (10, 199):
                per_submit[framework.channel.height()] = {
                    k: calls[k] - before[k] for k in calls
                }
        low, high = sorted(per_submit)
        assert low < 20 and high > 190
        assert per_submit[low] == per_submit[high]
        assert per_submit[high]["check_remembered"] > 0
        assert framework.sanitizer.finalize().ok


class TestConsensusSanitizer:
    def _sanitizer_over(self, consistent: bool) -> Sanitizer:
        sanitizer = Sanitizer(frozenset({"consensus"}))
        sanitizer.channel = SimpleNamespace(
            orderer=SimpleNamespace(
                cluster=SimpleNamespace(log_prefix_consistent=lambda: consistent)
            )
        )
        return sanitizer

    def test_consistent_logs_clean(self):
        report = self._sanitizer_over(True).finalize()
        assert report.ok and report.checks["consensus"] == 1

    def test_inconsistent_logs_reported(self):
        report = self._sanitizer_over(False).finalize()
        assert [f.rule_id for f in report.findings] == ["SAN306"]

    def test_solo_orderer_without_cluster_skipped(self):
        net, channel, client = make_network("solo")
        sanitizer = install_sanitizers(channel, spec="consensus")
        channel.invoke(client, "kv", "put", ["a", "1"])
        report = sanitizer.finalize()
        assert report.ok and report.checks["consensus"] == 0


class TestSanitizerBelongsToItsFramework:
    def test_a_plain_framework_reports_nothing_to_an_earlier_sanitized_one(self, monkeypatch):
        from repro.core import Client, Framework, FrameworkConfig
        from repro.trust import SourceTier

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sanitized = Framework(FrameworkConfig(consensus="solo", sanitize="index"))
        plain = Framework(FrameworkConfig(consensus="solo"))
        assert plain.sanitizer is None
        client = Client(plain, plain.register_source("cam", tier=SourceTier.TRUSTED))
        receipt = client.submit(b"frame", {"timestamp": 1.0, "detections": []})
        before = sanitized.sanitizer.report().checks.get("index", 0)
        assert len(client.query("source_id = 'cam'")) == 1
        client.retrieve(receipt.entry_id)
        assert sanitized.sanitizer.report().checks.get("index", 0) == before
