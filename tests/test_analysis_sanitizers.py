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
from repro.analysis import runtime as analysis_runtime
from repro.analysis.runtime import MODES
from repro.errors import AnalysisError
from repro.fabric import Chaincode, ValidationCode

from tests.fabric_helpers import make_network


@pytest.fixture(autouse=True)
def _reset_sanitizer_globals():
    yield
    analysis_runtime._ACTIVE = None
    analysis_runtime._LAST_REPORT = None


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


class TestLedgerSanitizer:
    def test_honest_run_has_zero_findings(self):
        net, channel, client = make_network("solo")
        sanitizer = install_sanitizers(channel, spec="ledger")
        for i in range(3):
            channel.invoke(client, "kv", "put", [f"k{i}", str(i)])
        report = sanitizer.finalize()
        assert report.ok
        # 3 blocks x 2 peers committed, each audited.
        assert report.checks["ledger"] == 6

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
        peer = next(iter(channel.peers.values()))
        store = peer.ledger
        number, block = next(
            (b.number, b) for b in store.blocks() if b.transactions
        )
        victim = block.transactions[0]
        forged_tx = dataclasses.replace(victim, response='{"key":"evil"}')
        forged = dataclasses.replace(
            block, transactions=(forged_tx,) + block.transactions[1:]
        )
        store._blocks[number - store.base_height] = forged
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
