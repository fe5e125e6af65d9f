"""Direct tests for the ordering services (batching, dedup, delivery)."""

import pytest

from repro.errors import OrderingError
from repro.fabric import BftOrderer, SoloOrderer
from repro.fabric.orderer import _BatchCutter

from tests.fabric_helpers import make_network


class TestBatchCutter:
    def test_invalid_batch_size(self):
        with pytest.raises(OrderingError):
            _BatchCutter(0)

    def test_cut_on_empty_is_noop(self):
        cutter = _BatchCutter(4)
        delivered = []
        cutter.register_delivery(lambda b, r: delivered.append(b))
        cutter.cut()
        assert delivered == []
        assert cutter.blocks_cut == 0


class TestSoloOrderer:
    def test_batch_boundary_cuts_automatically(self):
        net, channel, alice = make_network(max_batch_size=3)
        for i in range(7):
            channel.invoke_async(alice, "kv", "put", [f"k{i}", "v"])
        # Two full blocks cut automatically; one pending transaction.
        assert channel.orderer.blocks_cut == 2
        channel.flush()
        assert channel.orderer.blocks_cut == 3
        assert channel.height() == 3

    def test_flush_idempotent(self):
        net, channel, alice = make_network()
        channel.invoke(alice, "kv", "put", ["k", "v"])
        before = channel.orderer.blocks_cut
        channel.flush()
        channel.flush()
        assert channel.orderer.blocks_cut == before

    def test_blocks_chain_across_batches(self):
        net, channel, alice = make_network(max_batch_size=2)
        for i in range(4):
            channel.invoke_async(alice, "kv", "put", [f"k{i}", "v"])
        channel.flush()
        peer = next(iter(channel.peers.values()))
        peer.ledger.verify_chain()
        assert peer.ledger.height == 2


class TestBftOrderer:
    def test_duplicate_submission_rejected(self):
        net, channel, alice = make_network(consensus="bft")
        proposal, responses = channel.endorse(alice, "kv", "put", ["k", "v"])
        tx = channel.assemble(proposal, responses)
        channel.orderer.submit(tx)
        with pytest.raises(OrderingError, match="already submitted"):
            channel.orderer.submit(tx)

    def test_decisions_recorded_per_tx(self):
        net, channel, alice = make_network(consensus="bft")
        result = channel.invoke(alice, "kv", "put", ["k", "v"])
        decision = channel.orderer.decisions[result.tx_id]
        assert decision.accepted
        assert len(decision.votes) >= 3

    def test_multiple_channels_isolated(self):
        """Two channels on one network share nothing."""
        from repro.fabric import FabricNetwork

        from tests.fabric_helpers import KvChaincode

        net = FabricNetwork()
        ch1 = net.create_channel("one", orgs=["org1"])
        ch2 = net.create_channel("two", orgs=["org1"])
        ch1.install_chaincode(KvChaincode())
        ch2.install_chaincode(KvChaincode())
        alice = net.register_identity("alice", "org1")
        ch1.invoke(alice, "kv", "put", ["shared-key", "one"])
        ch2.invoke(alice, "kv", "put", ["shared-key", "two"])
        import json

        assert json.loads(ch1.query(alice, "kv", "get", ["shared-key"]))["value"] == "one"
        assert json.loads(ch2.query(alice, "kv", "get", ["shared-key"]))["value"] == "two"
        assert ch1.height() == 1 and ch2.height() == 1
