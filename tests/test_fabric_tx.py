"""Tests for serialize-once on the transaction values: each canonical form is
computed once per object, a copy computes afresh, and the memo stays bounded
and flat in ledger height."""

import dataclasses

import pytest

from repro.fabric.identity import Identity
from repro.fabric.tx import (
    Endorsement,
    ProposalResponse,
    ReadWriteSet,
    Transaction,
    TxProposal,
    WriteEntry,
    endorsement_payload,
)
from repro.obs.prof import profiling
from repro.util import serialization
from repro.util.serialization import ONCE_MAX_ENTRIES, canonical_json

from tests.fabric_helpers import make_network

ALICE = Identity.create("alice", "org1")
PEER = Identity.create("peer0", "org1")


def make_proposal(n=0) -> TxProposal:
    return TxProposal(
        tx_id=f"tx-{n}",
        channel="ch",
        chaincode="kv",
        fn="put",
        args=("k", str(n)),
        creator=ALICE.info(),
        timestamp=float(n),
    ).signed_by(ALICE)


def make_response(proposal: TxProposal, success=True) -> ProposalResponse:
    return ProposalResponse(
        tx_id=proposal.tx_id,
        rwset=ReadWriteSet(writes=(WriteEntry(key="k", value=b"v"),)),
        response='{"key":"k"}' if success else "null",
        success=success,
        message="" if success else "deliberate failure",
        endorsement=Endorsement(endorser=PEER.info(), signature=b""),
    ).endorsed_by(PEER)


def make_tx(n=0) -> Transaction:
    proposal = make_proposal(n)
    return Transaction.from_responses(proposal, [make_response(proposal)])


@pytest.fixture
def canonical_json_calls():
    """Count ``serialize.canonical_json`` calls made inside the test."""
    with profiling() as profiler:
        yield lambda: sum(
            stat.calls
            for stat in profiler.center_stats()
            if stat.center == "serialize.canonical_json"
        )


class TestRememberedForms:
    def test_each_form_is_serialised_once_per_object(self, canonical_json_calls):
        tx = make_tx()
        before = canonical_json_calls()
        forms = [
            (tx.envelope_bytes(), tx.proposal.signing_payload(),
             endorsement_payload(tx), tx.rwset.digest())
            for _ in range(3)
        ]
        assert forms[0] == forms[1] == forms[2]
        # The envelope and the rwset digest; the signing payload and the
        # endorsement payload arrived with the values (build-then-sign).
        assert canonical_json_calls() - before == 2

    def test_replace_copy_recomputes_and_differs(self):
        tx = make_tx()
        original = tx.envelope_bytes()
        forged = dataclasses.replace(tx, response='{"key":"evil"}')
        assert forged.envelope_bytes() != original
        assert endorsement_payload(forged) != endorsement_payload(tx)
        assert tx.envelope_bytes() == original
        forged_proposal = dataclasses.replace(tx.proposal, args=("k", "evil"))
        assert forged_proposal.signing_payload() != tx.proposal.signing_payload()

    def test_signed_values_remember_the_bytes_that_were_signed(self, canonical_json_calls):
        before = canonical_json_calls()
        proposal = make_proposal()
        response = make_response(proposal)
        assert canonical_json_calls() - before == 2  # one per signature made
        ALICE.info().public_key.verify(proposal.signing_payload(), proposal.signature)
        PEER.info().public_key.verify(
            endorsement_payload(response), response.endorsement.signature
        )
        assert canonical_json_calls() - before == 2
        # Remembered, and right: an equal copy serialises to the same bytes.
        assert dataclasses.replace(proposal).signing_payload() == proposal.signing_payload()
        assert endorsement_payload(dataclasses.replace(response)) == endorsement_payload(response)

    def test_transaction_is_handed_its_first_endorsers_payload(self, canonical_json_calls):
        proposal = make_proposal()
        response = make_response(proposal)
        before = canonical_json_calls()
        tx = Transaction.from_responses(proposal, [response])
        assert endorsement_payload(tx) is endorsement_payload(response)
        assert canonical_json_calls() == before
        assert endorsement_payload(dataclasses.replace(tx)) == endorsement_payload(tx)

    def test_a_response_to_another_proposal_hands_nothing_over(self):
        proposal, other = make_proposal(1), make_proposal(2)
        tx = Transaction.from_responses(proposal, [make_response(other)])
        assert b'"tx_id":"tx-1"' in endorsement_payload(tx)

    @pytest.mark.parametrize("success", [True, False])
    def test_one_payload_function_equals_both_it_replaced(self, success):
        """``ProposalResponse.response_payload`` and the old
        ``endorsement_payload(tx)``, as they were written before they merged."""
        proposal = make_proposal()
        response = make_response(proposal, success=success)
        assert endorsement_payload(response) == canonical_json(
            {
                "tx_id": response.tx_id,
                "rwset": response.rwset.to_dict(),
                "response": response.response,
                "success": response.success,
            }
        )
        tx = Transaction(
            proposal=proposal,
            rwset=response.rwset,
            response=response.response,
            endorsements=(response.endorsement,),
        )
        assert endorsement_payload(tx) == canonical_json(
            {
                "tx_id": tx.tx_id,
                "rwset": tx.rwset.to_dict(),
                "response": tx.response,
                "success": True,
            }
        )

    def test_evicting_a_live_transactions_form_only_costs_a_recompute(self):
        tx = make_tx()
        envelope, key = tx.envelope_bytes(), (id(tx), "envelope_bytes")
        assert key in serialization._once
        others = [make_proposal(n) for n in range(ONCE_MAX_ENTRIES)]
        assert all(other.signing_payload() for other in others)
        assert key not in serialization._once
        assert tx.envelope_bytes() == envelope


class TestMemoIsFlatInLedgerHeight:
    def test_entries_bounded_and_unchanged_by_a_full_chain_walk(self):
        """The measured dead end, asserted on entries: caches kept on the
        objects were refilled for every block by any later chain walk."""
        net, channel, client = make_network("solo", max_batch_size=25)
        for i in range(500):
            channel.invoke_async(client, "kv", "put", [f"k{i}", str(i)])
            assert len(serialization._once) <= ONCE_MAX_ENTRIES
        channel.flush()
        peer = next(iter(channel.peers.values()))
        assert sum(len(b.transactions) for b in peer.ledger.blocks()) == 500
        before = len(serialization._once)
        peer.ledger.verify_chain()
        assert len(serialization._once) == before == ONCE_MAX_ENTRIES
