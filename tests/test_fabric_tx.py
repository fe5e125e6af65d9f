"""Tests for serialize-once on the transaction values: each canonical form is
computed once per object, a copy computes afresh, and the memo stays bounded
and flat in ledger height. The proposal's signing payload is rendered
unchecked; the former renderer (``tests/serialization_oracle.py``) of the
same dict is its oracle."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.fabric.identity import Identity, IdentityInfo, Role
from repro.fabric.tx import (
    ChaincodeEvent,
    Endorsement,
    ProposalResponse,
    ReadEntry,
    ReadWriteSet,
    Transaction,
    TxProposal,
    WriteEntry,
    endorsement_payload,
)
from repro.fabric.worldstate import Version
from repro.obs.prof import profiling
from repro.util import serialization
from repro.util.serialization import ONCE_MAX_ENTRIES, canonical_json

from tests import serialization_oracle as oracle
from tests.fabric_helpers import make_network

ALICE = Identity.create("alice", "org1")
PEER = Identity.create("peer0", "org1")


def make_proposal(n=0) -> TxProposal:
    return TxProposal.signed(
        ALICE,
        tx_id=f"tx-{n}",
        channel="ch",
        chaincode="kv",
        fn="put",
        args=("k", str(n)),
        timestamp=float(n),
    )


def make_response(proposal: TxProposal, success=True) -> ProposalResponse:
    return ProposalResponse.endorsed(
        PEER,
        tx_id=proposal.tx_id,
        rwset=ReadWriteSet(writes=(WriteEntry(key="k", value=b"v"),)),
        response='{"key":"k"}' if success else "null",
        success=success,
        message="" if success else "deliberate failure",
        events=(),
    )


def make_tx(n=0) -> Transaction:
    proposal = make_proposal(n)
    return Transaction.from_responses(proposal, [make_response(proposal)])


@pytest.fixture
def center_calls():
    """Count the calls of a profiled center made inside the test."""
    with profiling() as profiler:
        yield lambda center: sum(
            stat.calls for stat in profiler.center_stats() if stat.center == center
        )


@pytest.fixture
def canonical_json_calls(center_calls):
    """Count ``serialize.canonical_json`` calls made inside the test."""
    return lambda: center_calls("serialize.canonical_json")


@pytest.fixture
def rwset_renders(monkeypatch):
    """Count the rwsets rendered inside the test (``ReadWriteSet.to_dict``
    is what every rendering of an rwset starts from)."""
    calls = []
    to_dict = ReadWriteSet.to_dict

    def counting(self):
        calls.append(self)
        return to_dict(self)

    monkeypatch.setattr(ReadWriteSet, "to_dict", counting)
    return lambda: len(calls)


class TestRememberedForms:
    def test_each_form_is_serialised_once_per_object(self, canonical_json_calls, rwset_renders):
        tx = make_tx()
        assert rwset_renders() == 1  # by the endorser, for the payload it signed
        before = canonical_json_calls()
        forms = [
            (tx.envelope_bytes(), tx.proposal.signing_payload(),
             endorsement_payload(tx), tx.rwset.digest(), tx.rwset.canonical())
            for _ in range(3)
        ]
        assert forms[0] == forms[1] == forms[2]
        # The envelope, with the endorser's rwset bytes spliced in; the
        # signing payload and the endorsement payload arrived with the values
        # (build-then-sign) and the digest hashes the remembered rwset.
        assert canonical_json_calls() - before == 1
        assert rwset_renders() == 1

    def test_replace_copy_recomputes_and_differs(self):
        tx = make_tx()
        original = tx.envelope_bytes()
        forged = dataclasses.replace(tx, response='{"key":"evil"}')
        assert forged.envelope_bytes() != original
        assert endorsement_payload(forged) != endorsement_payload(tx)
        assert tx.envelope_bytes() == original
        forged_proposal = dataclasses.replace(tx.proposal, args=("k", "evil"))
        assert forged_proposal.signing_payload() != tx.proposal.signing_payload()

    def test_signed_values_remember_the_bytes_that_were_signed(
        self, center_calls, canonical_json_calls, rwset_renders
    ):
        before = canonical_json_calls()
        proposal = make_proposal()
        response = make_response(proposal)
        # One rendering per signature made: the proposal's payload written
        # out, and the endorsed payload around the one rendering of the rwset.
        assert center_calls("serialize.proposal") == 1
        assert canonical_json_calls() - before == 2
        assert rwset_renders() == 1
        ALICE.info().public_key.verify(proposal.signing_payload(), proposal.signature)
        PEER.info().public_key.verify(
            endorsement_payload(response), response.endorsement.signature
        )
        assert response.rwset.digest()
        assert center_calls("serialize.proposal") == 1
        assert canonical_json_calls() - before == 2
        assert rwset_renders() == 1
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


_TEXT = st.text(
    st.sampled_from('"\\/é日\n\x00') | st.characters(exclude_categories=("Cs",)),
    max_size=12,
)
_RWSETS = st.builds(
    ReadWriteSet,
    reads=st.lists(
        st.builds(
            ReadEntry,
            key=_TEXT,
            version=st.none() | st.builds(Version, st.integers(0, 2**40), st.integers(0, 99)),
        ),
        max_size=3,
    ).map(tuple),
    writes=st.lists(
        st.builds(WriteEntry, key=_TEXT, value=st.binary(max_size=16))
        | _TEXT.map(lambda key: WriteEntry(key, None, is_delete=True)),
        max_size=4,
    ).map(tuple),
)


class TestSplicedFormsEqualTheWholeDictRendering:
    """The rwset is spliced into the endorsed payload and the envelope as
    bytes; the oracle is the whole-dict ``canonical_json`` they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(_RWSETS, _TEXT, _TEXT, st.booleans(), st.dictionaries(_TEXT, _TEXT, max_size=2))
    def test_bytes_are_identical(self, rwset, tx_id, response, success, payload):
        proposal = TxProposal(
            tx_id=tx_id, channel="ch", chaincode="kv", fn="put", args=(response,),
            creator=ALICE.info(), timestamp=1.5, signature=b"\x01\x02",
        )
        simulated = ProposalResponse(
            tx_id=tx_id, rwset=rwset, response=response, success=success,
            message="", endorsement=Endorsement(endorser=PEER.info(), signature=b"\x03"),
        )
        tx = Transaction(
            proposal=proposal, rwset=rwset, response=response,
            endorsements=(simulated.endorsement,),
            events=(ChaincodeEvent("kv", "put", payload),),
        )
        rendered = rwset.to_dict()
        assert rwset.digest() == hashlib.sha256(canonical_json(rendered)).hexdigest()
        for signed, ok in ((simulated, success), (tx, True)):
            assert endorsement_payload(signed) == canonical_json(
                {"tx_id": tx_id, "rwset": rendered, "response": response, "success": ok}
            )
        assert tx.envelope_bytes() == canonical_json(
            {
                "proposal": {
                    "tx_id": tx_id, "channel": "ch", "chaincode": "kv", "fn": "put",
                    "args": [response], "creator": ALICE.info().to_dict(), "timestamp": 1.5,
                },
                "proposal_sig": proposal.signature.hex(),
                "rwset": rendered,
                "response": response,
                "endorsements": [
                    {"endorser": PEER.info().to_dict(), "sig": simulated.endorsement.signature.hex()}
                ],
                "events": [{"chaincode": "kv", "name": "put", "payload": payload}],
            }
        )

    def test_empty_rwset(self):
        assert ReadWriteSet().canonical() == b'{"reads":[],"writes":[]}'
        proposal = make_proposal()
        failed = make_response(proposal, success=False)
        empty = dataclasses.replace(failed, rwset=ReadWriteSet())
        assert endorsement_payload(empty) == canonical_json(
            {"tx_id": "tx-0", "rwset": {"reads": [], "writes": []},
             "response": "null", "success": False}
        )


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


def proposal_dict(proposal: TxProposal) -> dict:
    """The proposal as the dict ``canonical_json`` rendered before the
    payload was written out."""
    return {
        "tx_id": proposal.tx_id,
        "channel": proposal.channel,
        "chaincode": proposal.chaincode,
        "fn": proposal.fn,
        "args": list(proposal.args),
        "creator": proposal.creator.to_dict(),
        "timestamp": proposal.timestamp,
    }


# Quotes, backslashes, control characters, separators JSON must escape or
# keep, non-BMP characters, and anything else but a lone surrogate.
_HOSTILE = st.text(
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\u2028", "é", "日", "😀"])
    | st.characters(exclude_categories=("Cs",)),
    max_size=10,
)
_TIMESTAMPS = st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, 3.0, 1.7e9,
                               1712345678.123456, 1e16, 1e-7]) | st.floats(
    allow_nan=False, allow_infinity=False
) | st.integers()
# A lone surrogate planted in one of the string fields, or none.
_SURROGATE = st.none() | st.tuples(st.integers(0, 10), st.sampled_from(["\ud800", "\udfff"]))


class TestProposalPayloadIsCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_HOSTILE, min_size=7, max_size=11),
        st.sampled_from(list(Role)), _TIMESTAMPS, _SURROGATE,
    )
    def test_written_payload_equals_canonical_json(self, texts, role, timestamp, surrogate):
        if surrogate is not None:
            at, char = surrogate
            texts[at % len(texts)] += char
        tx_id, channel, chaincode, fn, name, org, key, *args = texts
        proposal = TxProposal(
            tx_id=tx_id, channel=channel, chaincode=chaincode, fn=fn, args=tuple(args),
            creator=IdentityInfo(name=name, org=org, role=role, public_key_hex=key),
            timestamp=timestamp,
        )
        written = oracle.outcome(proposal.signing_payload)
        want = oracle.expected(proposal_dict(proposal))
        assert oracle.same(written, want), (written, want)
        assert written == oracle.outcome(canonical_json, proposal_dict(proposal))
        # A lone surrogate cannot be UTF-8, nor can JSON carry an int beyond
        # 64 bits: both refuse, nothing else does.
        beyond_64_bits = type(timestamp) is int and not -(2**63) <= timestamp < 2**64
        assert isinstance(written, str) == (surrogate is not None or beyond_64_bits)

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_a_timestamp_json_cannot_carry_is_refused(self, timestamp):
        with pytest.raises(EncodingError, match="NaN/Inf"):
            TxProposal.signed(
                ALICE, tx_id="t", channel="ch", chaincode="kv", fn="put", args=("k",),
                timestamp=timestamp,
            )

    @pytest.mark.parametrize("arg", [5, 1.5, None, True, b"k", ["k"], {"k": "v"}])
    def test_a_non_str_arg_is_refused_where_the_proposal_is_built(self, arg):
        with pytest.raises(EncodingError, match="not canonically serializable"):
            TxProposal.signed(
                ALICE, tx_id="t", channel="ch", chaincode="kv", fn="put", args=("k", arg),
                timestamp=1.0,
            )
        net, channel, client = make_network()
        with pytest.raises(EncodingError):
            channel.invoke(client, "kv", "put", ["k", arg])
        assert channel.height() == 0

    @pytest.mark.parametrize("timestamp", ["1.0", True, None])
    def test_a_timestamp_that_is_no_number_is_refused(self, timestamp):
        with pytest.raises(EncodingError, match="not a number"):
            TxProposal.signed(
                ALICE, tx_id="t", channel="ch", chaincode="kv", fn="put", args=(),
                timestamp=timestamp,
            )


class TestBuiltOnceEqualsTheFormerCopies:
    """``TxProposal.signed`` and ``ProposalResponse.endorsed`` construct the
    signed value once; before, an unsigned value was built and then copied
    with ``dataclasses.replace``. Every remembered form must agree."""

    def test_proposal(self):
        built = make_proposal(7)
        unsigned = TxProposal(
            tx_id="tx-7", channel="ch", chaincode="kv", fn="put", args=("k", "7"),
            creator=ALICE.info(), timestamp=7.0,
        )
        former = dataclasses.replace(
            unsigned, signature=ALICE.sign(canonical_json(proposal_dict(unsigned)))
        )
        fresh = dataclasses.replace(built)
        assert built == former
        for value in (former, fresh):
            assert value.signing_payload() == built.signing_payload()
            assert value.signature_error() is built.signature_error() is None

    @pytest.mark.parametrize("success", [True, False])
    def test_response(self, success):
        proposal = make_proposal()
        built = make_response(proposal, success=success)
        unsigned = ProposalResponse(
            tx_id=proposal.tx_id,
            rwset=ReadWriteSet(writes=(WriteEntry(key="k", value=b"v"),)),
            response=built.response,
            success=success,
            message=built.message,
            endorsement=Endorsement(endorser=PEER.info(), signature=b""),
        )
        payload = canonical_json(
            {"tx_id": proposal.tx_id, "rwset": unsigned.rwset.to_dict(),
             "response": unsigned.response, "success": success}
        )
        former = dataclasses.replace(
            unsigned,
            endorsement=Endorsement(endorser=PEER.info(), signature=PEER.sign(payload)),
        )
        assert built == former
        for value in (former, dataclasses.replace(built)):
            assert endorsement_payload(value) == endorsement_payload(built) == payload
        txs = [Transaction.from_responses(proposal, [r]) for r in (built, former)]
        assert txs[0] == txs[1]
        assert txs[0].envelope_bytes() == txs[1].envelope_bytes()
        # A transaction stands for a successful simulation only.
        assert txs[0].endorsement_verdicts() == txs[1].endorsement_verdicts() == (success,)
