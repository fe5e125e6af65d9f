#!/usr/bin/env python
"""Provenance and tamper detection: the framework's integrity guarantees.

Demonstrates every integrity mechanism the paper claims, by attacking each:

1. hash-chained provenance per data entry (verify, then show a break),
2. content addressing — serving different bytes under a stored CID fails,
3. the record's CID as the one on-chain commitment — doctoring it breaks the
   lineage that chained on the honest record,
4. the ledger's block hash chain detecting history rewrites,
5. Byzantine validators voting a forged endorsement out (2/3 rule).

Run:  python examples/provenance_audit.py
"""

import json

from repro.core import Client, Framework, FrameworkConfig
from repro.crypto.cid import CID
from repro.errors import ChaincodeError, DagError, LedgerError
from repro.trust import SourceTier


def main() -> None:
    framework = Framework(FrameworkConfig(consensus="bft"))
    client = Client(framework, framework.register_source("audit-cam", tier=SourceTier.TRUSTED))

    print("== Building an audit trail ==")
    receipt = client.submit(
        b"evidence-frame: junction collision 14:02",
        {"timestamp": 50520.0, "camera_id": "audit-cam",
         "detections": [{"vehicle_class": "car", "confidence": 0.97}]},
    )
    client.retrieve(receipt.entry_id)   # analyst pulls the evidence
    client.retrieve(receipt.entry_id)   # and again during review
    lineage = client.provenance(receipt.entry_id)
    print(f"  entry {receipt.entry_id[:12]}… has {len(lineage)} provenance events:")
    for event in lineage:
        print(f"    {event['seq']}: {event['action']:<9} prev={event['prev_hash'][:8]}… "
              f"hash={event['entry_hash'][:8]}…")
    print(f"  verify: {client.verify_provenance(receipt.entry_id)}")

    print("\n== Attack 1: tampered provenance entry ==")
    from repro.chaincodes.provenance import _entry_hash

    forged = dict(lineage[1])
    forged["actor"] = "someone-else"
    recomputed = _entry_hash(forged)
    print(f"  stored hash    : {lineage[1]['entry_hash'][:16]}…")
    print(f"  hash of forgery: {recomputed[:16]}…")
    print(f"  detected: {recomputed != lineage[1]['entry_hash']}")

    print("\n== Attack 2: wrong bytes under the stored CID ==")
    record = client.get_metadata(receipt.entry_id)
    cid = CID.parse(record["cid"])
    holders = [n for n in framework.ipfs.nodes.values() if n.blockstore.has(cid)]
    honest = holders[0].blockstore.get(cid)
    for node in holders:
        node.blockstore.corrupt(cid, b"doctored evidence")
    try:
        client.engine.fetch_payload(record)
        print("  NOT detected — bug!")
    except DagError as exc:
        print(f"  detected: {exc}")
    for node in holders:
        node.blockstore.corrupt(cid, honest)  # restore for the rest of the demo

    print("\n== Attack 3: a record doctored to name other bytes ==")
    doctored_cid = framework.ipfs.add(b"doctored evidence").cid.encode()
    key = "data:" + receipt.entry_id
    originals = {}
    for name, peer in framework.channel.peers.items():
        originals[name] = peer.world.get(key)
        doctored = dict(json.loads(originals[name]), cid=doctored_cid)
        peer.world._values[key] = json.dumps(doctored).encode()
    try:
        client.verify_provenance(receipt.entry_id)
        print("  NOT detected — bug!")
    except ChaincodeError as exc:
        print(f"  detected (the analyst's reads chained on the honest record): {exc}")
    for name, peer in framework.channel.peers.items():
        peer.world._values[key] = originals[name]  # restore

    print("\n== Attack 4: rewriting ledger history ==")
    peer = next(iter(framework.channel.peers.values()))
    block0 = peer.ledger.block(0)
    from repro.fabric.ledger import Block

    peer.ledger._blocks[0] = Block(header=block0.header, transactions=())
    try:
        peer.ledger.verify_chain()
        print("  NOT detected — bug!")
    except LedgerError as exc:
        print(f"  detected: {exc}")
    peer.ledger._blocks[0] = block0  # restore for the rest of the demo
    peer.ledger.verify_chain()
    print("  history restored; chain verifies again")

    print("\n== Attack 5: forged endorsement through BFT ordering ==")
    from repro.fabric import Endorsement, Transaction, ValidationCode

    proposal, responses = framework.channel.endorse(
        client.identity, "data_upload", "store",
        [doctored_cid, json.dumps({"timestamp": 1.0})],
    )
    good = framework.channel.assemble(proposal, responses)
    forged_tx = Transaction(
        proposal=good.proposal,
        rwset=good.rwset,
        response=good.response,
        endorsements=tuple(
            Endorsement(endorser=e.endorser, signature=b"\x11" * 64)
            for e in good.endorsements
        ),
    )
    framework.channel.orderer.submit(forged_tx)
    framework.channel.flush()
    outcome = framework.channel.result(forged_tx.tx_id)
    votes = framework.consensus_votes(forged_tx.tx_id)
    print(f"  validator votes: {votes}")
    print(f"  outcome: {outcome.code.value} "
          f"(expected {ValidationCode.REJECTED_BY_CONSENSUS.value})")

    print("\n== Final audit ==")
    for name, peer in framework.channel.peers.items():
        peer.ledger.verify_chain()
        print(f"  {name}: height {peer.ledger.height}, hash chain OK")


if __name__ == "__main__":
    main()
