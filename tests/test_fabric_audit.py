"""repro.fabric.audit: the one chain audit, and every consumer of it.

The table test tampers a committed ledger seven ways and asks all four
consumers — the ``audit`` functions, ``BlockStore.verify_chain``, the ledger
sanitizer's ``check_store`` and ``LedgerExplorer.audit_chain`` — what they
see: they must say the same thing, each in its own vocabulary.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_store
from repro.analysis.invariants import RULE_OF
from repro.errors import LedgerError
from repro.fabric import GENESIS_PREVIOUS_HASH, audit
from repro.fabric.ledger import Block, BlockStore
from repro.fabric.tx import ValidationCode, WriteEntry
from repro.fabric.worldstate import Version, WorldState
from repro.obs.explorer import LedgerExplorer

from tests.fabric_helpers import make_network, submit_forged
from tests.test_fabric_ledger import make_block, make_tx

CHAIN_CHECKS = {"block_number", "header_chain", "merkle_root"}


def committed_network():
    """Two peers, five blocks: k0..k2 put, k1 deleted, k0 overwritten."""
    net, channel, alice = make_network("solo")
    for i in range(3):
        channel.invoke(alice, "kv", "put", [f"k{i}", str(i)])
    channel.invoke(alice, "kv", "delete", ["k1"])
    channel.invoke(alice, "kv", "put", ["k0", "again"])
    explorer = LedgerExplorer(channel)
    return channel, explorer, explorer.reference_peer()


def _replace_header(store, at, **changes):
    block = store.block(at)
    store._blocks[at - store.base_height] = dataclasses.replace(
        block, header=dataclasses.replace(block.header, **changes)
    )


def break_previous_hash(peer):
    _replace_header(peer.ledger, peer.ledger.height - 1, previous_hash="ff" * 32)


def forge_data_hash(peer):
    _replace_header(peer.ledger, peer.ledger.height - 1, data_hash="0" * 64)


def forge_tx_response(peer):
    block = peer.ledger.block(1)
    forged = dataclasses.replace(block.transactions[0], response='{"key":"evil"}')
    peer.ledger._blocks[1] = dataclasses.replace(
        block, transactions=(forged,) + block.transactions[1:]
    )


def renumber_last_block(peer):
    _replace_header(peer.ledger, peer.ledger.height - 1, number=peer.ledger.height + 4)


def rewrite_world_value(peer):
    peer.world._values["k2"] = b"evil"


def add_ghost_key(peer):
    peer.world.apply_write("ghost", b"boo", Version(0, 0), "evil", 0.0)


def resurrect_deleted_key(peer):
    peer.world.apply_write("k1", b"back", Version(99, 0), "evil", 0.0)


TAMPERS = [
    (break_previous_hash, "header_chain", 4),
    (forge_data_hash, "merkle_root", 4),
    (forge_tx_response, "merkle_root", 1),
    (renumber_last_block, "block_number", 4),
    (rewrite_world_value, "state_replay", None),
    (add_ghost_key, "state_replay", None),
    (resurrect_deleted_key, "state_replay", None),
]


class TestEveryConsumerSaysTheSameThing:
    def test_honest_network_is_clean_everywhere(self):
        channel, explorer, peer = committed_network()
        assert audit.check_chain(peer.ledger) == []
        assert audit.check_state(peer.ledger, peer.world) == []
        assert audit.check_peers(channel.peers.values()) == []
        peer.ledger.verify_chain()
        assert check_store(peer.ledger, peer.world) == []
        assert explorer.audit_chain(offchain=False).ok

    @pytest.mark.parametrize(
        "tamper, check, block", TAMPERS, ids=[t[0].__name__ for t in TAMPERS]
    )
    def test_tamper(self, tamper, check, block):
        channel, explorer, peer = committed_network()
        tamper(peer)
        store, world = peer.ledger, peer.world

        found = audit.check_chain(store) + audit.check_state(store, world)
        assert {(f.check, f.block) for f in found} == {(check, block)}

        if check in CHAIN_CHECKS:
            with pytest.raises(LedgerError, match=f"block {block}"):
                store.verify_chain()
        else:
            store.verify_chain()  # the chain itself is intact

        # The sanitizer and the explorer: two images of the same findings
        # through the one table.
        sanitizer = check_store(store, world)
        assert [f.rule_id for f in sanitizer] == [RULE_OF[check]]
        report = explorer.audit_chain(offchain=False)
        assert not report.ok
        mapped = [f for f in report.findings if f.check in RULE_OF]
        assert {(f.check, f.block) for f in mapped} == {(check, block)}
        if check in CHAIN_CHECKS:
            assert sanitizer[0].line == block
            assert mapped[0].detail in sanitizer[0].message
        else:
            for finding in mapped:
                key = finding.detail.partition(": ")[2]
                assert key and key in sanitizer[0].message

    def test_forged_tx_is_named_by_both_signature_rules(self):
        """With an MSP the explorer reports the tx; without one the
        sanitizer's suffix pinpoints the same tx by the same check."""
        channel, explorer, peer = committed_network()
        forge_tx_response(peer)
        victim = peer.ledger.block(1).transactions[0]
        assert not audit.endorsement_verifies(victim)
        assert not audit.endorsement_verifies(victim, channel.msp_registry)
        [finding] = check_store(peer.ledger)
        assert f"tampered: tx 0 ({victim.tx_id[:16]})" in finding.message
        signature = [
            f for f in explorer.audit_chain(offchain=False).findings
            if f.check == "endorsement_signature"
        ]
        assert [(f.block, f.tx_id) for f in signature] == [(1, victim.tx_id)]

    @pytest.mark.parametrize("half", ["head hash", "state digest"])
    def test_check_peers_names_the_peers_and_the_half(self, half):
        channel, explorer, peer = committed_network()
        other = next(p for p in channel.peers.values() if p is not peer)
        if half == "head hash":
            break_previous_hash(other)
        else:
            rewrite_world_value(other)
        [finding] = audit.check_peers(channel.peers.values())
        assert finding.check == "peer_divergence"
        assert f"{half} diverges" in finding.detail
        assert peer.name in finding.detail and other.name in finding.detail
        wrong_half = "state digest" if half == "head hash" else "head hash"
        assert wrong_half not in finding.detail


class TestBlockChecks:
    def test_every_block_of_an_honest_chain_is_clean(self):
        channel, _, _ = committed_network()
        for peer in channel.peers.values():
            prev = GENESIS_PREVIOUS_HASH
            for number, block in enumerate(peer.ledger.blocks()):
                assert audit.check_block(block, number, prev) == []
                prev = block.header.hash()

    @pytest.mark.parametrize(
        "forge, check",
        [
            (lambda good, prev: make_block(7, prev), "block_number"),
            (lambda good, prev: make_block(1, "ff" * 32), "header_chain"),
            (
                lambda good, prev: Block(header=good.header, transactions=(make_tx(99),)),
                "merkle_root",
            ),
        ],
        ids=["wrong_number", "broken_link", "forged_data_hash"],
    )
    def test_append_refuses_what_check_block_finds(self, forge, check):
        store = BlockStore()
        b0 = make_block(0, GENESIS_PREVIOUS_HASH)
        store.append(b0)
        bad = forge(make_block(1, b0.header.hash()), b0.header.hash())
        assert [f.check for f in audit.check_block(bad, 1, b0.header.hash())] == [check]
        with pytest.raises(LedgerError, match="block 1"):
            store.append(bad)
        assert store.height == 1 and not store.has_tx(bad.transactions[0].tx_id)

    def test_doctored_verdicts_break_the_chain_at_the_next_block(self):
        """The header hash covers the consensus verdicts: dropping a refused
        position from a stored block that is not the head is refused. The
        block's own codes still flag that position, so it is named too."""
        net, channel, alice = make_network("bft")
        channel.invoke(alice, "kv", "put", ["k", "v"])
        forged = submit_forged(channel, alice, "forged")
        channel.invoke(alice, "kv", "put", ["after", "v"])
        peer = next(iter(channel.peers.values()))
        number = peer.ledger.find_tx(forged.tx_id)[0].number
        assert peer.ledger.block(number).header.rejected == (0,)
        assert number < peer.ledger.height - 1
        _replace_header(peer.ledger, number, rejected=())
        findings = audit.check_chain(peer.ledger)
        assert [(f.check, f.block) for f in findings] == [
            ("consensus_verdicts", number), ("header_chain", number + 1)
        ]
        assert findings[0].tx_id == forged.tx_id
        with pytest.raises(LedgerError, match=f"block {number}: tx 0 is coded"):
            peer.ledger.verify_chain()

    @pytest.mark.parametrize(
        "rejected, n_txs",
        [((7, 3, 3), 1), ((2,), 2), ((1, 0), 2), ((0, 0), 2), ((-1,), 2), ((True,), 2)],
        ids=["out_of_range_and_repeated", "past_the_end", "unsorted", "repeated",
             "negative", "not_an_int"],
    )
    def test_append_refuses_verdicts_that_do_not_fit_the_block(self, rejected, n_txs):
        txs = tuple(make_tx(i) for i in range(n_txs))
        bad = Block.build(0, GENESIS_PREVIOUS_HASH, txs, 1.0, rejected=rejected)
        findings = audit.check_block(bad, 0, GENESIS_PREVIOUS_HASH)
        assert [f.check for f in findings] == ["consensus_verdicts"]
        assert RULE_OF["consensus_verdicts"] == "SAN303"
        store = BlockStore()
        with pytest.raises(LedgerError, match="block 0: header rejects positions"):
            store.append(bad)
        assert store.height == 0
        store._blocks.append(bad)  # past append: the chain walk finds it too
        with pytest.raises(LedgerError, match="block 0"):
            store.verify_chain()

    @pytest.mark.parametrize(
        "rejected, codes, clean",
        [
            ((1,), ("VALID", "REJECTED_BY_CONSENSUS"), True),
            ((), ("VALID", "MVCC_READ_CONFLICT"), True),
            ((1,), ("VALID", "VALID"), False),
            ((), ("REJECTED_BY_CONSENSUS", "VALID"), False),
            ((0,), ("VALID", "REJECTED_BY_CONSENSUS"), False),
        ],
        ids=["flagged", "none_refused", "refused_but_valid", "flagged_unrefused", "moved"],
    )
    def test_codes_flag_exactly_the_refused_positions(self, rejected, codes, clean):
        txs = (make_tx(0), make_tx(1))
        block = Block.build(0, GENESIS_PREVIOUS_HASH, txs, 1.0, rejected=rejected)
        annotated = block.with_validation([ValidationCode(code) for code in codes])
        findings = audit.check_block(annotated, 0, GENESIS_PREVIOUS_HASH)
        assert findings == [] if clean else {f.check for f in findings} == {"consensus_verdicts"}
        if not clean:
            assert {f.tx_id for f in findings} <= {"tx-0", "tx-1"}
            with pytest.raises(LedgerError, match="block 0: tx"):
                BlockStore().append(annotated)

    def test_valid_txs_treats_missing_codes_as_all_valid(self):
        block = make_block(0, GENESIS_PREVIOUS_HASH, n_txs=3)
        assert audit.valid_txs(block) == block.transactions
        annotated = block.with_validation(
            [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT, ValidationCode.VALID]
        )
        assert audit.valid_txs(annotated) == (block.transactions[0], block.transactions[2])


# One op: (key, value or None for a delete, does the tx commit VALID).
_ops = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.one_of(st.none(), st.binary(min_size=1, max_size=4)),
        st.booleans(),
    ),
    max_size=24,
)


class TestReplay:
    @settings(max_examples=60, deadline=None)
    @given(_ops, st.integers(min_value=1, max_value=4))
    def test_replay_equals_a_world_fed_the_same_writes(self, ops, per_block):
        """Puts, overwrites, deletes and re-puts in any order: the replayed
        dict is the content of a WorldState fed the same valid writes, with
        deleted ⇒ ``None`` ⇒ ``world.get(key) is None``."""
        store, world = BlockStore(), WorldState()
        for number, start in enumerate(range(0, len(ops), per_block)):
            chunk = ops[start:start + per_block]
            txs = tuple(
                dataclasses.replace(
                    make_tx(number * 10 + i),
                    rwset=dataclasses.replace(
                        make_tx().rwset,
                        writes=(WriteEntry(key, value, is_delete=value is None),),
                    ),
                )
                for i, (key, value, _) in enumerate(chunk)
            )
            codes = [
                ValidationCode.VALID if valid else ValidationCode.MVCC_READ_CONFLICT
                for _, _, valid in chunk
            ]
            store.append(
                Block.build(number, store.last_hash(), txs, 1.0).with_validation(codes)
            )
            for i, (key, value, valid) in enumerate(chunk):
                if valid:
                    world.apply_write(key, value, Version(number, i), f"tx-{i}", 0.0)
        replayed = audit.replay_writes(store.blocks())
        assert {k for k, v in replayed.items() if v is not None} == set(world.keys())
        for key, value in replayed.items():
            assert world.get(key) == value
        assert audit.check_state(store, world) == []
