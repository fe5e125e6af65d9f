"""Same seed, same bytes: the two-run differential (tests/differential.py).

Every scenario runs twice in fresh processes, the second under another hash
seed, a shifted wall clock and another HOME / TZ / LANG; every replica must
write the same bytes both times. The planted defects show the oracle fails
where it should, at the first block and field the defect reaches.
"""

import pytest

from tests.differential import CHAOS, FIELDS, differential, first_difference, record


@pytest.mark.parametrize("scenario", [*CHAOS, "smoke"])
def test_every_replica_writes_the_same_bytes_twice(scenario):
    assert differential(scenario, seed=0) is None


@pytest.mark.parametrize("defect, peer, block, field", [
    ("set_order", "peer0.org1", 1, "envelope 0"),   # list(set_of_str) written
    ("random", "peer0.org1", 1, "envelope 0"),      # random.random() returned
    ("uuid", "peer0.org1", 1, "envelope 0"),        # uuid4() returned
    ("wall_clock", "peer0.org1", 0, "header"),      # headers stamped time.time()
])
def test_a_planted_defect_is_reported_where_it_first_lands(defect, peer, block, field):
    diff = differential(defect, seed=0)
    assert diff is not None
    assert (diff.peer, diff.block, diff.field) == (peer, block, field)
    assert diff.a != diff.b


def test_a_run_records_every_stream_it_compares():
    """The oracle is not vacuous: the smoke run (BFT, two peers per org,
    durable) records each peer's commits with every field, the PBFT logs
    and the durable files, and a changed byte anywhere is a difference."""
    run = record("smoke", seed=0)
    peers = {c["peer"] for c in run["commits"]}
    assert peers == {"peer0.org1", "peer1.org1", "peer2.org2", "peer3.org2"}
    assert all(set(FIELDS) <= set(c) and c["envelopes"] for c in run["commits"])
    final = run["final"]
    assert sum("log" in node for node in final.values()) == 4
    assert any(node.get("files") for node in final.values())
    assert first_difference(run, run) is None
    last = run["commits"][-1]
    tampered = {**run, "commits": [*run["commits"][:-1], {**last, "state": "0" * 64}]}
    diff = first_difference(run, tampered)
    assert (diff.peer, diff.block, diff.field) == (last["peer"], last["block"], "state")
    moved = {**run, "final": {**final, "validator-0": {"log": "0" * 64}}}
    diff = first_difference(run, moved)
    assert (diff.peer, diff.block, diff.field) == ("validator-0", "final", "log")
