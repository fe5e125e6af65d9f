#!/usr/bin/env python
"""Byzantine validators: the 2/3 consensus rule under attack.

The paper claims "the BFT mechanism allows the network to tolerate up to
one-third of malicious validators" and that misbehaving validators "are
flagged and removed from the validator pool". This example drives a
7-validator network (f=2) through escalating attacks and shows:

1. honest operation — unanimous validation,
2. one corrupt validator endorsing garbage — outvoted, then flagged and
   removed by the accountability pool,
3. two corrupt validators (= f) — still safe,
4. three corrupt validators (> f) — acceptance integrity breaks, exactly
   at the bound the paper states.

Run:  python examples/byzantine_validators.py
"""

from repro.consensus import Behaviour, BftCluster
from repro.net import ConstantLatency, SimNetwork
from repro.trust import ValidatorPool

N = 7  # f = 2


def run_cluster(behaviours, n_requests=6, validator=None):
    cluster = BftCluster(
        n_replicas=N,
        network=SimNetwork(latency=ConstantLatency(base=0.001)),
        validator=validator or (lambda name, req: req.payload["valid"]),
        view_timeout=0.5,
    )
    for name, behaviour in behaviours.items():
        cluster.corrupt(name, behaviour)
    requests = []
    for i in range(n_requests):
        # Even-numbered submissions are genuine, odd ones are garbage.
        requests.append(cluster.submit({"n": i, "valid": i % 2 == 0}))
    cluster.run(until=30.0)
    return cluster, requests


def describe(cluster, requests):
    log = {d.request.request_id: d for d in cluster.decided_log()}
    ok_accepted = sum(
        1 for r in requests if r.payload["valid"] and log.get(r.request_id) and log[r.request_id].accepted
    )
    bad_rejected = sum(
        1 for r in requests if not r.payload["valid"] and log.get(r.request_id) and not log[r.request_id].accepted
    )
    n_valid = sum(1 for r in requests if r.payload["valid"])
    n_invalid = len(requests) - n_valid
    print(f"    genuine data accepted : {ok_accepted}/{n_valid}")
    print(f"    garbage data rejected : {bad_rejected}/{n_invalid}")
    return log


def main() -> None:
    print(f"== Scenario 1: {N} honest validators ==")
    cluster, requests = run_cluster({})
    describe(cluster, requests)

    print(f"\n== Scenario 2: 1 corrupt validator endorses everything ==")
    cluster, requests = run_cluster({"validator-6": Behaviour.ALWAYS_VALID}, n_requests=12)
    log = describe(cluster, requests)

    print("    accountability pool processing the vote record…")
    pool = ValidatorPool(min_votes=3, flags_to_remove=2)
    for name in cluster.replica_names:
        pool.add_validator(name)
    for decision in sorted(log.values(), key=lambda d: d.seq):
        removed = pool.observe_decision(decision.accepted, decision.votes)
        for name in removed:
            print(f"    -> {name} REMOVED from the validator pool")
    print(f"    flagged: {pool.flagged() or 'none'}  removed: {pool.removed() or 'none'}")

    print(f"\n== Scenario 3: f=2 censoring validators (the tolerance bound) ==")
    cluster, requests = run_cluster({
        "validator-5": Behaviour.ALWAYS_INVALID,
        "validator-6": Behaviour.ALWAYS_INVALID,
    })
    describe(cluster, requests)

    print(f"\n== Scenario 4: 3 censoring validators (> f — past the bound) ==")
    cluster, requests = run_cluster({
        "validator-4": Behaviour.ALWAYS_INVALID,
        "validator-5": Behaviour.ALWAYS_INVALID,
        "validator-6": Behaviour.ALWAYS_INVALID,
    })
    describe(cluster, requests)
    print("    with more than a third corrupted, genuine data gets censored —")
    print("    exactly the bound the paper's design assumes.")


if __name__ == "__main__":
    main()
