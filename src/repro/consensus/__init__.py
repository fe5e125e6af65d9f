"""Consensus substrate: PBFT-style BFT, the paper's validator protocol."""

from repro.consensus.bft import Behaviour, BftCluster, BftReplica, Decision
from repro.consensus.messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    NewView,
    Phase,
    Prepare,
    PrePrepare,
    ViewChange,
)

__all__ = [
    "Behaviour",
    "BftCluster",
    "BftReplica",
    "Decision",
    "Checkpoint",
    "ClientRequest",
    "Commit",
    "NewView",
    "Phase",
    "Prepare",
    "PrePrepare",
    "ViewChange",
]
