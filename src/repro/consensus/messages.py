"""Wire messages for the PBFT consensus protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


# ---------------------------------------------------------------------------
# PBFT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientRequest:
    """A payload a client asks the cluster to order and validate.

    ``n_items > 1`` marks a *batched* request: one consensus instance that
    orders several transactions at once. Replicas then vote per item (see
    :class:`Prepare`/:class:`Commit`), so agreement cost amortizes across
    the batch while per-transaction validity is still decided individually.
    """

    request_id: str
    payload: Any
    n_items: int = 1


@dataclass(frozen=True)
class PrePrepare:
    view: int
    seq: int
    digest: str
    request: ClientRequest


@dataclass(frozen=True)
class Prepare:
    view: int
    seq: int
    digest: str
    replica: str
    # The replica's independent validation verdict for the request; the
    # cluster decides transaction validity by a 2/3 quorum of these votes
    # (paper §III-A: "Validators then vote on the transaction's validity").
    # For batched requests ``valid`` is the aggregate (all items valid) and
    # ``item_votes`` carries the per-item verdicts, one per batch item.
    valid: bool
    item_votes: tuple[bool, ...] = ()

    def item_vote(self, i: int) -> bool:
        return self.item_votes[i] if self.item_votes else self.valid


@dataclass(frozen=True)
class Commit:
    view: int
    seq: int
    digest: str
    replica: str
    valid: bool
    item_votes: tuple[bool, ...] = ()

    def item_vote(self, i: int) -> bool:
        return self.item_votes[i] if self.item_votes else self.valid


@dataclass(frozen=True)
class Checkpoint:
    """Periodic proof of progress: replicas agreeing on the log prefix up
    to ``seq`` may garbage-collect that prefix's protocol state."""

    seq: int
    digest: str
    replica: str


@dataclass(frozen=True)
class ViewChange:
    new_view: int
    replica: str
    # Requests the replica saw pre-prepared but not yet committed; the new
    # primary re-proposes them so nothing accepted is lost.
    pending: tuple[ClientRequest, ...] = field(default_factory=tuple)
    # Highest sequence number this replica has *prepared* (sent a COMMIT
    # for). Any decided seq has 2f+1 commits, so at least f+1 honest
    # replicas prepared it — every view-change quorum therefore contains a
    # replica reporting max_seq at or above every decided slot, and the new
    # primary proposes strictly past it (the seq part of PBFT's new-view
    # computation, without shipping full prepared certificates).
    max_seq: int = -1


@dataclass(frozen=True)
class NewView:
    new_view: int
    primary: str
