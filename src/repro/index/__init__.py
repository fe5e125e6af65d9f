"""Block-incremental, Merkle-authenticated secondary index (BPI-style).

The paper's retrieval path reads metadata through chaincode; at scale every
selector query degenerates into a linear world-state scan. This package is
the search structure the BPI line of work motivates for hybrid-storage
blockchains: each peer keeps a cumulative index over metadata attributes
(source, camera, vehicle class, violation type, time bucket, trust band),
updated block-by-block at commit time. The index is derived state: a
function of committed world state, never persisted, and rebuilt from the
state a peer adopts on every recovery path (:meth:`PeerIndex.from_world`).

Every epoch (one per committed block) is committed to by a Merkle root
over the index's postings, so

* the query planner can route equality/range/time-window predicates through
  :meth:`PeerIndex.lookup` instead of a full scan,
* :meth:`~repro.obs.explorer.LedgerExplorer.audit_chain` and SAN308 audit
  the index as data against a rebuild (:func:`check_index`), and the
  explorer verifies each recorded epoch by replay (:func:`check_epochs`),
* a light client can check :class:`PostingProof` membership proofs attached
  to query answers against a trusted epoch root without replaying the chain
  (:func:`verify_posting_proof` / :func:`verify_answer_records`).
"""

from repro.index.manager import IndexManager
from repro.index.secondary import (
    TIME_BUCKET_S,
    PeerIndex,
    Posting,
    PostingProof,
    check_epochs,
    check_index,
    time_bucket,
    verify_answer_records,
    verify_posting_proof,
)

__all__ = [
    "IndexManager",
    "PeerIndex",
    "Posting",
    "PostingProof",
    "TIME_BUCKET_S",
    "check_epochs",
    "check_index",
    "time_bucket",
    "verify_answer_records",
    "verify_posting_proof",
]
