"""Block-incremental, Merkle-authenticated secondary index (BPI-style).

The paper's retrieval path reads metadata through chaincode; at scale every
selector query degenerates into a linear world-state scan. This package is
the search structure the BPI line of work motivates for hybrid-storage
blockchains: each peer keeps a cumulative index over metadata attributes
(source, camera, vehicle class, violation type, time bucket, trust band),
updated block-by-block at commit time, plus a per-block bloom filter over
the attribute values the block touched.

Every epoch (one per committed block) is committed to by a Merkle root
over the index's postings, so

* the query planner can route equality/range/time-window predicates through
  :meth:`PeerIndex.lookup` instead of a full scan,
* :meth:`~repro.obs.explorer.LedgerExplorer.audit_chain` can verify each
  recorded epoch digest against an independent rebuild, and
* a light client can check :class:`PostingProof` membership proofs attached
  to query answers against a trusted epoch root without replaying the chain
  (:func:`verify_posting_proof` / :func:`verify_answer_records`).
"""

from repro.index.filters import BlockFilter
from repro.index.manager import IndexManager
from repro.index.secondary import (
    TIME_BUCKET_S,
    PeerIndex,
    Posting,
    PostingProof,
    time_bucket,
    verify_answer_records,
    verify_posting_proof,
)

__all__ = [
    "BlockFilter",
    "IndexManager",
    "PeerIndex",
    "Posting",
    "PostingProof",
    "TIME_BUCKET_S",
    "time_bucket",
    "verify_answer_records",
    "verify_posting_proof",
]
