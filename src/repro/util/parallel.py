"""``parallel_map``: an ordered, serial map — one thread of control.

Nothing calls it. ``repro.core.ingest`` still imports the name because the
e2e harness (``benchmarks/e2e/tracing.py``) wraps
``repro.core.ingest.parallel_map`` for an ``ingest.hash_payloads`` span,
which stays empty: batch ingestion hashes payloads only inside IPFS. The
module goes when the harness stops wrapping the name, a benchmark change.
"""


def parallel_map(fn, items):
    """``[fn(item) for item in items]``: input order, first error propagates."""
    return [fn(item) for item in items]
