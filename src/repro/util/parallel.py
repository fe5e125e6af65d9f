"""``parallel_map``: an ordered, serial map — one thread of control.

The name survives the thread pool it once fronted because the e2e harness
(``benchmarks/e2e/tracing.py``) wraps ``repro.core.ingest.parallel_map`` to
attribute the ``ingest.hash_payloads`` span; renaming is a benchmark change.
"""


def parallel_map(fn, items):
    """``[fn(item) for item in items]``: input order, first error propagates."""
    return [fn(item) for item in items]
